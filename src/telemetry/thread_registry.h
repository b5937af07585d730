// One record per thread, shared by the flight recorder (trace.h) and the
// sampling profiler (prof/prof.h); DESIGN.md §2.5.

#ifndef FCP_TELEMETRY_THREAD_REGISTRY_H_
#define FCP_TELEMETRY_THREAD_REGISTRY_H_

#include <pthread.h>
#include <sys/types.h>
#include <time.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/trace.h"

namespace fcp::telemetry {

inline constexpr size_t kThreadNameCap = 32;
/// Max frames kept per profiler sample (deeper stacks lose their root end).
inline constexpr int kMaxFrames = 32;
/// Per-thread sample-ring capacity. At 100 Hz a thread fills this in ~20 s,
/// so any collection cadence above 1/10 Hz never drops.
inline constexpr size_t kSampleRingSlots = 2048;
inline constexpr size_t kWaitSlots = 16;

/// One profiler sample. Every field is a relaxed atomic so the signal-context
/// writer and the collector never race in the C++ sense; `seq` is the
/// sample's absolute index, stored with release after the payload so the
/// collector can reject slots overwritten mid-read.
struct SampleSlot {
  std::atomic<uint64_t> seq{~uint64_t{0}};
  std::atomic<uint32_t> depth{0};
  std::atomic<uintptr_t> pcs[kMaxFrames];
};

/// Off-CPU time for one tag: claimed once by CAS on the tag pointer, then
/// bumped with relaxed adds. Tags are static-storage strings, so pointer
/// identity is name identity.
struct WaitSlot {
  std::atomic<const char*> tag{nullptr};
  std::atomic<int64_t> ns{0};
  std::atomic<uint64_t> count{0};
};

/// A thread's flight-recorder ring for one recording (trace::Start to the
/// next Start or Reset). Only the owning thread writes slots and head.
struct TraceRing {
  TraceRing(size_t slot_count, uint64_t track_id)
      : slots(new trace::TraceEvent[slot_count]),
        mask(slot_count - 1),
        track(track_id) {}
  std::unique_ptr<trace::TraceEvent[]> slots;
  size_t mask;
  uint64_t track;  ///< Chrome-trace tid: order of first event since Start
  /// Next write index, release-stored after the slot write.
  std::atomic<uint64_t> head{0};
};

struct ThreadRecord {
  // Identity, fixed at registration except `name` (set by ThreadScope).
  char name[kThreadNameCap] = {};
  pid_t tid = 0;
  pthread_t pthread{};
  uintptr_t stack_lo = 0, stack_hi = 0;  ///< [lo, hi) of the thread's stack

  // Lifecycle, written under the registry lock.
  bool profiled = false;  ///< opened by a ThreadScope: sampled while live
  /// Scope closed: tid and pthread must not be touched again (the thread
  /// may be gone; pthread_getcpuclockid on a joined thread is UB).
  bool retired = false;

  /// The current recording's ring; null until the first event after Start.
  std::atomic<TraceRing*> trace{nullptr};

  // Profiler: the SIGPROF handler writes the ring, the collector drains it.
  std::atomic<SampleSlot*> samples{nullptr};  ///< allocated on first arming
  std::atomic<uint64_t> sample_head{0};       ///< next sample index
  std::atomic<uint64_t> sample_tail{0};       ///< first undrained index
  timer_t timer{};
  bool timer_armed = false;  ///< guarded by the registry lock
  WaitSlot waits[kWaitSlots];
};

namespace detail {
extern constinit thread_local ThreadRecord* tls_record;
}  // namespace detail

/// The calling thread's record, or null. A plain TLS load: signal-safe.
inline ThreadRecord* ThisThread() { return detail::tls_record; }

/// The calling thread's record, registering an unnamed one on first use.
/// Null only when called from inside the registry (an allocation hook).
ThreadRecord* RegisterThisThread();

/// Names the calling thread for both recorders and registers it for CPU
/// sampling. Closing the scope retires the record, which stays registered so
/// both recorders still render what the thread left behind. A scope nested
/// inside another on the same thread does nothing.
class ThreadScope {
 public:
  explicit ThreadScope(const char* name);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  bool owner_ = false;
};

/// Holds the registry mutex, so the record list and every record's
/// identity and lifecycle fields are stable. An allocation hook that needs
/// a record while the lock is held skips instead of deadlocking.
class RegistryLock {
 public:
  RegistryLock();
  ~RegistryLock();
  RegistryLock(const RegistryLock&) = delete;
  RegistryLock& operator=(const RegistryLock&) = delete;

  /// Every record, live and retired, in registration order.
  const std::vector<ThreadRecord*>& threads() const;

 private:
  std::lock_guard<std::mutex> lock_;
};

/// Arms a CPU-time SIGPROF timer at `hz` on every live profiled record and
/// on every scope opened later; 0 disarms them all. The caller installs the
/// SIGPROF handler first.
void SetThreadSamplingHz(int hz);
int ThreadSamplingHz();  ///< 0 when not sampling

}  // namespace fcp::telemetry

#endif  // FCP_TELEMETRY_THREAD_REGISTRY_H_
