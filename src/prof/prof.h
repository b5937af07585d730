// fcp::prof — an in-process continuous profiler (DESIGN.md §2.9): a
// signal-based sampling CPU profiler plus an off-CPU wait profiler, feeding
// the /pprof endpoints of the observability plane.
//
// CPU sampling: every thread inside a telemetry::ThreadScope gets a POSIX
// per-thread CPU-clock timer (timer_create + SIGEV_THREAD_ID) that delivers
// SIGPROF at the configured frequency *of that thread's CPU time* — a
// thread blocked on a condition variable burns no CPU and receives no
// signals, so the sample distribution is an on-CPU profile by construction.
// The signal handler walks the interrupted frame-pointer chain (the build
// always keeps frame pointers) into a lock-free per-thread sample ring with
// a drop-oldest policy; it allocates nothing, takes no locks and calls no
// library function that could.
//
// Off-CPU: the pipeline's block points (BoundedQueue pop-empty and
// push-full waits) report their wall-clock wait time through RecordWaitNs
// into per-thread tag tables; the collector renders them as `wait;<tag>` pseudo
// stacks scaled to CPU-sample units so one folded profile shows where
// cycles AND wall-time go.
//
// Hot-path contract (mirrors trace.h):
//   - Profiler not armed: instrumented wait points cost one relaxed load.
//   - Armed: the SIGPROF handler is a bounded frame walk + plain stores and
//     one release store; wait points add two clock_gettime calls around a
//     wait that was going to block anyway.
//
// Aggregation/symbolization (the collector side) is ordinary code: it runs
// on whatever thread calls CollectNow()/CaptureFoldedProfile (the obs poll
// thread, the --profile shutdown path, tests) and may allocate freely.

#ifndef FCP_SRC_PROF_PROF_H_
#define FCP_SRC_PROF_PROF_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/stopwatch.h"

namespace fcp {
namespace telemetry {
class MetricRegistry;
}  // namespace telemetry
}  // namespace fcp

namespace fcp::prof {

/// Aggregate counters (drained + in-flight samples are both counted once).
struct ProfStats {
  uint64_t samples = 0;        ///< samples collected into the trie
  uint64_t drops = 0;          ///< ring-wrap overwrites
  uint64_t threads = 0;        ///< live threads inside a ThreadScope
  uint64_t symbols_cached = 0; ///< resolved PC -> name cache entries
};

/// One relaxed load: true while the CPU profiler is armed. Wait-point
/// instrumentation gates its clock reads on this.
inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{false};
  return enabled;
}
inline bool IsEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

/// Arms CPU sampling at `hz` for every thread inside a
/// telemetry::ThreadScope (and every scope opened while armed); threads
/// outside one are invisible to the profiler. Publishes profiler gauges
/// into `metrics` when non-null (fcp_prof_samples_total, fcp_prof_drops_total,
/// fcp_prof_threads, fcp_prof_symbol_cache_size). Returns false if already
/// armed or `hz` is out of [1, 1000].
bool StartCpuProfiler(int hz, telemetry::MetricRegistry* metrics = nullptr);

/// Disarms every per-thread timer. Samples already in the rings stay
/// available to CollectNow(). No-op when not armed.
void StopCpuProfiler();

/// True between StartCpuProfiler and StopCpuProfiler.
bool IsSampling();

/// The armed frequency (0 when not sampling).
int SamplingHz();

/// Drains every thread's sample ring into the cumulative stack trie and
/// folds the wait tables in. Called by CaptureFoldedProfile and the
/// --profile shutdown path; tests call it directly. Safe while sampling.
void CollectNow();

/// Cumulative folded profile since the last Reset: one line per distinct
/// stack, root-first, semicolon-separated, "frames... count\n", with
/// off-CPU wall-time rendered as `wait;<tag>` pseudo stacks scaled to
/// sample units (ns * hz / 1e9, so CPU and wait lines share a unit).
/// Implies CollectNow().
std::string FoldedProfile();

/// Arms (if needed), sleeps `seconds`, and returns the folded profile of
/// exactly that window (delta against the pre-sleep trie). When the
/// profiler was already armed it stays armed; otherwise it is started at
/// `hz` for the window and stopped after. Blocking — the obs endpoint that
/// calls this documents the poll-thread stall. Empty string on failure.
std::string CaptureFoldedProfile(int seconds, int hz = 100);

/// Records `ns` of off-CPU wall time against `tag` for the calling thread.
/// `tag` must have static storage duration (the pointer is the key). No-op
/// outside a telemetry::ThreadScope. Callers gate on IsEnabled().
void RecordWaitNs(const char* tag, int64_t ns);

ProfStats Stats();

/// Drops the cumulative trie, wait totals and drop counters (not the
/// thread records). Tests.
void ResetProfile();

// --- Heap profiling (layered on util/alloc_counter.h's hook slot). ---------

/// Arms allocation-site sampling: roughly every `sample_bytes` of
/// cumulative allocation, the allocating thread's stack is captured (plain
/// frame walk, not a signal) and credited with the bytes since its last
/// sample. Requires the binary to have included util/alloc_counter.h (which
/// defines the counting operator new) — without it the hook never fires and
/// the heap profile is empty. No-op when already enabled.
void EnableHeapProfiler(size_t sample_bytes = 64 * 1024);
void DisableHeapProfiler();
bool HeapProfilerEnabled();

/// Folded allocation-site profile: "frames... bytes\n", root-first,
/// sampled bytes (scaled by nothing — the credit scheme makes the expected
/// value equal the true allocated bytes).
std::string HeapProfile();

/// JSON value describing the profiler's state and the last few samples of
/// every profiled thread's ring: the "profiler" member of the fatal-signal
/// .crash.json (obs/crash_dump.h). Reads rings racily; a torn tail beats
/// none.
std::string CrashJson();

/// Times one blocking wait and attributes it to `tag` (static storage).
/// Construct ONLY on a path that is about to block — the constructor reads
/// the clock when the profiler is armed. One relaxed load when it is not.
class WaitTimer {
 public:
  explicit WaitTimer(const char* tag) {
    if (IsEnabled() && tag != nullptr) {
      tag_ = tag;
      start_ns_ = MonotonicNowNs();
    }
  }
  ~WaitTimer() {
    if (tag_ != nullptr) RecordWaitNs(tag_, MonotonicNowNs() - start_ns_);
  }
  WaitTimer(const WaitTimer&) = delete;
  WaitTimer& operator=(const WaitTimer&) = delete;

 private:
  const char* tag_ = nullptr;
  int64_t start_ns_ = 0;
};

}  // namespace fcp::prof

#endif  // FCP_SRC_PROF_PROF_H_
