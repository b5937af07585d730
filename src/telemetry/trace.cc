#include "telemetry/trace.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "telemetry/thread_registry.h"
#include "util/stopwatch.h"

namespace fcp::trace {
namespace {

constexpr size_t kMinSlots = 64;

// Recording state. The ring size changes only at quiescence (Start, Reset);
// the track counter is guarded by the thread registry's lock.
size_t g_ring_slots = 8192;
uint64_t g_tracks = 0;  ///< track ids handed out since Start

std::atomic<uint64_t> g_next_flow{1};

/// Drops every record's ring; later rings get `ring_slots` slots.
/// Quiescence required.
void DropRings(size_t ring_slots) {
  telemetry::RegistryLock lock;
  for (telemetry::ThreadRecord* rec : lock.threads()) {
    delete rec->trace.exchange(nullptr, std::memory_order_relaxed);
  }
  g_ring_slots = ring_slots;
  g_tracks = 0;
}

/// Attaches a ring for the current recording to the calling thread's record
/// (first event after Start). The one place the recorder allocates, and it
/// does so before taking the registry lock: a failed allocation aborts the
/// process, and the crash handler's Snapshot() takes that same lock.
telemetry::TraceRing* AttachRing() {
  telemetry::ThreadRecord* rec = telemetry::RegisterThisThread();
  if (rec == nullptr) return nullptr;
  auto* ring = new telemetry::TraceRing(g_ring_slots, 0);
  telemetry::RegistryLock lock;
  ring->track = ++g_tracks;
  rec->trace.store(ring, std::memory_order_release);
  return ring;
}

}  // namespace

void Start(size_t ring_kb) {
  FCP_CHECK(ring_kb <= kMaxRingKb);
  const size_t slots = ring_kb * 1024 / sizeof(TraceEvent);
  DropRings(std::bit_ceil(std::max(slots, kMinSlots)));
  EnabledFlag().store(true, std::memory_order_release);
}

void Stop() { EnabledFlag().store(false, std::memory_order_release); }

void Reset() {
  Stop();
  DropRings(g_ring_slots);  // quiescent: no concurrent Start
}

void Emit(Phase phase, const char* name, uint64_t flow, uint32_t arg) {
  if (!IsEnabled()) return;
  telemetry::ThreadRecord* rec = telemetry::ThisThread();
  telemetry::TraceRing* ring =
      rec != nullptr ? rec->trace.load(std::memory_order_relaxed) : nullptr;
  if (ring == nullptr) {
    ring = AttachRing();
    if (ring == nullptr) return;
  }
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  TraceEvent& slot = ring->slots[head & ring->mask];
  slot.ts_ns = MonotonicNowNs();
  slot.name = name;
  slot.flow = flow;
  slot.arg = arg;
  slot.phase = phase;
  ring->head.store(head + 1, std::memory_order_release);
}

uint64_t NextFlowId() {
  return g_next_flow.fetch_add(1, std::memory_order_relaxed);
}

std::vector<ThreadTrace> Snapshot() {
  std::vector<ThreadTrace> out;
  telemetry::RegistryLock lock;
  for (const telemetry::ThreadRecord* rec : lock.threads()) {
    const telemetry::TraceRing* ring =
        rec->trace.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    ThreadTrace thread;
    thread.tid = ring->track;
    thread.name = rec->name;
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const size_t capacity = ring->mask + 1;
    const uint64_t n = head < capacity ? head : capacity;
    thread.dropped = head - n;
    thread.events.reserve(static_cast<size_t>(n));
    for (uint64_t i = head - n; i < head; ++i) {
      thread.events.push_back(ring->slots[i & ring->mask]);
    }
    out.push_back(std::move(thread));
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadTrace& a, const ThreadTrace& b) {
              return a.tid < b.tid;
            });
  return out;
}

}  // namespace fcp::trace
