// fcp::trace — an always-on flight recorder for causal, per-occurrence
// latency forensics (DESIGN.md §2.5).
//
// Aggregate metrics (telemetry/metric.h) answer "what is p99"; the flight
// recorder answers "why did THIS segment take 40 ms": every thread records
// begin/end/instant/flow events into its own fixed-size ring buffer, old
// events are overwritten (drop-oldest policy), and a snapshot serializes to
// Chrome trace-event JSON that opens directly in Perfetto/chrome://tracing.
//
// Hot-path contract, preserving the §2.1 zero-allocation invariant:
//
//   - Recording disabled (default): one relaxed atomic load + branch.
//   - Recording enabled, steady state: a handful of plain stores into the
//     calling thread's ring slot plus one release store of the head index —
//     no locks, no allocation, no cross-thread contention.
//   - The only allocation is the thread's ring (and record, if it has none
//     yet), attached on its FIRST recorded event after Start — never again
//     on that thread during the recording.
//
// Event names MUST be string literals (or other static-storage strings): the
// recorder stores the pointer, not a copy. Flow ids stitch one logical
// operation across threads (a segment's journey ingest -> shards); the
// serializer emits them as Chrome flow events so Perfetto draws arrows
// across track boundaries. Tracks are named by telemetry::ThreadScope.
//
// Snapshot/serialize read ring slots written without atomics, so they are
// exact only at quiescence (writers stopped or joined); the crash writer
// (obs/crash_dump.h) knowingly reads racy tails — a torn final event beats
// an empty black box.

#ifndef FCP_TELEMETRY_TRACE_H_
#define FCP_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fcp::trace {

/// Chrome trace-event phases (the serializer emits the enum value as the
/// event's "ph" letter verbatim).
enum class Phase : uint8_t {
  kBegin = 'B',      ///< duration span open
  kEnd = 'E',        ///< duration span close
  kInstant = 'i',    ///< point event
  kFlowBegin = 's',  ///< flow start (arrow tail)
  kFlowStep = 't',   ///< flow step (arrow through)
  kFlowEnd = 'f',    ///< flow end (arrow head)
};

/// One recorded event: 32 bytes, POD, lives in the per-thread ring.
struct TraceEvent {
  int64_t ts_ns = 0;           ///< steady-clock nanoseconds
  const char* name = nullptr;  ///< static-storage string, never owned
  uint64_t flow = 0;           ///< flow id (0 = not part of a flow)
  uint32_t arg = 0;            ///< free-form payload (length, shard, ...)
  Phase phase = Phase::kInstant;
};

/// Largest per-thread ring Start accepts, in KiB (1 GiB).
inline constexpr size_t kMaxRingKb = size_t{1} << 20;

/// Starts recording with `ring_kb` KiB of ring per thread (rounded to a
/// power-of-two slot count, minimum 64 slots; at most kMaxRingKb, checked).
/// Must be called at quiescence (no concurrently emitting threads);
/// discards any previous recording.
void Start(size_t ring_kb = 256);

/// Stops recording (events already in the rings are kept for Snapshot).
void Stop();

/// Stops recording and drops every ring. Quiescence required. Tests.
void Reset();

inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{false};
  return enabled;
}

/// True while recording. The Span/Emit fast path: one relaxed load.
inline bool IsEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

/// Records one event on the calling thread's ring. No-op when disabled.
/// `name` must have static storage duration.
void Emit(Phase phase, const char* name, uint64_t flow = 0, uint32_t arg = 0);

/// Allocates a process-unique flow id (never 0).
uint64_t NextFlowId();

/// One thread's recorded tail, oldest event first.
struct ThreadTrace {
  uint64_t tid = 0;        ///< serializer track id (first-event order)
  std::string name;        ///< ThreadScope name, may be empty
  uint64_t dropped = 0;    ///< events overwritten by ring wrap
  std::vector<TraceEvent> events;
};

/// Copies the tail of every ring of the current recording, by track id.
/// Exact at quiescence; while writers run, the most recent slots of their
/// rings may be torn (crash path only).
std::vector<ThreadTrace> Snapshot();

// --- Chrome trace-event serialization (trace_sink.cc). ---------------------

/// Serializes a snapshot as Chrome trace-event JSON (the object form:
/// {"traceEvents": [...]}), timestamps in microseconds as Perfetto expects.
std::string SerializeChromeTrace(const std::vector<ThreadTrace>& threads);

/// Snapshot() + SerializeChromeTrace + write to `path`. False on I/O error.
bool WriteChromeTrace(const std::string& path);

/// One event parsed back out of Chrome trace JSON (fcptrace, tests).
struct ParsedTraceEvent {
  std::string name;
  std::string cat;
  char ph = '?';
  double ts_us = 0;
  double dur_us = 0;   ///< "X" complete events only
  uint64_t pid = 0;
  uint64_t tid = 0;
  std::string id;      ///< flow id, empty when absent
  std::string arg_name;  ///< metadata events: args.name
  uint64_t arg = 0;      ///< args.arg (a mine span's segment length)
  uint64_t flow = 0;     ///< args.flow (a mine span's segment id)
};

/// Strict parse of Chrome trace-event JSON (object form). Returns nullopt
/// and sets `error` when the document is not well-formed JSON or events are
/// missing required fields (ph/ts/pid/tid, name on non-E phases).
std::optional<std::vector<ParsedTraceEvent>> ParseChromeTraceJson(
    const std::string& json, std::string* error);

/// True iff `json` parses as valid Chrome trace-event JSON.
bool ValidateChromeTraceJson(const std::string& json, std::string* error);

// --- RAII span. ------------------------------------------------------------

/// Opens a Begin/End span over its scope. When recording is off at
/// construction the destructor does nothing (name_ stays null), so a span
/// that straddles Stop() emits a dangling Begin at worst — the serializer
/// closes unbalanced spans at the snapshot's end.
class Span {
 public:
  explicit Span(const char* name, uint64_t flow = 0, uint32_t arg = 0) {
    if (IsEnabled()) {
      name_ = name;
      Emit(Phase::kBegin, name, flow, arg);
    }
  }
  ~Span() {
    if (name_ != nullptr) Emit(Phase::kEnd, name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
};

}  // namespace fcp::trace

#endif  // FCP_TELEMETRY_TRACE_H_
