// Pipeline watchdog: heartbeat collection, stall predicates, and the
// health state machine behind /healthz and /readyz (DESIGN.md §2.8).
//
// Every pipeline stage (the ingest thread, the shard miners, the serial
// ingest loop) registers a StageHeartbeat and then does exactly two
// things on its own thread: Beat() once per unit of real work, and
// MarkIdle() around blocking waits. Both are single relaxed-atomic stores —
// no clock reads, no locks — so instrumentation costs nothing on the mining
// hot path and cannot perturb the 0 allocs/op invariant.
//
// The watchdog thread owns all the clocks. Each evaluation it samples every
// stage's progress counter and input-queue depth probe, tracks when each
// last changed, and applies the stall predicates:
//
//   stalled:  a stage that is not idle has made no progress for
//             `stall_timeout_ms` (silent/wedged thread), OR a stage whose
//             input queue holds work has made no progress for the same
//             window (wedged consumer — catches a consumer that parks
//             itself "idle" while work rots in its queue).
//   degraded: a stage's input queue has been at capacity continuously for
//             kBacklogTimeoutMs while the stage still makes progress
//             (persistent backpressure).
//
// The resulting state machine is
//
//   starting ──SetReady()+first clean evaluation──▶ healthy ⇄ degraded
//                                                      ▲⇅        ⇅
//                                                    stalled ◀───┘
//
// exported as the `fcp_health_state` gauge (0 starting, 1 healthy,
// 2 degraded, 3 stalled). /healthz returns 503 only when stalled;
// /readyz returns 503 while starting or stalled. Every transition is
// logged, counted (`fcp_health_transitions_total{to=...}`) and emitted as
// a trace instant so it lands on the watchdog's Perfetto track.

#ifndef FCP_OBS_WATCHDOG_H_
#define FCP_OBS_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace fcp {

namespace telemetry {
class MetricRegistry;
class Counter;
class Gauge;
}  // namespace telemetry

namespace obs {

/// The per-stage publication surface. Stages hold a raw pointer (owned by
/// the Watchdog, stable for its lifetime) and call these from their own
/// thread; both are relaxed atomics, safe to call at any frequency.
class StageHeartbeat {
 public:
  /// Records `n` units of completed work (events, segments, deliveries).
  void Beat(uint64_t n = 1) {
    progress_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Marks the stage as parked in a blocking wait (true) or actively
  /// working (false). An idle stage with an empty input queue is healthy no
  /// matter how long it stays silent.
  void MarkIdle(bool idle) { idle_.store(idle, std::memory_order_relaxed); }

  uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }
  bool idle() const { return idle_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> progress_{0};
  std::atomic<bool> idle_{true};
};

enum class HealthState : int { kStarting = 0, kHealthy = 1, kDegraded = 2,
                               kStalled = 3 };

std::string_view HealthStateName(HealthState s);

/// An input queue continuously full for this long => degraded.
inline constexpr int64_t kBacklogTimeoutMs = 500;

struct WatchdogOptions {
  /// Evaluation cadence of the watchdog thread.
  int64_t poll_interval_ms = 100;
  /// No progress for this long (while busy, or with queued input) => the
  /// stage is stalled.
  int64_t stall_timeout_ms = 2000;
  /// Where to export fcp_health_state / transition counters (nullable).
  telemetry::MetricRegistry* metrics = nullptr;
};

/// Per-stage status row, as reported in /statusz and /healthz.
struct StageStatus {
  std::string name;
  uint64_t progress = 0;
  bool idle = false;
  bool stalled = false;
  bool backlogged = false;
  size_t depth = 0;
  size_t capacity = 0;
  int64_t since_progress_ms = 0;  ///< ms since the progress counter moved
};

class Watchdog {
 public:
  explicit Watchdog(WatchdogOptions options = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers a pipeline stage. `depth` (nullable) samples the stage's
  /// input-queue depth; `capacity` (0 = unbounded/unknown) arms the backlog
  /// predicate. Must be called before Start(); the returned heartbeat stays
  /// valid for the watchdog's lifetime.
  StageHeartbeat* RegisterStage(std::string name,
                                std::function<size_t()> depth = nullptr,
                                size_t capacity = 0);

  /// Starts the evaluation thread. No-op if poll_interval_ms <= 0 (tests
  /// drive EvaluateOnce directly).
  void Start();

  /// Stops and joins the evaluation thread. Must be called before the
  /// structures behind the depth probes are destroyed. Idempotent.
  void Stop();

  /// Declares startup complete: the next evaluation may leave kStarting.
  /// Readiness (readyz) stays false until then, giving orchestrators a
  /// window where the process is alive but not yet serving.
  void SetReady();

  /// One evaluation pass at steady-clock time `now_ns`. Public so tests can
  /// drive the predicates deterministically with synthetic clocks; the
  /// background thread calls it with the real clock.
  void EvaluateOnce(int64_t now_ns);

  HealthState state() const {
    return static_cast<HealthState>(state_.load(std::memory_order_acquire));
  }

  /// True once SetReady() has been called and the most recent evaluation
  /// found no stalled stage.
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  /// Stage rows from the most recent evaluation (thread-safe snapshot).
  std::vector<StageStatus> Stages() const;

  /// {"state": "...", "ready": ..., "stages": [...]} — the watchdog half of
  /// /statusz and the body of /healthz.
  std::string StatusJson() const;

  uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

 private:
  struct Stage {
    std::string name;
    StageHeartbeat heartbeat;
    std::function<size_t()> depth_probe;
    size_t capacity = 0;
    telemetry::Counter* stall_counter = nullptr;  ///< fcp_stage_stalls_total{stage=...}
    // Evaluation-thread state (touched only under mu_ / by EvaluateOnce).
    uint64_t last_progress = 0;
    int64_t last_progress_ns = 0;
    int64_t last_below_capacity_ns = 0;
    bool stalled = false;
    StageStatus status;
  };

  void Loop();
  void TransitionTo(HealthState next, const std::string& why);

  WatchdogOptions options_;
  std::vector<std::unique_ptr<Stage>> stages_;  ///< stable addresses

  std::atomic<int> state_{static_cast<int>(HealthState::kStarting)};
  std::atomic<bool> ready_{false};
  std::atomic<bool> ready_requested_{false};
  std::atomic<uint64_t> evaluations_{0};

  telemetry::Gauge* state_gauge_ = nullptr;
  telemetry::Counter* transitions_healthy_ = nullptr;
  telemetry::Counter* transitions_degraded_ = nullptr;
  telemetry::Counter* transitions_stalled_ = nullptr;

  mutable std::mutex mu_;  ///< guards per-stage eval state + status rows
  bool first_eval_done_ = false;

  std::mutex run_mu_;
  std::condition_variable run_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
  bool started_ = false;
};

}  // namespace obs
}  // namespace fcp

#endif  // FCP_OBS_WATCHDOG_H_
