#include "obs/watchdog.h"

#include <chrono>
#include <cstdio>

#include "telemetry/registry.h"
#include "telemetry/thread_registry.h"
#include "telemetry/trace.h"
#include "util/stopwatch.h"

namespace fcp::obs {

std::string_view HealthStateName(HealthState s) {
  switch (s) {
    case HealthState::kStarting: return "starting";
    case HealthState::kHealthy:  return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kStalled:  return "stalled";
  }
  return "unknown";
}

Watchdog::Watchdog(WatchdogOptions options) : options_(options) {
  if (options_.metrics != nullptr) {
    state_gauge_ = options_.metrics->GetGauge("fcp_health_state");
    state_gauge_->Set(static_cast<int64_t>(HealthState::kStarting));
    transitions_healthy_ = options_.metrics->GetCounter(
        "fcp_health_transitions_total{to=\"healthy\"}");
    transitions_degraded_ = options_.metrics->GetCounter(
        "fcp_health_transitions_total{to=\"degraded\"}");
    transitions_stalled_ = options_.metrics->GetCounter(
        "fcp_health_transitions_total{to=\"stalled\"}");
  }
}

Watchdog::~Watchdog() { Stop(); }

StageHeartbeat* Watchdog::RegisterStage(std::string name,
                                        std::function<size_t()> depth,
                                        size_t capacity) {
  auto stage = std::make_unique<Stage>();
  stage->name = std::move(name);
  stage->depth_probe = std::move(depth);
  stage->capacity = capacity;
  if (options_.metrics != nullptr) {
    stage->stall_counter = options_.metrics->GetCounter(
        "fcp_stage_stalls_total{" +
        telemetry::FormatLabel("stage", stage->name) + "}");
  }
  int64_t now = MonotonicNowNs();
  stage->last_progress_ns = now;
  stage->last_below_capacity_ns = now;
  stage->status.name = stage->name;
  std::lock_guard<std::mutex> lock(mu_);
  stages_.push_back(std::move(stage));
  return &stages_.back()->heartbeat;
}

void Watchdog::SetReady() {
  ready_requested_.store(true, std::memory_order_release);
}

void Watchdog::EvaluateOnce(int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t stall_ns = options_.stall_timeout_ms * 1'000'000;
  const int64_t backlog_ns = kBacklogTimeoutMs * 1'000'000;

  bool any_stalled = false;
  bool any_backlogged = false;
  std::string culprit;

  for (auto& sp : stages_) {
    Stage& s = *sp;
    const uint64_t progress = s.heartbeat.progress();
    const bool idle = s.heartbeat.idle();
    size_t depth = 0;
    if (s.depth_probe) depth = s.depth_probe();

    // The first evaluation re-anchors every clock to `now_ns` so tests can
    // drive the predicates with a synthetic time base.
    if (progress != s.last_progress || !first_eval_done_) {
      s.last_progress = progress;
      s.last_progress_ns = now_ns;
    }
    if (s.capacity == 0 || depth < s.capacity || !first_eval_done_) {
      s.last_below_capacity_ns = now_ns;
    }

    const int64_t silent_ns = now_ns - s.last_progress_ns;
    // Wedged consumer: queued input but no progress. Silent thread: claims
    // to be busy but the progress counter has not moved.
    const bool stalled =
        silent_ns >= stall_ns && stall_ns > 0 && (depth > 0 || !idle);
    const bool backlogged = s.capacity > 0 && depth >= s.capacity &&
                            (now_ns - s.last_below_capacity_ns) >= backlog_ns;

    if (stalled && !s.stalled && s.stall_counter != nullptr) {
      s.stall_counter->Increment();
    }
    s.stalled = stalled;

    s.status.progress = progress;
    s.status.idle = idle;
    s.status.stalled = stalled;
    s.status.backlogged = backlogged;
    s.status.depth = depth;
    s.status.capacity = s.capacity;
    s.status.since_progress_ms = silent_ns / 1'000'000;

    if (stalled && culprit.empty()) culprit = s.name;
    any_stalled |= stalled;
    any_backlogged |= backlogged;
  }

  first_eval_done_ = true;
  evaluations_.fetch_add(1, std::memory_order_relaxed);

  HealthState next;
  if (any_stalled) {
    next = HealthState::kStalled;
  } else if (any_backlogged) {
    next = HealthState::kDegraded;
  } else {
    next = HealthState::kHealthy;
  }
  if (!ready_requested_.load(std::memory_order_acquire) &&
      state() == HealthState::kStarting && next != HealthState::kStalled) {
    // Hold in kStarting until the process declares itself ready; a stall
    // during startup still surfaces.
    ready_.store(false, std::memory_order_release);
    return;
  }

  ready_.store(ready_requested_.load(std::memory_order_acquire) &&
                   next != HealthState::kStalled,
               std::memory_order_release);

  if (next != state()) {
    std::string why;
    if (next == HealthState::kStalled) {
      why = "stage '" + culprit + "' stalled";
    } else if (next == HealthState::kDegraded) {
      why = "queue backlog";
    } else {
      why = "all stages progressing";
    }
    TransitionTo(next, why);
  }
}

void Watchdog::TransitionTo(HealthState next, const std::string& why) {
  HealthState prev = state();
  state_.store(static_cast<int>(next), std::memory_order_release);
  if (state_gauge_ != nullptr) state_gauge_->Set(static_cast<int64_t>(next));
  telemetry::Counter* c = nullptr;
  switch (next) {
    case HealthState::kHealthy:  c = transitions_healthy_; break;
    case HealthState::kDegraded: c = transitions_degraded_; break;
    case HealthState::kStalled:  c = transitions_stalled_; break;
    case HealthState::kStarting: break;
  }
  if (c != nullptr) c->Increment();
  trace::Emit(trace::Phase::kInstant, "watchdog/transition", 0,
              static_cast<uint32_t>(next));
  std::fprintf(stderr, "[watchdog] health %.*s -> %.*s (%s)\n",
               static_cast<int>(HealthStateName(prev).size()),
               HealthStateName(prev).data(),
               static_cast<int>(HealthStateName(next).size()),
               HealthStateName(next).data(), why.c_str());
}

void Watchdog::Start() {
  if (started_ || options_.poll_interval_ms <= 0) return;
  started_ = true;
  stop_requested_ = false;
  thread_ = std::thread(&Watchdog::Loop, this);
}

void Watchdog::Loop() {
  telemetry::ThreadScope scope("watchdog");
  trace::Span loop_span("watchdog/loop");
  std::unique_lock<std::mutex> lock(run_mu_);
  while (!stop_requested_) {
    run_cv_.wait_for(lock,
                     std::chrono::milliseconds(options_.poll_interval_ms));
    if (stop_requested_) break;
    lock.unlock();
    {
      trace::Span evaluate_span("watchdog/evaluate");
      EvaluateOnce(MonotonicNowNs());
    }
    lock.lock();
  }
}

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    stop_requested_ = true;
  }
  run_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

std::vector<StageStatus> Watchdog::Stages() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StageStatus> out;
  out.reserve(stages_.size());
  for (const auto& s : stages_) out.push_back(s->status);
  return out;
}

std::string Watchdog::StatusJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"state\":\"";
  out += HealthStateName(state());
  out += "\",\"ready\":";
  out += ready() ? "true" : "false";
  out += ",\"evaluations\":";
  out += std::to_string(evaluations_.load(std::memory_order_relaxed));
  out += ",\"stages\":[";
  bool first = true;
  for (const auto& sp : stages_) {
    const StageStatus& s = sp->status;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + s.name + "\"";
    out += ",\"progress\":" + std::to_string(s.progress);
    out += ",\"idle\":" + std::string(s.idle ? "true" : "false");
    out += ",\"stalled\":" + std::string(s.stalled ? "true" : "false");
    out += ",\"backlogged\":" + std::string(s.backlogged ? "true" : "false");
    out += ",\"depth\":" + std::to_string(s.depth);
    out += ",\"capacity\":" + std::to_string(s.capacity);
    out += ",\"since_progress_ms\":" + std::to_string(s.since_progress_ms);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace fcp::obs
