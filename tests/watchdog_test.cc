#include "obs/watchdog.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "telemetry/registry.h"

namespace fcp::obs {
namespace {

constexpr int64_t kMs = 1'000'000;  // ns per ms

// All tests drive EvaluateOnce with a synthetic clock (poll_interval_ms = 0
// keeps Start() a no-op), so every predicate decision is deterministic.
WatchdogOptions TestOptions(telemetry::MetricRegistry* metrics = nullptr) {
  WatchdogOptions options;
  options.poll_interval_ms = 0;
  options.stall_timeout_ms = 100;
  options.metrics = metrics;
  return options;
}

TEST(WatchdogTest, StartsInStartingAndHoldsUntilReady) {
  Watchdog watchdog(TestOptions());
  StageHeartbeat* heartbeat = watchdog.RegisterStage("stage");
  EXPECT_EQ(watchdog.state(), HealthState::kStarting);
  EXPECT_FALSE(watchdog.ready());

  // Clean evaluations without SetReady stay in kStarting, not ready.
  heartbeat->Beat();
  watchdog.EvaluateOnce(0);
  watchdog.EvaluateOnce(10 * kMs);
  EXPECT_EQ(watchdog.state(), HealthState::kStarting);
  EXPECT_FALSE(watchdog.ready());

  // SetReady + the next clean evaluation flips to healthy and ready.
  watchdog.SetReady();
  watchdog.EvaluateOnce(20 * kMs);
  EXPECT_EQ(watchdog.state(), HealthState::kHealthy);
  EXPECT_TRUE(watchdog.ready());
}

TEST(WatchdogTest, IdleStageWithEmptyQueueStaysHealthyForever) {
  Watchdog watchdog(TestOptions());
  StageHeartbeat* heartbeat = watchdog.RegisterStage(
      "stage", [] { return size_t{0}; }, /*capacity=*/8);
  heartbeat->MarkIdle(true);
  watchdog.SetReady();
  watchdog.EvaluateOnce(0);
  // Hours of silence while idle with no queued input is not a stall.
  watchdog.EvaluateOnce(3'600'000 * kMs);
  EXPECT_EQ(watchdog.state(), HealthState::kHealthy);
  EXPECT_TRUE(watchdog.ready());
}

TEST(WatchdogTest, WedgedConsumerStallsAndRecovers) {
  telemetry::MetricRegistry metrics;
  Watchdog watchdog(TestOptions(&metrics));
  size_t depth = 5;
  StageHeartbeat* heartbeat = watchdog.RegisterStage(
      "shard-0", [&depth] { return depth; }, /*capacity=*/8);
  // The wedged-consumer shape: the consumer parked itself idle while work
  // rots in its queue. Idle must NOT excuse it.
  heartbeat->MarkIdle(true);
  watchdog.SetReady();
  watchdog.EvaluateOnce(0);
  EXPECT_EQ(watchdog.state(), HealthState::kHealthy);

  watchdog.EvaluateOnce(100 * kMs);  // silent for exactly stall_timeout
  EXPECT_EQ(watchdog.state(), HealthState::kStalled);
  EXPECT_FALSE(watchdog.ready());
  EXPECT_EQ(metrics.GetGauge("fcp_health_state")->Value(), 3);
  EXPECT_EQ(
      metrics.GetCounter("fcp_stage_stalls_total{stage=\"shard-0\"}")->Value(),
      1u);
  EXPECT_EQ(
      metrics.GetCounter("fcp_health_transitions_total{to=\"stalled\"}")
          ->Value(),
      1u);

  // Progress resumes: the next evaluation flips straight back to healthy.
  heartbeat->Beat(5);
  depth = 0;
  watchdog.EvaluateOnce(150 * kMs);
  EXPECT_EQ(watchdog.state(), HealthState::kHealthy);
  EXPECT_TRUE(watchdog.ready());
  EXPECT_EQ(metrics.GetGauge("fcp_health_state")->Value(), 1);
  // The stall counter records entry edges, not evaluations.
  EXPECT_EQ(
      metrics.GetCounter("fcp_stage_stalls_total{stage=\"shard-0\"}")->Value(),
      1u);
}

TEST(WatchdogTest, QueueDrainWithoutProgressAlsoRecovers) {
  Watchdog watchdog(TestOptions());
  size_t depth = 3;
  watchdog.RegisterStage("stage", [&depth] { return depth; }, 8);
  watchdog.SetReady();
  watchdog.EvaluateOnce(0);
  watchdog.EvaluateOnce(200 * kMs);
  EXPECT_EQ(watchdog.state(), HealthState::kStalled);
  // The queue emptied without this stage's own counter moving: idle +
  // empty is healthy all the same.
  depth = 0;
  watchdog.EvaluateOnce(300 * kMs);
  EXPECT_EQ(watchdog.state(), HealthState::kHealthy);
}

TEST(WatchdogTest, SilentBusyThreadStallsWithoutQueue) {
  Watchdog watchdog(TestOptions());
  // No depth probe at all: only the busy-and-silent predicate applies.
  StageHeartbeat* heartbeat = watchdog.RegisterStage("ingest");
  heartbeat->MarkIdle(false);
  watchdog.SetReady();
  watchdog.EvaluateOnce(0);
  EXPECT_EQ(watchdog.state(), HealthState::kHealthy);
  watchdog.EvaluateOnce(99 * kMs);  // one ms short of the timeout
  EXPECT_EQ(watchdog.state(), HealthState::kHealthy);
  watchdog.EvaluateOnce(100 * kMs);
  EXPECT_EQ(watchdog.state(), HealthState::kStalled);
  heartbeat->Beat();
  watchdog.EvaluateOnce(120 * kMs);
  EXPECT_EQ(watchdog.state(), HealthState::kHealthy);
}

TEST(WatchdogTest, PersistentBacklogDegradesWhileProgressing) {
  Watchdog watchdog(TestOptions());
  size_t depth = 8;
  StageHeartbeat* heartbeat =
      watchdog.RegisterStage("stage", [&depth] { return depth; }, 8);
  heartbeat->MarkIdle(false);
  watchdog.SetReady();
  watchdog.EvaluateOnce(0);
  // Full queue but the consumer keeps beating (every evaluation, well inside
  // the 100 ms stall timeout): degraded, never stalled.
  int64_t now = 0;
  for (; now < kBacklogTimeoutMs * kMs; now += 50 * kMs) {
    heartbeat->Beat();
    watchdog.EvaluateOnce(now);
    EXPECT_EQ(watchdog.state(), HealthState::kHealthy) << now / kMs << " ms";
  }
  heartbeat->Beat();
  watchdog.EvaluateOnce(now);  // continuously full for kBacklogTimeoutMs
  EXPECT_EQ(watchdog.state(), HealthState::kDegraded);
  EXPECT_TRUE(watchdog.ready());  // degraded still serves
  heartbeat->Beat();
  depth = 2;
  watchdog.EvaluateOnce(now + 50 * kMs);
  EXPECT_EQ(watchdog.state(), HealthState::kHealthy);
}

TEST(WatchdogTest, StatusJsonCarriesStageRows) {
  Watchdog watchdog(TestOptions());
  StageHeartbeat* heartbeat =
      watchdog.RegisterStage("merge", [] { return size_t{3}; }, 16);
  heartbeat->Beat(7);
  watchdog.SetReady();
  watchdog.EvaluateOnce(0);
  const std::string json = watchdog.StatusJson();
  EXPECT_NE(json.find("\"state\":\"healthy\""), std::string::npos);
  EXPECT_NE(json.find("\"ready\":true"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"merge\""), std::string::npos);
  EXPECT_NE(json.find("\"progress\":7"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":3"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":16"), std::string::npos);

  const std::vector<StageStatus> stages = watchdog.Stages();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].name, "merge");
  EXPECT_EQ(stages[0].progress, 7u);
  EXPECT_FALSE(stages[0].stalled);
}

TEST(WatchdogTest, StallDuringStartupSurfaces) {
  Watchdog watchdog(TestOptions());
  size_t depth = 4;
  watchdog.RegisterStage("stage", [&depth] { return depth; }, 8);
  // No SetReady: a wedge during startup must still flip the state machine
  // (orchestrators distinguish "slow start" from "dead on arrival").
  watchdog.EvaluateOnce(0);
  watchdog.EvaluateOnce(200 * kMs);
  EXPECT_EQ(watchdog.state(), HealthState::kStalled);
  EXPECT_FALSE(watchdog.ready());
}

TEST(WatchdogTest, BackgroundThreadEvaluatesRealClock) {
  WatchdogOptions options;
  options.poll_interval_ms = 5;
  options.stall_timeout_ms = 10'000;
  Watchdog watchdog(options);
  StageHeartbeat* heartbeat = watchdog.RegisterStage("stage");
  heartbeat->Beat();
  watchdog.SetReady();
  watchdog.Start();
  // Wait for at least one real evaluation, then stop (idempotent).
  while (watchdog.evaluations() == 0) {
  }
  watchdog.Stop();
  watchdog.Stop();
  EXPECT_GE(watchdog.evaluations(), 1u);
  EXPECT_EQ(watchdog.state(), HealthState::kHealthy);
}

}  // namespace
}  // namespace fcp::obs
