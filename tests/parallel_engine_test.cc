#include "core/parallel_engine.h"

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mining_engine.h"
#include "datagen/traffic_gen.h"
#include "test_util.h"

namespace fcp {
namespace {

MiningParams Params() {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(30);
  params.theta = 3;
  params.min_pattern_size = 2;
  params.max_pattern_size = 4;
  return params;
}

TrafficTrace Trace(uint64_t seed = 31) {
  TrafficConfig config;
  config.num_cameras = 20;
  config.num_vehicles = 1000;
  config.total_events = 8000;
  config.num_convoys = 4;
  config.seed = seed;
  return GenerateTraffic(config);
}

using testing::IsGenuineFcp;

TEST(ParallelEngineTest, RecoversPlantedConvoys) {
  const TrafficTrace trace = Trace();
  ParallelEngineOptions options;
  ParallelEngine engine(MinerKind::kCooMine, Params(), options);
  for (const ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();

  const std::set<Pattern> found = testing::PatternsOf(engine.results());
  for (const ConvoyPlan& convoy : trace.convoys) {
    for (size_t i = 0; i < convoy.vehicles.size(); ++i) {
      for (size_t j = i + 1; j < convoy.vehicles.size(); ++j) {
        Pattern pair = {convoy.vehicles[i], convoy.vehicles[j]};
        std::sort(pair.begin(), pair.end());
        EXPECT_TRUE(found.contains(pair))
            << "convoy pair " << testing::ToString(pair) << " missing";
      }
    }
  }
  EXPECT_EQ(engine.events_pushed(), trace.events.size());
  EXPECT_GT(engine.segments_completed(), 0u);
}

TEST(ParallelEngineTest, EveryEmittedPatternIsSound) {
  const MiningParams params = Params();
  const TrafficTrace trace = Trace(32);
  ParallelEngineOptions options;
  ParallelEngine engine(MinerKind::kCooMine, params, options);
  for (const ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();

  const std::set<Pattern> found = testing::PatternsOf(engine.results());
  ASSERT_FALSE(found.empty());
  for (const Pattern& pattern : found) {
    EXPECT_TRUE(IsGenuineFcp(trace.events, pattern, params))
        << testing::ToString(pattern) << " is not a genuine FCP";
  }
}

TEST(ParallelEngineTest, PushBatchMatchesPerEventPush) {
  // Batch and per-event ingestion must produce identical results (the batch
  // path only changes the queue handoff).
  const TrafficTrace trace = Trace(35);
  ParallelEngineOptions options;

  ParallelEngine per_event(MinerKind::kCooMine, Params(), options);
  for (const ObjectEvent& event : trace.events) per_event.Push(event);
  per_event.Finish();

  ParallelEngine batched(MinerKind::kCooMine, Params(), options);
  constexpr size_t kBatch = 97;
  for (size_t i = 0; i < trace.events.size(); i += kBatch) {
    const size_t n = std::min(kBatch, trace.events.size() - i);
    batched.PushBatch(std::span(trace.events.data() + i, n));
  }
  batched.Finish();

  EXPECT_EQ(batched.events_pushed(), per_event.events_pushed());
  EXPECT_EQ(batched.segments_completed(), per_event.segments_completed());
  EXPECT_EQ(testing::FullSignatures(batched.results()),
            testing::FullSignatures(per_event.results()));
}

TEST(ParallelEngineTest, FinishIsIdempotent) {
  ParallelEngine engine(MinerKind::kCooMine, Params());
  engine.Push({0, 1, 100});
  engine.Finish();
  engine.Finish();
  SUCCEED();
}

TEST(ParallelEngineTest, EmptyRun) {
  ParallelEngine engine(MinerKind::kCooMine, Params());
  engine.Finish();
  EXPECT_TRUE(engine.results().empty());
  EXPECT_EQ(engine.segments_completed(), 0u);
}

using testing::FullSignatures;

TEST(ParallelEngineTest, ShardedEngineMatchesSerialByteForByte) {
  // One ingest thread segments in serial completion order, so every shard
  // count, ingestion call and migration schedule must reproduce the serial
  // engine's discoveries exactly (triggers, streams, windows) — on every
  // run, not just on a lucky schedule.
  const MiningParams params = Params();
  const TrafficTrace trace = Trace(36);

  MiningEngine serial(MinerKind::kCooMine, params);
  std::vector<Fcp> serial_all;
  for (const ObjectEvent& event : trace.events) {
    for (Fcp& f : serial.PushEvent(event)) serial_all.push_back(std::move(f));
  }
  for (Fcp& f : serial.Flush()) serial_all.push_back(std::move(f));
  ASSERT_FALSE(serial_all.empty());
  const std::vector<testing::FcpSignature> expected =
      FullSignatures(serial_all);

  constexpr int kRuns = 3;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (bool batched : {false, true}) {
      for (bool adaptive : {false, true}) {
        ParallelEngineOptions options;
        options.num_miner_shards = shards;
        if (adaptive) {
          // Force migrations: a short interval that triggers on any skew.
          options.rebalancer.interval_segments = 32;
          options.rebalancer.imbalance_threshold = 1.0;
          options.rebalancer.min_move_weight = 2;
        }
        for (int run = 0; run < kRuns; ++run) {
          ParallelEngine engine(MinerKind::kCooMine, params, options);
          if (batched) {
            constexpr size_t kBatch = 97;
            for (size_t i = 0; i < trace.events.size(); i += kBatch) {
              const size_t n = std::min(kBatch, trace.events.size() - i);
              engine.PushBatch(std::span(trace.events.data() + i, n));
            }
          } else {
            for (const ObjectEvent& event : trace.events) engine.Push(event);
          }
          engine.Finish();
          EXPECT_EQ(FullSignatures(engine.results()), expected)
              << "shards=" << shards << " batched=" << batched
              << " adaptive=" << adaptive << " run=" << run;
          if (adaptive && shards > 1 && run == 0) {
            // The adaptive leg must really migrate, or it checks nothing
            // beyond the plain leg.
            EXPECT_GT(engine.router_stats().placements_applied, 0u)
                << "shards=" << shards;
          }
        }
      }
    }
  }
}

// One signature per discovery in acceptance order: equal sequences mean the
// same alerts were accepted in the same order.
std::vector<testing::FcpSignature> OrderedSignatures(
    const std::vector<Fcp>& fcps) {
  std::vector<testing::FcpSignature> out;
  out.reserve(fcps.size());
  for (const Fcp& fcp : fcps) {
    out.emplace_back(fcp.trigger, fcp.objects, fcp.streams, fcp.window_start,
                     fcp.window_end);
  }
  return out;
}

uint64_t AcceptedTotal(ParallelEngine& engine) {
  for (const telemetry::MetricSample& sample : engine.SnapshotMetrics()) {
    if (sample.name == "fcp_fcps_accepted_total") return sample.counter_value;
  }
  ADD_FAILURE() << "fcp_fcps_accepted_total not registered";
  return 0;
}

TEST(ParallelEngineTest, AlertsAreReleasedLiveInSerialOrder) {
  // Output is online: after WaitUntilIdle() — before Finish() — the alerts
  // accepted so far are exactly the serial engine's for the same event
  // prefix, in the same order. A suppression window makes the acceptance
  // decisions depend on that order. The feed is per-event Push or PushBatch
  // in 256-event chunks (the pipeline pops both in batches), and the first
  // checkpoint comes after a short prefix: a batched pop must never hold a
  // routed trigger back waiting for more input.
  const MiningParams params = Params();
  const TrafficTrace trace = Trace(36);
  const DurationMs suppression = Minutes(10);
  const size_t n = trace.events.size();
  const std::vector<size_t> checkpoints = {n / 8, n / 3, 2 * n / 3, n};
  constexpr size_t kChunk = 256;

  for (MinerKind kind :
       {MinerKind::kCooMine, MinerKind::kDiMine, MinerKind::kMatrixMine}) {
    EngineOptions serial_options;
    serial_options.suppression_window = suppression;
    MiningEngine serial(kind, params, serial_options);
    std::vector<std::vector<testing::FcpSignature>> expected;
    size_t pushed = 0;
    for (size_t checkpoint : checkpoints) {
      for (; pushed < checkpoint; ++pushed) {
        serial.PushEvent(trace.events[pushed]);
      }
      expected.push_back(OrderedSignatures(serial.collector().results()));
    }
    serial.Flush();
    const std::vector<testing::FcpSignature> expected_final =
        OrderedSignatures(serial.collector().results());
    ASSERT_FALSE(expected.front().empty());
    ASSERT_GT(serial.collector().total_suppressed(), 0u);

    for (const auto& [shards, batched] :
         {std::pair{2u, false}, std::pair{4u, false}, std::pair{2u, true},
          std::pair{4u, true}}) {
      const std::string where = std::string(MinerKindToString(kind)) +
                                " shards=" + std::to_string(shards) +
                                (batched ? " PushBatch" : " Push");
      ParallelEngineOptions options;
      options.num_miner_shards = shards;
      options.suppression_window = suppression;
      // Force migrations, as in ShardedEngineMatchesSerialByteForByte.
      options.rebalancer.interval_segments = 32;
      options.rebalancer.imbalance_threshold = 1.0;
      options.rebalancer.min_move_weight = 2;
      ParallelEngine engine(kind, params, options);
      pushed = 0;
      for (size_t c = 0; c < checkpoints.size(); ++c) {
        while (pushed < checkpoints[c]) {
          if (batched) {
            const size_t chunk = std::min(kChunk, checkpoints[c] - pushed);
            engine.PushBatch(std::span(trace.events.data() + pushed, chunk));
            pushed += chunk;
          } else {
            engine.Push(trace.events[pushed++]);
          }
        }
        engine.WaitUntilIdle();
        const std::vector<Fcp> snapshot = engine.SnapshotResults();
        EXPECT_EQ(OrderedSignatures(snapshot), expected[c])
            << where << " checkpoint=" << c;
        EXPECT_EQ(AcceptedTotal(engine), snapshot.size())
            << where << " checkpoint=" << c;
      }
      engine.Finish();
      EXPECT_EQ(OrderedSignatures(engine.results()), expected_final) << where;
      EXPECT_EQ(AcceptedTotal(engine), engine.results().size()) << where;
      EXPECT_GT(engine.router_stats().placements_applied, 0u) << where;
    }
  }
}

TEST(ParallelEngineDeathTest, MoreThanOneWorkerAborts) {
  ParallelEngineOptions options;
  options.num_workers = 2;
  EXPECT_DEATH(
      { ParallelEngine engine(MinerKind::kCooMine, Params(), options); },
      "FCP_CHECK");
}

TEST(ParallelEngineDeathTest, MoreShardsThanTheDeliveryMaskAborts) {
  ParallelEngineOptions options;
  options.num_miner_shards = kMaxShards + 1;
  EXPECT_DEATH(
      { ParallelEngine engine(MinerKind::kCooMine, Params(), options); },
      "FCP_CHECK");
}

TEST(ParallelEngineTest, ShardedEngineIsSoundAndRecoversConvoys) {
  const MiningParams params = Params();
  const TrafficTrace trace = Trace(37);
  ParallelEngineOptions options;
  options.num_miner_shards = 3;
  ParallelEngine engine(MinerKind::kCooMine, params, options);
  for (const ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();

  const std::set<Pattern> found = testing::PatternsOf(engine.results());
  ASSERT_FALSE(found.empty());
  for (const Pattern& pattern : found) {
    EXPECT_TRUE(IsGenuineFcp(trace.events, pattern, params))
        << testing::ToString(pattern) << " is not a genuine FCP";
  }
  for (const ConvoyPlan& convoy : trace.convoys) {
    for (size_t i = 0; i < convoy.vehicles.size(); ++i) {
      for (size_t j = i + 1; j < convoy.vehicles.size(); ++j) {
        Pattern pair = {convoy.vehicles[i], convoy.vehicles[j]};
        std::sort(pair.begin(), pair.end());
        EXPECT_TRUE(found.contains(pair))
            << "convoy pair " << testing::ToString(pair) << " missing";
      }
    }
  }
  EXPECT_EQ(engine.router_stats().segments_routed,
            engine.segments_completed());
  EXPECT_GE(engine.router_stats().deliveries,
            engine.router_stats().segments_routed);
}

TEST(ParallelEngineTest, SmallShardQueuesExerciseBackpressure) {
  ParallelEngineOptions options;
  options.num_miner_shards = 4;
  options.event_queue_capacity = 4;
  options.shard_queue_capacity = 2;
  ParallelEngine engine(MinerKind::kCooMine, Params(), options);
  const TrafficTrace trace = Trace(38);
  for (const ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();
  EXPECT_EQ(engine.events_pushed(), trace.events.size());
  EXPECT_GT(engine.segments_completed(), 0u);
}

TEST(ParallelEngineTest, SmallQueuesExerciseBackpressure) {
  ParallelEngineOptions options;
  options.event_queue_capacity = 4;
  ParallelEngine engine(MinerKind::kCooMine, Params(), options);
  const TrafficTrace trace = Trace(35);
  for (const ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();
  EXPECT_EQ(engine.events_pushed(), trace.events.size());
  EXPECT_GT(engine.segments_completed(), 0u);
}

}  // namespace
}  // namespace fcp
