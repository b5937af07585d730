// Migration under fire: forced hot-object migrations mid-stream must leave
// the union of shard outputs byte-identical to a serial run. This is the
// correctness contract of the fence protocol (DESIGN.md §2.6): every
// delivery carries its route-time placement snapshot, and ApplyPlacement
// backfills each new owner's index through the same FIFO queue before any
// trigger routed under the new snapshot — so ownership stays a complete,
// disjoint partition for every trigger, no matter how often placement flips.
//
// The router-level test drives the ShardRouter directly (deterministic
// forced moves, every miner kind); the engine-level tests run the whole
// ParallelEngine with forced and with default rebalancing and check exact
// serial equivalence.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/placement.h"
#include "common/shard.h"
#include "core/mining_engine.h"
#include "core/parallel_engine.h"
#include "datagen/traffic_gen.h"
#include "datagen/twitter_gen.h"
#include "stream/rebalancer.h"
#include "stream/segment.h"
#include "stream/shard_router.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace fcp {
namespace {

using testing::FcpSignature;
using testing::FullSignatures;

MiningParams Params() {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(10);
  params.theta = 3;
  params.min_pattern_size = 2;
  params.max_pattern_size = 4;
  params.max_segment_objects = 16;
  return params;
}

// Zipf-skewed segment workload: a few hot objects dominate, so migrations of
// the head actually change routing for a large share of the traffic.
std::vector<Segment> ZipfSegments(uint64_t seed, size_t num_segments,
                                  uint64_t vocab, double skew) {
  Rng rng(seed);
  const ZipfDistribution zipf(vocab, skew);
  std::vector<Segment> out;
  out.reserve(num_segments);
  Timestamp time = 0;
  for (size_t i = 0; i < num_segments; ++i) {
    time += 1 + static_cast<Timestamp>(rng.Below(30000));
    const uint32_t length = 2 + static_cast<uint32_t>(rng.Below(5));
    std::vector<SegmentEntry> entries;
    entries.reserve(length);
    for (uint32_t j = 0; j < length; ++j) {
      entries.push_back(
          SegmentEntry{static_cast<ObjectId>(zipf.Sample(rng)),
                       time + static_cast<Timestamp>(j * 100)});
    }
    out.emplace_back(static_cast<SegmentId>(i + 1),
                     static_cast<StreamId>(rng.Below(10)), std::move(entries));
  }
  return out;
}

std::vector<Fcp> MineSerial(MinerKind kind, const MiningParams& params,
                            const std::vector<Segment>& segments) {
  auto miner = MakeMiner(kind, params);
  std::vector<Fcp> out;
  std::vector<Fcp> batch;
  for (const Segment& segment : segments) {
    batch.clear();
    miner->AddSegment(segment, &batch);
    for (Fcp& fcp : batch) out.push_back(std::move(fcp));
  }
  return out;
}

// Replays the workload through a ShardRouter, forcing a hot-object
// migration every `migrate_every` segments, then drains each shard queue in
// FIFO order exactly the way a shard thread would: adopt the delivery's
// placement snapshot, advance the watermark, mine — or index-backfill when
// the delivery is a migration replay.
std::vector<Fcp> MineWithForcedMigrations(MinerKind kind,
                                          const MiningParams& params,
                                          uint32_t num_shards,
                                          const std::vector<Segment>& segments,
                                          size_t migrate_every,
                                          uint64_t* backfills_out) {
  ShardRouter router(num_shards, /*queue_capacity=*/1 << 17, params.tau);
  std::vector<std::unique_ptr<FcpMiner>> miners;
  for (uint32_t s = 0; s < num_shards; ++s) {
    miners.push_back(MakeMiner(kind, params, router.spec(s)));
  }

  size_t since_migration = 0;
  uint32_t round = 0;
  for (const Segment& segment : segments) {
    router.Route(SegmentRef::Adopt(segment));
    if (++since_migration >= migrate_every) {
      since_migration = 0;
      // Rotate the zipf head: move the hottest ranks to fresh shards each
      // round. Objects 0..3 carry most of the traffic, so every migration
      // re-homes live supporters (forcing real backfills, not no-ops).
      auto current = router.placement();
      if (current == nullptr) {
        current = std::make_shared<const PlacementMap>(num_shards);
      }
      ++round;
      std::vector<std::pair<ObjectId, uint32_t>> moves;
      for (ObjectId hot = 0; hot < 2; ++hot) {
        moves.push_back(
            {hot, (current->shard_of(hot) + 1 + round + hot) % num_shards});
      }
      router.ApplyPlacement(current->WithMoves(moves));
    }
  }
  if (backfills_out != nullptr) {
    *backfills_out = router.stats().backfill_deliveries;
  }
  router.Close();

  std::vector<Fcp> out;
  std::vector<Fcp> batch;
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::shared_ptr<const PlacementMap> active;
    while (auto delivery = router.queue(s).TryPop()) {
      if (delivery->placement.get() != active.get()) {
        miners[s]->SetPlacement(delivery->placement.get());
        active = delivery->placement;
      }
      miners[s]->AdvanceWatermark(delivery->watermark);
      if (delivery->index_only) {
        miners[s]->AddSegmentIndexOnly(delivery->segment);
        continue;
      }
      batch.clear();
      miners[s]->AddSegment(delivery->segment, &batch);
      for (Fcp& fcp : batch) out.push_back(std::move(fcp));
    }
  }
  return out;
}

class MigrationTest : public ::testing::TestWithParam<MinerKind> {};

TEST_P(MigrationTest, ForcedMigrationsPreserveByteIdenticalUnion) {
  const MinerKind kind = GetParam();
  const MiningParams params = Params();
  for (uint64_t seed : {41u, 42u}) {
    const std::vector<Segment> segments =
        ZipfSegments(seed, 800, /*vocab=*/40, /*skew=*/1.0);
    const std::vector<FcpSignature> serial =
        FullSignatures(MineSerial(kind, params, segments));
    ASSERT_FALSE(serial.empty()) << "workload mined nothing — test is vacuous";
    uint64_t backfills = 0;
    const std::vector<FcpSignature> migrated = FullSignatures(
        MineWithForcedMigrations(kind, params, /*num_shards=*/4, segments,
                                 /*migrate_every=*/50, &backfills));
    EXPECT_GT(backfills, 0u)
        << "no backfill was forced — the fence went unexercised";
    EXPECT_EQ(migrated, serial) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMiners, MigrationTest,
                         ::testing::Values(MinerKind::kCooMine,
                                           MinerKind::kDiMine,
                                           MinerKind::kMatrixMine),
                         [](const ::testing::TestParamInfo<MinerKind>& info) {
                           return std::string(MinerKindToString(info.param));
                         });

TEST(MigrationTest, BruteForceOracleSurvivesMigrations) {
  // The oracle shares no code with the real miners or indexes; identical
  // union under migration is independent evidence the fence protocol itself
  // is correct, not an artifact of one index implementation.
  MiningParams params = Params();
  params.max_segment_objects = 8;
  const std::vector<Segment> segments =
      ZipfSegments(47, 300, /*vocab=*/16, /*skew=*/1.0);
  const std::vector<FcpSignature> serial =
      FullSignatures(MineSerial(MinerKind::kBruteForce, params, segments));
  ASSERT_FALSE(serial.empty());
  uint64_t backfills = 0;
  EXPECT_EQ(FullSignatures(MineWithForcedMigrations(
                MinerKind::kBruteForce, params, /*num_shards=*/4, segments,
                /*migrate_every=*/40, &backfills)),
            serial);
  EXPECT_GT(backfills, 0u);
}

// ---------------------------------------------------------------------------
// Engine-level: the full pipeline, rebalancing live.

std::vector<ObjectEvent> ZipfEvents(uint64_t seed, size_t num_events,
                                    uint64_t vocab, double skew,
                                    uint32_t streams) {
  Rng rng(seed);
  const ZipfDistribution zipf(vocab, skew);
  std::vector<ObjectEvent> events;
  events.reserve(num_events);
  Timestamp time = 0;
  for (size_t i = 0; i < num_events; ++i) {
    time += 1 + static_cast<Timestamp>(rng.Below(2000));
    events.push_back(ObjectEvent{static_cast<StreamId>(rng.Below(streams)),
                                 static_cast<ObjectId>(zipf.Sample(rng)),
                                 time});
  }
  return events;
}

std::vector<FcpSignature> SerialEngineSignatures(
    MinerKind kind, const MiningParams& params,
    const std::vector<ObjectEvent>& events) {
  MiningEngine serial(kind, params);
  std::vector<Fcp> all;
  for (const ObjectEvent& event : events) {
    for (Fcp& f : serial.PushEvent(event)) all.push_back(std::move(f));
  }
  for (Fcp& f : serial.Flush()) all.push_back(std::move(f));
  return FullSignatures(all);
}

TEST(MigrationTest, RebalancingEngineMatchesSerialByteForByte) {
  // With live rebalancing migrating the zipf head between shards mid-stream
  // the output must STILL be byte-identical to serial — the end-to-end proof
  // of the fence through the real pipeline.
  const MiningParams params = Params();
  const std::vector<ObjectEvent> events =
      ZipfEvents(61, 12000, /*vocab=*/50, /*skew=*/1.2, /*streams=*/8);
  const std::vector<FcpSignature> serial =
      SerialEngineSignatures(MinerKind::kCooMine, params, events);
  ASSERT_FALSE(serial.empty());

  ParallelEngineOptions options;
  options.num_miner_shards = 4;
  options.rebalancer.interval_segments = 64;
  options.rebalancer.imbalance_threshold = 1.0;  // trigger on any skew
  options.rebalancer.min_move_weight = 2;
  ParallelEngine engine(MinerKind::kCooMine, params, options);
  for (const ObjectEvent& event : events) engine.Push(event);
  engine.Finish();

  ASSERT_NE(engine.rebalancer(), nullptr);
  EXPECT_GT(engine.rebalancer()->stats().rounds_triggered, 0u)
      << "no migration happened — the test did not exercise rebalancing";
  EXPECT_GT(engine.router_stats().placements_applied, 0u);
  EXPECT_EQ(FullSignatures(engine.results()), serial);
}

TEST(MigrationTest, RebalancingEngineAllMinersStaySound) {
  const MiningParams params = Params();
  const std::vector<ObjectEvent> events =
      ZipfEvents(62, 8000, /*vocab=*/50, /*skew=*/1.2, /*streams=*/8);
  for (MinerKind kind :
       {MinerKind::kCooMine, MinerKind::kDiMine, MinerKind::kMatrixMine}) {
    const std::vector<FcpSignature> serial =
        SerialEngineSignatures(kind, params, events);
    ParallelEngineOptions options;
    options.num_miner_shards = 4;
    options.rebalancer.interval_segments = 64;
    options.rebalancer.imbalance_threshold = 1.0;
    options.rebalancer.min_move_weight = 2;
    ParallelEngine engine(kind, params, options);
    for (const ObjectEvent& event : events) engine.Push(event);
    engine.Finish();
    EXPECT_EQ(FullSignatures(engine.results()), serial)
        << MinerKindToString(kind);
  }
}

TEST(MigrationTest, StressManyWorkersSmallQueuesUnderSkew) {
  // The TSan workhorse: tiny event and shard queues (constant
  // backpressure) and forced live migrations at once. The assertions are
  // liveness + accounting; the value is every data race this run would
  // surface under -fsanitize=thread.
  const MiningParams params = Params();
  const std::vector<ObjectEvent> events =
      ZipfEvents(65, 16000, /*vocab=*/60, /*skew=*/1.2, /*streams=*/12);

  ParallelEngineOptions options;
  options.num_miner_shards = 4;
  options.shard_queue_capacity = 8;
  options.event_queue_capacity = 64;
  options.rebalancer.interval_segments = 32;
  options.rebalancer.imbalance_threshold = 1.0;
  options.rebalancer.min_move_weight = 2;
  ParallelEngine engine(MinerKind::kCooMine, params, options);
  for (const ObjectEvent& event : events) engine.Push(event);
  engine.Finish();

  EXPECT_EQ(engine.events_pushed(), events.size());
  EXPECT_GT(engine.segments_completed(), 0u);
  EXPECT_FALSE(engine.results().empty());
  EXPECT_GT(engine.router_stats().placements_applied, 0u)
      << "no migration happened — the stress run did not exercise the fence";
  // Every routed segment was mined exactly once; backfills are accounted
  // separately from mining.
  uint64_t mined = 0;
  uint64_t backfilled = 0;
  for (uint32_t s = 0; s < options.num_miner_shards; ++s) {
    mined += engine.shard_miner(s).stats().segments_processed;
    backfilled += engine.shard_miner(s).stats().segments_indexed_only;
  }
  EXPECT_EQ(mined, engine.router_stats().deliveries);
  EXPECT_EQ(backfilled, engine.router_stats().backfill_deliveries);
}

TEST(AdaptiveShardingTest, DefaultOptionsMigrateOnSkewAndStayPutOnTraffic) {
  // Rebalancing has no switch: a default S=4 engine must migrate on its own
  // when one hot object skews the shard loads, and still equal serial byte
  // for byte. On the near-uniform camera trace the same defaults must close
  // load intervals yet never move anything.
  const MiningParams params = Params();
  const std::vector<ObjectEvent> skewed =
      ZipfEvents(66, 12000, /*vocab=*/50, /*skew=*/1.2, /*streams=*/8);
  const std::vector<FcpSignature> serial =
      SerialEngineSignatures(MinerKind::kCooMine, params, skewed);
  ASSERT_FALSE(serial.empty());
  ParallelEngineOptions options;
  options.num_miner_shards = 4;
  {
    ParallelEngine engine(MinerKind::kCooMine, params, options);
    for (const ObjectEvent& event : skewed) engine.Push(event);
    engine.Finish();
    EXPECT_GT(engine.router_stats().placements_applied, 0u)
        << "default rebalancing never fired on a Zipf 1.2 trace";
    EXPECT_EQ(FullSignatures(engine.results()), serial);
  }

  TrafficConfig traffic;
  traffic.num_cameras = 20;
  traffic.num_vehicles = 1000;
  traffic.total_events = 12000;
  traffic.num_convoys = 4;
  traffic.seed = 67;
  const std::vector<ObjectEvent> uniform = GenerateTraffic(traffic).events;
  ParallelEngine engine(MinerKind::kCooMine, params, options);
  for (const ObjectEvent& event : uniform) engine.Push(event);
  engine.Finish();
  ASSERT_NE(engine.rebalancer(), nullptr);
  EXPECT_GT(engine.rebalancer()->stats().rounds, 0u)
      << "no load interval closed — grow the trace";
  EXPECT_EQ(engine.router_stats().placements_applied, 0u);
  EXPECT_EQ(engine.router_stats().backfill_deliveries, 0u);
}

TEST(AdaptiveShardingTest, SameTraceRebalancesTheSameWayEveryRun) {
  // The trigger and the destinations read only the modeled cost of the
  // routed input — no shard timing crosses threads — so two runs of one
  // trace must close, trigger and move exactly alike, however the shard
  // threads are scheduled. A Zipf 1.0 word trace, the shape whose hot word
  // skews the cost while the deliveries stay balanced, must trigger on the
  // default options.
  TwitterConfig config;
  config.num_users = 1000;
  config.vocab_size = 5000;
  config.total_tweets = 4000;
  config.num_events = 2;
  config.seed = 68;
  const std::vector<ObjectEvent> events = GenerateTwitter(config).events;
  ParallelEngineOptions options;
  options.num_miner_shards = 4;
  struct Run {
    RebalancerStats stats;
    int64_t imbalance_permille = 0;
    uint64_t placements_applied = 0;
    uint64_t backfills = 0;
  };
  auto run_once = [&] {
    ParallelEngine engine(MinerKind::kCooMine, Params(), options);
    engine.PushBatch(events);
    engine.Finish();
    return Run{engine.rebalancer()->stats(),
               engine.rebalancer()->imbalance_permille(),
               engine.router_stats().placements_applied,
               engine.router_stats().backfill_deliveries};
  };
  const Run first = run_once();
  const Run second = run_once();
  ASSERT_GT(first.stats.rounds_triggered, 0u)
      << "default rebalancing never fired on the word trace";
  EXPECT_EQ(first.stats.rounds, second.stats.rounds);
  EXPECT_EQ(first.stats.rounds_triggered, second.stats.rounds_triggered);
  EXPECT_EQ(first.stats.objects_moved, second.stats.objects_moved);
  EXPECT_EQ(first.imbalance_permille, second.imbalance_permille);
  EXPECT_EQ(first.placements_applied, second.placements_applied);
  EXPECT_EQ(first.placements_applied, first.stats.rounds_triggered);
  EXPECT_EQ(first.backfills, second.backfills);
}

}  // namespace
}  // namespace fcp
