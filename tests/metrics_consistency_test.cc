// Serial vs. sharded telemetry consistency: the same trace mined serially
// and through the ParallelEngine (S miner shards) must agree on
// the semantic counters — segments routed to a shard equal segments that
// shard mined, and the shard miners' fcps_emitted sum to the serial count.
// The telemetry registry must agree with the miners' own stats structs, so
// a dashboard reading the registry sees the same truth as the library API.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/mining_engine.h"
#include "core/parallel_engine.h"
#include "datagen/traffic_gen.h"
#include "telemetry/registry.h"

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

std::vector<ObjectEvent> Trace() {
  TrafficConfig config;
  config.num_cameras = 20;
  config.num_vehicles = 1000;
  config.total_events = 8000;
  config.num_convoys = 4;
  config.seed = 77;
  return GenerateTraffic(config).events;
}

/// Finds `name` in a snapshot; fails the test if absent.
const telemetry::MetricSample& Find(
    const std::vector<telemetry::MetricSample>& samples,
    const std::string& name) {
  for (const telemetry::MetricSample& s : samples) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "metric " << name << " not registered";
  static const telemetry::MetricSample kMissing;
  return kMissing;
}

// SLCP time is a part of mining time: positive for a CooMine that mined
// anything, zero for the miners without an LCP table.
void ExpectSlcpWithinMining(MinerKind kind, const MinerStats& stats) {
  if (kind == MinerKind::kCooMine && stats.segments_processed > 0) {
    EXPECT_GT(stats.slcp_ns, 0);
    EXPECT_LE(stats.slcp_ns, stats.mining_ns);
  } else if (kind != MinerKind::kCooMine) {
    EXPECT_EQ(stats.slcp_ns, 0);
  }
}

// The new-object rule's counters in the registry (`label` is "" or a shard
// label) mirror the miner's stats.
void ExpectNewObjectCounters(
    const std::vector<telemetry::MetricSample>& metrics,
    const std::string& label, const MinerStats& stats) {
  SCOPED_TRACE("label " + label);
  EXPECT_EQ(Find(metrics, "fcp_new_object_triggers_total" + label)
                .counter_value,
            stats.new_object_triggers);
  EXPECT_EQ(Find(metrics, "fcp_reemissions_total" + label).counter_value,
            stats.reemissions);
  EXPECT_EQ(Find(metrics, "fcp_log_patterns_certified_total" + label)
                .counter_value,
            stats.log_patterns_certified);
  EXPECT_LE(stats.reemissions, stats.log_patterns_certified);
}

class MetricsConsistencyTest
    : public ::testing::TestWithParam<std::tuple<MinerKind, uint32_t>> {};

TEST_P(MetricsConsistencyTest, SerialAndShardedAgreeOnSemanticCounters) {
  const auto [kind, num_shards] = GetParam();
  const std::vector<ObjectEvent> events = Trace();
  const MiningParams params = Params();

  // Serial reference run.
  MiningEngine serial(kind, params);
  for (const ObjectEvent& event : events) serial.PushEvent(event);
  serial.Flush();
  const uint64_t serial_fcps = serial.miner().stats().fcps_emitted;
  const uint64_t serial_segments = serial.segments_completed();

  // Serial registry agrees with the serial miner/engine state.
  const auto serial_metrics = serial.SnapshotMetrics();
  EXPECT_EQ(Find(serial_metrics, "fcp_fcps_emitted_total").counter_value,
            serial_fcps);
  EXPECT_EQ(Find(serial_metrics, "fcp_segments_completed_total").counter_value,
            serial_segments);
  EXPECT_EQ(Find(serial_metrics, "fcp_events_ingested_total").counter_value,
            events.size());
  EXPECT_EQ(
      Find(serial_metrics, "fcp_slcp_nodes_visited_total").counter_value,
      serial.miner().stats().slcp_nodes_visited);
  EXPECT_EQ(Find(serial_metrics, "fcp_slcp_runs_visited_total").counter_value,
            serial.miner().stats().slcp_runs_visited);
  EXPECT_EQ(Find(serial_metrics, "fcp_lcp_rows_dropped_total").counter_value,
            serial.miner().stats().lcp_rows_dropped);
  ExpectNewObjectCounters(serial_metrics, "", serial.miner().stats());
  // Serial CooMine mines most of this camera trace's triggers under the
  // new-object rule (DESIGN.md §2.1); the posting miners have no such rule.
  if (kind == MinerKind::kCooMine) {
    EXPECT_GT(serial.miner().stats().new_object_triggers, 0u);
    EXPECT_GT(serial.miner().stats().reemissions, 0u);
  } else {
    EXPECT_EQ(serial.miner().stats().new_object_triggers, 0u);
  }
  // At min_pattern_size 2 SLCP reaches segments sharing one object with the
  // trigger and builds them no row; the posting miners have no LCP table.
  if (kind == MinerKind::kCooMine) {
    EXPECT_GT(serial.miner().stats().lcp_rows_dropped, 0u);
  } else {
    EXPECT_EQ(serial.miner().stats().lcp_rows_dropped, 0u);
  }
  EXPECT_EQ(
      Find(serial_metrics, "fcp_candidates_bound_passed_total").counter_value,
      serial.miner().stats().candidates_bound_passed);
  EXPECT_EQ(
      static_cast<uint64_t>(Find(serial_metrics, "fcp_index_bytes").gauge_value),
      serial.MemoryUsage());
  EXPECT_EQ(Find(serial_metrics, "fcp_slcp_ns_total").counter_value,
            static_cast<uint64_t>(serial.miner().stats().slcp_ns));
  ExpectSlcpWithinMining(kind, serial.miner().stats());

  // Sharded run: the ingest thread segments in serial order (any shard
  // count), so the semantic counters must match exactly.
  ParallelEngineOptions options;
  options.num_miner_shards = num_shards;
  ParallelEngine sharded(kind, params, options);
  for (const ObjectEvent& event : events) sharded.Push(event);
  sharded.Finish();
  const auto sharded_metrics = sharded.SnapshotMetrics();

  EXPECT_EQ(sharded.segments_completed(), serial_segments);
  EXPECT_EQ(Find(sharded_metrics, "fcp_segments_completed_total").counter_value,
            serial_segments);
  EXPECT_EQ(Find(sharded_metrics, "fcp_events_ingested_total").counter_value,
            events.size());

  uint64_t fcps_sum = 0;
  uint64_t metric_fcps_sum = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    const MinerStats& stats = sharded.shard_miner(s).stats();

    // Segments routed to the shard == segments the shard mined.
    const uint64_t routed = static_cast<uint64_t>(
        Find(sharded_metrics, "fcp_segments_routed" + label).gauge_value);
    EXPECT_EQ(routed, stats.segments_processed) << "shard " << s;

    // The registry's per-shard counters mirror the miner's own stats.
    EXPECT_EQ(
        Find(sharded_metrics, "fcp_segments_mined_total" + label).counter_value,
        stats.segments_processed)
        << "shard " << s;
    EXPECT_EQ(
        Find(sharded_metrics, "fcp_fcps_emitted_total" + label).counter_value,
        stats.fcps_emitted)
        << "shard " << s;
    EXPECT_EQ(Find(sharded_metrics, "fcp_candidates_checked_total" + label)
                  .counter_value,
              stats.candidates_checked)
        << "shard " << s;
    EXPECT_EQ(Find(sharded_metrics, "fcp_slcp_nodes_visited_total" + label)
                  .counter_value,
              stats.slcp_nodes_visited)
        << "shard " << s;
    EXPECT_EQ(Find(sharded_metrics, "fcp_slcp_runs_visited_total" + label)
                  .counter_value,
              stats.slcp_runs_visited)
        << "shard " << s;
    EXPECT_EQ(Find(sharded_metrics, "fcp_lcp_rows_dropped_total" + label)
                  .counter_value,
              stats.lcp_rows_dropped)
        << "shard " << s;
    ExpectNewObjectCounters(sharded_metrics, label, stats);
    // The rule is serial: a shard of several mines every trigger in full.
    if (num_shards > 1) {
      EXPECT_EQ(stats.new_object_triggers, 0u) << "shard " << s;
    }
    EXPECT_EQ(Find(sharded_metrics,
                   "fcp_candidates_bound_passed_total" + label)
                  .counter_value,
              stats.candidates_bound_passed)
        << "shard " << s;
    EXPECT_EQ(
        Find(sharded_metrics, "fcp_slcp_ns_total" + label).counter_value,
        static_cast<uint64_t>(stats.slcp_ns))
        << "shard " << s;
    {
      SCOPED_TRACE("shard " + std::to_string(s));
      ExpectSlcpWithinMining(kind, stats);
    }

    // Every delivery landed somewhere: discovery latency histogram counted
    // exactly the deliveries this shard mined.
    EXPECT_EQ(
        Find(sharded_metrics, "fcp_discovery_latency_us" + label)
            .histogram.total,
        stats.segments_processed)
        << "shard " << s;

    fcps_sum += stats.fcps_emitted;
    metric_fcps_sum +=
        Find(sharded_metrics, "fcp_fcps_emitted_total" + label).counter_value;
  }

  // Min-object ownership partitions the pattern space: each discovery is
  // emitted by exactly one shard, so the counts sum to the serial count.
  EXPECT_EQ(fcps_sum, serial_fcps);
  EXPECT_EQ(metric_fcps_sum, serial_fcps);

  // Same discoveries end-to-end, not just same counts.
  EXPECT_EQ(sharded.results().size(), serial.collector().results().size());
}

// Every segment SLCP reaches shares >= 1 mined object with the trigger, so
// at min_pattern_size 1 none is dropped, serially or on any shard.
TEST(MetricsConsistencyRowsDroppedTest, ReadsZeroAtMinSizeOne) {
  MiningParams params = Params();
  params.min_pattern_size = 1;
  const std::vector<ObjectEvent> events = Trace();

  MiningEngine serial(MinerKind::kCooMine, params);
  for (const ObjectEvent& event : events) serial.PushEvent(event);
  serial.Flush();
  EXPECT_GT(serial.miner().stats().lcp_rows, 0u);
  EXPECT_EQ(serial.miner().stats().lcp_rows_dropped, 0u);
  EXPECT_EQ(Find(serial.SnapshotMetrics(), "fcp_lcp_rows_dropped_total")
                .counter_value,
            0u);

  constexpr uint32_t kShards = 3;
  ParallelEngineOptions options;
  options.num_miner_shards = kShards;
  ParallelEngine sharded(MinerKind::kCooMine, params, options);
  for (const ObjectEvent& event : events) sharded.Push(event);
  sharded.Finish();
  const auto sharded_metrics = sharded.SnapshotMetrics();
  for (uint32_t s = 0; s < kShards; ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    EXPECT_GT(sharded.shard_miner(s).stats().lcp_rows, 0u) << "shard " << s;
    EXPECT_EQ(sharded.shard_miner(s).stats().lcp_rows_dropped, 0u)
        << "shard " << s;
    EXPECT_EQ(Find(sharded_metrics, "fcp_lcp_rows_dropped_total" + label)
                  .counter_value,
              0u)
        << "shard " << s;
  }
}

TEST(MetricsConsistencyQueueTest, QueueGaugesBoundedUnderConcurrentSampling) {
  // SnapshotMetrics() refreshes the queue-occupancy gauges from the live
  // queues while the pipeline runs (this suite runs under TSan, so the
  // refresh path is checked against the producer/consumer threads). Every
  // sampled value must respect the configured capacity bounds, and the
  // final snapshot must describe a fully drained pipeline.
  constexpr uint32_t kShards = 4;
  constexpr size_t kShardCapacity = 64;
  constexpr size_t kEventCapacity = 256;
  const std::vector<ObjectEvent> events = Trace();

  ParallelEngineOptions options;
  options.num_miner_shards = kShards;
  options.event_queue_capacity = kEventCapacity;
  options.shard_queue_capacity = kShardCapacity;
  ParallelEngine engine(MinerKind::kCooMine, Params(), options);

  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      const auto samples = engine.SnapshotMetrics();
      for (uint32_t s = 0; s < kShards; ++s) {
        const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
        const int64_t depth =
            Find(samples, "fcp_shard_queue_depth" + label).gauge_value;
        const int64_t peak =
            Find(samples, "fcp_shard_queue_high_watermark" + label)
                .gauge_value;
        EXPECT_GE(depth, 0) << "shard " << s;
        EXPECT_LE(depth, static_cast<int64_t>(kShardCapacity)) << "shard " << s;
        EXPECT_GE(peak, depth) << "shard " << s;
        EXPECT_LE(peak, static_cast<int64_t>(kShardCapacity)) << "shard " << s;
      }
      const int64_t depth = Find(samples, "fcp_event_queue_depth").gauge_value;
      const int64_t peak =
          Find(samples, "fcp_event_queue_high_watermark").gauge_value;
      EXPECT_GE(depth, 0);
      EXPECT_LE(depth, static_cast<int64_t>(kEventCapacity));
      EXPECT_GE(peak, depth);
      EXPECT_LE(peak, static_cast<int64_t>(kEventCapacity));
      std::this_thread::yield();
    }
  });

  for (const ObjectEvent& event : events) engine.Push(event);
  engine.Finish();
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();

  // Quiescent pipeline: all queues drained, gauges exact.
  const auto samples = engine.SnapshotMetrics();
  uint64_t routed_sum = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    EXPECT_EQ(Find(samples, "fcp_shard_queue_depth" + label).gauge_value, 0)
        << "shard " << s;
    routed_sum += static_cast<uint64_t>(
        Find(samples, "fcp_segments_routed" + label).gauge_value);
  }
  EXPECT_EQ(routed_sum, engine.router_stats().deliveries);
  EXPECT_EQ(Find(samples, "fcp_event_queue_depth").gauge_value, 0);
  EXPECT_GT(Find(samples, "fcp_event_queue_high_watermark").gauge_value, 0);
}

TEST(MetricsConsistencyRebalanceTest, ImbalanceGaugeMatchesRebalancerValue) {
  // One imbalance definition, two consumers: the
  // fcp_shard_load_imbalance_permille gauge a dashboard scrapes and the
  // Rebalancer's trigger input must be the same number — both are the
  // Rebalancer's max/mean-per-interval computation, published verbatim.
  const std::vector<ObjectEvent> events = Trace();
  ParallelEngineOptions options;
  options.num_miner_shards = 4;
  ParallelEngine engine(MinerKind::kCooMine, Params(), options);
  for (const ObjectEvent& event : events) engine.Push(event);
  engine.Finish();

  // S > 1 always runs the rebalancer, so the gauge is live.
  ASSERT_NE(engine.rebalancer(), nullptr);
  EXPECT_GT(engine.rebalancer()->stats().rounds, 0u)
      << "no load interval closed — shrink interval_segments or grow the "
         "trace";
  const auto samples = engine.SnapshotMetrics();
  EXPECT_EQ(Find(samples, "fcp_shard_load_imbalance_permille").gauge_value,
            engine.rebalancer()->imbalance_permille());
  // A balanced-or-worse ratio is >= 1 by construction.
  EXPECT_GE(engine.rebalancer()->imbalance_permille(), 1000);
  // The camera trace is near balance: the hash spreads ~800 vehicles of
  // uneven counts, so Σ f² per shard is within a few percent of the mean
  // and the default threshold fires at most once (the first interval reads
  // 1.16 on this trace), moving one round's worth of objects. The published
  // counters mirror whatever moved.
  EXPECT_LE(engine.rebalancer()->stats().rounds_triggered, 1u);
  EXPECT_EQ(Find(samples, "fcp_migrations_total").counter_value,
            engine.rebalancer()->stats().objects_moved);
  EXPECT_EQ(Find(samples, "fcp_backfill_deliveries_total").counter_value,
            engine.router_stats().backfill_deliveries);
}

TEST(MetricsConsistencyRebalanceTest, MigrationCountersMirrorEngineState) {
  const std::vector<ObjectEvent> events = Trace();
  ParallelEngineOptions options;
  options.num_miner_shards = 4;
  options.rebalancer.interval_segments = 32;
  options.rebalancer.imbalance_threshold = 1.0;
  options.rebalancer.min_move_weight = 2;
  ParallelEngine engine(MinerKind::kCooMine, Params(), options);
  for (const ObjectEvent& event : events) engine.Push(event);
  engine.Finish();

  ASSERT_NE(engine.rebalancer(), nullptr);
  const RebalancerStats& stats = engine.rebalancer()->stats();
  ASSERT_GT(stats.rounds_triggered, 0u)
      << "rebalancing never triggered — the counters went unexercised";
  const auto samples = engine.SnapshotMetrics();
  EXPECT_EQ(Find(samples, "fcp_rebalance_rounds_total").counter_value,
            stats.rounds_triggered);
  EXPECT_EQ(Find(samples, "fcp_migrations_total").counter_value,
            stats.objects_moved);
  EXPECT_EQ(Find(samples, "fcp_backfill_deliveries_total").counter_value,
            engine.router_stats().backfill_deliveries);
  // Every migration round was timed into the latency histogram.
  EXPECT_EQ(Find(samples, "fcp_migration_latency_us").histogram.total,
            engine.router_stats().placements_applied);
  // Backfills land in the per-shard miners as index-only segments; the
  // mined counters still reconcile exactly with routed deliveries.
  uint64_t mined = 0;
  uint64_t backfilled = 0;
  for (uint32_t s = 0; s < options.num_miner_shards; ++s) {
    mined += engine.shard_miner(s).stats().segments_processed;
    backfilled += engine.shard_miner(s).stats().segments_indexed_only;
  }
  EXPECT_EQ(mined, engine.router_stats().deliveries);
  EXPECT_EQ(backfilled, engine.router_stats().backfill_deliveries);
}

// The segmenters clamp an event older than its stream's previous one; both
// engines count those in fcp_events_reordered_total and /statusz. The ingest
// thread segments in serial order, so a disordered feed reports the same
// count serially and at S = 4 (and an ordered one reports none).
TEST(MetricsConsistencyReorderTest,
     ShuffledFeedReportsTheSameCountSerialAndSharded) {
  std::vector<ObjectEvent> events = Trace();
  {
    MiningEngine ordered(MinerKind::kCooMine, Params());
    ordered.IngestBatch(events);
    ordered.Flush();
    EXPECT_EQ(Find(ordered.SnapshotMetrics(), "fcp_events_reordered_total")
                  .counter_value,
              0u);
  }
  // Bounded disorder: each event may trade places with one up to 8 later.
  std::mt19937 rng(2015);
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    const size_t reach = std::min<size_t>(8, events.size() - 1 - i);
    std::swap(events[i], events[i + 1 + rng() % reach]);
  }

  MiningEngine serial(MinerKind::kCooMine, Params());
  for (size_t i = 0; i < events.size(); i += 100) {
    serial.IngestBatch(std::span(events.data() + i,
                                 std::min<size_t>(100, events.size() - i)));
  }
  serial.Flush();
  const uint64_t reordered = serial.mux().reordered_count();
  EXPECT_GT(reordered, 0u);
  EXPECT_EQ(Find(serial.SnapshotMetrics(), "fcp_events_reordered_total")
                .counter_value,
            reordered);
  const std::string field =
      "\"events_reordered\":" + std::to_string(reordered);
  EXPECT_NE(serial.StatusJson().find(field), std::string::npos)
      << serial.StatusJson();

  ParallelEngineOptions options;
  options.num_miner_shards = 4;
  ParallelEngine sharded(MinerKind::kCooMine, Params(), options);
  for (const ObjectEvent& event : events) sharded.Push(event);
  sharded.Finish();
  EXPECT_EQ(sharded.events_reordered(), reordered);
  EXPECT_EQ(Find(sharded.SnapshotMetrics(), "fcp_events_reordered_total")
                .counter_value,
            reordered);
  EXPECT_NE(sharded.StatusJson().find(field), std::string::npos)
      << sharded.StatusJson();
  EXPECT_EQ(sharded.results().size(), serial.collector().results().size());
}

/// The integer value of top-level `"key":` in a /statusz body, or -1.
int64_t StatusField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) {
    ADD_FAILURE() << "/statusz field " << key << " missing in " << json;
    return -1;
  }
  return std::stoll(json.substr(at + needle.size()));
}

// Both engines share one front end, so they export the same front-end
// metrics and /statusz fields, and after the feed is drained those agree:
// the ingest side segments in serial order at every shard count.
TEST(MetricsConsistencyFrontEndTest, SerialAndShardedExportTheSameFrontEnd) {
  constexpr uint32_t kShards = 4;
  std::vector<ObjectEvent> events = Trace();
  // Bounded disorder, so the reordered count is not trivially zero.
  std::mt19937 rng(23);
  for (size_t i = 0; i + 1 < events.size(); i += 3) {
    const size_t reach = std::min<size_t>(6, events.size() - 1 - i);
    std::swap(events[i], events[i + 1 + rng() % reach]);
  }

  MiningEngine serial(MinerKind::kCooMine, Params());
  for (size_t i = 0; i < events.size(); i += 256) {
    serial.IngestBatch(std::span(events.data() + i,
                                 std::min<size_t>(256, events.size() - i)));
  }
  serial.Flush();
  ParallelEngineOptions options;
  options.num_miner_shards = kShards;
  ParallelEngine sharded(MinerKind::kCooMine, Params(), options);
  sharded.PushBatch(events);
  sharded.Finish();

  const auto serial_metrics = serial.SnapshotMetrics();
  const auto sharded_metrics = sharded.SnapshotMetrics();
  for (const char* name :
       {"fcp_events_ingested_total", "fcp_segments_completed_total",
        "fcp_events_reordered_total", "fcp_fcps_accepted_total",
        "fcp_open_windows", "fcp_streams_seen", "fcp_uptime_seconds",
        "fcp_segment_pool_live_refs", "fcp_segment_pool_hits_total",
        "fcp_segment_pool_misses_total",
        "fcp_segment_pool_recycled_bytes_total",
        "fcp_segment_pool_free_slabs"}) {
    const telemetry::MetricSample& a = Find(serial_metrics, name);
    const telemetry::MetricSample& b = Find(sharded_metrics, name);
    EXPECT_EQ(a.type, b.type) << name;
  }
  // Per-call mine latency: one sample per mined segment, per shard on the
  // sharded engine.
  EXPECT_EQ(Find(serial_metrics, "fcp_segment_mine_latency_us").histogram.total,
            serial.segments_completed());
  for (uint32_t s = 0; s < kShards; ++s) {
    const std::string name =
        "fcp_segment_mine_latency_us{shard=\"" + std::to_string(s) + "\"}";
    EXPECT_EQ(Find(sharded_metrics, name).histogram.total,
              sharded.shard_miner(s).stats().segments_processed)
        << name;
  }

  for (const char* name :
       {"fcp_events_ingested_total", "fcp_events_reordered_total",
        "fcp_segments_completed_total", "fcp_fcps_accepted_total"}) {
    EXPECT_EQ(Find(sharded_metrics, name).counter_value,
              Find(serial_metrics, name).counter_value)
        << name;
  }
  EXPECT_GT(Find(serial_metrics, "fcp_events_reordered_total").counter_value,
            0u);
  EXPECT_EQ(Find(serial_metrics, "fcp_fcps_accepted_total").counter_value,
            serial.collector().results().size());
  for (const char* name : {"fcp_streams_seen", "fcp_open_windows"}) {
    EXPECT_EQ(Find(sharded_metrics, name).gauge_value,
              Find(serial_metrics, name).gauge_value)
        << name;
  }
  EXPECT_GT(Find(serial_metrics, "fcp_streams_seen").gauge_value, 0);
  EXPECT_EQ(Find(serial_metrics, "fcp_open_windows").gauge_value, 0);

  const std::string serial_status = serial.StatusJson();
  const std::string sharded_status = sharded.StatusJson();
  for (const char* key :
       {"events_ingested", "events_reordered", "segments_completed",
        "fcps_accepted", "streams_seen", "open_windows"}) {
    EXPECT_EQ(StatusField(sharded_status, key), StatusField(serial_status, key))
        << key << "\nserial: " << serial_status
        << "\nsharded: " << sharded_status;
  }
  EXPECT_EQ(StatusField(serial_status, "events_ingested"),
            static_cast<int64_t>(events.size()));
  EXPECT_EQ(StatusField(serial_status, "open_windows"), 0);
}

// The serial engine's mirror gauges refresh on snapshot, i.e. from the
// scrape thread while the caller's thread ingests (this suite runs under
// TSan). Sampled values stay in range, and a final snapshot is exact.
TEST(MetricsConsistencyFrontEndTest, SerialGaugesRefreshFromAScrapeThread) {
  const std::vector<ObjectEvent> events = Trace();
  MiningEngine engine(MinerKind::kCooMine, Params());
  std::atomic<bool> sampling{true};
  std::thread scraper([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      const auto samples = engine.SnapshotMetrics();
      EXPECT_GE(Find(samples, "fcp_open_windows").gauge_value, 0);
      EXPECT_GE(Find(samples, "fcp_segment_pool_live_refs").gauge_value, 0);
      EXPECT_NE(engine.StatusJson().find("\"pool\":{"), std::string::npos);
      std::this_thread::yield();
    }
  });
  for (size_t i = 0; i < events.size(); i += 64) {
    engine.IngestBatch(
        std::span(events.data() + i, std::min<size_t>(64, events.size() - i)));
  }
  engine.Flush();
  sampling.store(false, std::memory_order_relaxed);
  scraper.join();

  const auto samples = engine.SnapshotMetrics();
  const SegmentPoolStats pool = engine.segment_pool().stats();
  EXPECT_EQ(Find(samples, "fcp_open_windows").gauge_value, 0);
  EXPECT_EQ(Find(samples, "fcp_streams_seen").gauge_value,
            engine.mux().streams_seen());
  EXPECT_EQ(Find(samples, "fcp_segment_pool_live_refs").gauge_value,
            static_cast<int64_t>(pool.live));
  EXPECT_EQ(Find(samples, "fcp_segment_pool_hits_total").gauge_value,
            static_cast<int64_t>(pool.pool_hits));
}

// fcp_build_info is one gauge, set to 1, labelled with exactly the version,
// on the serial and the sharded engine alike.
TEST(MetricsConsistencyBuildInfoTest, BothEnginesRegisterVersion) {
  const std::string expected =
      std::string("fcp_build_info{version=\"") + FCP_VERSION + "\"}";
  auto build_info_names = [](const std::vector<telemetry::MetricSample>& all) {
    std::vector<std::string> names;
    for (const telemetry::MetricSample& s : all) {
      if (s.name.starts_with("fcp_build_info")) names.push_back(s.name);
    }
    return names;
  };

  MiningEngine serial(MinerKind::kCooMine, Params());
  const auto serial_metrics = serial.SnapshotMetrics();
  EXPECT_EQ(build_info_names(serial_metrics),
            std::vector<std::string>{expected});
  EXPECT_EQ(Find(serial_metrics, expected).gauge_value, 1);

  ParallelEngineOptions options;
  options.num_miner_shards = 2;
  ParallelEngine sharded(MinerKind::kCooMine, Params(), options);
  const auto sharded_metrics = sharded.SnapshotMetrics();
  EXPECT_EQ(build_info_names(sharded_metrics),
            std::vector<std::string>{expected});
  EXPECT_EQ(Find(sharded_metrics, expected).gauge_value, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllMinersAllShardCounts, MetricsConsistencyTest,
    ::testing::Combine(::testing::Values(MinerKind::kCooMine,
                                         MinerKind::kDiMine,
                                         MinerKind::kMatrixMine),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<MinerKind, uint32_t>>& info) {
      return std::string(MinerKindToString(std::get<0>(info.param))) + "_S" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace fcp
