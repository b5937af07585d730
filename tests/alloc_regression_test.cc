// Allocation-count regression tests for the zero-allocation hot path.
//
// The workload is a closed-universe cyclic replay: a fixed pool of segment
// shapes repeated with fresh ids and time-shifted so each cycle expires the
// previous one. After the warm cycles every arena, free list, flat map, ring
// buffer and scratch vector has converged to its steady-state capacity, and
// from then on CooMine::AddSegment (and the bare Seg-tree insert/expire
// cycle) must perform ZERO heap allocations. The counter sees every
// `operator new` in the process, so a single regression anywhere on the path
// — an emplace into a node-based container, a vector that outgrew its
// scratch, a std::function capture — fails the test deterministically.

#include "util/alloc_counter.h"  // must be first: defines operator new/delete

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/shard.h"
#include "core/engine_metrics.h"
#include "core/miner.h"
#include "index/seg_tree.h"
#include "io/trace_io.h"
#include "stream/segment.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/intersect.h"
#include "util/rng.h"

namespace fcp {
namespace {

// Deterministic segment pool over a small closed object universe: every
// object appears in cycle one, so later cycles present no structural novelty
// — only churn.
std::vector<Segment> BuildSegmentPool(size_t count, Rng& rng) {
  constexpr ObjectId kVocab = 200;
  constexpr StreamId kStreams = 12;
  std::vector<Segment> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t length = 2 + rng.Below(5);
    std::vector<SegmentEntry> entries;
    const Timestamp time = static_cast<Timestamp>(i * 50);
    for (size_t j = 0; j < length; ++j) {
      entries.push_back(
          SegmentEntry{static_cast<ObjectId>(rng.Below(kVocab)), time});
    }
    pool.emplace_back(static_cast<SegmentId>(i),
                      static_cast<StreamId>(i % kStreams), std::move(entries));
  }
  return pool;
}

// Appends `groups` groups of five untied sequences that drive every
// mechanic of the Seg-tree's run layout. Per group, over fresh objects
// a..f, in insertion (and so expiry) order:
//   (a b) (b c d) (d e) (a b) (b c f)
// (b c d) and (d e) extend the (a b) run in place; the second (a b) ends
// mid-run; (b c f) leaves the run at c and splits it. On expiry, (a b)
// kills a, a front trim that re-roots the rest, and (b c d) then kills c
// between live b and d, a split that re-roots (d e).
void AppendRunChurn(std::vector<Segment>* pool, size_t groups) {
  constexpr ObjectId kFirstObject = 1000;  // above BuildSegmentPool's ids
  const std::vector<std::vector<int>> shapes = {
      {0, 1}, {1, 2, 3}, {3, 4}, {0, 1}, {1, 2, 5}};
  Timestamp time = pool->empty() ? 0 : pool->back().end_time() + 50;
  for (size_t g = 0; g < groups; ++g) {
    const ObjectId base = kFirstObject + static_cast<ObjectId>(6 * g);
    for (const std::vector<int>& shape : shapes) {
      std::vector<SegmentEntry> entries;
      for (int offset : shape) {
        entries.push_back(
            SegmentEntry{base + static_cast<ObjectId>(offset), time++});
      }
      pool->emplace_back(static_cast<SegmentId>(pool->size()),
                         static_cast<StreamId>(g % 12), std::move(entries));
      time += 50;
    }
  }
}

// `cycles` repetitions of the pool, each shifted by one full validity window
// so the previous cycle is expired, with globally fresh segment ids.
std::vector<Segment> BuildCyclicTrace(const std::vector<Segment>& pool,
                                      int cycles, const MiningParams& params) {
  Timestamp t_min = kMaxTimestamp;
  Timestamp t_max = kMinTimestamp;
  for (const Segment& s : pool) {
    t_min = std::min(t_min, s.start_time());
    t_max = std::max(t_max, s.end_time());
  }
  const Timestamp period = (t_max - t_min) + params.tau + params.xi;
  std::vector<Segment> out;
  out.reserve(pool.size() * static_cast<size_t>(cycles));
  SegmentId next_id = 1;
  for (int c = 0; c < cycles; ++c) {
    const Timestamp shift = period * c;
    for (const Segment& s : pool) {
      std::vector<SegmentEntry> entries = s.entries();
      for (SegmentEntry& e : entries) e.time += shift;
      out.emplace_back(next_id++, s.stream(), std::move(entries));
    }
  }
  return out;
}

MiningParams SteadyParams() {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(5);
  params.theta = 1u << 20;  // unreachable: the mining path runs, emits nothing
  params.min_pattern_size = 1;
  params.max_pattern_size = 5;
  params.max_segment_objects = 24;
  return params;
}

// Replays the cyclic trace through `kind` and returns the number of heap
// allocations performed by the steady-state (post-warmup) half.
uint64_t SteadyStateAllocations(MinerKind kind,
                                uint32_t min_pattern_size = 1) {
  MiningParams params = SteadyParams();
  params.min_pattern_size = min_pattern_size;
  Rng rng(42);
  const std::vector<Segment> trace =
      BuildCyclicTrace(BuildSegmentPool(400, rng), /*cycles=*/6, params);

  auto miner = MakeMiner(kind, params);
  std::vector<Fcp> sink;
  sink.reserve(64);

  // Warm: first 3 of 6 cycles.
  const size_t warm = trace.size() / 2;
  for (size_t i = 0; i < warm; ++i) {
    sink.clear();
    miner->AddSegment(trace[i], &sink);
  }

  const uint64_t before = alloc_counter::allocations();
  for (size_t i = warm; i < trace.size(); ++i) {
    sink.clear();
    miner->AddSegment(trace[i], &sink);
  }
  return alloc_counter::allocations() - before;
}

TEST(AllocRegressionTest, CooMineSteadyStateAddSegmentIsAllocationFree) {
  EXPECT_EQ(SteadyStateAllocations(MinerKind::kCooMine), 0u);
}

TEST(AllocRegressionTest, DiMineSteadyStateAddSegmentIsAllocationFree) {
  EXPECT_EQ(SteadyStateAllocations(MinerKind::kDiMine), 0u);
}

TEST(AllocRegressionTest, MatrixMineSteadyStateAddSegmentIsAllocationFree) {
  EXPECT_EQ(SteadyStateAllocations(MinerKind::kMatrixMine), 0u);
}

// A size floor of 2 takes other paths: SLCP parks first hits instead of
// opening rows, and the posting miners count each supporter's mined objects
// in a scratch map. They must converge as well.
TEST(AllocRegressionTest, MinSizeTwoSteadyStateIsAllocationFree) {
  for (MinerKind kind :
       {MinerKind::kCooMine, MinerKind::kDiMine, MinerKind::kMatrixMine}) {
    EXPECT_EQ(SteadyStateAllocations(kind, /*min_pattern_size=*/2), 0u)
        << MinerKindToString(kind);
  }
}

// The sharded deployment must not scale allocations with the shard count:
// S replicas each index the full closed universe, so any per-posting heap
// growth (the doubling chain a plain std::vector pays per object) is paid S
// times over. With arena-pooled postings every replica converges during the
// warm cycles and the steady-state half must be allocation-free — the same
// zero the serial miner achieves, not merely "small".
TEST(AllocRegressionTest, ShardedDiMineSteadyStateIsAllocationFree) {
  constexpr uint32_t kShards = 4;
  const MiningParams params = SteadyParams();
  Rng rng(42);
  const std::vector<Segment> trace =
      BuildCyclicTrace(BuildSegmentPool(400, rng), /*cycles=*/6, params);

  std::vector<std::unique_ptr<FcpMiner>> miners;
  for (uint32_t s = 0; s < kShards; ++s) {
    miners.push_back(MakeMiner(MinerKind::kDiMine, params,
                               ShardSpec{s, kShards}));
  }
  std::vector<Fcp> sink;
  sink.reserve(64);
  std::vector<uint32_t> targets;
  targets.reserve(kShards);
  auto deliver = [&](const Segment& segment) {
    targets.clear();
    // Route off the raw entries (DistinctObjects() allocates a fresh vector,
    // which would charge the harness's own routing to the miners).
    for (const SegmentEntry& entry : segment.entries()) {
      const uint32_t shard = ShardOf(entry.object, kShards);
      if (std::find(targets.begin(), targets.end(), shard) == targets.end()) {
        targets.push_back(shard);
      }
    }
    for (uint32_t target : targets) {
      miners[target]->AdvanceWatermark(segment.end_time());
      sink.clear();
      miners[target]->AddSegment(segment, &sink);
    }
  };

  const size_t warm = trace.size() / 2;
  for (size_t i = 0; i < warm; ++i) deliver(trace[i]);

  const uint64_t before = alloc_counter::allocations();
  for (size_t i = warm; i < trace.size(); ++i) deliver(trace[i]);
  const uint64_t allocations = alloc_counter::allocations() - before;
  EXPECT_EQ(allocations, 0u)
      << "sharded (S=" << kShards << ") DiMine steady state performed "
      << allocations << " heap allocations";
}

// The flight recorder must preserve the invariant with recording ON
// (DESIGN.md §2.5): ring slots are pre-allocated and the only allocation is
// the per-thread ring registration, which the warm cycles absorb. From then
// on every span/flow emitted inside AddSegment is plain stores into the
// ring — the steady-state half must still count zero allocations even while
// the ring wraps continuously.
TEST(AllocRegressionTest, TracingEnabledSteadyStateIsAllocationFree) {
  trace::Reset();
  trace::Start(/*ring_kb=*/64);  // small ring: wrap path exercised constantly
  for (MinerKind kind : {MinerKind::kCooMine, MinerKind::kDiMine,
                         MinerKind::kMatrixMine}) {
    EXPECT_EQ(SteadyStateAllocations(kind), 0u)
        << "tracing-enabled steady state allocated, miner "
        << MinerKindToString(kind);
  }
  trace::Stop();
  trace::Reset();
}

// ShrinkToFitIfOversized is the one sanctioned capacity release. At a
// maintenance boundary it must (a) stay silent on steady-state buffers —
// zero allocations — and (b) give back a pathological high-water mark.
TEST(AllocRegressionTest, ShrinkPolicyKeepsSteadyStateAllocationFree) {
  std::vector<uint64_t> scratch;
  scratch.reserve(2048);  // steady-state capacity, well above the byte floor
  scratch.resize(1500);   // hovers near the high-water mark
  const uint64_t before = alloc_counter::allocations();
  for (int sweep = 0; sweep < 100; ++sweep) {
    scratch.resize(1200 + (sweep % 300));
    EXPECT_FALSE(ShrinkToFitIfOversized(&scratch));
  }
  EXPECT_EQ(alloc_counter::allocations() - before, 0u)
      << "steady-state shrink checks must not touch the heap";

  // Workload shift: capacity 100x the live size is released (this is the
  // maintenance boundary, where an allocation is sanctioned).
  scratch.resize(16);
  EXPECT_TRUE(ShrinkToFitIfOversized(&scratch));
  EXPECT_LT(scratch.capacity(), size_t{2048});
}

// The telemetry record path must not reintroduce allocations: the same
// steady-state replay, but with the full per-segment publish sequence the
// engines run — a histogram Record, a PublishDelta of the miner stats and a
// PublishIntrospection of the index view. Registration happens before the
// measured region (it is the one place telemetry may allocate).
TEST(AllocRegressionTest, TelemetryPublishSteadyStateIsAllocationFree) {
  const MiningParams params = SteadyParams();
  Rng rng(42);
  const std::vector<Segment> trace =
      BuildCyclicTrace(BuildSegmentPool(400, rng), /*cycles=*/6, params);

  telemetry::MetricRegistry registry;
  const MinerMetrics metrics = MinerMetrics::Register(&registry, "");
  telemetry::LatencyHistogram* latency =
      registry.GetHistogram("fcp_segment_mine_latency_us");
  MinerStats published;

  auto miner = MakeMiner(MinerKind::kCooMine, params);
  std::vector<Fcp> sink;
  sink.reserve(64);

  const size_t warm = trace.size() / 2;
  for (size_t i = 0; i < warm; ++i) {
    sink.clear();
    miner->AddSegment(trace[i], &sink);
    latency->Record(static_cast<uint64_t>(i % 1000));
    metrics.PublishDelta(miner->stats(), &published);
    metrics.PublishIntrospection(miner->Introspect());
  }

  const uint64_t before = alloc_counter::allocations();
  for (size_t i = warm; i < trace.size(); ++i) {
    sink.clear();
    miner->AddSegment(trace[i], &sink);
    latency->Record(static_cast<uint64_t>(i % 1000));
    metrics.PublishDelta(miner->stats(), &published);
    metrics.PublishIntrospection(miner->Introspect());
  }
  const uint64_t allocations = alloc_counter::allocations() - before;
  EXPECT_EQ(allocations, 0u)
      << "telemetry-instrumented steady state performed " << allocations
      << " heap allocations";
  EXPECT_EQ(latency->TotalCount(), trace.size());
}

TEST(AllocRegressionTest, SegTreeSteadyStateChurnIsAllocationFree) {
  const MiningParams params = SteadyParams();
  Rng rng(7);
  std::vector<Segment> pool = BuildSegmentPool(300, rng);
  AppendRunChurn(&pool, /*groups=*/20);
  const std::vector<Segment> trace =
      BuildCyclicTrace(pool, /*cycles=*/6, params);
  const size_t per_cycle = trace.size() / 6;

  // Insert one full cycle, then expire it while inserting the next: the
  // bare index insert/expire churn, no mining on top.
  SegTree tree;
  const size_t warm = trace.size() / 2;
  for (size_t i = 0; i < warm; ++i) {
    tree.Insert(trace[i]);
    tree.RemoveExpired(trace[i].end_time(), params.tau);
  }

  const SegTreeStats warm_stats = tree.stats();
  const uint64_t before = alloc_counter::allocations();
  for (size_t i = warm; i < trace.size(); ++i) {
    tree.Insert(trace[i]);
    tree.RemoveExpired(trace[i].end_time(), params.tau);
  }
  const uint64_t allocations = alloc_counter::allocations() - before;
  EXPECT_EQ(allocations, 0u)
      << "steady-state Seg-tree churn performed " << allocations
      << " heap allocations over " << (trace.size() - warm) << " cycles";
  EXPECT_EQ(tree.num_segments(), per_cycle);
  EXPECT_GT(tree.stats().runs_recycled, 0u);
  // The measured half split runs, trimmed run fronts and re-rooted pieces.
  const SegTreeStats& stats = tree.stats();
  EXPECT_GT(stats.appends_in_place, warm_stats.appends_in_place);
  EXPECT_GT(stats.runs_split, warm_stats.runs_split);
  EXPECT_GT(stats.front_trims, warm_stats.front_trims);
  EXPECT_GT(stats.subtrees_reattached, warm_stats.subtrees_reattached);
}

// Loading a trace allocates a fixed amount (the read buffer, the path, the
// header line's error text), not a string per line: with the event vector
// reserved up front, a file ten times longer costs the same allocations.
uint64_t CsvLoadAllocations(size_t lines) {
  std::vector<ObjectEvent> events;
  for (size_t i = 0; i < lines; ++i) {
    // Out of time order every 7th event, so the sort runs too.
    const Timestamp time = static_cast<Timestamp>(i % 7 == 0 ? i / 2 : i);
    events.push_back(ObjectEvent{static_cast<StreamId>(i % 12),
                                 static_cast<ObjectId>(i * 31 % 5000), time});
  }
  const std::string path = std::filesystem::temp_directory_path() /
                           ("fcp_alloc_trace_" + std::to_string(::getpid()) +
                            "_" + std::to_string(lines) + ".csv");
  EXPECT_TRUE(SaveCsvTrace(path, events).ok());
  std::vector<ObjectEvent> loaded;
  loaded.reserve(100000);
  const uint64_t before = alloc_counter::allocations();
  const Status status = LoadCsvTrace(path, CsvOptions{}, &loaded);
  const uint64_t allocations = alloc_counter::allocations() - before;
  std::filesystem::remove(path);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(loaded.size(), lines);
  EXPECT_TRUE(std::is_sorted(loaded.begin(), loaded.end(),
                             [](const ObjectEvent& a, const ObjectEvent& b) {
                               return a.time < b.time;
                             }));
  return allocations;
}

TEST(AllocRegressionTest, CsvLoadAllocationsDoNotGrowWithTheTrace) {
  const uint64_t small = CsvLoadAllocations(10000);
  const uint64_t large = CsvLoadAllocations(100000);
  EXPECT_EQ(small, large);
  EXPECT_LT(large, 10u);
}

// Guards the counter itself: a build that silently drops the replaced
// operator new (e.g. a sanitizer interposing malloc) would make the two
// tests above pass vacuously.
TEST(AllocRegressionTest, CounterObservesAllocations) {
  const uint64_t before = alloc_counter::allocations();
  std::vector<int>* v = new std::vector<int>(1000);
  EXPECT_GT(alloc_counter::allocations(), before);
  delete v;
}

}  // namespace
}  // namespace fcp
