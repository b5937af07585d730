#include "core/coomine.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "test_util.h"
#include "util/kernels/kernels.h"
#include "util/rng.h"

namespace fcp {
namespace {

using ::fcp::testing::FullSignatures;
using ::fcp::testing::MakeSegment;
using ::fcp::testing::PatternsOf;

// Fig. 3 letters.
constexpr ObjectId b = 1, c = 2, d = 3, e = 4, f = 5, h = 6, j = 7, k = 8,
                   m = 9, n = 10, o = 11, p = 12, r = 13, s = 14, t = 15,
                   w = 16, z = 17;

MiningParams Example4Params() {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(30);
  params.theta = 3;
  params.min_pattern_size = 1;
  params.max_pattern_size = 3;
  return params;
}

std::vector<Segment> PaperSegments() {
  return {
      MakeSegment(10, 1, {b, c, d}, 100),
      MakeSegment(11, 1, {c, d, f, k}, 200),
      MakeSegment(12, 1, {h, m, n}, 300),
      MakeSegment(13, 1, {n, c, p, o}, 400),
      MakeSegment(14, 1, {h, b, k, r, s, t}, 500),
      MakeSegment(20, 2, {e, c, f}, 150),
      MakeSegment(21, 2, {c, f, h, j}, 250),
      MakeSegment(22, 2, {j, p, o}, 350),
      MakeSegment(23, 2, {e, c, m, n}, 450),
      MakeSegment(24, 2, {n, s, w, z}, 550),
  };
}

TEST(CooMineTest, PaperExample4) {
  CooMine miner(Example4Params());
  std::vector<Fcp> out;
  for (const Segment& g : PaperSegments()) miner.AddSegment(g, &out);
  out.clear();

  // The new segment (m,n,p,o) in stream s3 completes, per Example 4:
  // FCP_1: {m},{n},{o},{p}; FCP_2: {m,n},{p,o}; no FCP_3.
  miner.AddSegment(MakeSegment(30, 3, {m, n, p, o}, 600), &out);
  const std::set<Pattern> got = PatternsOf(out);
  const std::set<Pattern> want = {{m}, {n}, {o}, {p}, {m, n}, {o, p}};
  EXPECT_EQ(got, want);
}

TEST(CooMineTest, PaperExample4StreamCounts) {
  CooMine miner(Example4Params());
  std::vector<Fcp> out;
  for (const Segment& g : PaperSegments()) miner.AddSegment(g, &out);
  out.clear();
  miner.AddSegment(MakeSegment(30, 3, {m, n, p, o}, 600), &out);
  for (const Fcp& fcp : out) {
    EXPECT_GE(fcp.streams.size(), 3u) << fcp.DebugString();
    // Streams are {1, 2, 3} for every pattern in this example.
    EXPECT_EQ(fcp.streams, (std::vector<StreamId>{1, 2, 3}))
        << fcp.DebugString();
    EXPECT_EQ(fcp.trigger, 30u);
  }
}

TEST(CooMineTest, NoFcpsBelowTheta) {
  MiningParams params = Example4Params();
  params.theta = 4;  // example only reaches 3 streams
  CooMine miner(params);
  std::vector<Fcp> out;
  for (const Segment& g : PaperSegments()) miner.AddSegment(g, &out);
  out.clear();
  miner.AddSegment(MakeSegment(30, 3, {m, n, p, o}, 600), &out);
  EXPECT_TRUE(out.empty());
}

TEST(CooMineTest, MinPatternSizeFiltersOutput) {
  MiningParams params = Example4Params();
  params.min_pattern_size = 2;
  CooMine miner(params);
  std::vector<Fcp> out;
  for (const Segment& g : PaperSegments()) miner.AddSegment(g, &out);
  out.clear();
  miner.AddSegment(MakeSegment(30, 3, {m, n, p, o}, 600), &out);
  EXPECT_EQ(PatternsOf(out), (std::set<Pattern>{{m, n}, {o, p}}));
}

TEST(CooMineTest, SameStreamOccurrencesCountOnce) {
  // Pattern {1,2} in three segments of ONE stream + the probe's stream:
  // only 2 distinct streams, below theta=3.
  MiningParams params = Example4Params();
  CooMine miner(params);
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 1, {1, 2}, 100), &out);
  miner.AddSegment(MakeSegment(2, 1, {1, 2, 3}, 200), &out);
  miner.AddSegment(MakeSegment(3, 1, {1, 2, 4}, 300), &out);
  out.clear();
  miner.AddSegment(MakeSegment(4, 2, {1, 2}, 400), &out);
  EXPECT_TRUE(out.empty());
  // A third distinct stream tips it over.
  miner.AddSegment(MakeSegment(5, 3, {1, 2}, 500), &out);
  EXPECT_EQ(PatternsOf(out), (std::set<Pattern>{{1}, {2}, {1, 2}}));
}

TEST(CooMineTest, ExpiredSupportersDoNotCount) {
  MiningParams params = Example4Params();
  params.theta = 2;
  CooMine miner(params);
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 1, {1, 2}, 0), &out);
  out.clear();
  // Far beyond tau: the old supporter no longer counts.
  const Timestamp late = params.tau + Minutes(5);
  miner.AddSegment(MakeSegment(2, 2, {1, 2}, late), &out);
  EXPECT_TRUE(out.empty());
  // And the sweep before the trigger removed the expired segment.
  EXPECT_EQ(miner.seg_tree().num_segments(), 1u);
}

TEST(CooMineTest, LazyDeletionKeepsTreeConsistent) {
  MiningParams params = Example4Params();
  params.theta = 2;
  CooMine miner(params);
  std::vector<Fcp> out;
  Timestamp now = 0;
  for (int i = 0; i < 200; ++i) {
    now += Minutes(1);
    miner.AddSegment(
        MakeSegment(static_cast<SegmentId>(i), static_cast<StreamId>(i % 4),
                    {static_cast<ObjectId>(i % 10),
                     static_cast<ObjectId>((i + 1) % 10)},
                    now),
        &out);
    if (i % 25 == 0) miner.seg_tree().CheckInvariants();
  }
  miner.seg_tree().CheckInvariants();
  // tau = 30 min and one segment a minute: the sweep before each trigger
  // leaves exactly the 31 segments started in the last 30 minutes.
  EXPECT_EQ(miner.seg_tree().num_segments(), 31u);
}

TEST(CooMineTest, StatsAccumulate) {
  CooMine miner(Example4Params());
  std::vector<Fcp> out;
  for (const Segment& g : PaperSegments()) miner.AddSegment(g, &out);
  miner.AddSegment(MakeSegment(30, 3, {m, n, p, o}, 600), &out);
  const MinerStats& stats = miner.stats();
  EXPECT_EQ(stats.segments_processed, 11u);
  EXPECT_GT(stats.lcp_rows, 0u);
  EXPECT_GT(stats.candidates_checked, 0u);
  EXPECT_GT(stats.fcps_emitted, 0u);
  EXPECT_GE(stats.mining_ns, 0);
  EXPECT_GE(stats.maintenance_ns, 0);
}

// slcp_nodes_visited, slcp_runs_visited and slcp_chains_skipped are exactly
// the Seg-tree's DistanceBound slot and run visits and chain skips made by
// each AddSegment's SLCP, on the serial and the ownership-filtered paths.
TEST(CooMineTest, SlcpNodesVisitedMatchesSegTreeVisits) {
  for (const ShardSpec shard : {ShardSpec{}, ShardSpec{1, 3}}) {
    CooMine miner(Example4Params(), shard);
    std::vector<Fcp> out;
    std::vector<Segment> segments = PaperSegments();
    segments.push_back(MakeSegment(30, 3, {m, n, p, o}, 600));
    for (const Segment& g : segments) {
      const uint64_t tree_before =
          miner.seg_tree().stats().distance_bound_visits;
      const uint64_t tree_runs_before = miner.seg_tree().stats().runs_visited;
      const uint64_t stat_before = miner.stats().slcp_nodes_visited;
      const uint64_t runs_before = miner.stats().slcp_runs_visited;
      const uint64_t tree_skips_before =
          miner.seg_tree().stats().slcp_chains_skipped;
      const uint64_t skips_before = miner.stats().slcp_chains_skipped;
      miner.AddSegment(g, &out);
      EXPECT_EQ(miner.stats().slcp_nodes_visited - stat_before,
                miner.seg_tree().stats().distance_bound_visits - tree_before)
          << g.DebugString();
      EXPECT_EQ(miner.stats().slcp_runs_visited - runs_before,
                miner.seg_tree().stats().runs_visited - tree_runs_before)
          << g.DebugString();
      EXPECT_EQ(miner.stats().slcp_chains_skipped - skips_before,
                miner.seg_tree().stats().slcp_chains_skipped -
                    tree_skips_before)
          << g.DebugString();
    }
    EXPECT_GT(miner.stats().slcp_nodes_visited, 0u);
    // A run visit steps one or more slots.
    EXPECT_GT(miner.stats().slcp_runs_visited, 0u);
    EXPECT_LE(miner.stats().slcp_runs_visited,
              miner.stats().slcp_nodes_visited);
  }
  // The posting-list miners have no Seg-tree to walk.
  for (MinerKind kind : {MinerKind::kDiMine, MinerKind::kMatrixMine}) {
    auto miner = MakeMiner(kind, Example4Params());
    std::vector<Fcp> out;
    for (const Segment& g : PaperSegments()) miner->AddSegment(g, &out);
    EXPECT_EQ(miner->stats().slcp_nodes_visited, 0u) << miner->name();
    EXPECT_EQ(miner->stats().slcp_runs_visited, 0u) << miner->name();
    EXPECT_EQ(miner->stats().slcp_chains_skipped, 0u) << miner->name();
  }
}

TEST(CooMineTest, MaxSegmentObjectsCapBoundsWork) {
  MiningParams params = Example4Params();
  params.theta = 1;  // everything frequent -> worst case
  params.max_segment_objects = 3;
  params.max_pattern_size = 0;  // unbounded
  CooMine miner(params);
  std::vector<Fcp> out;
  std::vector<SegmentEntry> entries;
  for (ObjectId i = 0; i < 64; ++i) entries.push_back(SegmentEntry{i, 0});
  miner.AddSegment(Segment(1, 0, std::move(entries)), &out);
  // Capped at 3 objects: at most 2^3 - 1 = 7 patterns.
  EXPECT_LE(out.size(), 7u);
}


// Mines `segments` with CooMine serially (num_shards == 0) or as S shard
// miners that each see every segment (ownership decides who emits).
std::vector<Fcp> MineCooMine(const MiningParams& params, uint32_t num_shards,
                             const std::vector<Segment>& segments) {
  std::vector<std::unique_ptr<FcpMiner>> miners;
  if (num_shards == 0) {
    miners.push_back(MakeMiner(MinerKind::kCooMine, params));
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    miners.push_back(
        MakeMiner(MinerKind::kCooMine, params, ShardSpec{s, num_shards}));
  }
  std::vector<Fcp> out;
  for (const Segment& segment : segments) {
    for (auto& miner : miners) {
      miner->AdvanceWatermark(segment.end_time());
      miner->AddSegment(segment, &out);
    }
  }
  return out;
}

std::vector<Fcp> MineBruteForce(const MiningParams& params,
                                const std::vector<Segment>& segments) {
  auto miner = MakeMiner(MinerKind::kBruteForce, params);
  std::vector<Fcp> out;
  for (const Segment& segment : segments) miner->AddSegment(segment, &out);
  return out;
}

// Def. 3 counts streams, not rows: six supporting rows from two streams —
// one of them the trigger's own — are not theta = 3 streams, however many
// rows pass the popcount bound. One segment of a third stream makes exactly
// one FCP, whose streams are sorted (the trigger's stream is counted first)
// and whose window spans every supporting row, the repeated streams' rows
// included. Run with the pattern emitted at size 1 (singletons take the
// listing count) and at size 2 (singletons take the early-exit count),
// serially and at S = 4, each against the brute-force oracle.
TEST(CooMineTest, ManyRowsFromFewStreamsAreNotFrequent) {
  constexpr ObjectId kA = 7, kB = 8;
  for (const uint32_t size : {1u, 2u}) {
    MiningParams params = Example4Params();
    params.theta = 3;
    params.min_pattern_size = size;
    params.max_pattern_size = size;
    const Pattern pattern = size == 1 ? Pattern{kA} : Pattern{kA, kB};
    auto pattern_segment = [&](SegmentId id, StreamId stream, Timestamp t) {
      std::vector<SegmentEntry> entries;
      for (ObjectId object : pattern) {
        entries.push_back(SegmentEntry{object, t});
      }
      return Segment(id, stream, std::move(entries));
    };
    // Stream 1 (the first trigger's stream) holds the earliest supporter.
    std::vector<Segment> segments;
    ObjectId noise = 20;
    for (Timestamp t : {100, 200, 300}) {
      segments.push_back(
          MakeSegment(segments.size() + 1, 1, {kA, kB, noise++}, t));
      segments.push_back(
          MakeSegment(segments.size() + 1, 2, {kA, kB, noise++}, t + 50));
    }
    segments.push_back(pattern_segment(segments.size() + 1, 1, 1000));
    const SegmentId id = segments.size() + 1;
    for (const uint32_t shards : {0u, 4u}) {
      SCOPED_TRACE("size " + std::to_string(size) + ", shards " +
                   std::to_string(shards));
      const std::vector<Fcp> none = MineCooMine(params, shards, segments);
      EXPECT_TRUE(none.empty());
      EXPECT_EQ(FullSignatures(none),
                FullSignatures(MineBruteForce(params, segments)));

      std::vector<Segment> more = segments;
      more.push_back(pattern_segment(id, 3, 1100));
      const std::vector<Fcp> one = MineCooMine(params, shards, more);
      ASSERT_EQ(one.size(), 1u);
      EXPECT_EQ(one[0].objects, pattern);
      EXPECT_EQ(one[0].streams, (std::vector<StreamId>{1, 2, 3}));
      EXPECT_EQ(one[0].trigger, id);
      EXPECT_EQ(one[0].window_start, 100);
      EXPECT_EQ(one[0].window_end, 1100);
      EXPECT_EQ(FullSignatures(one),
                FullSignatures(MineBruteForce(params, more)));
    }
  }
}

// A segment completes only when its stream's next event arrives (or at
// Flush), so an idle stream's segment can reach the miner more than
// tau + xi after it started. At the watermark that trigger has expired, and
// like every expired segment it supports nothing, its own patterns
// included: two valid supporters on other streams stay below theta = 3. A
// valid segment of the trigger's own stream makes the pattern frequent, and
// the FCP's window then spans the valid supporters only. Serially and at
// S = 4, each against the brute-force oracle.
TEST(CooMineTest, ExpiredTriggerDoesNotSupportItsOwnPatterns) {
  constexpr ObjectId kA = 7, kB = 8;
  MiningParams params = Example4Params();
  params.min_pattern_size = 2;
  params.max_pattern_size = 2;
  const Timestamp late = params.tau + params.xi + Minutes(5);
  const Segment idle = MakeSegment(9, 1, {kA, kB}, 0);
  const std::vector<Segment> segments = {
      MakeSegment(1, 2, {kA, kB, 20}, late - 100),
      MakeSegment(2, 3, {kA, kB, 21}, late),
      idle,
  };
  const std::vector<Segment> with_own_stream = {
      segments[0],
      segments[1],
      MakeSegment(3, 1, {kA, kB, 22}, late - 50),
      idle,
  };
  for (const uint32_t shards : {0u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const std::vector<Fcp> none = MineCooMine(params, shards, segments);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(FullSignatures(none),
              FullSignatures(MineBruteForce(params, segments)));

    const std::vector<Fcp> found =
        MineCooMine(params, shards, with_own_stream);
    EXPECT_EQ(FullSignatures(found),
              FullSignatures(MineBruteForce(params, with_own_stream)));
    size_t from_idle = 0;
    for (const Fcp& fcp : found) {
      if (fcp.trigger != idle.id()) continue;
      ++from_idle;
      EXPECT_EQ(fcp.objects, (Pattern{kA, kB}));
      EXPECT_EQ(fcp.streams, (std::vector<StreamId>{1, 2, 3}));
      EXPECT_EQ(fcp.window_start, late - 100);
      EXPECT_EQ(fcp.window_end, late);
    }
    EXPECT_EQ(from_idle, 1u);
  }
}

// CooMine sweeps the Seg-tree's start-ordered Tlist before every trigger
// and indexes no expired trigger, so after every AddSegment the tree holds
// exactly the segments valid at the watermark. An idle stream (stream 9)
// completes its segments late and out of start order, some of them already
// expired, the case a completion-ordered sweep left behind. Serially and at
// S = 4, the output equals the brute-force oracle's.
TEST(CooMineTest, SweptTreeHoldsExactlyTheValidSegments) {
  MiningParams params = Example4Params();
  params.theta = 2;
  Rng rng(55);
  Timestamp now = 0;
  std::vector<Segment> segments;
  for (SegmentId id = 0; id < 300; ++id) {
    now += static_cast<Timestamp>(rng.Below(Minutes(2)));
    const bool idle = rng.Below(5) == 0;
    const Timestamp start =
        idle ? now - static_cast<Timestamp>(rng.Below(2 * params.tau)) : now;
    std::vector<SegmentEntry> entries;
    const size_t length = 1 + rng.Below(5);
    for (size_t i = 0; i < length; ++i) {
      entries.push_back(SegmentEntry{static_cast<ObjectId>(rng.Below(10)),
                                     start + static_cast<Timestamp>(i)});
    }
    segments.emplace_back(id, idle ? 9 : static_cast<StreamId>(rng.Below(4)),
                          std::move(entries));
  }

  CooMine miner(params);
  Timestamp watermark = kMinTimestamp;
  size_t late_expired = 0;  // idle segments expired on arrival
  std::vector<Fcp> out;
  for (size_t i = 0; i < segments.size(); ++i) {
    watermark = std::max(watermark, segments[i].end_time());
    if (watermark - segments[i].start_time() > params.tau) ++late_expired;
    miner.AddSegment(segments[i], &out);
    size_t valid = 0;
    for (size_t j = 0; j <= i; ++j) {
      valid += watermark - segments[j].start_time() <= params.tau ? 1 : 0;
    }
    ASSERT_EQ(miner.seg_tree().num_segments(), valid) << "at segment " << i;
    ASSERT_GE(miner.seg_tree().oldest_start(), watermark - params.tau);
  }
  miner.seg_tree().CheckInvariants();
  EXPECT_GT(late_expired, 0u);
  EXPECT_GT(miner.stats().segments_expired, 0u);
  EXPECT_GT(miner.stats().maintenance_runs, 0u);
  EXPECT_LE(miner.stats().maintenance_runs, miner.stats().segments_expired);
  EXPECT_FALSE(out.empty());
  const auto want = FullSignatures(MineBruteForce(params, segments));
  EXPECT_EQ(FullSignatures(out), want);
  EXPECT_EQ(FullSignatures(MineCooMine(params, 4, segments)), want);
}

// Sliding-window streams (the traffic regime): each stream's segment keeps
// most of its predecessor's `width` objects and swaps in one or two from a
// shared universe, so consecutive triggers overlap and cross-stream patterns
// recur. A stream's segments come `gap` apart.
std::vector<Segment> SlidingWindowTrace(uint64_t seed, size_t count,
                                        Timestamp gap, size_t width,
                                        ObjectId universe = 30) {
  constexpr StreamId kStreams = 5;
  Rng rng(seed);
  std::vector<std::vector<ObjectId>> window(kStreams);
  std::vector<Segment> segments;
  Timestamp now = 0;
  for (SegmentId id = 0; id < count; ++id) {
    const StreamId stream = static_cast<StreamId>(id % kStreams);
    std::vector<ObjectId>& objects = window[stream];
    const size_t swaps = objects.empty() ? width : 1 + rng.Below(2);
    for (size_t i = 0; i < swaps; ++i) {
      if (objects.size() >= width) {
        objects.erase(objects.begin() +
                      static_cast<ptrdiff_t>(rng.Below(objects.size())));
      }
      objects.push_back(static_cast<ObjectId>(rng.Below(universe)));
    }
    if (stream == 0) now += gap;
    std::vector<SegmentEntry> entries;
    for (size_t i = 0; i < objects.size(); ++i) {
      entries.push_back(
          SegmentEntry{objects[i], now + static_cast<Timestamp>(stream + i)});
    }
    segments.emplace_back(id, stream, std::move(entries));
  }
  return segments;
}

// Serial CooMine against the brute-force oracle and DIMine, trigger by
// trigger: the same discoveries (streams and windows included), and
// exactly DIMine's list, so the re-certified patterns are merged in
// EmitOrderLess order. Returns CooMine's counters.
MinerStats ExpectCooMineMatchesOracle(const MiningParams& params,
                                      const std::vector<Segment>& segments) {
  auto coo = MakeMiner(MinerKind::kCooMine, params);
  auto oracle = MakeMiner(MinerKind::kBruteForce, params);
  auto di = MakeMiner(MinerKind::kDiMine, params);
  std::vector<Fcp> got, want, ordered;
  for (const Segment& segment : segments) {
    got.clear();
    want.clear();
    ordered.clear();
    coo->AddSegment(segment, &got);
    oracle->AddSegment(segment, &want);
    di->AddSegment(segment, &ordered);
    EXPECT_EQ(FullSignatures(got), FullSignatures(want))
        << "trigger " << segment.DebugString();
    EXPECT_EQ(got.size(), ordered.size()) << segment.DebugString();
    for (size_t i = 0; i < std::min(got.size(), ordered.size()); ++i) {
      EXPECT_EQ(got[i].objects, ordered[i].objects) << segment.DebugString();
    }
  }
  EXPECT_EQ(coo->stats().fcps_emitted, di->stats().fcps_emitted);
  return coo->stats();
}

MiningParams NewObjectParams() {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(5);
  params.theta = 2;
  params.min_pattern_size = 2;
  params.max_pattern_size = 4;
  return params;
}

// The new-object rule fires on most triggers of overlapping windows, and
// re-certifies logged patterns, at every size floor; the output is the
// oracle's.
TEST(CooMineNewObjectTest, MatchesOracleWhereTheRuleFires) {
  for (const uint32_t min_size : {1u, 2u, 3u}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("m " + std::to_string(min_size) + " seed " +
                   std::to_string(seed));
      MiningParams params = NewObjectParams();
      params.min_pattern_size = min_size;
      const std::vector<Segment> segments =
          SlidingWindowTrace(seed, 400, Seconds(20), 5);
      const MinerStats stats = ExpectCooMineMatchesOracle(params, segments);
      // At m = 1 every old singleton is a logged pattern to re-certify, so
      // the full walk is cheaper on most triggers.
      EXPECT_GT(stats.new_object_triggers,
                min_size == 1 ? 0 : segments.size() / 2);
      EXPECT_GT(stats.reemissions, 0u);
      EXPECT_LE(stats.reemissions, stats.log_patterns_certified);
    }
  }
}

// Fallback: a stream's previous trigger has expired (its segments come
// more than tau apart), so every trigger mines in full.
TEST(CooMineNewObjectTest, ExpiredPreviousTriggerMinesInFull) {
  MiningParams params = NewObjectParams();
  const std::vector<Segment> segments =
      SlidingWindowTrace(4, 200, params.tau + Seconds(1), 5);
  const MinerStats stats = ExpectCooMineMatchesOracle(params, segments);
  EXPECT_EQ(stats.new_object_triggers, 0u);
  EXPECT_EQ(stats.reemissions, 0u);
  EXPECT_GT(stats.fcps_emitted, 0u);
}

// Fallback: a trigger cut by max_segment_objects may hold a pattern beyond
// its mined prefix and emit nothing for it. Here {a, b} is frequent only at
// the last trigger, whose stream's previous trigger holds it; the two cut
// supporters between them never mined it, so the log does not hold it and
// the last trigger must mine in full to find it.
TEST(CooMineNewObjectTest, CutTriggerSinceThePreviousOneMinesInFull) {
  constexpr ObjectId kA = 10, kB = 11;
  MiningParams params = NewObjectParams();
  params.theta = 3;
  params.max_segment_objects = 2;
  const std::vector<Segment> segments = {
      MakeSegment(1, 1, {kA, kB}, 0),
      MakeSegment(2, 2, {1, 2, kA, kB}, 1000),
      MakeSegment(3, 3, {3, 4, kA, kB}, 2000),
      MakeSegment(4, 1, {kA, kB}, 3000),
  };
  auto coo = MakeMiner(MinerKind::kCooMine, params);
  std::vector<Fcp> out;
  for (const Segment& segment : segments) coo->AddSegment(segment, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].objects, (Pattern{kA, kB}));
  EXPECT_EQ(out[0].trigger, 4u);
  EXPECT_EQ(out[0].streams, (std::vector<StreamId>{1, 2, 3}));
  EXPECT_EQ(coo->stats().new_object_triggers, 0u);
  EXPECT_EQ(FullSignatures(out),
            FullSignatures(MineBruteForce(params, segments)));

  // The same triggers uncut: the last one takes the rule (no new object)
  // and re-certifies {a, b}, which the third trigger emitted.
  params.max_segment_objects = 0;
  auto uncut = MakeMiner(MinerKind::kCooMine, params);
  out.clear();
  for (const Segment& segment : segments) uncut->AddSegment(segment, &out);
  EXPECT_EQ(FullSignatures(out),
            FullSignatures(MineBruteForce(params, segments)));
  EXPECT_EQ(uncut->stats().new_object_triggers, 1u);
  EXPECT_EQ(uncut->stats().reemissions, 1u);
}

// Fallback: on a trace cut now and then by the cap, the triggers with a cut
// since their stream's previous trigger mine in full and the rest take the
// rule; the output is the oracle's either way.
TEST(CooMineNewObjectTest, OccasionalCutsMatchOracle) {
  MiningParams params = NewObjectParams();
  params.max_segment_objects = 5;
  // Six-object windows over 12 objects often repeat one, so only some
  // segments hold more than five distinct objects.
  const std::vector<Segment> segments =
      SlidingWindowTrace(5, 400, Seconds(20), 6, 12);
  size_t cut = 0;
  for (const Segment& segment : segments) {
    cut += segment.distinct_objects().size() > 5 ? 1 : 0;
  }
  ASSERT_GT(cut, 0u);
  ASSERT_LT(cut, segments.size());
  const MinerStats stats = ExpectCooMineMatchesOracle(params, segments);
  EXPECT_GT(stats.new_object_triggers, 0u);
  EXPECT_LT(stats.new_object_triggers, segments.size() - cut);
}

// Fallback: shard miners mine in full; their union is the oracle's.
TEST(CooMineNewObjectTest, ShardsMineInFull) {
  const MiningParams params = NewObjectParams();
  const std::vector<Segment> segments =
      SlidingWindowTrace(6, 400, Seconds(20), 5);
  constexpr uint32_t kShards = 4;
  std::vector<std::unique_ptr<FcpMiner>> shards;
  for (uint32_t s = 0; s < kShards; ++s) {
    shards.push_back(
        MakeMiner(MinerKind::kCooMine, params, ShardSpec{s, kShards}));
  }
  std::vector<Fcp> out;
  for (const Segment& segment : segments) {
    for (auto& shard : shards) {
      shard->AdvanceWatermark(segment.end_time());
      shard->AddSegment(segment, &out);
    }
  }
  EXPECT_EQ(FullSignatures(out),
            FullSignatures(MineBruteForce(params, segments)));
  for (const auto& shard : shards) {
    EXPECT_EQ(shard->stats().new_object_triggers, 0u);
    EXPECT_EQ(shard->stats().reemissions, 0u);
    EXPECT_EQ(shard->stats().log_patterns_certified, 0u);
  }
}

// The tidset support loops (util/kernels/kernels.h) against the
// std::popcount sum: every threshold around the count, and `out` holds the
// complete AND whatever the verdict (CooMine reuses it as the next level's
// tidset).
size_t TotalPopcount(const std::vector<uint64_t>& bits) {
  size_t count = 0;
  for (uint64_t word : bits) count += static_cast<size_t>(std::popcount(word));
  return count;
}

// The early-exit boundary on both sides of the count, plus the extremes.
std::vector<size_t> InterestingThresholds(size_t count) {
  std::vector<size_t> thresholds = {0, 1, count / 2, count, count + 1,
                                    count + 1000};
  if (count > 0) thresholds.push_back(count - 1);
  return thresholds;
}

void CheckBitsetLoops(const std::vector<uint64_t>& a,
                      const std::vector<uint64_t>& b,
                      const std::string& label) {
  const size_t words = a.size();
  ASSERT_EQ(b.size(), words);
  std::vector<uint64_t> expected_and(words);
  for (size_t w = 0; w < words; ++w) expected_and[w] = a[w] & b[w];

  for (size_t threshold : InterestingThresholds(TotalPopcount(a))) {
    EXPECT_EQ(kernels::PopcountAtLeast(a.data(), words, threshold),
              TotalPopcount(a) >= threshold)
        << label << " PopcountAtLeast words=" << words
        << " threshold=" << threshold;
  }
  for (size_t threshold : InterestingThresholds(TotalPopcount(expected_and))) {
    std::vector<uint64_t> out(words, ~uint64_t{0});
    const bool got = kernels::AndPopcountAtLeast(a.data(), b.data(),
                                                 out.data(), words, threshold);
    EXPECT_EQ(got, TotalPopcount(expected_and) >= threshold)
        << label << " AndPopcountAtLeast words=" << words
        << " threshold=" << threshold;
    EXPECT_EQ(out, expected_and)
        << label << " AND output words=" << words
        << " threshold=" << threshold;
  }
}

TEST(KernelBitsetTest, AdversarialBitsets) {
  for (size_t words : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                       size_t{7}, size_t{8}, size_t{15}, size_t{16},
                       size_t{17}, size_t{31}, size_t{32}, size_t{33},
                       size_t{64}, size_t{65}, size_t{100}}) {
    CheckBitsetLoops(std::vector<uint64_t>(words, 0),
                     std::vector<uint64_t>(words, 0), "all-zero");
    CheckBitsetLoops(std::vector<uint64_t>(words, ~uint64_t{0}),
                     std::vector<uint64_t>(words, ~uint64_t{0}), "all-ones");
    if (words == 0) continue;
    // Single bit in the last word, and bits hugging the 64-bit word
    // boundaries (top bit of word k, bottom bit of word k+1).
    std::vector<uint64_t> single(words, 0);
    single.back() = uint64_t{1} << 63;
    CheckBitsetLoops(single, std::vector<uint64_t>(words, ~uint64_t{0}),
                     "single-bit");
    std::vector<uint64_t> straddle(words, (uint64_t{1} << 63) | uint64_t{1});
    CheckBitsetLoops(straddle, single, "boundary-straddle");
  }
}

TEST(KernelBitsetTest, RandomBitsetsMatchReference) {
  Rng rng(20260806);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t words = rng.Below(80);
    std::vector<uint64_t> a(words);
    std::vector<uint64_t> b(words);
    // Mix densities: sparse bitsets exercise the early exit's "never fires"
    // side, dense ones the "fires quickly" side.
    const int shift = static_cast<int>(rng.Below(3)) * 16;
    for (size_t w = 0; w < words; ++w) {
      a[w] = rng.Next() & (rng.Next() >> shift);
      b[w] = rng.Next() & (rng.Next() >> shift);
    }
    CheckBitsetLoops(a, b, "random iter " + std::to_string(iter));
  }
}

}  // namespace
}  // namespace fcp
