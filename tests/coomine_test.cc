#include "core/coomine.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "test_util.h"
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
  // And the expired segment was lazily deleted from the Seg-tree.
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
  // tau = 30 min: at most ~31 minutes of segments may be live.
  EXPECT_LE(miner.seg_tree().num_segments(), 35u);
}

TEST(CooMineTest, ForceMaintenanceSweeps) {
  MiningParams params = Example4Params();
  CooMine miner(params);
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 1, {1, 2}, 0), &out);
  miner.AddSegment(MakeSegment(2, 2, {3, 4}, 100), &out);
  EXPECT_EQ(miner.seg_tree().num_segments(), 2u);
  miner.ForceMaintenance(params.tau + 200);
  EXPECT_EQ(miner.seg_tree().num_segments(), 0u);
  EXPECT_GE(miner.stats().maintenance_runs, 1u);
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
    CooMine miner(Example4Params(), {}, shard);
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

TEST(CooMineTest, PureLazyDeletionMatchesPeriodicSweeps) {
  // Expiry policy must not change results: validity is re-checked at every
  // query, so a miner that never sweeps (pure LD) emits the same FCPs.
  MiningParams params = Example4Params();
  params.theta = 2;
  CooMineOptions lazy_only;
  lazy_only.periodic_sweep = false;
  CooMine with_sweeps(params);
  CooMine without_sweeps(params, lazy_only);

  fcp::Rng rng(55);
  Timestamp now = 0;
  std::vector<Fcp> a, b;
  for (SegmentId id = 0; id < 300; ++id) {
    now += static_cast<Timestamp>(rng.Below(Minutes(2)));
    std::vector<SegmentEntry> entries;
    const size_t length = 1 + rng.Below(5);
    for (size_t i = 0; i < length; ++i) {
      entries.push_back(SegmentEntry{static_cast<ObjectId>(rng.Below(10)),
                                     now + static_cast<Timestamp>(i)});
    }
    const Segment segment(id, static_cast<StreamId>(rng.Below(4)),
                          std::move(entries));
    a.clear();
    b.clear();
    with_sweeps.AddSegment(segment, &a);
    without_sweeps.AddSegment(segment, &b);
    ASSERT_EQ(testing::SignaturesOf(a), testing::SignaturesOf(b))
        << "at segment " << id;
  }
  // The sweeping miner holds fewer live segments; both stay consistent.
  with_sweeps.seg_tree().CheckInvariants();
  without_sweeps.seg_tree().CheckInvariants();
  EXPECT_LE(with_sweeps.seg_tree().num_segments(),
            without_sweeps.seg_tree().num_segments());
}

}  // namespace
}  // namespace fcp
