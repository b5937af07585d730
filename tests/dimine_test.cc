#include "core/posting_miner.h"

#include <gtest/gtest.h>

#include "core/miner.h"
#include "test_util.h"

namespace fcp {
namespace {

using ::fcp::testing::MakeSegment;
using ::fcp::testing::PatternsOf;

MiningParams Params(uint32_t theta = 3) {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(30);
  params.theta = theta;
  params.min_pattern_size = 1;
  params.max_pattern_size = 4;
  return params;
}

TEST(DiMineTest, FindsCrossStreamPattern) {
  DiMine miner(Params(3));
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 0, {7, 8, 9}, 100), &out);
  miner.AddSegment(MakeSegment(2, 1, {7, 8}, 200), &out);
  EXPECT_TRUE(out.empty());
  miner.AddSegment(MakeSegment(3, 2, {7, 8, 11}, 300), &out);
  EXPECT_EQ(PatternsOf(out), (std::set<Pattern>{{7}, {8}, {7, 8}}));
}

TEST(DiMineTest, TriggerPatternsAreSubsetsOfTrigger) {
  DiMine miner(Params(2));
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 0, {1, 2, 3, 4}, 100), &out);
  miner.AddSegment(MakeSegment(2, 1, {3, 4, 5}, 200), &out);
  for (const Fcp& fcp : out) {
    for (ObjectId object : fcp.objects) {
      EXPECT_TRUE(object == 3 || object == 4) << fcp.DebugString();
    }
  }
  EXPECT_EQ(PatternsOf(out), (std::set<Pattern>{{3}, {4}, {3, 4}}));
}

TEST(DiMineTest, ExpiredSegmentsDropOut) {
  DiMine miner(Params(2));
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 0, {5}, 0), &out);
  out.clear();
  miner.AddSegment(MakeSegment(2, 1, {5}, Minutes(31)), &out);
  EXPECT_TRUE(out.empty()) << "supporter expired (tau=30min)";
}

TEST(DiMineTest, PeriodicSweepShrinksIndex) {
  MiningParams params = Params(2);
  DiMine miner(params);
  std::vector<Fcp> out;
  Timestamp now = 0;
  for (int i = 0; i < 120; ++i) {
    now += Minutes(1);
    miner.AddSegment(MakeSegment(static_cast<SegmentId>(i),
                                 static_cast<StreamId>(i % 3),
                                 {static_cast<ObjectId>(i % 20)}, now),
                     &out);
  }
  EXPECT_GT(miner.stats().maintenance_runs, 0u);
  // tau = 30 min at 1 segment/min: the index holds ~31 live segments.
  EXPECT_LE(miner.index().num_segments(), 40u);
}

TEST(DiMineTest, FourLevelPattern) {
  DiMine miner(Params(2));
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 0, {1, 2, 3, 4}, 100), &out);
  out.clear();
  miner.AddSegment(MakeSegment(2, 1, {1, 2, 3, 4}, 200), &out);
  EXPECT_TRUE(PatternsOf(out).contains(Pattern{1, 2, 3, 4}));
  EXPECT_EQ(out.size(), 15u);  // all 2^4 - 1 subsets are frequent
}

TEST(DiMineTest, MaxPatternSizeStopsEnumeration) {
  MiningParams params = Params(2);
  params.max_pattern_size = 2;
  DiMine miner(params);
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 0, {1, 2, 3}, 100), &out);
  out.clear();
  miner.AddSegment(MakeSegment(2, 1, {1, 2, 3}, 200), &out);
  for (const Fcp& fcp : out) EXPECT_LE(fcp.objects.size(), 2u);
  EXPECT_EQ(out.size(), 6u);  // 3 singletons + 3 pairs
}

TEST(DiMineTest, StatsTrackTimings) {
  DiMine miner(Params(1));
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 0, {1, 2}, 100), &out);
  EXPECT_EQ(miner.stats().segments_processed, 1u);
  EXPECT_GE(miner.stats().mining_ns, 0);
  EXPECT_GE(miner.stats().maintenance_ns, 0);
  EXPECT_GT(miner.stats().fcps_emitted, 0u);
}

}  // namespace
}  // namespace fcp
