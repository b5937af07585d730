#include "core/posting_miner.h"

#include <gtest/gtest.h>

#include "core/miner.h"
#include "test_util.h"

namespace fcp {
namespace {

using ::fcp::testing::MakeSegment;
using ::fcp::testing::PatternsOf;

MiningParams Params(uint32_t theta = 2) {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(30);
  params.theta = theta;
  params.min_pattern_size = 1;
  params.max_pattern_size = 4;
  return params;
}

TEST(MatrixMineTest, PairsFromCells) {
  MatrixMine miner(Params(2));
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 0, {7, 8}, 100), &out);
  EXPECT_TRUE(out.empty());
  miner.AddSegment(MakeSegment(2, 1, {7, 8}, 200), &out);
  EXPECT_EQ(PatternsOf(out), (std::set<Pattern>{{7}, {8}, {7, 8}}));
}

TEST(MatrixMineTest, HigherOrderViaIntersection) {
  MatrixMine miner(Params(2));
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 0, {1, 2, 3}, 100), &out);
  out.clear();
  miner.AddSegment(MakeSegment(2, 1, {1, 2, 3}, 200), &out);
  EXPECT_TRUE(PatternsOf(out).contains(Pattern{1, 2, 3}));
  EXPECT_EQ(out.size(), 7u);
}

TEST(MatrixMineTest, PartialOverlapOnlyCommonSubset) {
  MatrixMine miner(Params(2));
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 0, {1, 2, 9}, 100), &out);
  out.clear();
  miner.AddSegment(MakeSegment(2, 1, {1, 2, 7}, 200), &out);
  EXPECT_EQ(PatternsOf(out), (std::set<Pattern>{{1}, {2}, {1, 2}}));
}

TEST(MatrixMineTest, ExpiredCellsFiltered) {
  MatrixMine miner(Params(2));
  std::vector<Fcp> out;
  miner.AddSegment(MakeSegment(1, 0, {4, 5}, 0), &out);
  out.clear();
  miner.AddSegment(MakeSegment(2, 1, {4, 5}, Minutes(35)), &out);
  EXPECT_TRUE(out.empty());
}

TEST(MatrixMineTest, SweepRunsOnInterval) {
  MiningParams params = Params(2);
  MatrixMine miner(params);
  std::vector<Fcp> out;
  Timestamp now = 0;
  for (int i = 0; i < 100; ++i) {
    now += Minutes(1);
    miner.AddSegment(MakeSegment(static_cast<SegmentId>(i),
                                 static_cast<StreamId>(i % 3),
                                 {static_cast<ObjectId>(i % 5),
                                  static_cast<ObjectId>(5 + i % 5)},
                                 now),
                     &out);
  }
  EXPECT_GT(miner.stats().maintenance_runs, 0u);
  EXPECT_LE(miner.index().num_segments(), 40u);
}

TEST(MatrixMineTest, QuadraticInsertionCost) {
  MatrixMine miner(Params(2));
  std::vector<Fcp> out;
  std::vector<SegmentEntry> entries;
  for (ObjectId i = 0; i < 30; ++i) entries.push_back(SegmentEntry{i, 0});
  miner.AddSegment(Segment(1, 0, std::move(entries)), &out);
  // 30 diagonal + C(30,2) = 435 pairs.
  EXPECT_EQ(miner.index().total_entries(), 465u);
}

}  // namespace
}  // namespace fcp
