#include "core/miner.h"

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace fcp {
namespace {

using ::fcp::testing::MakeSegment;

TEST(MakeFcpIfFrequentTest, CountsDistinctStreams) {
  const Pattern pattern = {1, 2};
  std::vector<Occurrence> occ = {
      {0, 100, 110}, {1, 120, 130}, {0, 140, 150}};  // streams {0, 1}
  EXPECT_FALSE(MakeFcpIfFrequent(pattern, occ, /*theta=*/3, 7).has_value());
  auto fcp = MakeFcpIfFrequent(pattern, occ, /*theta=*/2, 7);
  ASSERT_TRUE(fcp.has_value());
  EXPECT_EQ(fcp->objects, pattern);
  EXPECT_EQ(fcp->streams, (std::vector<StreamId>{0, 1}));
  EXPECT_EQ(fcp->window_start, 100);
  EXPECT_EQ(fcp->window_end, 150);
  EXPECT_EQ(fcp->trigger, 7u);
}

TEST(MakeFcpIfFrequentTest, EmptyOccurrences) {
  EXPECT_FALSE(MakeFcpIfFrequent({1}, {}, 1, 0).has_value());
}

TEST(MakeFcpIfFrequentTest, ThetaOne) {
  auto fcp = MakeFcpIfFrequent({1}, {{5, 10, 20}}, 1, 0);
  ASSERT_TRUE(fcp.has_value());
  EXPECT_EQ(fcp->streams, (std::vector<StreamId>{5}));
}

TEST(DistinctObjectsCappedTest, NoCapKeepsAll) {
  const Segment g = MakeSegment(1, 0, {5, 3, 5, 1}, 0);
  EXPECT_EQ(DistinctObjectsCapped(g, 0),
            (std::vector<ObjectId>{1, 3, 5}));
}

TEST(DistinctObjectsCappedTest, CapTruncates) {
  const Segment g = MakeSegment(1, 0, {5, 3, 9, 1}, 0);
  EXPECT_EQ(DistinctObjectsCapped(g, 2), (std::vector<ObjectId>{1, 3}));
}

TEST(MinedObjectsTest, ViewsTheCappedDistinctPrefix) {
  const Segment g = MakeSegment(1, 0, {5, 3, 1, 3});
  const std::span<const ObjectId> all = MinedObjects(g, 0);
  EXPECT_EQ(std::vector<ObjectId>(all.begin(), all.end()),
            (std::vector<ObjectId>{1, 3, 5}));
  const std::span<const ObjectId> capped = MinedObjects(g, 2);
  EXPECT_EQ(std::vector<ObjectId>(capped.begin(), capped.end()),
            DistinctObjectsCapped(g, 2));
  EXPECT_EQ(MinedObjects(g, 8).size(), 3u);
}

// Every MinerStats field is a 64-bit counter, so the struct can be viewed as
// an array of words: giving each word of both operands a distinct value
// shows whether operator+= adds every field. A field added to the struct
// but not to the sum fails here.
TEST(MinerStatsTest, PlusEqualsAddsEveryField) {
  static_assert(std::is_trivially_copyable_v<MinerStats>);
  static_assert(sizeof(MinerStats) % sizeof(uint64_t) == 0);
  constexpr size_t kWords = sizeof(MinerStats) / sizeof(uint64_t);
  using Words = std::array<uint64_t, kWords>;
  Words lhs_words;
  Words rhs_words;
  for (size_t i = 0; i < kWords; ++i) {
    lhs_words[i] = 1000 + i;
    rhs_words[i] = (i + 1) << 20;
  }
  MinerStats lhs = std::bit_cast<MinerStats>(lhs_words);
  lhs += std::bit_cast<MinerStats>(rhs_words);
  const Words sum_words = std::bit_cast<Words>(lhs);
  for (size_t i = 0; i < kWords; ++i) {
    EXPECT_EQ(sum_words[i], lhs_words[i] + rhs_words[i])
        << "MinerStats word " << i << " is not summed by operator+=";
  }
}

TEST(MinerKindTest, Names) {
  EXPECT_EQ(MinerKindToString(MinerKind::kCooMine), "CooMine");
  EXPECT_EQ(MinerKindToString(MinerKind::kDiMine), "DIMine");
  EXPECT_EQ(MinerKindToString(MinerKind::kMatrixMine), "MatrixMine");
  EXPECT_EQ(MinerKindToString(MinerKind::kBruteForce), "BruteForce");
}

TEST(MinerFactoryTest, CreatesEveryKind) {
  MiningParams params;
  for (MinerKind kind :
       {MinerKind::kCooMine, MinerKind::kDiMine, MinerKind::kMatrixMine,
        MinerKind::kBruteForce}) {
    auto miner = MakeMiner(kind, params);
    ASSERT_NE(miner, nullptr);
    EXPECT_EQ(miner->name(), MinerKindToString(kind));
    EXPECT_EQ(miner->stats().segments_processed, 0u);
  }
}

TEST(MinerFactoryDeathTest, InvalidParamsAbort) {
  MiningParams params;
  params.theta = 0;
  EXPECT_DEATH(MakeMiner(MinerKind::kCooMine, params), "FCP_CHECK");
}

TEST(FcpTest, DebugString) {
  Fcp fcp;
  fcp.objects = {1, 2};
  fcp.streams = {0, 3, 4};
  fcp.window_start = 10;
  fcp.window_end = 20;
  EXPECT_EQ(fcp.DebugString(), "{1,2}x3@[10,20]");
}

TEST(FcpTest, OrderingByPatternThenTrigger) {
  Fcp a, b, c;
  a.objects = {1};
  a.trigger = 5;
  b.objects = {1};
  b.trigger = 9;
  c.objects = {2};
  c.trigger = 0;
  EXPECT_TRUE(FcpLess(a, b));
  EXPECT_TRUE(FcpLess(b, c));
  EXPECT_FALSE(FcpLess(c, a));
}

}  // namespace
}  // namespace fcp
