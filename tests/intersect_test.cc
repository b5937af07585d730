// Unit tests for the sorted-set intersection (linear merge for balanced
// sizes, galloping for skewed ones) used by the DI-Mine and Matrix-Mine
// support-counting paths.

#include "util/intersect.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fcp {
namespace {

template <typename T>
std::vector<T> Reference(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

template <typename T = uint64_t>
std::vector<T> RandomSortedSet(Rng& rng, size_t size, uint64_t universe) {
  std::set<T> values;
  while (values.size() < size) {
    values.insert(static_cast<T>(rng.Below(universe)));
  }
  return std::vector<T>(values.begin(), values.end());
}

TEST(IntersectTest, EmptyInputs) {
  std::vector<uint64_t> out{99};  // must be cleared
  IntersectSorted<uint64_t>({}, {1, 2, 3}, &out);
  EXPECT_TRUE(out.empty());
  IntersectSorted<uint64_t>({1, 2, 3}, {}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectTest, BalancedMerge) {
  std::vector<uint64_t> out;
  IntersectSorted<uint64_t>({1, 3, 5, 7, 9}, {2, 3, 4, 7, 10}, &out);
  EXPECT_EQ(out, (std::vector<uint64_t>{3, 7}));
  IntersectSorted<uint64_t>({1, 2, 3}, {1, 2, 3}, &out);
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 2, 3}));
  IntersectSorted<uint64_t>({1, 2}, {3, 4}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectTest, SkewedSizesTakeTheGallopPath) {
  // |b| >= kGallopCrossoverRatio * |a| forces galloping. Hit the interesting
  // positions: before everything, dense run, sparse tail, past the end.
  std::vector<uint64_t> big;
  for (uint64_t v = 100; v < 1000; ++v) big.push_back(v);
  std::vector<uint64_t> small = {1, 100, 101, 555, 999, 2000};
  std::vector<uint64_t> out;
  IntersectSorted(small, big, &out);
  EXPECT_EQ(out, (std::vector<uint64_t>{100, 101, 555, 999}));
  // Symmetric argument order must give the same result.
  IntersectSorted(big, small, &out);
  EXPECT_EQ(out, (std::vector<uint64_t>{100, 101, 555, 999}));
}

TEST(IntersectTest, OutputCapacityIsReusedAcrossCalls) {
  std::vector<uint64_t> out;
  IntersectSorted<uint64_t>({1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, &out);
  const size_t capacity = out.capacity();
  for (int i = 0; i < 10; ++i) {
    IntersectSorted<uint64_t>({2, 4}, {1, 2, 3, 4, 5}, &out);
    EXPECT_EQ(out, (std::vector<uint64_t>{2, 4}));
  }
  EXPECT_EQ(out.capacity(), capacity);
}

TEST(IntersectTest, RandomizedAgainstSetIntersection) {
  Rng rng(11);
  std::vector<uint64_t> out;
  for (int round = 0; round < 300; ++round) {
    // Mix balanced and heavily skewed size pairs so both code paths run
    // (the skewed shape clears the crossover ratio with margin).
    const size_t a_size = 1 + rng.Below(40);
    const size_t b_size = round % 2 == 0
                              ? 1 + rng.Below(40)
                              : a_size * 2 * kGallopCrossoverRatio +
                                    rng.Below(200);
    const uint64_t universe = 1 + rng.Below(2000);
    const auto a = RandomSortedSet(rng, std::min<size_t>(a_size, universe),
                                   universe);
    const auto b = RandomSortedSet(rng, std::min<size_t>(b_size, universe),
                                   universe);
    IntersectSorted(a, b, &out);
    ASSERT_EQ(out, Reference(a, b)) << "round " << round;
  }
  // Balanced sizes up to half a dense universe: long merges with many hits.
  Rng dense_rng(17);
  for (int round = 0; round < 100; ++round) {
    const uint64_t universe = 32 + dense_rng.Below(1500);
    const auto a =
        RandomSortedSet(dense_rng, 1 + dense_rng.Below(universe / 2), universe);
    const auto b =
        RandomSortedSet(dense_rng, 1 + dense_rng.Below(universe / 2), universe);
    IntersectSorted(a, b, &out);
    ASSERT_EQ(out, Reference(a, b)) << "dense round " << round;
  }
}

// Every element width the miners intersect (u32 object ids, u64 segment
// ids), both argument orders, against std::set_intersection. The sizes are
// mostly balanced, so these drive the merge branch; the skewed cases take
// the gallop branch.
template <typename T>
void CheckIntersect(const std::vector<T>& a, const std::vector<T>& b,
                    const std::string& label) {
  const std::vector<T> expected = Reference(a, b);
  std::vector<T> out;
  for (bool swap : {false, true}) {
    IntersectSorted(swap ? b : a, swap ? a : b, &out);
    EXPECT_EQ(out, expected) << label << " swap=" << swap
                             << " |a|=" << a.size() << " |b|=" << b.size();
  }
}

template <typename T>
void IntersectAdversarialCases() {
  using V = std::vector<T>;
  CheckIntersect<T>({}, {}, "both-empty");
  CheckIntersect<T>({}, {1, 2, 3}, "one-empty");
  CheckIntersect<T>({42}, {42}, "single-match");
  CheckIntersect<T>({41}, {42}, "single-miss");
  for (size_t size : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                      size_t{7}, size_t{8}, size_t{9}, size_t{16},
                      size_t{17}, size_t{64}}) {
    V v(size);
    for (size_t i = 0; i < size; ++i) v[i] = static_cast<T>(i * 3 + 1);
    CheckIntersect<T>(v, v, "all-match size " + std::to_string(size));
    // Disjoint interleave: a gets even slots, b odd — no matches, and the
    // merge alternates sides on every step.
    V evens, odds;
    for (size_t i = 0; i < size; ++i) {
      evens.push_back(static_cast<T>(2 * i));
      odds.push_back(static_cast<T>(2 * i + 1));
    }
    CheckIntersect<T>(evens, odds, "interleaved size " + std::to_string(size));
  }
  // 100x skew: the shape IntersectSorted routes to galloping.
  Rng rng(7);
  const V small = RandomSortedSet<T>(rng, 40, 400000);
  V large = RandomSortedSet<T>(rng, 4000, 400000);
  for (T v : small) large.push_back(v);
  std::sort(large.begin(), large.end());
  large.erase(std::unique(large.begin(), large.end()), large.end());
  CheckIntersect<T>(small, large, "100x-skew");
  // Runs of consecutive values that half overlap.
  V run_a, run_b;
  for (T v = 100; v < 164; ++v) run_a.push_back(v);
  for (T v = 132; v < 196; ++v) run_b.push_back(v);
  CheckIntersect<T>(run_a, run_b, "overlapping-runs");
}

TEST(KernelIntersectTest, AdversarialU32) {
  IntersectAdversarialCases<uint32_t>();
}
TEST(KernelIntersectTest, AdversarialU64) {
  IntersectAdversarialCases<uint64_t>();
}

template <typename T>
void IntersectRandomCases() {
  Rng rng(sizeof(T) == 4 ? 101u : 202u);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t a_size = rng.Below(120);
    const size_t b_size = rng.Below(120);
    // Narrow universes force dense overlap; wide ones sparse overlap.
    const uint64_t universe = 32 + rng.Below(4000);
    const auto a = RandomSortedSet<T>(
        rng, std::min<size_t>(a_size, universe / 2), universe);
    const auto b = RandomSortedSet<T>(
        rng, std::min<size_t>(b_size, universe / 2), universe);
    CheckIntersect<T>(a, b, "random iter " + std::to_string(iter));
  }
}

TEST(KernelIntersectTest, RandomU32MatchesReference) {
  IntersectRandomCases<uint32_t>();
}
TEST(KernelIntersectTest, RandomU64MatchesReference) {
  IntersectRandomCases<uint64_t>();
}

TEST(ShrinkToFitTest, SmallBuffersAreNeverReleased) {
  // Below the byte floor the release is never worth it, no matter the ratio.
  std::vector<uint64_t> v;
  v.reserve(4096 / sizeof(uint64_t));  // exactly the default floor
  EXPECT_FALSE(ShrinkToFitIfOversized(&v));
  EXPECT_GE(v.capacity(), 4096 / sizeof(uint64_t));
}

TEST(ShrinkToFitTest, SteadyStateCapacityIsKept) {
  // A buffer whose size hovers near capacity must be left alone — releasing
  // it would re-pay the allocation next call and break the zero-alloc
  // steady state.
  std::vector<uint64_t> v(4000);
  const size_t capacity = v.capacity();
  v.resize(3000);  // 1.3x oversize: below the 8x default factor
  EXPECT_FALSE(ShrinkToFitIfOversized(&v));
  EXPECT_EQ(v.capacity(), capacity);
}

TEST(ShrinkToFitTest, PathologicalHighWaterMarkIsReleased) {
  std::vector<uint64_t> v(100000);  // viral-trigger high-water mark
  v.resize(10);                     // workload shifted back to tiny
  EXPECT_TRUE(ShrinkToFitIfOversized(&v));
  EXPECT_LT(v.capacity() * sizeof(uint64_t), size_t{100000} * 8);
  EXPECT_EQ(v.size(), size_t{10});
}

TEST(ShrinkToFitTest, CustomFactorAndFloorAreHonored) {
  std::vector<uint64_t> v(1000);
  v.resize(400);
  // 2.5x oversized: released under factor 2, kept under the default 8.
  EXPECT_FALSE(ShrinkToFitIfOversized(&v));
  EXPECT_TRUE(ShrinkToFitIfOversized(&v, /*oversize_factor=*/2));
  // A huge floor protects even a massively oversized buffer.
  std::vector<uint64_t> w(100000);
  w.resize(1);
  EXPECT_FALSE(ShrinkToFitIfOversized(&w, 8, /*min_capacity_bytes=*/1 << 30));
}

}  // namespace
}  // namespace fcp
