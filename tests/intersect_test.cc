// Unit tests for the galloping sorted-set intersection used by the DI-Mine
// and Matrix-Mine support-counting paths.

#include "util/intersect.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fcp {
namespace {

std::vector<uint64_t> Reference(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<uint64_t> RandomSortedSet(Rng& rng, size_t size,
                                      uint64_t universe) {
  std::set<uint64_t> values;
  while (values.size() < size) values.insert(rng.Below(universe));
  return std::vector<uint64_t>(values.begin(), values.end());
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
}

TEST(IntersectTest, RandomizedAcrossKernelLevels) {
  // The balanced branch runs the active dispatch kernel; the result must not
  // depend on which level is active.
  const kernels::KernelLevel saved = kernels::ActiveLevel();
  for (kernels::KernelLevel level :
       {kernels::KernelLevel::kScalar, kernels::KernelLevel::kAvx2}) {
    if (!kernels::LevelSupported(level)) continue;
    kernels::SetKernelLevel(level);
    Rng rng(17);
    std::vector<uint64_t> out;
    for (int round = 0; round < 100; ++round) {
      const uint64_t universe = 32 + rng.Below(1500);
      const auto a =
          RandomSortedSet(rng, 1 + rng.Below(universe / 2), universe);
      const auto b =
          RandomSortedSet(rng, 1 + rng.Below(universe / 2), universe);
      IntersectSorted(a, b, &out);
      ASSERT_EQ(out, Reference(a, b))
          << "level " << kernels::KernelLevelName(level) << " round " << round;
    }
  }
  kernels::SetKernelLevel(saved);
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
