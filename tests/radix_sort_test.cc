#include "util/radix_sort.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fcp {
namespace {

// Every size around the std::sort cutoff and well past it, over key ranges
// that leave zero, two and no high digits constant, matches std::sort.
TEST(RadixSortTest, MatchesStdSort) {
  Rng rng(9);
  std::vector<uint32_t> keys;
  std::vector<uint32_t> scratch;
  for (const uint64_t range :
       {uint64_t{7}, uint64_t{5000}, uint64_t{1} << 32}) {
    for (const size_t n : {size_t{0}, size_t{1}, kRadixSortMinKeys - 1,
                           kRadixSortMinKeys, size_t{300}, size_t{5000}}) {
      keys.clear();
      for (size_t i = 0; i < n; ++i) {
        keys.push_back(static_cast<uint32_t>(rng.Below(range)));
      }
      std::vector<uint32_t> want = keys;
      std::sort(want.begin(), want.end());
      RadixSortU32(&keys, &scratch);
      EXPECT_EQ(keys, want) << "n " << n << " range " << range;
    }
  }
}

TEST(RadixSortTest, EqualAndOrderedKeys) {
  std::vector<uint32_t> scratch;
  std::vector<uint32_t> equal(200, 0xdeadbeef);
  RadixSortU32(&equal, &scratch);
  EXPECT_EQ(equal, std::vector<uint32_t>(200, 0xdeadbeef));

  std::vector<uint32_t> descending;
  for (uint32_t i = 0; i < 1000; ++i) {
    descending.push_back(0xffffffffu - i * 977);
  }
  std::vector<uint32_t> want = descending;
  std::reverse(want.begin(), want.end());
  RadixSortU32(&descending, &scratch);
  EXPECT_EQ(descending, want);
}

}  // namespace
}  // namespace fcp
