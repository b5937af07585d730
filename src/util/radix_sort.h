// LSD radix sort of 32-bit keys.
//
// CooMine reports each emitted pattern's distinct streams sorted, and
// collects them in first-seen order. For popular objects those lists run to
// thousands of streams (size-1 patterns on the Twitter trace). On a 4-vCPU
// x86-64 host, sorting 1024 random keys below 5000 cost 58 ns per key with
// std::sort and 12 with counting passes over 8-bit digits (59 vs 13 below
// 2^24); the two broke even at 32-48 keys, so below kRadixSortMinKeys keys
// std::sort is used instead. A pass whose digit is equal in every key, such
// as the high bytes of small ids, is skipped.

#ifndef FCP_UTIL_RADIX_SORT_H_
#define FCP_UTIL_RADIX_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fcp {

/// Key count from which RadixSortU32 counts digits instead of calling
/// std::sort (the measured crossover is 32-48 keys).
inline constexpr size_t kRadixSortMinKeys = 64;

/// Sorts `keys` ascending. `scratch` is a reusable buffer (resized to the
/// key count; its contents are unspecified afterwards), so a warm caller
/// allocates nothing.
inline void RadixSortU32(std::vector<uint32_t>* keys,
                         std::vector<uint32_t>* scratch) {
  const size_t n = keys->size();
  if (n < kRadixSortMinKeys) {
    std::sort(keys->begin(), keys->end());
    return;
  }
  scratch->resize(n);
  uint32_t* from = keys->data();
  uint32_t* to = scratch->data();
  for (int shift = 0; shift < 32; shift += 8) {
    size_t offset[256] = {};
    for (size_t i = 0; i < n; ++i) ++offset[(from[i] >> shift) & 0xff];
    if (offset[(from[0] >> shift) & 0xff] == n) continue;
    size_t sum = 0;
    for (size_t& slot : offset) {
      const size_t count = slot;
      slot = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      to[offset[(from[i] >> shift) & 0xff]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != keys->data()) std::copy(from, from + n, keys->data());
}

}  // namespace fcp

#endif  // FCP_UTIL_RADIX_SORT_H_
