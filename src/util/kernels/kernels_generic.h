// Portable reference implementations of the kernel families: the scalar
// table, the AVX2 TU's short-input and tail paths (recompiled there with
// -mpopcnt, so std::popcount is one POPCNT instruction), and the semantic
// oracle the SIMD paths are differential-tested against.
//
// Internal to src/util/kernels/ — include kernels.h instead.

#ifndef FCP_UTIL_KERNELS_KERNELS_GENERIC_H_
#define FCP_UTIL_KERNELS_KERNELS_GENERIC_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace fcp::kernels::generic {

inline bool PopcountAtLeast(const uint64_t* bits, size_t words,
                            size_t threshold) {
  if (threshold == 0) return true;
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<size_t>(std::popcount(bits[w]));
    if (count >= threshold) return true;
  }
  return false;
}

inline bool AndPopcountAtLeast(const uint64_t* a, const uint64_t* b,
                               uint64_t* out, size_t words, size_t threshold) {
  size_t count = 0;
  size_t w = 0;
  // Count until the threshold is reached (exact early exit: the caller only
  // consumes the boolean), then finish the AND without counting — the output
  // must always be complete.
  for (; w < words; ++w) {
    const uint64_t v = a[w] & b[w];
    out[w] = v;
    count += static_cast<size_t>(std::popcount(v));
    if (count >= threshold) break;
  }
  if (w == words) return count >= threshold;
  for (++w; w < words; ++w) out[w] = a[w] & b[w];
  return true;
}

template <typename T>
size_t IntersectLinear(const T* a, size_t a_size, const T* b, size_t b_size,
                       T* out) {
  size_t i = 0, j = 0, n = 0;
  while (i < a_size && j < b_size) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out[n++] = a[i];
      ++i;
      ++j;
    }
  }
  return n;
}

}  // namespace fcp::kernels::generic

#endif  // FCP_UTIL_KERNELS_KERNELS_GENERIC_H_
