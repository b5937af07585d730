// Tidset support counting for CooMine's Eclat-style Apriori: the popcount
// of a bitset, and the fused AND + popcount of two bitsets.
//
// Both return "popcount >= threshold" rather than the count: callers only
// branch on the comparison (the popcount prefilter is exact pruning, see
// CooMine), which licenses an early exit as soon as the running count
// reaches the threshold without changing any observable result.
//
// These are plain loops: LCP tidsets are a handful of words long, where a
// vector tier measured no faster (DESIGN.md §2.4).

#ifndef FCP_UTIL_KERNELS_KERNELS_H_
#define FCP_UTIL_KERNELS_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fcp::kernels {

/// True iff popcount(bits[0..words)) >= threshold. Stops scanning as soon as
/// the running count reaches `threshold`. threshold == 0 is always true.
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

/// Writes out[w] = a[w] & b[w] for every w in [0, words) — the output is
/// always complete, callers consume it on success — and returns
/// popcount(out) >= threshold. `out` may alias `a` or `b` exactly, not
/// partially.
inline bool AndPopcountAtLeast(const uint64_t* a, const uint64_t* b,
                               uint64_t* out, size_t words, size_t threshold) {
  size_t count = 0;
  size_t w = 0;
  // Count until the threshold is reached, then finish the AND without
  // counting.
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

// The names below exist only for perfbench's `context` record, which prints
// the kernel level. There is one level; they go once the benchmark drops
// that field.
enum class KernelLevel : int { kScalar = 0 };

constexpr KernelLevel ActiveLevel() { return KernelLevel::kScalar; }

constexpr std::string_view KernelLevelName(KernelLevel /*level*/) {
  return "scalar";
}

}  // namespace fcp::kernels

#endif  // FCP_UTIL_KERNELS_KERNELS_H_
