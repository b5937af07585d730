// Sorted-set intersection with galloping for skewed operand sizes and a
// linear merge for balanced ones.
//
// The Apriori support-counting paths intersect a (small) per-pattern
// supporter list with a (potentially huge) posting/pair list: under Zipf
// object popularity the size ratio is routinely 100x+. A linear merge walks
// both inputs; galloping advances through the long side in
// O(small * log(large)) instead. For balanced inputs the merge is faster,
// so the helper picks per call.

#ifndef FCP_UTIL_INTERSECT_H_
#define FCP_UTIL_INTERSECT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fcp {

/// Size ratio (long/short) above which galloping replaces the linear merge.
/// From bench_micro_ops' intersect-crossover sweep (u64 posting lists, long
/// side 4096, same-universe overlap; 3 runs on a 4-vCPU Xeon): the merge
/// wins ratio 8 by ~1.25x (2.1 vs 2.6 us), galloping wins ratio 16 by
/// ~1.27x (1.6 vs 2.0 us) and ratio 32 by ~2.1x, growing without bound
/// beyond (~5.7x at 128). So the break-even sits between 8 and 16; at 16 the
/// merge still runs on the ratio-16 shape, a ~1.3x loss on it, while the
/// 100x-skewed Zipf tail gallops.
inline constexpr size_t kGallopCrossoverRatio = 16;

namespace internal {

/// First index in sorted [begin, size) with data[index] >= key, found by
/// exponential probing from `begin` (cheap when the answer is near).
template <typename T>
size_t GallopLowerBound(const T* data, size_t begin, size_t size,
                        const T& key) {
  size_t step = 1;
  size_t hi = begin;
  while (hi < size && data[hi] < key) {
    begin = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > size) hi = size;
  return static_cast<size_t>(
      std::lower_bound(data + begin, data + hi, key) - data);
}

/// Linear merge of two ascending, duplicate-free ranges into `out`, which
/// must hold min(a_size, b_size) elements. Returns the output count.
template <typename T>
size_t MergeIntersect(const T* a, size_t a_size, const T* b, size_t b_size,
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

}  // namespace internal

/// Intersects two ascending, duplicate-free ranges into `out` (cleared
/// first; capacity is reused across calls). Galloping kicks in when one side
/// is kGallopCrossoverRatio+ longer than the other; otherwise both are
/// merged linearly.
template <typename T>
void IntersectSorted(const T* a, size_t a_size, const T* b, size_t b_size,
                     std::vector<T>* out) {
  out->clear();
  if (a_size == 0 || b_size == 0) return;
  if (a_size > b_size) {
    std::swap(a, b);
    std::swap(a_size, b_size);
  }
  if (b_size / kGallopCrossoverRatio <= a_size) {
    // Balanced: merge into the pre-sized output, then trim it.
    out->resize(a_size);
    out->resize(internal::MergeIntersect(a, a_size, b, b_size, out->data()));
    return;
  }
  // Skewed: iterate the short side, gallop through the long side.
  size_t j = 0;
  for (size_t i = 0; i < a_size; ++i) {
    j = internal::GallopLowerBound(b, j, b_size, a[i]);
    if (j == b_size) return;
    if (b[j] == a[i]) {
      out->push_back(a[i]);
      ++j;
    }
  }
}

template <typename T>
void IntersectSorted(const std::vector<T>& a, const std::vector<T>& b,
                     std::vector<T>* out) {
  IntersectSorted(a.data(), a.size(), b.data(), b.size(), out);
}

/// Scratch-capacity release policy. IntersectSorted (and the miners' other
/// scratch vectors) clear but never shrink, so one pathological trigger — a
/// viral object with a million-entry posting list, say — leaves its
/// high-water capacity pinned forever. Calling shrink_to_fit
/// unconditionally would be worse: steady-state capacity would be released
/// and re-allocated every call, breaking the zero-allocation invariant.
///
/// This helper splits the difference: it releases a vector's buffer only
/// when the capacity exceeds both a floor (small buffers are never worth
/// releasing) and `oversize_factor` times the current size. Callers invoke
/// it at *maintenance* boundaries (the periodic expiry sweep), never per
/// operation, so a stable workload — whose scratch sizes hover near their
/// high-water marks — never trips it and stays allocation-free, while a
/// workload shift of oversize_factor+ eventually returns the memory.
/// Returns true iff the buffer was released.
template <typename T>
bool ShrinkToFitIfOversized(std::vector<T>* v, size_t oversize_factor = 8,
                            size_t min_capacity_bytes = 4096) {
  if (v->capacity() * sizeof(T) <= min_capacity_bytes) return false;
  if (v->capacity() / oversize_factor <= v->size()) return false;
  v->shrink_to_fit();
  return true;
}

}  // namespace fcp

#endif  // FCP_UTIL_INTERSECT_H_
