// Data-parallel kernels with runtime CPU dispatch.
//
// The mining hot loops spend their cycles in three primitive families:
//
//  1. tidset support counting — popcount of a bitset, and fused
//     AND+popcount of two bitsets (CooMine's Eclat-style Apriori);
//  2. sorted posting-list intersection on the *balanced* side of the
//     galloping crossover (DiMine/MatrixMine supporter intersection);
//  3. the scalar reference versions of both, which remain the portable
//     fallback and the differential-testing oracle.
//
// Each family has a scalar and an AVX2 implementation, compiled into
// separate translation units with the matching -m flags; at startup (or on
// SetKernelLevel / FCP_KERNEL / --kernel) one KernelOps table of function
// pointers is selected, clamped to what cpuid reports the machine supports.
// Every implementation is semantically *exact*: for identical inputs every
// dispatch level returns identical results (the threshold kernels return
// the same boolean, the intersections the same output array), so miner
// output is byte-identical across levels — asserted by
// kernel_equivalence_test.
//
// Threshold kernels return "popcount >= threshold" rather than the count:
// callers only branch on the comparison (the popcount prefilter is exact
// pruning, see CooMine), which licenses an early exit as soon as the
// running count reaches the threshold without changing any observable
// result.
//
// Non-x86 builds (and x86 CPUs without the instruction sets) fall back to
// scalar; NEON is not provided because this project's CI cannot execute it
// (see DESIGN.md §2.4).

#ifndef FCP_UTIL_KERNELS_KERNELS_H_
#define FCP_UTIL_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fcp::kernels {

/// Dispatch levels, ordered: a level is eligible iff the CPU supports it.
enum class KernelLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// One resolved set of kernel entry points. All pointers are non-null.
struct KernelOps {
  /// True iff popcount(bits[0..words)) >= threshold. May stop scanning as
  /// soon as the running count reaches `threshold` (exact: the boolean is
  /// unchanged). threshold == 0 is always true.
  bool (*popcount_atleast)(const uint64_t* bits, size_t words,
                           size_t threshold);

  /// Writes out[w] = a[w] & b[w] for every w in [0, words) — the output is
  /// always complete, callers consume it on success — and returns
  /// popcount(out) >= threshold. Counting (not the AND) may stop early at
  /// the threshold. `out` must not alias `a` or `b` partially; exact
  /// aliasing (out == a or out == b) is allowed.
  bool (*and_popcount_atleast)(const uint64_t* a, const uint64_t* b,
                               uint64_t* out, size_t words, size_t threshold);

  /// Intersection of two ascending duplicate-free u32 ranges, written to
  /// `out` (capacity >= min(a_size, b_size); must not alias the inputs).
  /// Returns the output count. This is the *balanced* merge kernel; callers
  /// handle the skewed case with galloping (see util/intersect.h).
  size_t (*intersect_u32)(const uint32_t* a, size_t a_size, const uint32_t* b,
                          size_t b_size, uint32_t* out);

  /// Same contract for u64 ranges (SegmentId posting lists).
  size_t (*intersect_u64)(const uint64_t* a, size_t a_size, const uint64_t* b,
                          size_t b_size, uint64_t* out);

  KernelLevel level = KernelLevel::kScalar;
  const char* name = "scalar";
};

/// "scalar", "avx2".
std::string_view KernelLevelName(KernelLevel level);

/// True iff this build + this CPU can execute `level`.
bool LevelSupported(KernelLevel level);

/// The highest supported level on this machine (cpuid at first call).
KernelLevel BestSupportedLevel();

/// Forces the active dispatch level. Requests above the machine's support
/// are clamped to BestSupportedLevel() (a warning is printed to stderr);
/// returns the level actually activated. Not thread-safe against concurrent
/// mining — switch levels only between runs (tools do it at startup).
KernelLevel SetKernelLevel(KernelLevel level);

/// Parses "auto" | "scalar" | "avx2" and activates it ("auto" =
/// BestSupportedLevel). Returns false (state unchanged) on an unknown name.
bool SetKernelLevelFromString(std::string_view name);

/// The active level. Resolution order at first use: FCP_KERNEL environment
/// variable if set (same values as SetKernelLevelFromString), else auto.
KernelLevel ActiveLevel();

/// The active ops table. One acquire load; fetch once per mining call and
/// reuse.
const KernelOps& Ops();

/// The ops table for an explicit level (clamped to supported levels) —
/// differential tests and benches iterate these.
const KernelOps& OpsFor(KernelLevel level);

namespace internal {
/// Per-TU tables. Avx2Ops() returns nullptr when the build (non-x86, or a
/// compiler without the -m flags) does not include it.
const KernelOps* ScalarOps();
const KernelOps* Avx2Ops();
}  // namespace internal

}  // namespace fcp::kernels

#endif  // FCP_UTIL_KERNELS_KERNELS_H_
