// Differential equivalence of the SIMD kernel layer (util/kernels/): every
// dispatch level the CPU supports must agree bit-for-bit with the scalar
// reference on every input — random and adversarial — and the miners'
// end-to-end output must be byte-identical under every level, serial and
// sharded. Levels the CPU (or build) lacks are skipped, not failed, so the
// suite passes on any machine.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/shard.h"
#include "core/miner.h"
#include "stream/segment.h"
#include "test_util.h"
#include "util/kernels/kernels.h"
#include "util/rng.h"

namespace fcp {
namespace {

using kernels::KernelLevel;
using kernels::KernelOps;
using testing::FcpSignature;
using testing::FullSignatures;

std::vector<KernelLevel> SupportedLevels() {
  std::vector<KernelLevel> levels = {KernelLevel::kScalar};
  if (kernels::LevelSupported(KernelLevel::kAvx2)) {
    levels.push_back(KernelLevel::kAvx2);
  }
  return levels;
}

std::string LevelName(KernelLevel level) {
  return std::string(kernels::KernelLevelName(level));
}

// Restores the ambient dispatch level after a test that changes it.
class KernelLevelGuard {
 public:
  KernelLevelGuard() : saved_(kernels::ActiveLevel()) {}
  ~KernelLevelGuard() { kernels::SetKernelLevel(saved_); }

 private:
  KernelLevel saved_;
};

// ---------------------------------------------------------------------------
// Bitset kernels: popcount_atleast / and_popcount_atleast.
// ---------------------------------------------------------------------------

size_t TotalPopcount(const std::vector<uint64_t>& bits) {
  size_t count = 0;
  for (uint64_t word : bits) count += static_cast<size_t>(std::popcount(word));
  return count;
}

// Thresholds worth probing for a bitset with `count` set bits: the early-exit
// boundary cases on both sides plus degenerate extremes.
std::vector<size_t> InterestingThresholds(size_t count) {
  std::vector<size_t> thresholds = {0, 1, count / 2, count, count + 1,
                                    count + 1000};
  if (count > 0) thresholds.push_back(count - 1);
  return thresholds;
}

void CheckBitsetKernels(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b,
                        const std::string& label) {
  const size_t words = a.size();
  ASSERT_EQ(b.size(), words);
  std::vector<uint64_t> expected_and(words);
  for (size_t w = 0; w < words; ++w) expected_and[w] = a[w] & b[w];

  for (KernelLevel level : SupportedLevels()) {
    const KernelOps& ops = kernels::OpsFor(level);
    for (size_t threshold : InterestingThresholds(TotalPopcount(a))) {
      EXPECT_EQ(ops.popcount_atleast(a.data(), words, threshold),
                TotalPopcount(a) >= threshold)
          << label << " popcount_atleast level=" << LevelName(level)
          << " words=" << words << " threshold=" << threshold;
    }
    for (size_t threshold : InterestingThresholds(TotalPopcount(expected_and))) {
      std::vector<uint64_t> out(words, ~uint64_t{0});
      const bool got =
          ops.and_popcount_atleast(a.data(), b.data(), out.data(), words,
                                   threshold);
      EXPECT_EQ(got, TotalPopcount(expected_and) >= threshold)
          << label << " and_popcount_atleast level=" << LevelName(level)
          << " words=" << words << " threshold=" << threshold;
      // The contract: `out` is the complete AND regardless of the verdict
      // (CooMine reuses the buffer as the next level's tidset).
      EXPECT_EQ(out, expected_and)
          << label << " and output level=" << LevelName(level)
          << " words=" << words << " threshold=" << threshold;
    }
  }
}

TEST(KernelBitsetTest, AdversarialBitsets) {
  // Word counts straddling every internal cutoff: the generic fallback
  // (< 16 words for popcount, < 8 for fused AND), the 4-word vector step and
  // the every-8-vectors early-exit check (32 words).
  for (size_t words : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                       size_t{7}, size_t{8}, size_t{15}, size_t{16},
                       size_t{17}, size_t{31}, size_t{32}, size_t{33},
                       size_t{64}, size_t{65}, size_t{100}}) {
    CheckBitsetKernels(std::vector<uint64_t>(words, 0),
                       std::vector<uint64_t>(words, 0), "all-zero");
    CheckBitsetKernels(std::vector<uint64_t>(words, ~uint64_t{0}),
                       std::vector<uint64_t>(words, ~uint64_t{0}), "all-ones");
    if (words == 0) continue;
    // Single bit in the last word (tail path), and bits hugging the 64-bit
    // word boundaries (top bit of word k, bottom bit of word k+1).
    std::vector<uint64_t> single(words, 0);
    single.back() = uint64_t{1} << 63;
    CheckBitsetKernels(single, std::vector<uint64_t>(words, ~uint64_t{0}),
                       "single-bit");
    std::vector<uint64_t> straddle(words, 0);
    for (size_t w = 0; w < words; ++w) {
      straddle[w] = (uint64_t{1} << 63) | uint64_t{1};
    }
    CheckBitsetKernels(straddle, single, "boundary-straddle");
  }
}

TEST(KernelBitsetTest, RandomBitsetsAllLevelsMatchScalar) {
  Rng rng(20260806);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t words = rng.Below(80);
    std::vector<uint64_t> a(words);
    std::vector<uint64_t> b(words);
    // Mix densities: sparse bitsets exercise the early exit's "never fires"
    // side, dense ones the "fires quickly" side.
    const int shift = static_cast<int>(rng.Below(3)) * 16;
    for (size_t w = 0; w < words; ++w) {
      a[w] = rng.Next() & (rng.Next() >> shift);
      b[w] = rng.Next() & (rng.Next() >> shift);
    }
    CheckBitsetKernels(a, b, "random iter " + std::to_string(iter));
  }
}

// ---------------------------------------------------------------------------
// Sorted intersection kernels.
// ---------------------------------------------------------------------------

template <typename T>
std::vector<T> ReferenceIntersect(const std::vector<T>& a,
                                  const std::vector<T>& b) {
  std::vector<T> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

template <typename T>
size_t RunIntersect(const KernelOps& ops, const std::vector<T>& a,
                    const std::vector<T>& b, std::vector<T>* out) {
  out->assign(std::min(a.size(), b.size()), T{});
  if constexpr (std::is_same_v<T, uint32_t>) {
    return ops.intersect_u32(a.data(), a.size(), b.data(), b.size(),
                             out->data());
  } else {
    return ops.intersect_u64(a.data(), a.size(), b.data(), b.size(),
                             out->data());
  }
}

template <typename T>
void CheckIntersect(const std::vector<T>& a, const std::vector<T>& b,
                    const std::string& label) {
  const std::vector<T> expected = ReferenceIntersect(a, b);
  for (KernelLevel level : SupportedLevels()) {
    const KernelOps& ops = kernels::OpsFor(level);
    for (bool swap : {false, true}) {
      std::vector<T> out;
      const size_t n = swap ? RunIntersect(ops, b, a, &out)
                            : RunIntersect(ops, a, b, &out);
      out.resize(n);
      EXPECT_EQ(out, expected)
          << label << " level=" << LevelName(level) << " swap=" << swap
          << " |a|=" << a.size() << " |b|=" << b.size();
    }
  }
}

template <typename T>
std::vector<T> SortedUnique(Rng* rng, size_t size, uint64_t universe) {
  std::set<T> values;
  while (values.size() < size) {
    values.insert(static_cast<T>(rng->Below(universe)));
  }
  return std::vector<T>(values.begin(), values.end());
}

template <typename T>
void IntersectAdversarialCases() {
  using V = std::vector<T>;
  CheckIntersect<T>({}, {}, "both-empty");
  CheckIntersect<T>({}, {1, 2, 3}, "one-empty");
  CheckIntersect<T>({42}, {42}, "single-match");
  CheckIntersect<T>({41}, {42}, "single-miss");
  // All-match at exactly the block widths (4/8 lanes) and one off each side.
  for (size_t size : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                      size_t{7}, size_t{8}, size_t{9}, size_t{16},
                      size_t{17}, size_t{64}}) {
    V v(size);
    for (size_t i = 0; i < size; ++i) v[i] = static_cast<T>(i * 3 + 1);
    CheckIntersect<T>(v, v, "all-match size " + std::to_string(size));
    // Disjoint interleave: a gets even slots, b odd — no matches, maximal
    // block-compare churn.
    V evens, odds;
    for (size_t i = 0; i < size; ++i) {
      evens.push_back(static_cast<T>(2 * i));
      odds.push_back(static_cast<T>(2 * i + 1));
    }
    CheckIntersect<T>(evens, odds, "interleaved size " + std::to_string(size));
  }
  // 100x skew: the shape IntersectSorted routes to galloping, but the raw
  // kernels must still handle it exactly (the crossover is policy, not a
  // correctness boundary).
  Rng rng(7);
  const V small = SortedUnique<T>(&rng, 40, 400000);
  V large = SortedUnique<T>(&rng, 4000, 400000);
  for (T v : small) large.push_back(v);
  std::sort(large.begin(), large.end());
  large.erase(std::unique(large.begin(), large.end()), large.end());
  CheckIntersect<T>(small, large, "100x-skew");
  // Runs of equal-density duplicates-free consecutive values.
  V run_a, run_b;
  for (T v = 100; v < 164; ++v) run_a.push_back(v);
  for (T v = 132; v < 196; ++v) run_b.push_back(v);
  CheckIntersect<T>(run_a, run_b, "overlapping-runs");
}

TEST(KernelIntersectTest, AdversarialU32) { IntersectAdversarialCases<uint32_t>(); }
TEST(KernelIntersectTest, AdversarialU64) { IntersectAdversarialCases<uint64_t>(); }

template <typename T>
void IntersectRandomCases() {
  Rng rng(sizeof(T) == 4 ? 101u : 202u);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t a_size = rng.Below(120);
    const size_t b_size = rng.Below(120);
    // Narrow universes force dense overlap; wide ones sparse overlap.
    const uint64_t universe = 32 + rng.Below(4000);
    const auto a = SortedUnique<T>(&rng, std::min<size_t>(a_size, universe / 2),
                                   universe);
    const auto b = SortedUnique<T>(&rng, std::min<size_t>(b_size, universe / 2),
                                   universe);
    CheckIntersect<T>(a, b, "random iter " + std::to_string(iter));
  }
}

TEST(KernelIntersectTest, RandomU32MatchesReference) {
  IntersectRandomCases<uint32_t>();
}
TEST(KernelIntersectTest, RandomU64MatchesReference) {
  IntersectRandomCases<uint64_t>();
}

// ---------------------------------------------------------------------------
// Miner-level equivalence: byte-identical output per dispatch level.
// ---------------------------------------------------------------------------

std::vector<Segment> RandomSegments(uint64_t seed) {
  constexpr size_t kNumSegments = 500;
  constexpr ObjectId kVocab = 30;
  constexpr StreamId kStreams = 10;
  Rng rng(seed);
  std::vector<Segment> out;
  out.reserve(kNumSegments);
  Timestamp time = 0;
  for (size_t i = 0; i < kNumSegments; ++i) {
    time += 1 + static_cast<Timestamp>(rng.Below(Seconds(45)));
    const uint32_t length = 2 + static_cast<uint32_t>(rng.Below(7));
    std::vector<SegmentEntry> entries;
    entries.reserve(length);
    for (uint32_t j = 0; j < length; ++j) {
      entries.push_back(SegmentEntry{static_cast<ObjectId>(rng.Below(kVocab)),
                                     time + static_cast<Timestamp>(j * 100)});
    }
    out.emplace_back(static_cast<SegmentId>(i + 1),
                     static_cast<StreamId>(rng.Below(kStreams)),
                     std::move(entries));
  }
  return out;
}

MiningParams Params() {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(10);
  params.theta = 3;
  params.min_pattern_size = 1;
  params.max_pattern_size = 4;
  params.max_segment_objects = 16;
  return params;
}

std::vector<Fcp> MineSerial(MinerKind kind, const MiningParams& params,
                            const std::vector<Segment>& segments) {
  auto miner = MakeMiner(kind, params);
  std::vector<Fcp> out;
  std::vector<Fcp> batch;
  for (const Segment& segment : segments) {
    batch.clear();
    miner->AddSegment(segment, &batch);
    for (Fcp& fcp : batch) out.push_back(std::move(fcp));
  }
  return out;
}

std::vector<Fcp> MineSharded(MinerKind kind, const MiningParams& params,
                             uint32_t num_shards,
                             const std::vector<Segment>& segments) {
  std::vector<std::unique_ptr<FcpMiner>> miners;
  for (uint32_t s = 0; s < num_shards; ++s) {
    miners.push_back(MakeMiner(kind, params, ShardSpec{s, num_shards}));
  }
  Timestamp watermark = kMinTimestamp;
  std::vector<Fcp> out;
  std::vector<Fcp> batch;
  std::set<uint32_t> targets;
  for (const Segment& segment : segments) {
    watermark = std::max(watermark, segment.end_time());
    targets.clear();
    for (ObjectId object : segment.DistinctObjects()) {
      targets.insert(ShardOf(object, num_shards));
    }
    for (uint32_t target : targets) {
      miners[target]->AdvanceWatermark(watermark);
      batch.clear();
      miners[target]->AddSegment(segment, &batch);
      for (Fcp& fcp : batch) out.push_back(std::move(fcp));
    }
  }
  return out;
}

class MinerKernelEquivalenceTest : public ::testing::TestWithParam<MinerKind> {
};

TEST_P(MinerKernelEquivalenceTest, SerialOutputIdenticalAcrossLevels) {
  const MinerKind kind = GetParam();
  const MiningParams params = Params();
  KernelLevelGuard guard;
  for (uint64_t seed : {51u, 52u}) {
    const std::vector<Segment> segments = RandomSegments(seed);
    kernels::SetKernelLevel(KernelLevel::kScalar);
    const std::vector<FcpSignature> reference =
        FullSignatures(MineSerial(kind, params, segments));
    ASSERT_FALSE(reference.empty()) << "vacuous workload, seed " << seed;
    for (KernelLevel level : SupportedLevels()) {
      kernels::SetKernelLevel(level);
      EXPECT_EQ(FullSignatures(MineSerial(kind, params, segments)), reference)
          << "level=" << LevelName(level) << " seed=" << seed;
    }
  }
}

TEST_P(MinerKernelEquivalenceTest, ShardedOutputIdenticalAcrossLevels) {
  constexpr uint32_t kShards = 4;
  const MinerKind kind = GetParam();
  const MiningParams params = Params();
  KernelLevelGuard guard;
  const std::vector<Segment> segments = RandomSegments(53);
  kernels::SetKernelLevel(KernelLevel::kScalar);
  const std::vector<FcpSignature> reference =
      FullSignatures(MineSharded(kind, params, kShards, segments));
  ASSERT_FALSE(reference.empty());
  for (KernelLevel level : SupportedLevels()) {
    kernels::SetKernelLevel(level);
    EXPECT_EQ(FullSignatures(MineSharded(kind, params, kShards, segments)),
              reference)
        << "level=" << LevelName(level);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMiners, MinerKernelEquivalenceTest,
                         ::testing::Values(MinerKind::kCooMine,
                                           MinerKind::kDiMine,
                                           MinerKind::kMatrixMine));

// Unsupported levels clamp (with a warning) instead of crashing, so
// FCP_KERNEL=avx2 is safe in CI matrices that include non-AVX2 machines.
TEST(KernelDispatchTest, UnsupportedLevelClampsToBestSupported) {
  KernelLevelGuard guard;
  const KernelLevel got = kernels::SetKernelLevel(KernelLevel::kAvx2);
  EXPECT_TRUE(kernels::LevelSupported(got));
  EXPECT_EQ(got, kernels::ActiveLevel());
}

TEST(KernelDispatchTest, FromStringRejectsUnknownNames) {
  KernelLevelGuard guard;
  EXPECT_TRUE(kernels::SetKernelLevelFromString("auto"));
  EXPECT_TRUE(kernels::SetKernelLevelFromString("scalar"));
  EXPECT_FALSE(kernels::SetKernelLevelFromString("neon"));
  EXPECT_FALSE(kernels::SetKernelLevelFromString(""));
}

}  // namespace
}  // namespace fcp
