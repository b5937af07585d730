// Shard-count invariance: the union of S object-partitioned miner shards
// must reproduce the serial miner's discoveries exactly — same triggers,
// patterns, stream sets and windows — for every miner and every shard count.
// This is the correctness contract of the min-object ownership rule (see
// common/shard.h): every occurrence segment of an owned pattern contains the
// owned minimum object, so the owner shard sees every supporter.

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/shard.h"
#include "core/miner.h"
#include "stream/segment.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace fcp {
namespace {

using testing::FcpSignature;
using testing::FullSignatures;

struct WorkloadConfig {
  size_t num_segments = 600;
  ObjectId vocab = 30;
  StreamId streams = 10;
  uint32_t min_length = 2;
  uint32_t max_length = 8;
  DurationMs max_gap = Seconds(45);  ///< between consecutive segment starts
};

// Randomized workload: segments on random streams with random object sets,
// start times advancing by a random gap (global time order, so per-stream
// time order holds too) and entry times spread within the segment.
std::vector<Segment> RandomSegments(uint64_t seed, const WorkloadConfig& cfg) {
  Rng rng(seed);
  std::vector<Segment> out;
  out.reserve(cfg.num_segments);
  Timestamp time = 0;
  for (size_t i = 0; i < cfg.num_segments; ++i) {
    time += 1 + static_cast<Timestamp>(rng.Below(
                    static_cast<uint64_t>(cfg.max_gap)));
    const uint32_t length =
        cfg.min_length + static_cast<uint32_t>(rng.Below(
                             cfg.max_length - cfg.min_length + 1));
    std::vector<SegmentEntry> entries;
    entries.reserve(length);
    for (uint32_t j = 0; j < length; ++j) {
      entries.push_back(
          SegmentEntry{static_cast<ObjectId>(rng.Below(cfg.vocab)),
                       time + static_cast<Timestamp>(j * 100)});
    }
    out.emplace_back(static_cast<SegmentId>(i + 1),
                     static_cast<StreamId>(rng.Below(cfg.streams)),
                     std::move(entries));
  }
  return out;
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

// Replays the segment stream through S shard miners the way the
// ShardRouter + shard threads do: each segment is delivered to every shard
// owning >= 1 of its objects, together with the global watermark.
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

// Tweet-like workload: each segment holds one to three tweets of one user
// stream, every tweet a run of Zipf-drawn words sharing one timestamp, with
// the hottest words on the smallest ids. Within a tweet the words are sorted
// by id (hottest first, as a (time, stream, object)-sorted trace lays them
// out) or, with `permute_ties`, shuffled; the words drawn are the same
// either way.
std::vector<Segment> TweetSegments(uint64_t seed, bool permute_ties) {
  Rng rng(seed);
  Rng shuffle(seed ^ 0x5eed);
  const ZipfDistribution words(200, 1.0);
  std::vector<Segment> out;
  Timestamp time = 0;
  for (size_t i = 0; i < 600; ++i) {
    time += 1 + static_cast<Timestamp>(rng.Below(Seconds(45)));
    std::vector<SegmentEntry> entries;
    const uint64_t tweets = 1 + rng.Below(3);
    for (uint64_t tweet = 0; tweet < tweets; ++tweet) {
      const Timestamp at = time + static_cast<Timestamp>(tweet) * 1000;
      const size_t first = entries.size();
      const uint64_t length = 3 + rng.Below(6);
      for (uint64_t w = 0; w < length; ++w) {
        entries.push_back(
            SegmentEntry{static_cast<ObjectId>(words.Sample(rng)), at});
      }
      const auto run = entries.begin() + static_cast<ptrdiff_t>(first);
      std::sort(run, entries.end(),
                [](const SegmentEntry& a, const SegmentEntry& b) {
                  return a.object < b.object;
                });
      if (permute_ties) {
        for (size_t k = entries.size() - first; k > 1; --k) {
          std::swap(run[static_cast<ptrdiff_t>(k - 1)],
                    run[static_cast<ptrdiff_t>(shuffle.Below(k))]);
        }
      }
    }
    out.emplace_back(static_cast<SegmentId>(i + 1),
                     static_cast<StreamId>(rng.Below(10)), std::move(entries));
  }
  return out;
}

MiningParams Params() {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(10);
  params.theta = 3;
  params.min_pattern_size = 1;  // exercises the singleton emission gate
  params.max_pattern_size = 4;
  params.max_segment_objects = 16;
  return params;
}

class ShardEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<MinerKind, uint32_t>> {};

TEST_P(ShardEquivalenceTest, UnionOfShardsEqualsSerialMultiset) {
  const auto [kind, num_shards] = GetParam();
  const MiningParams params = Params();
  for (uint64_t seed : {11u, 12u, 13u}) {
    const std::vector<Segment> segments = RandomSegments(seed, {});
    const std::vector<FcpSignature> serial =
        FullSignatures(MineSerial(kind, params, segments));
    const std::vector<FcpSignature> sharded =
        FullSignatures(MineSharded(kind, params, num_shards, segments));
    ASSERT_FALSE(serial.empty()) << "workload mined nothing (seed " << seed
                                 << ") — the test is vacuous";
    EXPECT_EQ(sharded, serial) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMinersAllShardCounts, ShardEquivalenceTest,
    ::testing::Combine(::testing::Values(MinerKind::kCooMine,
                                         MinerKind::kDiMine,
                                         MinerKind::kMatrixMine),
                       ::testing::Values(2u, 3u, 8u)));

// The same contract under a pattern-size floor, where CooMine's SLCP drops
// the segments sharing too few objects (the sharded search after its merge)
// and the posting miners drop the same supporters.
class ShardEquivalenceMinSizeTest
    : public ::testing::TestWithParam<std::tuple<MinerKind, uint32_t>> {};

TEST_P(ShardEquivalenceMinSizeTest, UnionOfShardsEqualsSerialMultiset) {
  const auto [kind, min_size] = GetParam();
  MiningParams params = Params();
  params.min_pattern_size = min_size;
  for (uint64_t seed : {11u, 12u}) {
    const std::vector<Segment> segments = RandomSegments(seed, {});
    const std::vector<FcpSignature> serial =
        FullSignatures(MineSerial(kind, params, segments));
    ASSERT_FALSE(serial.empty()) << "workload mined nothing (seed " << seed
                                 << ") — the test is vacuous";
    for (uint32_t num_shards : {2u, 3u, 8u}) {
      EXPECT_EQ(FullSignatures(MineSharded(kind, params, num_shards, segments)),
                serial)
          << "seed " << seed << ", " << num_shards << " shards";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMiners, ShardEquivalenceMinSizeTest,
    ::testing::Combine(::testing::Values(MinerKind::kCooMine,
                                         MinerKind::kDiMine,
                                         MinerKind::kMatrixMine),
                       ::testing::Values(2u, 3u)));

// The Seg-tree lays each run of simultaneous objects rare-first; the order a
// run arrives in must not reach the output, serial or sharded.
TEST(ShardEquivalenceTest, TiedEntryOrderDoesNotChangeCooMineOutput) {
  const MiningParams params = Params();
  for (uint64_t seed : {21u, 22u}) {
    const std::vector<Segment> sorted = TweetSegments(seed, false);
    const std::vector<Segment> permuted = TweetSegments(seed, true);
    const std::vector<FcpSignature> reference =
        FullSignatures(MineSerial(MinerKind::kCooMine, params, sorted));
    ASSERT_FALSE(reference.empty()) << "workload mined nothing (seed " << seed
                                    << ") — the test is vacuous";
    EXPECT_EQ(FullSignatures(MineSerial(MinerKind::kCooMine, params, permuted)),
              reference)
        << "seed " << seed;
    EXPECT_EQ(
        FullSignatures(MineSharded(MinerKind::kCooMine, params, 4, sorted)),
        reference)
        << "seed " << seed;
    EXPECT_EQ(
        FullSignatures(MineSharded(MinerKind::kCooMine, params, 4, permuted)),
        reference)
        << "seed " << seed;
    // DIMine's postings never see entry order: an independent reference.
    EXPECT_EQ(FullSignatures(MineSerial(MinerKind::kDiMine, params, permuted)),
              reference)
        << "seed " << seed;
  }
}

TEST(ShardEquivalenceTest, BruteForceOracleShardsExactly) {
  // The oracle shares no code with the real miners; sharding it the same
  // way and getting the same union is independent evidence the ownership
  // rule itself (not an implementation detail) is what makes recall exact.
  WorkloadConfig small;
  small.num_segments = 150;
  small.vocab = 12;
  small.max_length = 6;
  MiningParams params = Params();
  params.max_segment_objects = 8;
  const std::vector<Segment> segments = RandomSegments(21, small);
  const std::vector<FcpSignature> serial =
      FullSignatures(MineSerial(MinerKind::kBruteForce, params, segments));
  ASSERT_FALSE(serial.empty());
  for (uint32_t num_shards : {2u, 3u}) {
    EXPECT_EQ(FullSignatures(MineSharded(MinerKind::kBruteForce, params,
                                         num_shards, segments)),
              serial);
  }
}

TEST(ShardEquivalenceTest, ShardOutputsAreDisjointByOwnership) {
  // Each shard only emits patterns whose minimum object it owns, so the
  // per-shard outputs partition the serial output.
  const MiningParams params = Params();
  const std::vector<Segment> segments = RandomSegments(31, {});
  constexpr uint32_t kShards = 3;
  for (uint32_t s = 0; s < kShards; ++s) {
    auto miner = MakeMiner(MinerKind::kCooMine, params, ShardSpec{s, kShards});
    Timestamp watermark = kMinTimestamp;
    std::vector<Fcp> batch;
    for (const Segment& segment : segments) {
      watermark = std::max(watermark, segment.end_time());
      bool owns_one = false;
      for (ObjectId object : segment.DistinctObjects()) {
        owns_one |= ShardOf(object, kShards) == s;
      }
      if (!owns_one) continue;
      miner->AdvanceWatermark(watermark);
      batch.clear();
      miner->AddSegment(segment, &batch);
      for (const Fcp& fcp : batch) {
        ASSERT_FALSE(fcp.objects.empty());
        EXPECT_EQ(ShardOf(fcp.objects.front(), kShards), s)
            << "shard " << s << " emitted a pattern it does not own: "
            << testing::ToString(fcp.objects);
      }
    }
  }
}

}  // namespace
}  // namespace fcp
