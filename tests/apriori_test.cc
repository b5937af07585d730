// The shared Apriori driver (core/apriori.h), driven through a test support
// policy that declares a fixed set of patterns frequent and records every
// candidate the driver asks it to extend — so each case sees exactly which
// candidates the F_k x F_k join and the subset prune generate.

#include "core/apriori.h"

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/shard.h"

namespace fcp {
namespace {

class SetSupport {
 public:
  using Elem = uint32_t;

  explicit SetSupport(std::set<Pattern> frequent)
      : frequent_(std::move(frequent)) {}

  void Load(std::span<const ObjectId> objects, std::span<const uint8_t>) {
    objects_ = objects;
  }
  bool Singleton(uint32_t oi, std::span<const uint32_t>* support) const {
    *support = {};
    return frequent_.count({objects_[oi]}) > 0;
  }
  bool Extend(std::span<const uint32_t>, const uint32_t* prefix, size_t k,
              uint32_t last, std::vector<uint32_t>* cand) {
    cand->clear();
    Pattern pattern;
    for (size_t i = 0; i < k; ++i) pattern.push_back(objects_[prefix[i]]);
    pattern.push_back(objects_[last]);
    candidates_.push_back(pattern);
    return frequent_.count(pattern) > 0;
  }
  // One stream and one occurrence per support: with theta = 1 every
  // candidate the bounds let through is frequent.
  size_t Streams(std::span<const uint32_t>, size_t,
                 std::vector<StreamId>* out) const {
    if (out != nullptr) out->push_back(0);
    return 1;
  }
  void Occurrences(std::span<const uint32_t>,
                   std::vector<Occurrence>* out) const {
    out->push_back(Occurrence{});
  }

  const std::vector<Pattern>& candidates() const { return candidates_; }

 private:
  std::set<Pattern> frequent_;
  std::span<const ObjectId> objects_;
  std::vector<Pattern> candidates_;
};

struct DriverRun {
  std::vector<Pattern> candidates;  ///< extended candidates, in ask order
  std::vector<Pattern> emitted;     ///< FCPs, in emission order
  MinerStats stats;

  std::vector<Pattern> CandidatesOfSize(size_t size) const {
    std::vector<Pattern> out;
    for (const Pattern& p : candidates) {
      if (p.size() == size) out.push_back(p);
    }
    return out;
  }
};

DriverRun Mine(const std::vector<ObjectId>& objects, std::set<Pattern> frequent,
         uint32_t max_pattern_size, const ShardSpec& shard = {}) {
  MiningParams params;
  params.theta = 1;
  params.min_pattern_size = 1;
  params.max_pattern_size = max_pattern_size;
  std::vector<SegmentEntry> entries;
  for (ObjectId o : objects) entries.push_back(SegmentEntry{o, 0});
  const Segment trigger(1, 0, std::move(entries));
  SetSupport policy(std::move(frequent));
  AprioriScratch<uint32_t> scratch;
  DriverRun run;
  std::vector<Fcp> out;
  MineApriori(trigger, params, shard, policy, &scratch, &run.stats, &out);
  run.candidates = policy.candidates();
  for (const Fcp& fcp : out) run.emitted.push_back(fcp.objects);
  return run;
}

const std::set<Pattern> kSingletons123 = {{1}, {2}, {3}};

TEST(AprioriTest, EmptyInput) {
  // No frequent singleton: nothing to join, nothing emitted.
  const DriverRun run = Mine({1, 2, 3}, {}, 4);
  EXPECT_TRUE(run.candidates.empty());
  EXPECT_TRUE(run.emitted.empty());
  EXPECT_EQ(run.stats.candidates_checked, 3u);
  EXPECT_EQ(run.stats.candidates_pruned, 3u);
  EXPECT_EQ(run.stats.slcp_probes, 3u);
}

TEST(AprioriTest, SingletonsJoinToPairs) {
  const DriverRun run = Mine({1, 2, 3}, kSingletons123, 2);
  EXPECT_EQ(run.candidates, (std::vector<Pattern>{{1, 2}, {1, 3}, {2, 3}}));
  EXPECT_EQ(run.emitted, (std::vector<Pattern>{{1}, {2}, {3}}));
}

TEST(AprioriTest, SingleSingletonNoCandidates) {
  const DriverRun run = Mine({7}, {{7}}, 4);
  EXPECT_TRUE(run.candidates.empty());
  EXPECT_EQ(run.emitted, (std::vector<Pattern>{{7}}));
}

TEST(AprioriTest, PairsJoinOnlyOnSharedPrefix) {
  // {1,2} and {1,3} share prefix {1} -> candidate {1,2,3} needs subset {2,3}.
  {
    std::set<Pattern> frequent = kSingletons123;
    frequent.insert({{1, 2}, {1, 3}, {2, 3}});
    const DriverRun run = Mine({1, 2, 3}, frequent, 3);
    EXPECT_EQ(run.CandidatesOfSize(3), (std::vector<Pattern>{{1, 2, 3}}));
  }
  {
    // Without {2,3} the candidate is pruned before its support is asked.
    std::set<Pattern> frequent = kSingletons123;
    frequent.insert({{1, 2}, {1, 3}});
    const DriverRun run = Mine({1, 2, 3}, frequent, 3);
    EXPECT_TRUE(run.CandidatesOfSize(3).empty());
    // 3 singletons + 3 pairs checked; {2,3} fails, {1,2,3} is pruned.
    EXPECT_EQ(run.stats.candidates_checked, 6u);
    EXPECT_EQ(run.stats.candidates_pruned, 2u);
  }
}

TEST(AprioriTest, NoJoinAcrossDifferentPrefixes) {
  std::set<Pattern> frequent = {{1}, {2}, {3}, {4}};
  frequent.insert({{1, 2}, {3, 4}});
  const DriverRun run = Mine({1, 2, 3, 4}, frequent, 4);
  EXPECT_TRUE(run.CandidatesOfSize(3).empty());
}

TEST(AprioriTest, TriplesToQuads) {
  std::set<Pattern> frequent = {{1}, {2}, {3}, {4}};
  frequent.insert({{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}});
  frequent.insert({{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}});
  const DriverRun run = Mine({1, 2, 3, 4}, frequent, 4);
  EXPECT_EQ(run.CandidatesOfSize(4), (std::vector<Pattern>{{1, 2, 3, 4}}));
}

TEST(AprioriTest, QuadPrunedWhenSubsetMissing) {
  // {2,3,4} is asked but infrequent: {1,2,3,4} must be pruned.
  std::set<Pattern> frequent = {{1}, {2}, {3}, {4}};
  frequent.insert({{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}});
  frequent.insert({{1, 2, 3}, {1, 2, 4}, {1, 3, 4}});
  const DriverRun run = Mine({1, 2, 3, 4}, frequent, 4);
  EXPECT_EQ(run.CandidatesOfSize(3).size(), 4u);
  EXPECT_TRUE(run.CandidatesOfSize(4).empty());
}

TEST(AprioriTest, AllSubsetsFrequentDirect) {
  // Flat stride-2 level store of object indices {0,1}, {0,2}, {1,2}.
  const std::vector<uint32_t> level = {0, 1, 0, 2, 1, 2};
  const std::vector<uint8_t> owned = {1, 1, 1};
  const uint32_t prefix[] = {0, 1};
  std::vector<uint32_t> subset;
  EXPECT_TRUE(AllSubsetsFrequent(level.data(), 3, 2, prefix, 2, owned.data(),
                                 &subset));
  const std::vector<uint32_t> missing = {0, 1, 0, 2};
  EXPECT_FALSE(AllSubsetsFrequent(missing.data(), 2, 2, prefix, 2,
                                  owned.data(), &subset));
}

TEST(AprioriTest, UnownedSubsetIsSkipped) {
  // {1,2} drops position 0 of {0,1,2}; its minimum (index 1) is not owned,
  // so the subset lives in another shard's store and is not required here.
  const std::vector<uint32_t> level = {0, 1, 0, 2};
  const std::vector<uint8_t> owned = {1, 0, 1};
  const uint32_t prefix[] = {0, 1};
  std::vector<uint32_t> subset;
  EXPECT_TRUE(AllSubsetsFrequent(level.data(), 2, 2, prefix, 2, owned.data(),
                                 &subset));
}

TEST(AprioriTest, PairCandidateAlwaysPassesSubsetCheck) {
  // For size-2 candidates both subsets are the join parents.
  const uint8_t owned[] = {1, 1};
  const uint32_t prefix[] = {0};
  std::vector<uint32_t> subset;
  EXPECT_TRUE(AllSubsetsFrequent(nullptr, 0, 1, prefix, 1, owned, &subset));
}

TEST(AprioriTest, LargeJoinCount) {
  // n singletons -> C(n,2) pair candidates.
  std::vector<ObjectId> objects;
  std::set<Pattern> frequent;
  for (ObjectId o = 0; o < 20; ++o) {
    objects.push_back(o);
    frequent.insert({o});
  }
  const DriverRun run = Mine(objects, frequent, 2);
  EXPECT_EQ(run.candidates.size(), 190u);
  EXPECT_EQ(run.stats.candidates_checked, 20u + 190u);
}

TEST(AprioriTest, OutputSortedLexicographically) {
  std::set<Pattern> frequent = {{2}, {5}, {9}, {2, 5}, {2, 9}, {5, 9}};
  const DriverRun run = Mine({2, 5, 9}, frequent, 3);
  EXPECT_TRUE(std::is_sorted(run.candidates.begin(), run.candidates.end(),
                             [](const Pattern& a, const Pattern& b) {
                               if (a.size() != b.size()) {
                                 return a.size() < b.size();
                               }
                               return a < b;
                             }));
  EXPECT_EQ(run.emitted, (std::vector<Pattern>{
                             {2}, {5}, {9}, {2, 5}, {2, 9}, {5, 9}}));
}

TEST(AprioriTest, ShardEmitsOnlyOwnedMinima) {
  // Every pattern over {1..6} is frequent; each shard of two emits exactly
  // the patterns whose minimum it owns, and together they emit everything.
  std::set<Pattern> frequent;
  for (uint32_t mask = 1; mask < (1u << 6); ++mask) {
    Pattern p;
    for (ObjectId o = 0; o < 6; ++o) {
      if (mask & (1u << o)) p.push_back(o + 1);
    }
    frequent.insert(p);
  }
  const DriverRun serial = Mine({1, 2, 3, 4, 5, 6}, frequent, 0);
  EXPECT_EQ(serial.emitted.size(), frequent.size());
  std::set<Pattern> sharded;
  for (uint32_t index = 0; index < 2; ++index) {
    const ShardSpec shard{index, 2};
    const DriverRun run = Mine({1, 2, 3, 4, 5, 6}, frequent, 0, shard);
    for (const Pattern& p : run.emitted) {
      EXPECT_TRUE(shard.Owns(p.front()));
      EXPECT_TRUE(sharded.insert(p).second);
    }
  }
  EXPECT_EQ(sharded, frequent);
}

}  // namespace
}  // namespace fcp
