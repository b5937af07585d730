// Property tests: the Seg-tree under random workloads behaves exactly like a
// naive segment store — SLCP included, with and without a pattern-size floor
// and per shard (each shard's rows against the owned-suffix oracle) — and its
// structural invariants survive arbitrary insert/expire interleavings (which
// re-root the subtrees deletion cuts off), with and without DistanceBound
// pruning. Segments start up to 1.5 tau before they are inserted, so they
// complete out of start order, and the Tlist sweep before each query must
// leave exactly the valid ones.

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "index/seg_tree.h"
#include "stream/segment.h"
#include "test_util.h"
#include "util/rng.h"

namespace fcp {
namespace {

constexpr DurationMs kTau = 1000;

// Naive mirror of the Seg-tree's query surface.
class NaiveStore {
 public:
  void Insert(const Segment& segment) {
    segments_[segment.id()] = segment;
  }
  void Remove(SegmentId id) { segments_.erase(id); }

  size_t CountValid(Timestamp now) const {
    size_t valid = 0;
    for (const auto& [id, segment] : segments_) {
      valid += now - segment.start_time() <= kTau ? 1 : 0;
    }
    return valid;
  }

  size_t RemoveExpired(Timestamp now) {
    size_t removed = 0;
    for (auto it = segments_.begin(); it != segments_.end();) {
      if (now - it->second.start_time() > kTau) {
        it = segments_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  std::vector<SegmentId> RelevantSegments(ObjectId object,
                                          Timestamp now) const {
    std::vector<SegmentId> out;
    for (const auto& [id, segment] : segments_) {
      if (now - segment.start_time() > kTau) continue;
      const auto objects = segment.DistinctObjects();
      if (std::binary_search(objects.begin(), objects.end(), object)) {
        out.push_back(id);
      }
    }
    return out;  // map iteration is id-ordered
  }

  std::map<SegmentId, std::vector<ObjectId>> Slcp(const Segment& probe,
                                                  Timestamp now) const {
    std::map<SegmentId, std::vector<ObjectId>> rows;
    const auto probe_objects = probe.DistinctObjects();
    for (const auto& [id, segment] : segments_) {
      if (now - segment.start_time() > kTau) continue;
      std::vector<ObjectId> common;
      const auto objects = segment.DistinctObjects();
      std::set_intersection(objects.begin(), objects.end(),
                            probe_objects.begin(), probe_objects.end(),
                            std::back_inserter(common));
      if (!common.empty()) rows[id] = common;
    }
    return rows;
  }

  uint64_t total_objects() const {
    uint64_t total = 0;
    for (const auto& [id, segment] : segments_) total += segment.length();
    return total;
  }

  size_t size() const { return segments_.size(); }

 private:
  std::map<SegmentId, Segment> segments_;
};

Segment RandomSegment(SegmentId id, Rng& rng, Timestamp now) {
  const StreamId stream = static_cast<StreamId>(rng.Below(6));
  const size_t length = 1 + rng.Below(8);
  std::vector<SegmentEntry> entries;
  Timestamp t = now;
  for (size_t i = 0; i < length; ++i) {
    entries.push_back(
        SegmentEntry{static_cast<ObjectId>(rng.Below(15)), t});
    t += static_cast<Timestamp>(rng.Below(5));
  }
  return Segment(id, stream, std::move(entries));
}

struct PropertyParams {
  uint64_t seed;
  bool distance_bound;
};

class SegTreePropertyTest
    : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(SegTreePropertyTest, MatchesNaiveStoreUnderRandomWorkload) {
  const PropertyParams param = GetParam();
  Rng rng(param.seed);
  SegTreeOptions options;
  options.use_distance_bound = param.distance_bound;
  SegTree tree(options);
  NaiveStore naive;

  SegmentId next_id = 0;
  Timestamp now = 0;
  std::vector<SegmentId> live;
  uint64_t fresh_walks = 0;
  uint64_t swept = 0;
  // How long before `now` an inserted segment starts: its own generator, so
  // the rest of the workload does not depend on it.
  Rng age_rng(param.seed + 7777);

  // The Tlist sweep at `now` leaves exactly the oracle's valid segments,
  // whatever order they completed in. Every search counts every segment in
  // the tree, so each query sweeps first.
  auto sweep = [&](int step) {
    const size_t valid = naive.CountValid(now);
    swept += tree.RemoveExpired(now, kTau);
    EXPECT_EQ(tree.num_segments(), valid) << "step=" << step;
    EXPECT_GE(tree.oldest_start(), now - kTau) << "step=" << step;
    naive.RemoveExpired(now);
    std::erase_if(live, [&](SegmentId id) { return !tree.Contains(id); });
  };

  for (int step = 0; step < 400; ++step) {
    now += static_cast<Timestamp>(rng.Below(40));
    const uint64_t dice = rng.Below(100);
    if (dice < 55 || live.empty()) {
      // Insert.
      const Timestamp start =
          now - static_cast<Timestamp>(age_rng.Below(3 * kTau / 2));
      const Segment segment = RandomSegment(next_id++, rng, start);
      tree.Insert(segment);
      naive.Insert(segment);
      live.push_back(segment.id());
    } else if (dice < 70) {
      // Remove a random live segment.
      const size_t pick = rng.Below(live.size());
      const SegmentId id = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      tree.Remove(id);
      naive.Remove(id);
    } else if (dice < 80) {
      // Expiry sweep alone.
      sweep(step);
    } else if (dice < 92) {
      // Point query.
      sweep(step);
      const ObjectId object = static_cast<ObjectId>(rng.Below(15));
      EXPECT_EQ(tree.RelevantSegments(object),
                naive.RelevantSegments(object, now))
          << "object=" << object << " step=" << step;
    } else {
      // SLCP probe.
      sweep(step);
      const Segment probe = RandomSegment(next_id++, rng, now);
      const auto rows = tree.Slcp(probe);
      std::map<SegmentId, std::vector<ObjectId>> got;
      for (const LcpRow& row : rows) got[row.segment] = row.common;
      const auto want = naive.Slcp(probe, now);
      EXPECT_EQ(got, want) << "step=" << step;
      EXPECT_EQ(rows.size(), got.size()) << "a segment has two rows";
      // With a pattern-size floor m, the search — serial, and each shard
      // of S in {2, 3} — returns exactly the oracle's rows: the common set
      // from the first owned object onward, kept iff it holds >= m objects.
      // Every other segment sharing an owned object is counted as dropped,
      // unless its row holds only the object whose chain the search
      // skipped.
      for (uint32_t min_common : {1u, 2u, 3u}) {
        for (const ShardSpec shard :
             {ShardSpec{}, ShardSpec{0, 2}, ShardSpec{1, 2}, ShardSpec{0, 3},
              ShardSpec{1, 3}, ShardSpec{2, 3}}) {
          LcpTable table;
          tree.SlcpInto(probe.distinct_objects(), &table, shard, min_common);
          bool well_formed = true;
          const auto shard_got =
              fcp::testing::SlcpRowsOf(table, probe, &well_formed);
          EXPECT_TRUE(well_formed) << "step=" << step;
          uint64_t dropped = 0;
          const auto skipped = fcp::testing::SkippedObject(
              tree, probe.distinct_objects(), shard, min_common);
          EXPECT_EQ(shard_got,
                    fcp::testing::ShardRowsOf(want, shard, min_common,
                                              &dropped, skipped))
              << "step=" << step << " m=" << min_common << " shard "
              << shard.index << "/" << shard.count;
          EXPECT_EQ(table.rows_dropped, dropped)
              << "step=" << step << " m=" << min_common << " shard "
              << shard.index << "/" << shard.count;
        }
      }
      // New-object walk: with a random set of fresh positions (a separate
      // generator, so the workload stays the same), whenever SlcpInto takes
      // the walk it returns exactly the full walk's rows that hold a fresh
      // position, with the same common objects; otherwise the full rows.
      const std::vector<ObjectId>& objects = probe.distinct_objects();
      Rng mask_rng(param.seed * 1000 + static_cast<uint64_t>(step));
      for (uint32_t min_common : {1u, 2u, 3u}) {
        LcpTable full;
        tree.SlcpInto(objects, &full, {}, min_common);
        bool well_formed = true;
        const auto full_rows =
            fcp::testing::SlcpRowsOf(full, probe, &well_formed);
        for (int trial = 0; trial < 4; ++trial) {
          std::vector<uint8_t> fresh(objects.size());
          for (uint8_t& flag : fresh) flag = mask_rng.Below(3) == 0 ? 1 : 0;
          LcpTable table;
          const bool walked =
              tree.SlcpInto(objects, &table, {}, min_common, fresh);
          fresh_walks += walked ? 1 : 0;
          auto want = full_rows;
          if (walked) {
            std::erase_if(want, [&](const auto& row) {
              return std::none_of(
                  row.second.begin(), row.second.end(), [&](ObjectId o) {
                    const auto at =
                        std::lower_bound(objects.begin(), objects.end(), o);
                    return fresh[static_cast<size_t>(at - objects.begin())];
                  });
            });
          }
          EXPECT_EQ(fcp::testing::SlcpRowsOf(table, probe, &well_formed),
                    want)
              << "step=" << step << " m=" << min_common
              << " walked=" << walked;
          EXPECT_TRUE(well_formed) << "step=" << step;
        }
      }
    }
    if (step % 20 == 0) tree.CheckInvariants();
    EXPECT_EQ(tree.num_segments(), naive.size());
    EXPECT_EQ(tree.total_objects(), naive.total_objects());
  }
  tree.CheckInvariants();
  // Some of the probes above skipped their dominant chain, some took the
  // new-object walk, and the sweeps removed segments.
  EXPECT_GT(tree.stats().slcp_chains_skipped, 0u);
  EXPECT_GT(fresh_walks, 0u);
  EXPECT_GT(swept, 0u);
  // Compression never goes negative: node count <= stored objects.
  EXPECT_LE(tree.num_nodes(), tree.total_objects());
}

std::vector<PropertyParams> MakeParams() {
  std::vector<PropertyParams> params;
  for (uint64_t seed = 1; seed <= 18; ++seed) {
    params.push_back({seed, true});
    params.push_back({seed, false});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, SegTreePropertyTest, ::testing::ValuesIn(MakeParams()),
    [](const ::testing::TestParamInfo<PropertyParams>& info) {
      // "_root": deletion re-roots the subtrees it disconnects.
      return "seed" + std::to_string(info.param.seed) + "_root" +
             (info.param.distance_bound ? "_bound" : "_nobound");
    });

TEST(SegTreeCompressionTest, HighOverlapCompressesWell) {
  // Consecutive segments sharing long prefixes (the TR regime).
  SegTree tree;
  SegmentId id = 0;
  for (int i = 0; i < 100; ++i) {
    std::vector<SegmentEntry> entries;
    for (int j = 0; j < 10; ++j) {
      entries.push_back(SegmentEntry{static_cast<ObjectId>(i + j),
                                     static_cast<Timestamp>(i * 10 + j)});
    }
    tree.Insert(Segment(id++, 0, std::move(entries)));
  }
  // Each new segment shares 9 of 10 objects with its predecessor... but as a
  // *prefix* only the aligned part is shared; still, compression must be
  // substantial.
  EXPECT_GT(tree.CompressionRatio(), 0.5);
  tree.CheckInvariants();
}

// Sustained churn through the arena-backed pool: 10k random insert/remove
// cycles with every structural invariant re-validated after each mutation.
// This is the recycling torture test — a node handed back to the pool with a
// stale field, or a child/tail chunk released to the wrong size class, shows
// up here as a corrupted tree long before it would crash.
TEST(SegTreeChurnTest, TenThousandInsertRemoveCyclesKeepInvariants) {
  Rng rng(314159);
  SegTree tree;  // default options: arena pool + root-attach on delete
  SegmentId next_id = 0;
  Timestamp now = 0;
  std::vector<SegmentId> live;

  for (int step = 0; step < 10000; ++step) {
    now += static_cast<Timestamp>(rng.Below(8));
    const bool insert = live.size() < 4 ||
                        (live.size() < 24 && rng.Chance(0.55));
    if (insert) {
      const Segment segment = RandomSegment(next_id++, rng, now);
      tree.Insert(segment);
      live.push_back(segment.id());
    } else if (rng.Chance(0.9)) {
      const size_t pick = rng.Below(live.size());
      tree.Remove(live[pick]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      tree.RemoveExpired(now, kTau);
      std::erase_if(live, [&](SegmentId id) {
        return !tree.Contains(id);
      });
    }
    tree.CheckInvariants();
    ASSERT_EQ(tree.num_segments(), live.size()) << "step=" << step;
  }
  // The pool must actually have recycled nodes (otherwise this test ran
  // against a plain allocator and proved nothing about the arena).
  EXPECT_GT(tree.stats().runs_recycled, 0u);
  EXPECT_GT(tree.stats().nodes_deleted, 1000u);
}

TEST(SegTreeCompressionTest, DisjointSegmentsDoNotCompress) {
  // The Twitter regime: segments share nothing.
  SegTree tree;
  SegmentId id = 0;
  ObjectId next_object = 0;
  for (int i = 0; i < 50; ++i) {
    std::vector<SegmentEntry> entries;
    for (int j = 0; j < 5; ++j) {
      entries.push_back(SegmentEntry{next_object++, static_cast<Timestamp>(i)});
    }
    tree.Insert(Segment(id++, static_cast<StreamId>(i), std::move(entries)));
  }
  EXPECT_EQ(tree.CompressionRatio(), 0.0);
  tree.CheckInvariants();
}

}  // namespace
}  // namespace fcp
