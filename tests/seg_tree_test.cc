// Unit tests of the Seg-tree, including the paper's worked examples
// (Example 2: insertion; Example 3: attribute updates; Fig. 2/3 tree shape;
// Table 1: SLCP result).

#include "index/seg_tree.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/rng.h"

namespace fcp {
namespace {

using ::fcp::testing::MakeSegment;

// Object ids for the paper's Fig. 3 letters.
constexpr ObjectId b = 1, c = 2, d = 3, e = 4, f = 5, h = 6, j = 7, k = 8,
                   m = 9, n = 10, o = 11, p = 12, r = 13, s = 14, t = 15,
                   w = 16, z = 17;

constexpr DurationMs kTau = Minutes(30);

// A segment whose objects arrive 1 ms apart from `time` in listed order. The
// paper's segments are time-ordered sequences, so with no tied timestamps
// the Seg-tree path is exactly the listed sequence.
Segment MakeSequence(SegmentId id, StreamId stream,
                     std::initializer_list<ObjectId> objects, Timestamp time) {
  std::vector<SegmentEntry> entries;
  for (ObjectId o : objects) entries.push_back(SegmentEntry{o, time++});
  return Segment(id, stream, std::move(entries));
}

// The segments of Fig. 3 (stream s1 = 1, stream s2 = 2), as paper-order
// sequences. Start times are spread a little so ordering is realistic but
// everything stays valid.
std::vector<Segment> PaperS1Segments() {
  return {
      MakeSequence(10, 1, {b, c, d}, 100),
      MakeSequence(11, 1, {c, d, f, k}, 200),
      MakeSequence(12, 1, {h, m, n}, 300),
      MakeSequence(13, 1, {n, c, p, o}, 400),
      MakeSequence(14, 1, {h, b, k, r, s, t}, 500),
  };
}

std::vector<Segment> PaperS2Segments() {
  return {
      MakeSequence(20, 2, {e, c, f}, 150),
      MakeSequence(21, 2, {c, f, h, j}, 250),
      MakeSequence(22, 2, {j, p, o}, 350),
      MakeSequence(23, 2, {e, c, m, n}, 450),
      MakeSequence(24, 2, {n, s, w, z}, 550),
  };
}

TEST(SegTreeTest, EmptyTree) {
  SegTree tree;
  EXPECT_EQ(tree.num_nodes(), 0u);
  EXPECT_EQ(tree.num_segments(), 0u);
  EXPECT_EQ(tree.total_objects(), 0u);
  EXPECT_EQ(tree.CompressionRatio(), 0.0);
  tree.CheckInvariants();
}

TEST(SegTreeTest, PaperExample2InsertionSharing) {
  SegTree tree;
  const auto segments = PaperS1Segments();

  // G0 (b,c,d) goes under the root: 3 new nodes.
  tree.Insert(segments[0]);
  EXPECT_EQ(tree.num_nodes(), 3u);

  // G1 (c,d,f,k): prefix (c,d) exists inside the b-branch; only f,k are new.
  tree.Insert(segments[1]);
  EXPECT_EQ(tree.num_nodes(), 5u);
  EXPECT_EQ(tree.stats().prefix_nodes_shared, 2u);

  // G2 (h,m,n): no matching prefix; 3 new nodes at the root.
  tree.Insert(segments[2]);
  EXPECT_EQ(tree.num_nodes(), 8u);

  // G3 (n,c,p,o): prefix n matches inside the h-branch; c,p,o are new.
  tree.Insert(segments[3]);
  EXPECT_EQ(tree.num_nodes(), 11u);

  // G4 (h,b,k,r,s,t): prefix h matches; 5 new nodes.
  tree.Insert(segments[4]);
  EXPECT_EQ(tree.num_nodes(), 16u);

  EXPECT_EQ(tree.num_segments(), 5u);
  EXPECT_EQ(tree.total_objects(), 20u);
  EXPECT_NEAR(tree.CompressionRatio(), 4.0 / 20.0, 1e-12);
  tree.CheckInvariants();
}

TEST(SegTreeTest, PaperExample3AttributeUpdates) {
  SegTree tree;
  const auto segments = PaperS1Segments();
  tree.Insert(segments[0]);
  // Before inserting G1: c has (dist=1, cnt=1), d has (dist=0, cnt=1).
  {
    const std::string dump = tree.DebugString();
    EXPECT_NE(dump.find("obj=2 (dist=1, cnt=1)"), std::string::npos) << dump;
    EXPECT_NE(dump.find("obj=3 (dist=0, cnt=1)"), std::string::npos) << dump;
  }
  tree.Insert(segments[1]);
  // After inserting G1: c -> (3, 2) and d -> (2, 2), per Example 3.
  {
    const std::string dump = tree.DebugString();
    EXPECT_NE(dump.find("obj=2 (dist=3, cnt=2)"), std::string::npos) << dump;
    EXPECT_NE(dump.find("obj=3 (dist=2, cnt=2)"), std::string::npos) << dump;
  }
  tree.CheckInvariants();
}

TEST(SegTreeTest, RelevantSegmentsFindsAllContainingSegments) {
  SegTree tree;
  for (const Segment& g : PaperS1Segments()) tree.Insert(g);
  for (const Segment& g : PaperS2Segments()) tree.Insert(g);

  EXPECT_EQ(tree.RelevantSegments(c),
            (std::vector<SegmentId>{10, 11, 13, 20, 21, 23}));
  EXPECT_EQ(tree.RelevantSegments(n), (std::vector<SegmentId>{12, 13, 23, 24}));
  EXPECT_EQ(tree.RelevantSegments(t), (std::vector<SegmentId>{14}));
  EXPECT_TRUE(tree.RelevantSegments(999).empty());
}

TEST(SegTreeTest, PaperTable1Slcp) {
  SegTree tree;
  for (const Segment& g : PaperS1Segments()) tree.Insert(g);
  for (const Segment& g : PaperS2Segments()) tree.Insert(g);

  // Example 4's new segment G0 = (m,n,p,o) in stream s3.
  const Segment probe = MakeSegment(30, 3, {m, n, p, o}, 600);
  EXPECT_EQ(tree.RemoveExpired(600, kTau), 0u);
  const std::vector<LcpRow> rows = tree.Slcp(probe);

  std::map<SegmentId, std::vector<ObjectId>> got;
  for (const LcpRow& row : rows) got[row.segment] = row.common;

  const std::map<SegmentId, std::vector<ObjectId>> want = {
      {12, {m, n}},     // (G2, s1): {m, n}
      {13, {n, o, p}},  // (G3, s1): {n, p, o}
      {22, {o, p}},     // (G2, s2): {p, o}
      {23, {m, n}},     // (G3, s2): {m, n}
      {24, {n}},        // (G4, s2): {n}
  };
  EXPECT_EQ(got, want);
}

TEST(SegTreeTest, SlcpReportsStreamAndTimes) {
  SegTree tree;
  tree.Insert(MakeSegment(1, 7, {c, d}, 1000));
  const Segment probe = MakeSegment(2, 8, {d}, 1500);
  const auto rows = tree.Slcp(probe);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].segment, 1u);
  EXPECT_EQ(rows[0].stream, 7u);
  EXPECT_EQ(rows[0].start, 1000);
  EXPECT_EQ(rows[0].end, 1000);
}

// SlcpInto records each row's common set as positions into the probe's
// sorted distinct objects; Slcp() maps them back to ids. With ids that are
// neither contiguous nor zero-based, and more distinct probe objects than a
// max_segment_objects cap of 24 lets the miners use, a position never equals
// its id — past the cap included.
TEST(SegTreeTest, SlcpReturnsObjectIdsNotProbePositions) {
  constexpr size_t kProbeObjects = 30;
  std::vector<ObjectId> ids;
  std::vector<SegmentEntry> probe_entries;
  for (size_t i = 0; i < kProbeObjects; ++i) {
    ids.push_back(static_cast<ObjectId>(1000 + 7 * i));
    probe_entries.push_back(SegmentEntry{ids.back(), 600});
  }
  const Segment probe(30, 3, std::move(probe_entries));
  SegTree tree;
  tree.Insert(MakeSegment(1, 1, {ids[1], ids[5]}, 100));
  tree.Insert(MakeSegment(2, 2, {5, ids[3], ids[26], ids[29]}, 200));

  const std::map<SegmentId, std::vector<ObjectId>> want = {
      {1, {ids[1], ids[5]}},
      {2, {ids[3], ids[26], ids[29]}},
  };
  std::map<SegmentId, std::vector<ObjectId>> got;
  for (const LcpRow& row : tree.Slcp(probe)) {
    got[row.segment] = row.common;
  }
  EXPECT_EQ(got, want);

  // The table itself holds positions, on the serial path and on each
  // shard's owned-suffix path; together the shards find every row.
  std::set<SegmentId> rows_found;
  for (const ShardSpec shard :
       {ShardSpec{}, ShardSpec{0, 2}, ShardSpec{1, 2}}) {
    LcpTable table;
    tree.SlcpInto(probe.distinct_objects(), &table, shard);
    const auto shard_want = testing::ShardRowsOf(want, shard, 1);
    for (const LcpTable::Row& row : table.rows) {
      std::vector<ObjectId> common;
      for (const uint32_t* pos = table.CommonBegin(row);
           pos != table.CommonEnd(row); ++pos) {
        ASSERT_LT(*pos, kProbeObjects);
        common.push_back(ids[*pos]);
      }
      EXPECT_EQ(common, shard_want.at(row.segment));
      if (!shard.IsSingleton()) rows_found.insert(row.segment);
    }
    if (shard.IsSingleton()) {
      EXPECT_EQ(table.rows.size(), want.size());
    }
  }
  EXPECT_EQ(rows_found, (std::set<SegmentId>{1, 2}));
}

// SLCP tests no validity: it counts every segment in the tree, so the
// caller sweeps at the probe's watermark first and the expired segment is
// gone before the search.
TEST(SegTreeTest, SlcpOnSweptTreeSkipsExpired) {
  SegTree tree;
  tree.Insert(MakeSegment(1, 1, {c, d}, 0));
  tree.Insert(MakeSegment(2, 2, {c}, 100));
  const Timestamp now = kTau + 50;  // segment 1 has expired, 2 is valid
  const Segment probe = MakeSegment(3, 3, {c}, now);
  EXPECT_EQ(tree.RemoveExpired(now, kTau), 1u);
  EXPECT_FALSE(tree.Contains(1));
  const auto rows = tree.Slcp(probe);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].segment, 2u);
  tree.CheckInvariants();
}

TEST(SegTreeTest, RemoveSharedPrefixKeepsOtherSegments) {
  SegTree tree;
  const auto segments = PaperS1Segments();
  for (const Segment& g : segments) tree.Insert(g);

  // Removing G0 (b,c,d) must keep G1 (c,d,f,k) intact: b disappears and the
  // orphaned (c,d,f,k) chain moves under the root as it is, so its c stays
  // apart from G3's c (16 - b = 15 nodes).
  tree.Remove(10);
  tree.CheckInvariants();
  EXPECT_EQ(tree.num_segments(), 4u);
  EXPECT_EQ(tree.num_nodes(), 15u);
  EXPECT_EQ(tree.RelevantSegments(c), (std::vector<SegmentId>{11, 13}));
  EXPECT_EQ(tree.RelevantSegments(b), (std::vector<SegmentId>{14}));
}

TEST(SegTreeTest, RemoveLeafSegment) {
  SegTree tree;
  const auto segments = PaperS1Segments();
  for (const Segment& g : segments) tree.Insert(g);
  tree.Remove(14);  // (h,b,k,r,s,t): h shared with G2, rest unique
  tree.CheckInvariants();
  EXPECT_EQ(tree.num_nodes(), 11u);
  EXPECT_TRUE(tree.RelevantSegments(t).empty());
  EXPECT_EQ(tree.RelevantSegments(h), (std::vector<SegmentId>{12}));
}

TEST(SegTreeTest, RemoveIsIdempotent) {
  SegTree tree;
  tree.Insert(MakeSegment(1, 1, {c, d}, 0));
  tree.Remove(1);
  tree.Remove(1);  // no-op
  EXPECT_EQ(tree.num_segments(), 0u);
  EXPECT_EQ(tree.num_nodes(), 0u);
  tree.CheckInvariants();
}

TEST(SegTreeTest, RemoveEverythingLeavesEmptyTree) {
  SegTree tree;
  const auto s1 = PaperS1Segments();
  const auto s2 = PaperS2Segments();
  for (const Segment& g : s1) tree.Insert(g);
  for (const Segment& g : s2) tree.Insert(g);
  for (const Segment& g : s1) {
    tree.Remove(g.id());
    tree.CheckInvariants();
  }
  for (const Segment& g : s2) {
    tree.Remove(g.id());
    tree.CheckInvariants();
  }
  EXPECT_EQ(tree.num_nodes(), 0u);
  EXPECT_EQ(tree.num_segments(), 0u);
  EXPECT_EQ(tree.total_objects(), 0u);
}

TEST(SegTreeTest, RemoveExpiredSweep) {
  SegTree tree;
  tree.Insert(MakeSegment(1, 1, {c, d}, 0));
  tree.Insert(MakeSegment(2, 2, {d, f}, 1000));
  tree.Insert(MakeSegment(3, 3, {f, k}, kTau + 500));
  const size_t removed = tree.RemoveExpired(kTau + 500, kTau);
  EXPECT_EQ(removed, 1u);  // only segment 1 (start 0) expired
  EXPECT_EQ(tree.num_segments(), 2u);
  tree.CheckInvariants();
}

TEST(SegTreeTest, SameSegmentInsertedTwiceByDifferentIdsShares) {
  // Identical object sequences compress onto a single path.
  SegTree tree;
  tree.Insert(MakeSegment(1, 1, {c, d, f}, 0));
  tree.Insert(MakeSegment(2, 2, {c, d, f}, 10));
  EXPECT_EQ(tree.num_nodes(), 3u);
  EXPECT_EQ(tree.num_segments(), 2u);
  EXPECT_NEAR(tree.CompressionRatio(), 0.5, 1e-12);
  // Both segments are tails on the same node.
  EXPECT_EQ(tree.RelevantSegments(f), (std::vector<SegmentId>{1, 2}));
  tree.CheckInvariants();
}

TEST(SegTreeTest, DuplicateObjectsWithinSegment) {
  SegTree tree;
  tree.Insert(MakeSegment(1, 1, {c, c, d, c}, 0));
  EXPECT_EQ(tree.num_nodes(), 4u);
  EXPECT_EQ(tree.RelevantSegments(c), (std::vector<SegmentId>{1}));
  const Segment probe = MakeSegment(2, 2, {c, d}, 10);
  const auto rows = tree.Slcp(probe);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].common, (std::vector<ObjectId>{c, d}));
  tree.CheckInvariants();
}

// A stored segment carrying an object twice is reached from two chain nodes
// of that object; its row still holds each probe position once, on the
// serial path and on every shard's owned-suffix path.
TEST(SegTreeTest, RepeatedObjectYieldsOnePositionPerRow) {
  SegTree tree;
  tree.Insert(MakeSequence(1, 1, {c, d, c}, 0));
  tree.Insert(MakeSequence(2, 2, {e, c, e, d}, 10));
  tree.Insert(MakeSequence(3, 3, {h}, 20));
  const Segment probe = MakeSequence(4, 4, {d, c, e, c}, 30);
  const std::map<SegmentId, std::vector<ObjectId>> want = {
      {1, {c, d}},
      {2, {c, d, e}},
  };
  for (const ShardSpec shard :
       {ShardSpec{}, ShardSpec{0, 2}, ShardSpec{1, 2}, ShardSpec{0, 3},
        ShardSpec{1, 3}, ShardSpec{2, 3}}) {
    LcpTable table;
    tree.SlcpInto(probe.distinct_objects(), &table, shard);
    bool well_formed = true;
    const auto got = testing::SlcpRowsOf(table, probe, &well_formed);
    EXPECT_TRUE(well_formed) << shard.index << "/" << shard.count;
    EXPECT_EQ(got, testing::ShardRowsOf(want, shard, 1))
        << shard.index << "/" << shard.count;
    size_t positions = 0;
    for (const LcpTable::Row& row : table.rows) {
      positions += table.CommonSize(row);
    }
    EXPECT_EQ(table.common_pool.size(), positions);
  }
}

// The shards a min_common SLCP test checks besides the serial search.
constexpr ShardSpec kSlcpShards[] = {ShardSpec{},     ShardSpec{0, 2},
                                     ShardSpec{1, 2}, ShardSpec{0, 3},
                                     ShardSpec{1, 3}, ShardSpec{2, 3}};

// At min_common 2 a segment sharing one probe object gets no row, even when
// it carries that object twice (two chain nodes reach its tail for the same
// position); it is counted as dropped, once. Segments 3 and 4 give e as many
// chain slots as c, so no chain dominates the serial search and c's chain,
// with segment 1's two c slots, is walked.
TEST(SegTreeTest, MinCommonTwoDropsARepeatedSingleSharedObject) {
  SegTree tree;
  tree.Insert(MakeSequence(1, 1, {c, d, c}, 0));
  tree.Insert(MakeSequence(2, 2, {e, c, h}, 10));
  tree.Insert(MakeSequence(3, 3, {d, e}, 20));
  tree.Insert(MakeSequence(4, 4, {h, e}, 30));
  ASSERT_EQ(tree.chain_length(c), 3u);
  ASSERT_EQ(tree.chain_length(e), 3u);
  const Segment probe = MakeSequence(5, 5, {c, e}, 40);
  const std::map<SegmentId, std::vector<ObjectId>> common = {
      {1, {c}}, {2, {c, e}}, {3, {e}}, {4, {e}}};
  for (const ShardSpec shard : kSlcpShards) {
    LcpTable table;
    tree.SlcpInto(probe.distinct_objects(), &table, shard, /*min_common=*/2);
    bool well_formed = true;
    uint64_t dropped = 0;
    EXPECT_EQ(testing::SlcpRowsOf(table, probe, &well_formed),
              testing::ShardRowsOf(
                  common, shard, 2, &dropped,
                  testing::SkippedObject(tree, probe.distinct_objects(), shard,
                                         2)))
        << shard.index << "/" << shard.count;
    EXPECT_TRUE(well_formed);
    EXPECT_EQ(table.rows_dropped, dropped)
        << shard.index << "/" << shard.count;
    if (shard.IsSingleton()) {
      EXPECT_EQ(table.rows_dropped, 3u);  // segments 1, 3 and 4
    }
  }
}

// The serial search parks a tail's first hit and opens the row at the
// second: the row still lists the parked position, first and ascending.
TEST(SegTreeTest, MinCommonRowOpenedOnSecondHitListsTheFirst) {
  SegTree tree;
  tree.Insert(MakeSequence(1, 1, {e, c}, 0));
  tree.Insert(MakeSequence(2, 2, {d}, 10));
  const Segment probe = MakeSequence(3, 3, {c, d, e}, 20);  // c=0 d=1 e=2
  LcpTable table;
  tree.SlcpInto(probe.distinct_objects(), &table, {}, /*min_common=*/2);
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0].segment, 1u);
  EXPECT_EQ(std::vector<uint32_t>(table.CommonBegin(table.rows[0]),
                                  table.CommonEnd(table.rows[0])),
            (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(table.common_pool.size(), 2u);
  EXPECT_EQ(table.rows_dropped, 1u);  // segment 2 shares d only
}

// A miner passes only the probe objects it mines (the max_segment_objects
// prefix): no position past that prefix is reported, and a segment sharing
// fewer than min_common objects inside it is dropped even if it shares more
// past it.
TEST(SegTreeTest, MinCommonNeverReportsAPositionPastTheMinedPrefix) {
  constexpr size_t kProbeObjects = 30;
  constexpr size_t kCap = 24;
  std::vector<ObjectId> ids;
  std::vector<SegmentEntry> probe_entries;
  for (size_t i = 0; i < kProbeObjects; ++i) {
    ids.push_back(static_cast<ObjectId>(1000 + 7 * i));
    probe_entries.push_back(SegmentEntry{ids.back(), 600});
  }
  const Segment probe(30, 3, std::move(probe_entries));
  SegTree tree;
  tree.Insert(MakeSegment(1, 1, {ids[1], ids[5], ids[25]}, 100));
  tree.Insert(MakeSegment(2, 2, {ids[3], ids[26], ids[29]}, 200));
  tree.Insert(MakeSegment(3, 3, {ids[24], ids[27]}, 300));
  const std::span<const ObjectId> mined(probe.distinct_objects().data(),
                                        kCap);
  const std::map<SegmentId, std::vector<ObjectId>> want = {
      {1, {ids[1], ids[5]}}};
  for (const ShardSpec shard : kSlcpShards) {
    LcpTable table;
    tree.SlcpInto(mined, &table, shard, /*min_common=*/2);
    for (const uint32_t position : table.common_pool) {
      EXPECT_LT(position, kCap) << shard.index << "/" << shard.count;
    }
    bool well_formed = true;
    EXPECT_EQ(testing::SlcpRowsOf(table, probe, &well_formed),
              testing::ShardRowsOf(want, shard, 2))
        << shard.index << "/" << shard.count;
    EXPECT_TRUE(well_formed);
  }
}

// SLCP groups rows by stamping tail entries with a per-call epoch. Removal
// re-roots the subtrees it disconnects and recycles tail slots; under heavy
// churn every probe, repeated back to back, must still return exactly the
// live segments' rows.
TEST(SegTreeTest, SlcpRowsStaySetExactUnderReattachAndRemoveChurn) {
  SegTree tree;
  std::map<SegmentId, Segment> live;
  Rng rng(2024);
  SegmentId next_id = 1;
  auto random_sequence = [&](SegmentId id) {
    std::vector<SegmentEntry> entries;
    const uint64_t length = 1 + rng.Below(6);
    for (uint64_t i = 0; i < length; ++i) {
      entries.push_back(SegmentEntry{static_cast<ObjectId>(1 + rng.Below(8)),
                                     static_cast<Timestamp>(i)});
    }
    return Segment(id, static_cast<StreamId>(rng.Below(4)),
                   std::move(entries));
  };
  for (int step = 0; step < 1500; ++step) {
    if (live.size() < 6 || rng.Below(100) < 50) {
      Segment segment = random_sequence(next_id++);
      tree.Insert(segment);
      live.emplace(segment.id(), std::move(segment));
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.Below(live.size())));
      tree.Remove(it->first);
      live.erase(it);
    }
    const Segment probe = random_sequence(0);
    std::map<SegmentId, std::vector<ObjectId>> want;
    for (const auto& [id, segment] : live) {
      std::vector<ObjectId> common;
      const std::vector<ObjectId>& objects = segment.distinct_objects();
      std::set_intersection(objects.begin(), objects.end(),
                            probe.distinct_objects().begin(),
                            probe.distinct_objects().end(),
                            std::back_inserter(common));
      if (!common.empty()) want[id] = common;
    }
    for (const ShardSpec shard : {ShardSpec{}, ShardSpec{1, 2}}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        LcpTable table;
        tree.SlcpInto(probe.distinct_objects(), &table, shard);
        bool well_formed = true;
        const auto got = testing::SlcpRowsOf(table, probe, &well_formed);
        ASSERT_TRUE(well_formed) << "step=" << step;
        ASSERT_EQ(got, testing::ShardRowsOf(want, shard, 1))
            << "step=" << step << " shard " << shard.index << " repeat "
            << repeat;
      }
    }
  }
  // The churn must actually have re-rooted disconnected subtrees.
  EXPECT_GT(tree.stats().subtrees_reattached, 0u);
  tree.CheckInvariants();
}

// A shard's search over a hot owned chain and over a hot chain it does not
// own: at min_common >= 2 the hot chain is skipped either way, and the table
// is the owned-suffix oracle's at every min_common.
TEST(SegTreeTest, ShardSlcpSkipsAHotOwnedChainAndAHotOtherChain) {
  const ShardSpec shard{0, 2};
  // Probe order: `lead` (not owned), `owned`, `other` (not owned). Rows
  // start at `owned`, so `lead` never appears in a shard row.
  ObjectId lead = 1;
  while (shard.Owns(lead)) ++lead;
  ObjectId owned = lead + 1;
  while (!shard.Owns(owned)) ++owned;
  ObjectId other = owned + 1;
  while (shard.Owns(other)) ++other;
  const Segment probe = MakeSegment(99, 9, {lead, owned, other}, 600);

  for (const bool hot_owned : {true, false}) {
    // The hot object lies on 12 chain nodes (each below its own first
    // object, so no prefix is shared), the cold one on 2; four segments
    // mix the probe's objects.
    const ObjectId hot = hot_owned ? owned : other;
    const ObjectId cold = hot_owned ? other : owned;
    std::vector<Segment> segments;
    SegmentId id = 1;
    for (ObjectId head = 10000; head < 10012; ++head, ++id) {
      segments.push_back(MakeSequence(id, id % 4, {head, hot}, 100));
    }
    for (ObjectId head = 20000; head < 20002; ++head, ++id) {
      segments.push_back(MakeSequence(id, id % 4, {head, cold}, 100));
    }
    segments.push_back(MakeSequence(id++, 1, {lead, owned, other}, 200));
    segments.push_back(MakeSequence(id++, 2, {lead, other}, 200));
    segments.push_back(MakeSequence(id++, 3, {lead, owned}, 200));
    segments.push_back(MakeSequence(id++, 0, {owned, other}, 200));
    SegTree tree;
    std::map<SegmentId, std::vector<ObjectId>> want;
    for (const Segment& segment : segments) {
      tree.Insert(segment);
      std::vector<ObjectId> common;
      std::set_intersection(segment.distinct_objects().begin(),
                            segment.distinct_objects().end(),
                            probe.distinct_objects().begin(),
                            probe.distinct_objects().end(),
                            std::back_inserter(common));
      want.emplace(segment.id(), std::move(common));
    }
    for (uint32_t min_common : {1u, 2u, 3u}) {
      LcpTable table;
      tree.SlcpInto(probe.distinct_objects(), &table, shard, min_common);
      bool well_formed = true;
      uint64_t dropped = 0;
      EXPECT_EQ(testing::SkippedObject(tree, probe.distinct_objects(), shard,
                                       min_common),
                min_common >= 2 ? std::optional<ObjectId>(hot) : std::nullopt);
      EXPECT_EQ(testing::SlcpRowsOf(table, probe, &well_formed),
                testing::ShardRowsOf(want, shard, min_common, &dropped,
                                     testing::SkippedObject(
                                         tree, probe.distinct_objects(),
                                         shard, min_common)))
          << "hot_owned=" << hot_owned << " m=" << min_common;
      EXPECT_TRUE(well_formed);
      EXPECT_EQ(table.rows_dropped, dropped)
          << "hot_owned=" << hot_owned << " m=" << min_common;
    }
    EXPECT_EQ(tree.stats().slcp_chains_skipped, 2u);
  }
}

// The dominant-chain skip. The hot probe object lies on more chain slots
// than all the other probe objects together, so at min_common >= 2 its chain
// is skipped. Every segment mixing probe objects must still get the row the
// search without the skip builds (the min_common 1 table, cut to rows of
// >= m objects), and rows_dropped must be the oracle's. The probe order puts
// the hot object where shard {0, 2} owns it at the first owned position,
// owns it after an owned and a non-owned object, and does not own it; the
// serial search skips it in every case.
TEST(SegTreeTest, SlcpSkipsTheDominantChainWithoutChangingRows) {
  const ShardSpec shard{0, 2};
  struct Case {
    const char* name;
    std::vector<bool> owned;  // whether `shard` owns each probe position
    size_t hot;               // the hot position
  };
  const Case cases[] = {
      {"owned at begin", {false, true, false, true, false}, 1},
      {"owned mid-suffix", {true, false, true, false, true}, 2},
      {"not owned", {false, true, false, false, true}, 2},
  };
  for (const Case& tc : cases) {
    std::vector<ObjectId> ids;
    ObjectId id = 100;
    for (const bool owned : tc.owned) {
      while (shard.Owns(++id) != owned) {
      }
      ids.push_back(id);
    }
    const ObjectId hot = ids[tc.hot];
    std::vector<SegmentEntry> probe_entries;
    for (const ObjectId object : ids) {
      probe_entries.push_back(SegmentEntry{object, 5000});
    }
    const Segment probe(1000, 9, std::move(probe_entries));

    // Every non-empty subset of the probe objects as a segment (listed in
    // ascending or descending id order), then fillers that share only the
    // hot object.
    SegTree tree;
    std::map<SegmentId, std::vector<ObjectId>> common;
    SegmentId next = 1;
    for (uint32_t mask = 1; mask < (1u << ids.size()); ++mask) {
      std::vector<ObjectId> subset;
      for (size_t i = 0; i < ids.size(); ++i) {
        if ((mask >> i) & 1) subset.push_back(ids[i]);
      }
      std::vector<SegmentEntry> entries;
      Timestamp time = 100 + next;
      for (size_t i = 0; i < subset.size(); ++i) {
        const size_t at = mask % 2 == 0 ? i : subset.size() - 1 - i;
        entries.push_back(SegmentEntry{subset[at], time++});
      }
      tree.Insert(Segment(next, next % 4, std::move(entries)));
      common.emplace(next++, std::move(subset));
    }
    for (ObjectId filler = 20000; filler < 20200; ++filler, ++next) {
      tree.Insert(MakeSequence(next, next % 4, {filler, hot}, 200));
      common.emplace(next, std::vector<ObjectId>{hot});
    }
    tree.CheckInvariants();

    for (const ShardSpec spec : {ShardSpec{}, shard}) {
      for (const uint32_t min_common : {2u, 3u}) {
        ASSERT_EQ(testing::SkippedObject(tree, probe.distinct_objects(), spec,
                                         min_common),
                  std::optional<ObjectId>(hot))
            << tc.name;
        LcpTable reference_table;
        tree.SlcpInto(probe.distinct_objects(), &reference_table, spec,
                      /*min_common=*/1);
        bool well_formed = true;
        std::map<SegmentId, std::vector<ObjectId>> reference;
        for (auto& [segment, row] :
             testing::SlcpRowsOf(reference_table, probe, &well_formed)) {
          if (row.size() >= min_common) reference.emplace(segment, row);
        }
        const uint64_t skips = tree.stats().slcp_chains_skipped;
        LcpTable table;
        tree.SlcpInto(probe.distinct_objects(), &table, spec, min_common);
        EXPECT_EQ(tree.stats().slcp_chains_skipped, skips + 1)
            << tc.name << " shard " << spec.count << " m=" << min_common;
        EXPECT_EQ(testing::SlcpRowsOf(table, probe, &well_formed), reference)
            << tc.name << " shard " << spec.count << " m=" << min_common;
        EXPECT_TRUE(well_formed) << tc.name;
        uint64_t dropped = 0;
        EXPECT_EQ(reference,
                  testing::ShardRowsOf(common, spec, min_common, &dropped,
                                       hot))
            << tc.name << " shard " << spec.count << " m=" << min_common;
        EXPECT_EQ(table.rows_dropped, dropped)
            << tc.name << " shard " << spec.count << " m=" << min_common;
      }
    }
  }
}

TEST(SegTreeTest, SingleObjectSegments) {
  SegTree tree;
  tree.Insert(MakeSegment(1, 1, {c}, 0));
  tree.Insert(MakeSegment(2, 2, {c}, 10));
  EXPECT_EQ(tree.num_nodes(), 1u);  // fully shared
  EXPECT_EQ(tree.RelevantSegments(c), (std::vector<SegmentId>{1, 2}));
  tree.Remove(1);
  EXPECT_EQ(tree.num_nodes(), 1u);
  tree.Remove(2);
  EXPECT_EQ(tree.num_nodes(), 0u);
  tree.CheckInvariants();
}

TEST(SegTreeTest, DistanceBoundPruningMatchesExhaustive) {
  SegTreeOptions no_bound;
  no_bound.use_distance_bound = false;
  SegTree pruned;       // default: pruning on
  SegTree exhaustive(no_bound);
  for (const Segment& g : PaperS1Segments()) {
    pruned.Insert(g);
    exhaustive.Insert(g);
  }
  for (const Segment& g : PaperS2Segments()) {
    pruned.Insert(g);
    exhaustive.Insert(g);
  }
  for (ObjectId object : {b, c, d, e, f, h, j, k, m, n, o, p, r, s, t, w, z}) {
    EXPECT_EQ(pruned.RelevantSegments(object),
              exhaustive.RelevantSegments(object))
        << "object " << object;
  }
  // Pruning must visit no more nodes than the exhaustive search.
  EXPECT_LE(pruned.stats().distance_bound_visits,
            exhaustive.stats().distance_bound_visits);
}

TEST(SegTreeTest, RootAttachModeKeepsCorrectness) {
  SegTree tree;
  tree.Insert(MakeSequence(1, 1, {b, c, d}, 0));
  tree.Insert(MakeSequence(2, 1, {c, d, f, k}, 10));
  tree.Insert(MakeSequence(3, 2, {m, c, d}, 20));
  tree.Remove(1);
  tree.CheckInvariants();
  // No merging: the orphan chain re-roots as-is (7 nodes remain).
  EXPECT_EQ(tree.num_nodes(), 7u);
  EXPECT_GE(tree.stats().subtrees_reattached, 1u);
  EXPECT_EQ(tree.RelevantSegments(c), (std::vector<SegmentId>{2, 3}));
}

TEST(SegTreeTest, MemoryUsageGrowsAndIsRetainedForReuse) {
  SegTree tree;
  const size_t empty = tree.MemoryUsage();
  for (const Segment& g : PaperS1Segments()) tree.Insert(g);
  const size_t full = tree.MemoryUsage();
  EXPECT_GT(full, empty);
  // Removal recycles nodes into the arena free list instead of freeing:
  // the footprint is retained (full accounting, no undercount), and the
  // only growth allowed is the free-list bookkeeping itself.
  for (const Segment& g : PaperS1Segments()) tree.Remove(g.id());
  const size_t drained = tree.MemoryUsage();
  EXPECT_LE(drained, full + 1024);
  EXPECT_GT(tree.stats().nodes_deleted, 0u);
  // Refilling reuses the recycled nodes: no new slabs, footprint stable.
  for (const Segment& g : PaperS1Segments()) tree.Insert(g);
  EXPECT_LE(tree.MemoryUsage(), drained + 1024);
  EXPECT_GT(tree.stats().runs_recycled, 0u);
}


TEST(SegTreeTest, PrefixProbeCapLimitsSharingButNotCorrectness) {
  SegTree tree;
  // Two identical segments starting with c: the first probe target is the
  // newest chain node, so sharing happens for the common case...
  tree.Insert(MakeSequence(1, 1, {c, d, f}, 0));
  tree.Insert(MakeSequence(2, 2, {c, d, f}, 10));
  EXPECT_EQ(tree.num_nodes(), 3u);
  // ...but kMaxPrefixProbes newer c nodes, each at the bottom of its own
  // branch, push the c-d-f branch past the cap.
  std::vector<SegmentId> with_c = {1, 2};
  for (uint32_t i = 0; i < SegTree::kMaxPrefixProbes; ++i) {
    const SegmentId id = 100 + i;
    tree.Insert(MakeSequence(id, 3, {static_cast<ObjectId>(200 + i), c},
                             static_cast<Timestamp>(20 + 2 * i)));
    with_c.push_back(id);
  }
  const uint64_t shared = tree.stats().prefix_nodes_shared;
  const size_t nodes = tree.num_nodes();
  tree.Insert(MakeSequence(4, 1, {c, d, f}, 1000));
  with_c.push_back(4);
  // Only the newest c is reused; d and f are new nodes.
  EXPECT_EQ(tree.stats().prefix_nodes_shared, shared + 1);
  EXPECT_EQ(tree.num_nodes(), nodes + 2);
  tree.CheckInvariants();
  // Queries stay exact regardless of sharing.
  std::sort(with_c.begin(), with_c.end());
  EXPECT_EQ(tree.RelevantSegments(c), with_c);
  EXPECT_EQ(tree.RelevantSegments(f), (std::vector<SegmentId>{1, 2, 4}));
}

TEST(SegTreeTest, UnboundedPrefixProbesMatchPaperAlgorithm) {
  // 32 chain nodes sit under the kMaxPrefixProbes cap, so this insertion
  // scans the whole chain, as the paper's algorithm does.
  static_assert(SegTree::kMaxPrefixProbes >= 32);
  SegTree tree;
  for (int i = 0; i < 32; ++i) {
    tree.Insert(MakeSequence(static_cast<SegmentId>(i), 1,
                             {static_cast<ObjectId>(100 + i), c},
                             static_cast<Timestamp>(i)));
  }
  // A (c, d) segment must find SOME c to extend, even though every c sits
  // at the bottom of a different branch.
  tree.Insert(MakeSequence(99, 2, {c, d}, 40));
  EXPECT_EQ(tree.stats().prefix_nodes_shared, 1u);
  tree.CheckInvariants();
}

TEST(SegTreeTest, SweepRemovesExpiredSegmentCompletedAfterLiveOne) {
  // The Tlist is ordered by start, not by completion: an old segment that
  // completed after a young one (an idle stream's) is removed as soon as
  // it expires, and the young one stays.
  SegTree tree;
  tree.Insert(MakeSegment(1, 1, {c}, 1000));  // completes first, young
  tree.Insert(MakeSegment(2, 2, {d}, 0));     // completes later, old
  tree.Insert(MakeSegment(3, 3, {d}, 500));   // completes last, old too
  const Timestamp now = kTau + 600;  // segments 2 and 3 are expired
  EXPECT_EQ(tree.RemoveExpired(now, kTau), 2u);
  EXPECT_EQ(tree.num_segments(), 1u);
  EXPECT_TRUE(tree.Contains(1));
  EXPECT_TRUE(tree.RelevantSegments(d).empty());
  EXPECT_EQ(tree.oldest_start(), 1000);
  tree.CheckInvariants();
  // A Remove()d segment's entry is skipped when the sweep reaches it.
  tree.Insert(MakeSegment(4, 4, {d}, 2000));
  tree.Remove(1);
  EXPECT_EQ(tree.RemoveExpired(2000 + kTau + 1, kTau), 1u);
  EXPECT_EQ(tree.num_segments(), 0u);
  EXPECT_EQ(tree.oldest_start(), kMaxTimestamp);
  tree.CheckInvariants();
}

// --- The tie rule: a run of equal-time entries is laid rare-first. -------

// Inserts a few tied segments so b, c and d have distinct tie counts
// (b: 3, c: 2, d: 1), giving the rule something to order by.
void InsertTiedHistory(SegTree* tree) {
  tree->Insert(MakeSegment(1, 1, {b, c, d}, 0));
  tree->Insert(MakeSegment(2, 2, {b, c, w}, 10));
  tree->Insert(MakeSegment(3, 3, {b, z}, 20));
}

TEST(SegTreeTest, TiedRunPermutationsBuildIdenticalTrees) {
  std::vector<ObjectId> run = {b, c, d, h, k};  // sorted: first permutation
  std::string want;
  do {
    SegTree tree;
    InsertTiedHistory(&tree);
    // An untied lead-in and tail keep their places around the tied run.
    std::vector<SegmentEntry> entries = {{m, 100}};
    for (ObjectId o : run) entries.push_back(SegmentEntry{o, 101});
    entries.push_back(SegmentEntry{n, 102});
    tree.Insert(Segment(9, 4, std::move(entries)));
    tree.CheckInvariants();
    const std::string dump = tree.DebugString();
    if (want.empty()) want = dump;
    EXPECT_EQ(dump, want);
  } while (std::next_permutation(run.begin(), run.end()));
}

TEST(SegTreeTest, MoreFrequentTiedObjectLandsNearerTheTail) {
  SegTree tree;
  InsertTiedHistory(&tree);
  // Id order would put b (id 1) first; b is in three live tied segments and
  // h in none, so the path is h -> d -> c -> b and b carries the tail.
  tree.Insert(MakeSegment(9, 4, {b, c, d, h}, 100));
  tree.CheckInvariants();
  const std::string dump = tree.DebugString();
  EXPECT_NE(dump.find("obj=6 (dist=3, cnt=1)\n"
                      "    obj=3 (dist=2, cnt=1)\n"
                      "      obj=2 (dist=1, cnt=1)\n"
                      "        obj=1 (dist=0, cnt=1) tail{G9, len=4}"),
            std::string::npos)
      << dump;
}

TEST(SegTreeTest, UntiedSegmentsKeepTimeOrderAndAreNotCounted) {
  SegTree tree;
  InsertTiedHistory(&tree);
  const size_t counted = tree.num_tie_counted_objects();
  // Strictly increasing times: the listed order is the path, even though it
  // runs popular-first, and the tie counts do not move.
  tree.Insert(MakeSequence(9, 4, {b, c, h}, 100));
  EXPECT_EQ(tree.num_tie_counted_objects(), counted);
  EXPECT_NE(tree.DebugString().find("obj=6 (dist=0, cnt=1) tail{G9, len=3}"),
            std::string::npos)
      << tree.DebugString();
  tree.CheckInvariants();
}

TEST(SegTreeTest, InvariantsHoldUnderChurnWithTies) {
  for (const uint64_t seed : {7, 8}) {
    SegTree tree;
    Rng rng(seed);
    std::vector<SegmentId> live;
    SegmentId next_id = 1;
    Timestamp now = 0;
    for (int step = 0; step < 600; ++step) {
      now += static_cast<Timestamp>(rng.Below(30));
      if (live.empty() || rng.Below(100) < 60) {
        // Two or three tweet-like runs: each run's objects share a time.
        std::vector<SegmentEntry> entries;
        Timestamp t = now;
        const uint64_t runs = 1 + rng.Below(3);
        for (uint64_t r = 0; r < runs; ++r) {
          const uint64_t run_length = 1 + rng.Below(5);
          for (uint64_t i = 0; i < run_length; ++i) {
            entries.push_back(
                SegmentEntry{static_cast<ObjectId>(rng.Below(12)), t});
          }
          t += 1 + static_cast<Timestamp>(rng.Below(4));
        }
        tree.Insert(Segment(next_id, static_cast<StreamId>(rng.Below(5)),
                            std::move(entries)));
        live.push_back(next_id++);
      } else if (rng.Below(4) == 0) {
        tree.RemoveExpired(now, 300);
        std::erase_if(live, [&](SegmentId id) {
          return !tree.Contains(id);
        });
      } else {
        const size_t pick = rng.Below(live.size());
        tree.Remove(live[pick]);
        live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      }
      tree.CheckInvariants();
    }
    EXPECT_GT(tree.num_tie_counted_objects(), 0u);
    // Removing every segment takes back every tie count.
    for (SegmentId id : live) tree.Remove(id);
    tree.CheckInvariants();
    EXPECT_EQ(tree.num_segments(), 0u);
    EXPECT_EQ(tree.num_nodes(), 0u);
    EXPECT_EQ(tree.num_tie_counted_objects(), 0u);
  }
}

TEST(SegTreeTest, RemovingEveryTiedSegmentEmptiesTheTieCounts) {
  SegTree tree;
  InsertTiedHistory(&tree);
  tree.Insert(MakeSequence(9, 4, {b, c, h}, 100));  // untied
  EXPECT_EQ(tree.num_tie_counted_objects(), 5u);    // b, c, d, w, z
  for (SegmentId id : {1, 2, 3, 9}) {
    tree.Remove(id);
    tree.CheckInvariants();
  }
  EXPECT_EQ(tree.num_tie_counted_objects(), 0u);
  EXPECT_EQ(tree.num_nodes(), 0u);
}

// --- Run mechanics: the path-compressed layout, one case per mechanic. ----
//
// Each case drives a pruned tree and an exhaustive (use_distance_bound =
// false) twin through the same inserts and removals, then checks both
// trees' invariants and that every object finds the same segments in both.

class RunTwins {
 public:
  RunTwins() : exhaustive_(NoBound()) {}

  void Insert(const Segment& segment) {
    pruned_.Insert(segment);
    exhaustive_.Insert(segment);
    objects_.insert(segment.distinct_objects().begin(),
                    segment.distinct_objects().end());
  }
  void Remove(SegmentId id) {
    pruned_.Remove(id);
    exhaustive_.Remove(id);
  }
  const SegTree& tree() const { return pruned_; }

  // Invariants of both trees, and equal answers from both searches.
  void Check() const {
    pruned_.CheckInvariants();
    exhaustive_.CheckInvariants();
    for (ObjectId object : objects_) {
      EXPECT_EQ(pruned_.RelevantSegments(object),
                exhaustive_.RelevantSegments(object))
          << "object " << object;
    }
  }

 private:
  static SegTreeOptions NoBound() {
    SegTreeOptions options;
    options.use_distance_bound = false;
    return options;
  }

  SegTree pruned_;
  SegTree exhaustive_;
  std::set<ObjectId> objects_;
};

TEST(SegTreeRunTest, SlidingWindowAppendsInPlaceAtAChildlessRunEnd) {
  RunTwins twins;
  twins.Insert(MakeSequence(1, 1, {b, c, d}, 0));
  twins.Insert(MakeSequence(2, 1, {c, d, e}, 10));  // shares (c, d)
  twins.Insert(MakeSequence(3, 1, {d, e, f}, 20));  // shares (d, e)
  twins.Check();
  const SegTree& tree = twins.tree();
  EXPECT_EQ(tree.stats().appends_in_place, 2u);
  EXPECT_EQ(tree.num_runs(), 1u);  // b c d e f: one array
  EXPECT_EQ(tree.num_nodes(), 5u);
  EXPECT_EQ(tree.RelevantSegments(d), (std::vector<SegmentId>{1, 2, 3}));
}

TEST(SegTreeRunTest, TailInTheMiddleOfARunCoversOnlyItsOwnLength) {
  RunTwins twins;
  twins.Insert(MakeSequence(1, 1, {b, c, d, e}, 0));
  twins.Insert(MakeSequence(2, 2, {c, d}, 10));  // tail on d, mid-run
  twins.Check();
  const SegTree& tree = twins.tree();
  EXPECT_EQ(tree.num_runs(), 1u);
  // Segment 2 covers c and d only: b sits above it, e below its tail.
  EXPECT_EQ(tree.RelevantSegments(b), (std::vector<SegmentId>{1}));
  EXPECT_EQ(tree.RelevantSegments(c), (std::vector<SegmentId>{1, 2}));
  EXPECT_EQ(tree.RelevantSegments(e), (std::vector<SegmentId>{1}));
}

TEST(SegTreeRunTest, NewPathDivergingMidRunSplitsTheRun) {
  RunTwins twins;
  twins.Insert(MakeSequence(1, 1, {b, c, d, e}, 0));
  twins.Insert(MakeSequence(2, 2, {c, d, h}, 10));  // leaves the run at d
  twins.Check();
  const SegTree& tree = twins.tree();
  EXPECT_EQ(tree.stats().runs_split, 1u);
  EXPECT_EQ(tree.num_runs(), 3u);  // b c d, then e and h below d
  EXPECT_EQ(tree.num_nodes(), 5u);
  EXPECT_EQ(tree.stats().prefix_nodes_shared, 2u);
  EXPECT_EQ(tree.RelevantSegments(c), (std::vector<SegmentId>{1, 2}));
  EXPECT_EQ(tree.RelevantSegments(h), (std::vector<SegmentId>{2}));
}

// Tails sit at slot offsets, so a segment ending mid-run needs no split;
// the next path to leave the run at that slot splits it there.
TEST(SegTreeRunTest, SegmentEndingMidRunSplitsOnlyWhenAPathLeavesThere) {
  RunTwins twins;
  twins.Insert(MakeSequence(1, 1, {b, c, d, e}, 0));
  twins.Insert(MakeSequence(2, 2, {b, c}, 10));  // ends at c
  EXPECT_EQ(twins.tree().stats().runs_split, 0u);
  EXPECT_EQ(twins.tree().num_runs(), 1u);
  twins.Insert(MakeSequence(3, 3, {b, c, k}, 20));  // leaves the run at c
  twins.Check();
  const SegTree& tree = twins.tree();
  EXPECT_EQ(tree.stats().runs_split, 1u);
  EXPECT_EQ(tree.num_runs(), 3u);
  EXPECT_EQ(tree.RelevantSegments(c), (std::vector<SegmentId>{1, 2, 3}));
  twins.Remove(2);
  twins.Check();
  EXPECT_EQ(tree.num_nodes(), 5u);
}

TEST(SegTreeRunTest, ExpiryFrontTrimReRootsTheRestOfTheRun) {
  RunTwins twins;
  twins.Insert(MakeSequence(1, 1, {b, c}, 0));
  twins.Insert(MakeSequence(2, 2, {b, h, j}, 10));  // splits after b
  twins.Insert(MakeSequence(3, 3, {j, k}, 20));     // appends to (h, j)
  twins.Check();
  const SegTree& tree = twins.tree();
  ASSERT_EQ(tree.num_runs(), 3u);  // b, then c and h j k below it
  // Removing segment 2 kills h only: the front of the (h, j, k) run, which
  // hangs under b. The rest of the run re-roots as it is.
  twins.Remove(2);
  twins.Check();
  EXPECT_EQ(tree.stats().front_trims, 1u);
  EXPECT_EQ(tree.stats().subtrees_reattached, 1u);
  EXPECT_EQ(tree.num_runs(), 3u);
  EXPECT_EQ(tree.num_nodes(), 4u);
  EXPECT_EQ(tree.RelevantSegments(j), (std::vector<SegmentId>{3}));
  EXPECT_EQ(tree.RelevantSegments(b), (std::vector<SegmentId>{1}));
  // (j, k) now hangs under the root, not under b.
  EXPECT_EQ(tree.DebugString(),
            "root\n"
            "  obj=1 (dist=2, cnt=1)\n"
            "    obj=2 (dist=0, cnt=1) tail{G1, len=2}\n"
            "  obj=7 (dist=1, cnt=1)\n"
            "    obj=8 (dist=0, cnt=1) tail{G3, len=2}\n");
}

TEST(SegTreeRunTest, DeadSlotMidRunReRootsTheLowerPiece) {
  RunTwins twins;
  twins.Insert(MakeSequence(1, 1, {b, c}, 0));
  twins.Insert(MakeSequence(2, 2, {c, d, e}, 10));  // appends d e
  twins.Insert(MakeSequence(3, 3, {e, f}, 20));     // appends f
  const SegTree& tree = twins.tree();
  ASSERT_EQ(tree.num_runs(), 1u);  // b c d e f
  // Removing segment 2 kills d only: c stays for segment 1 and e for
  // segment 3, so the run splits and (e, f) re-roots.
  twins.Remove(2);
  twins.Check();
  EXPECT_EQ(tree.stats().runs_split, 1u);
  EXPECT_EQ(tree.stats().subtrees_reattached, 1u);
  EXPECT_EQ(tree.num_runs(), 2u);
  EXPECT_EQ(tree.num_nodes(), 4u);
  EXPECT_EQ(tree.RelevantSegments(e), (std::vector<SegmentId>{3}));
  EXPECT_EQ(tree.RelevantSegments(c), (std::vector<SegmentId>{1}));
  // (e, f) now hangs under the root, not under c.
  EXPECT_EQ(tree.DebugString(),
            "root\n"
            "  obj=1 (dist=1, cnt=1)\n"
            "    obj=2 (dist=2, cnt=1) tail{G1, len=2}\n"
            "  obj=4 (dist=1, cnt=1)\n"
            "    obj=5 (dist=0, cnt=1) tail{G3, len=2}\n");
}

TEST(SegTreeDeathTest, DuplicateIdAborts) {
  SegTree tree;
  tree.Insert(MakeSegment(1, 1, {c}, 0));
  EXPECT_DEATH(tree.Insert(MakeSegment(1, 2, {d}, 0)), "FCP_CHECK");
}

}  // namespace
}  // namespace fcp
