// Lifetime and recycling semantics of the refcounted segment fabric:
// SegmentRef copy/move/reset refcounting, the size-classed SegmentPool
// (hit/miss/recycle accounting, capacity retention across reuse), and the
// release-exactly-once guarantee under multicast + migration backfill churn
// with concurrent shard consumers.

#include "stream/segment_ref.h"

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/placement.h"
#include "stream/shard_router.h"
#include "test_util.h"

namespace fcp {
namespace {

using testing::MakeSegment;

TEST(SegmentRefTest, AdoptCopyMoveResetRefcounts) {
  SegmentRef a = SegmentRef::Adopt(MakeSegment(1, 0, {1, 2, 3}, 10));
  ASSERT_TRUE(a);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_TRUE(a.unique());
  EXPECT_EQ(a->id(), 1u);
  EXPECT_EQ((*a).length(), 3u);

  SegmentRef b = a;  // copy = incref, same slab
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_FALSE(a.unique());

  SegmentRef c = std::move(b);  // move = transfer, no count change
  EXPECT_FALSE(b);
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(c.get(), a.get());

  c.reset();
  EXPECT_EQ(a.use_count(), 1u);
  a.reset();
  EXPECT_FALSE(a);
  a.reset();  // idempotent on null
}

TEST(SegmentPoolTest, MakePopulatesSegmentAndDistinctCache) {
  SegmentPool pool;
  const std::vector<SegmentEntry> entries = {
      {5, 10}, {3, 11}, {5, 12}, {1, 14}};
  const SegmentRef ref = pool.Make(42, 3, entries);
  EXPECT_EQ(ref->id(), 42u);
  EXPECT_EQ(ref->stream(), 3u);
  EXPECT_EQ(ref->entries(), entries);
  EXPECT_EQ(ref->distinct_objects(), ref->DistinctObjects());
  EXPECT_EQ(ref->distinct_objects(), std::vector<ObjectId>({1, 3, 5}));
}

TEST(SegmentPoolTest, MakeWithTailSpanConcatenates) {
  // The segmenter emits ring-buffer halves; Make must stitch them in order.
  SegmentPool pool;
  const std::vector<SegmentEntry> head = {{1, 10}, {2, 11}};
  const std::vector<SegmentEntry> tail = {{3, 12}};
  const SegmentRef ref = pool.Make(1, 0, head, tail);
  ASSERT_EQ(ref->length(), 3u);
  EXPECT_EQ(ref->entries()[0].object, 1u);
  EXPECT_EQ(ref->entries()[2].object, 3u);
  EXPECT_EQ(ref->start_time(), 10);
  EXPECT_EQ(ref->end_time(), 12);
}

TEST(SegmentPoolTest, ReleasedSlabIsRecycledBySizeClass) {
  SegmentPool pool;
  const std::vector<SegmentEntry> entries = {{1, 10}, {2, 11}, {3, 12}};
  {
    const SegmentRef a = pool.Make(1, 0, entries);
    EXPECT_EQ(pool.stats().slab_allocs, 1u);
    EXPECT_EQ(pool.stats().live, 1u);
    EXPECT_EQ(pool.stats().free, 0u);
  }
  // Last ref dropped: slab parked, capacity intact.
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_EQ(pool.stats().free, 1u);
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_GT(pool.stats().recycled_bytes, 0u);

  const SegmentRef b = pool.Make(2, 1, entries);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
  EXPECT_EQ(pool.stats().slab_allocs, 1u);  // no fresh allocation
  EXPECT_EQ(pool.stats().live, 1u);
  EXPECT_EQ(pool.stats().free, 0u);
  EXPECT_EQ(b->id(), 2u);
  EXPECT_EQ(b->stream(), 1u);
  EXPECT_EQ(b->entries(), entries);
}

TEST(SegmentPoolTest, DistinctSizeClassesDoNotShareSlabs) {
  SegmentPool pool;
  std::vector<SegmentEntry> small = {{1, 0}, {2, 1}};
  std::vector<SegmentEntry> large;
  for (int i = 0; i < 300; ++i) {
    large.push_back({static_cast<ObjectId>(i), static_cast<Timestamp>(i)});
  }
  pool.Make(1, 0, small).reset();
  // A 300-entry segment must not reuse the tiny parked slab.
  const SegmentRef big = pool.Make(2, 0, large);
  EXPECT_EQ(pool.stats().pool_hits, 0u);
  EXPECT_EQ(pool.stats().slab_allocs, 2u);
  EXPECT_EQ(big->length(), 300u);
}

TEST(SegmentPoolTest, MaxFreePerClassBoundsParkedSlabs) {
  SegmentPool pool(/*max_free_per_class=*/2);
  const std::vector<SegmentEntry> entries = {{1, 0}};
  {
    std::vector<SegmentRef> refs;
    for (int i = 0; i < 5; ++i) refs.push_back(pool.Make(i + 1, 0, entries));
  }
  // 5 released, only 2 parked; the rest were freed outright.
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_EQ(pool.stats().free, 2u);
  EXPECT_EQ(pool.stats().recycled, 2u);
}

// The acceptance guarantee of the zero-copy fabric: one slab per segment,
// shared by every delivery (multicast fan-out AND migration backfill),
// released back to the pool exactly once — no leak, no double release, no
// use-after-release — while consumers read concurrently and placements
// change under fire. ASan/TSan CI legs run this same test to catch lifetime
// races the assertions cannot see.
TEST(SegmentPoolTest, ReleaseExactlyOncePerSlabUnderMigrationFire) {
  constexpr uint32_t kShards = 4;
  constexpr int kRounds = 50;
  constexpr int kSegmentsPerRound = 20;
  constexpr ObjectId kVocab = 64;
  SegmentPool pool;
  {
    // The live set holds refs for backfill; a 10-minute tau keeps everything
    // live, so every migration replays real backfills.
    ShardRouter router(kShards, /*queue_capacity=*/1024, Minutes(10));

    std::atomic<uint64_t> consumed{0};
    std::atomic<bool> corrupt{false};
    std::vector<std::thread> consumers;
    for (uint32_t s = 0; s < kShards; ++s) {
      consumers.emplace_back([&router, &consumed, &corrupt, s] {
        while (auto delivery = router.queue(s).Pop()) {
          // Read through the held ref: a premature release would recycle
          // the slab mid-read (data race under TSan, poisoned under ASan).
          const Segment& segment = *delivery->segment;
          if (segment.length() == 0 || segment.distinct_objects().empty() ||
              segment.distinct_objects() != segment.DistinctObjects()) {
            corrupt.store(true, std::memory_order_relaxed);
          }
          consumed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    SegmentId next_id = 1;
    Timestamp now = 0;
    std::shared_ptr<const PlacementMap> placement =
        std::make_shared<const PlacementMap>(kShards);
    std::vector<SegmentEntry> entries;
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < kSegmentsPerRound; ++k) {
        entries.clear();
        const int width = 1 + (k % 5);
        for (int o = 0; o < width; ++o) {
          entries.push_back(SegmentEntry{
              static_cast<ObjectId>((k * 7 + o) % kVocab), now});
        }
        now += 5;
        router.Route(pool.Make(next_id++, 0, entries));
      }
      // Migrate a hot object mid-flight: ApplyPlacement re-delivers live
      // slabs (index-only backfill) — more refs on the same allocations.
      const std::vector<std::pair<ObjectId, uint32_t>> moves = {
          {static_cast<ObjectId>(round % kVocab),
           static_cast<uint32_t>(round % kShards)}};
      placement = placement->WithMoves(moves);
      router.ApplyPlacement(placement);
    }
    router.Close();
    for (std::thread& t : consumers) t.join();
    EXPECT_FALSE(corrupt.load());
    EXPECT_GT(consumed.load(),
              static_cast<uint64_t>(kRounds * kSegmentsPerRound));
  }  // router destroyed -> live-set refs dropped
  const SegmentPoolStats stats = pool.stats();
  EXPECT_EQ(stats.live, 0u)
      << "a slab leaked (never released) or was double-released";
  // Exactly one Make per routed segment, whatever the delivery fan-out was.
  EXPECT_EQ(stats.pool_hits + stats.slab_allocs,
            static_cast<uint64_t>(kRounds * kSegmentsPerRound));
}

}  // namespace
}  // namespace fcp
