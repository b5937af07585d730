// Unit tests for the slab allocators behind the zero-allocation hot path:
// ObjectPool (node recycling), ChunkArena (size-class array recycling) and
// PooledVec (arena-backed vector).

#include "util/arena.h"

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fcp {
namespace {

struct Widget {
  int value = 0;
  std::vector<int> payload;
};

TEST(ObjectPoolTest, AcquireReturnsDistinctConstructedObjects) {
  ObjectPool<Widget> pool(/*objects_per_slab=*/4);
  std::set<Widget*> seen;
  for (int i = 0; i < 10; ++i) {
    Widget* w = pool.Acquire();
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->value, 0);
    EXPECT_TRUE(w->payload.empty());
    EXPECT_TRUE(seen.insert(w).second) << "object handed out twice";
  }
  EXPECT_EQ(pool.stats().objects_constructed, 10u);
  EXPECT_EQ(pool.stats().slabs_allocated, 3u);  // ceil(10 / 4)
  EXPECT_EQ(pool.live(), 10u);
}

TEST(ObjectPoolTest, ReleaseRecyclesWithoutDestroying) {
  ObjectPool<Widget> pool(/*objects_per_slab=*/8);
  Widget* w = pool.Acquire();
  w->payload.assign(100, 7);
  const int* data = w->payload.data();
  pool.Release(w);

  Widget* again = pool.Acquire();
  EXPECT_EQ(again, w) << "free list should serve the released object";
  // The vector member was not destroyed: its heap buffer is still there.
  EXPECT_EQ(again->payload.data(), data);
  EXPECT_EQ(pool.stats().objects_recycled, 1u);
  EXPECT_EQ(pool.stats().objects_constructed, 1u);
}

TEST(ObjectPoolTest, SlabBytesCountFullSlabs) {
  ObjectPool<Widget> pool(/*objects_per_slab=*/16);
  EXPECT_EQ(pool.SlabBytes(), 0u);
  pool.Acquire();
  EXPECT_EQ(pool.SlabBytes(), 16 * sizeof(Widget));
  for (int i = 0; i < 16; ++i) pool.Acquire();  // spills into a second slab
  EXPECT_EQ(pool.SlabBytes(), 2 * 16 * sizeof(Widget));
}

TEST(ChunkArenaTest, ReleasedChunkIsReusedByItsSizeClass) {
  ChunkArena<uint64_t> arena(/*slab_bytes=*/1024);
  uint64_t* a = arena.Acquire(3);  // 8 elements
  uint64_t* b = arena.Acquire(3);
  EXPECT_NE(a, b);
  arena.Release(a, 3);
  EXPECT_EQ(arena.Acquire(3), a);
  // A different class does not see class-3 free chunks.
  EXPECT_NE(arena.Acquire(4), a);
}

TEST(ChunkArenaTest, OversizedRequestGetsDedicatedSlab) {
  ChunkArena<uint64_t> arena(/*slab_bytes=*/64);
  const size_t before = arena.SlabBytes();
  uint64_t* big = arena.Acquire(10);  // 1024 elements * 8 bytes >> 64
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.SlabBytes(), before + (size_t{1} << 10) * sizeof(uint64_t));
  // The whole span is writable.
  for (size_t i = 0; i < (size_t{1} << 10); ++i) big[i] = i;
  EXPECT_EQ(big[1023], 1023u);
}

TEST(ChunkArenaTest, SlabBytesIsMonotonicAndCountsEverything) {
  ChunkArena<uint32_t> arena(/*slab_bytes=*/256);
  size_t last = arena.SlabBytes();
  for (int round = 0; round < 100; ++round) {
    uint32_t* chunk = arena.Acquire(round % 5);
    arena.Release(chunk, round % 5);
    EXPECT_GE(arena.SlabBytes(), last);
    last = arena.SlabBytes();
  }
  // Everything was released, yet the footprint is still reported (slabs are
  // never returned while the arena lives).
  EXPECT_GT(arena.SlabBytes(), 0u);
}

// FreeListBytes() is a running total; random acquire/release churn across
// size classes must keep it equal to a recount of the lists.
TEST(ChunkArenaTest, FreeListBytesRunningTotalMatchesARecount) {
  ChunkArena<uint32_t> arena(/*slab_bytes=*/512);
  Rng rng(11);
  std::vector<std::pair<uint32_t*, uint32_t>> held;
  EXPECT_EQ(arena.FreeListBytes(), 0u);
  for (int step = 0; step < 20000; ++step) {
    if (held.empty() || rng.Chance(0.55)) {
      const uint32_t capacity_class = static_cast<uint32_t>(rng.Below(9));
      held.emplace_back(arena.Acquire(capacity_class), capacity_class);
    } else {
      const size_t i = rng.Below(held.size());
      arena.Release(held[i].first, held[i].second);
      held[i] = held.back();
      held.pop_back();
    }
    ASSERT_EQ(arena.FreeListBytes(), arena.CountFreeListBytes())
        << "step " << step;
  }
  for (const auto& [chunk, capacity_class] : held) {
    arena.Release(chunk, capacity_class);
  }
  EXPECT_EQ(arena.FreeListBytes(), arena.CountFreeListBytes());
  EXPECT_GT(arena.FreeListBytes(), 0u);
}

TEST(PooledVecTest, PushBackGrowsThroughPowerOfTwoCapacities) {
  ChunkArena<int> arena;
  PooledVec<int> vec;
  for (int i = 0; i < 100; ++i) {
    vec.push_back(i, arena);
    EXPECT_EQ(vec.size(), static_cast<size_t>(i + 1));
    ASSERT_TRUE(vec.capacity == 0 ||
                (vec.capacity & (vec.capacity - 1)) == 0);
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(vec[i], i);
  EXPECT_EQ(vec.back(), 99);
  vec.Reset(arena);
}

TEST(PooledVecTest, EraseAtPreservesOrder) {
  ChunkArena<int> arena;
  PooledVec<int> vec;
  for (int i = 0; i < 6; ++i) vec.push_back(i, arena);
  vec.erase_at(2);
  ASSERT_EQ(vec.size(), 5u);
  const int expected[] = {0, 1, 3, 4, 5};
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(vec[i], expected[i]);
  vec.erase_at(4);  // last element
  EXPECT_EQ(vec.size(), 4u);
  EXPECT_EQ(vec.back(), 4);
  vec.Reset(arena);
}

TEST(PooledVecTest, ResetReturnsChunkForAnyVecToReuse) {
  ChunkArena<int> arena;
  PooledVec<int> first;
  for (int i = 0; i < 8; ++i) first.push_back(i, arena);  // capacity 8
  int* chunk = first.data;
  first.Reset(arena);
  EXPECT_EQ(first.data, nullptr);
  EXPECT_EQ(first.size(), 0u);

  // A DIFFERENT vec growing to the same class reuses the chunk — capacity is
  // pooled by size class, not parked per owner.
  PooledVec<int> second;
  for (int i = 0; i < 8; ++i) second.push_back(i, arena);
  EXPECT_EQ(second.data, chunk);
  second.Reset(arena);
}

TEST(PooledVecTest, GrowReleasesTheOldChunk) {
  ChunkArena<int> arena;
  PooledVec<int> vec;
  for (int i = 0; i < 4; ++i) vec.push_back(i, arena);  // capacity 4
  int* old_chunk = vec.data;
  vec.push_back(4, arena);  // grows to 8, must release the 4-chunk
  EXPECT_NE(vec.data, old_chunk);
  EXPECT_EQ(arena.Acquire(2), old_chunk);
  vec.Reset(arena);
}

}  // namespace
}  // namespace fcp
