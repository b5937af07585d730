// PlacementMap: the data-driven object -> shard function behind live
// rebalancing. These tests pin the contract the migration fence relies on —
// hash-compatible fallback and immutable successor snapshots with monotone
// versions.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/placement.h"
#include "common/shard.h"

namespace fcp {
namespace {

TEST(PlacementTest, HashFallbackMatchesShardOf) {
  // The empty placement must be a drop-in for the static rule: equal
  // assignment for every object, so enabling the PlacementMap plumbing with
  // no frequency data changes nothing.
  const PlacementMap placement(4);
  for (ObjectId object = 0; object < 10000; ++object) {
    EXPECT_EQ(placement.shard_of(object), ShardOf(object, 4)) << object;
  }
  EXPECT_EQ(placement.version(), 0u);
  EXPECT_EQ(placement.dense_size(), 0u);
}

TEST(PlacementTest, DenseTableWinsInsideRangeHashBeyondIt) {
  const PlacementMap placement(3, {2, 2, 0, 1});
  EXPECT_EQ(placement.shard_of(0), 2u);
  EXPECT_EQ(placement.shard_of(1), 2u);
  EXPECT_EQ(placement.shard_of(2), 0u);
  EXPECT_EQ(placement.shard_of(3), 1u);
  for (ObjectId object = 4; object < 1000; ++object) {
    EXPECT_EQ(placement.shard_of(object), ShardOf(object, 3)) << object;
  }
}

TEST(PlacementTest, WithMovesProducesBumpedImmutableSuccessor) {
  auto base = std::make_shared<const PlacementMap>(4, std::vector<uint32_t>{0, 1, 2, 3});
  const std::vector<std::pair<ObjectId, uint32_t>> moves = {{1, 3}, {3, 0}};
  auto next = base->WithMoves(moves);

  // The successor reflects the moves; everything else is untouched.
  EXPECT_EQ(next->shard_of(1), 3u);
  EXPECT_EQ(next->shard_of(3), 0u);
  EXPECT_EQ(next->shard_of(0), 0u);
  EXPECT_EQ(next->shard_of(2), 2u);
  EXPECT_EQ(next->version(), base->version() + 1);

  // The base snapshot is immutable: deliveries routed under it keep seeing
  // the pre-move world (the migration fence depends on this).
  EXPECT_EQ(base->shard_of(1), 1u);
  EXPECT_EQ(base->shard_of(3), 3u);
  EXPECT_EQ(base->version(), 0u);
}

TEST(PlacementTest, WithMovesGrowsDenseTableForOutOfRangeObjects) {
  auto base = std::make_shared<const PlacementMap>(4);
  const std::vector<std::pair<ObjectId, uint32_t>> moves = {{100, 2}};
  auto next = base->WithMoves(moves);
  EXPECT_EQ(next->shard_of(100), 2u);
  EXPECT_GE(next->dense_size(), 101u);
  // New slots below the moved object keep their hash assignment — growing
  // the table must not silently reassign untouched objects.
  for (ObjectId object = 0; object < 100; ++object) {
    EXPECT_EQ(next->shard_of(object), ShardOf(object, 4)) << object;
  }
}

TEST(PlacementTest, ChainedMovesKeepMonotoneVersions) {
  std::shared_ptr<const PlacementMap> placement =
      std::make_shared<const PlacementMap>(2);
  for (uint64_t round = 1; round <= 5; ++round) {
    const std::vector<std::pair<ObjectId, uint32_t>> moves = {
        {static_cast<ObjectId>(round), static_cast<uint32_t>(round % 2)}};
    placement = placement->WithMoves(moves);
    EXPECT_EQ(placement->version(), round);
    EXPECT_EQ(placement->shard_of(static_cast<ObjectId>(round)), round % 2);
  }
}

TEST(PlacementTest, ShardSpecOwnsFollowsThePlacement) {
  const PlacementMap placement(3, {2, 0, 1});
  ShardSpec spec{0, 3, &placement};
  EXPECT_FALSE(spec.Owns(0));
  EXPECT_TRUE(spec.Owns(1));
  EXPECT_FALSE(spec.Owns(2));
  // Without a placement the spec falls back to the static hash rule.
  ShardSpec hash_spec{ShardOf(7, 3), 3};
  EXPECT_TRUE(hash_spec.Owns(7));
  // Singleton shards own everything regardless of placement.
  ShardSpec singleton{0, 1, &placement};
  EXPECT_TRUE(singleton.Owns(0));
}

}  // namespace
}  // namespace fcp
