// Rebalancer decision logic, driven through a real ShardRouter: interval
// imbalance measurement (the one definition the gauge publishes: max/mean
// per-shard Σ f² over owned objects, not deliveries), hot-object move
// proposals, the argmin-cumulative rotation that time-slices a single
// dominant object across shards, and the decay that forgets cold objects.

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/placement.h"
#include "stream/rebalancer.h"
#include "stream/segment.h"
#include "stream/shard_router.h"
#include "test_util.h"

namespace fcp {
namespace {

using testing::MakeSegment;

constexpr uint32_t kShards = 4;

std::unique_ptr<ShardRouter> MakeRouter() {
  return std::make_unique<ShardRouter>(kShards, /*queue_capacity=*/65536,
                                       Minutes(10));
}

// Routes a run of single-object segments for `object`, observing each.
void RouteHot(ShardRouter& router, Rebalancer& rebalancer, ObjectId object,
              uint32_t count, SegmentId& next_id, Timestamp& time) {
  for (uint32_t i = 0; i < count; ++i) {
    const SegmentRef segment = SegmentRef::Adopt(
        MakeSegment(next_id++, /*stream=*/0, {object}, time += 10));
    router.Route(segment);
    rebalancer.ObserveSegment(*segment);
  }
}

// Routes one segment holding `objects`, observing it.
void RouteSegment(ShardRouter& router, Rebalancer& rebalancer,
                  const std::vector<ObjectId>& objects, SegmentId& next_id,
                  Timestamp& time) {
  time += 10;
  std::vector<SegmentEntry> entries;
  for (const ObjectId object : objects) {
    entries.push_back(SegmentEntry{object, time});
  }
  const SegmentRef segment = SegmentRef::Adopt(
      Segment(next_id++, /*stream=*/0, std::move(entries)));
  router.Route(segment);
  rebalancer.ObserveSegment(*segment);
}

// The first `n` objects above `after` that the hash places on `shard`.
std::vector<ObjectId> OwnedBy(uint32_t shard, size_t n, ObjectId after = 0) {
  const PlacementMap hash(kShards);
  std::vector<ObjectId> out;
  for (ObjectId o = after + 1; out.size() < n; ++o) {
    if (hash.shard_of(o) == shard) out.push_back(o);
  }
  return out;
}

TEST(RebalancerTest, BalancedLoadNeverTriggers) {
  auto router_ptr = MakeRouter();
  ShardRouter& router = *router_ptr;
  RebalancerOptions options;
  options.interval_segments = 64;
  options.min_move_weight = 2;
  Rebalancer rebalancer(kShards, options);
  SegmentId id = 1;
  Timestamp time = 0;
  // One segment per shard per step: every interval is perfectly balanced.
  std::vector<ObjectId> per_shard(kShards);
  {
    const PlacementMap hash(kShards);
    uint32_t found = 0;
    for (ObjectId o = 0; found < kShards && o < 1000; ++o) {
      const uint32_t s = hash.shard_of(o);
      if (per_shard[s] == 0 && o != 0) {
        per_shard[s] = o;
        ++found;
      }
    }
  }
  std::shared_ptr<const PlacementMap> proposed;
  for (uint32_t step = 0; step < 64; ++step) {
    for (ObjectId object : per_shard) {
      RouteHot(router, rebalancer, object, 1, id, time);
      if (auto next = rebalancer.MaybeRebalance(router)) proposed = next;
    }
  }
  EXPECT_EQ(proposed, nullptr);
  EXPECT_GT(rebalancer.stats().rounds, 0u);
  EXPECT_EQ(rebalancer.stats().rounds_triggered, 0u);
  // max/mean == 1 exactly.
  EXPECT_EQ(rebalancer.imbalance_permille(), 1000);
}

TEST(RebalancerTest, SkewTriggersMoveOffTheHotShard) {
  auto router_ptr = MakeRouter();
  ShardRouter& router = *router_ptr;
  RebalancerOptions options;
  options.interval_segments = 100;
  options.imbalance_threshold = 1.15;
  options.min_move_weight = 8;
  Rebalancer rebalancer(kShards, options);
  SegmentId id = 1;
  Timestamp time = 0;
  constexpr ObjectId kHot = 7;
  const uint32_t hot_home = PlacementMap(kShards).shard_of(kHot);

  // 100 deliveries, ~all to the hot object's shard: imbalance ~= S.
  RouteHot(router, rebalancer, kHot, 100, id, time);
  auto next = rebalancer.MaybeRebalance(router);
  ASSERT_NE(next, nullptr);
  EXPECT_GT(rebalancer.imbalance_permille(), 3000);
  EXPECT_EQ(rebalancer.stats().rounds_triggered, 1u);
  EXPECT_GE(rebalancer.stats().objects_moved, 1u);
  // The hot object left its home shard.
  EXPECT_NE(next->shard_of(kHot), hot_home);
  EXPECT_EQ(next->version(), 1u);
}

TEST(RebalancerTest, HotOwnerTriggersAlthoughDeliveriesAreBalanced) {
  // The Zipf word-trace shape: every segment carries the hot word plus a
  // fresh cold word for each other shard, so every shard receives every
  // segment — deliveries are perfectly balanced — yet the hot word's owner
  // pays f² = 64² against 64 · 1² on each other shard. The trigger must see
  // the cost and move the hot word off its shard.
  auto router_ptr = MakeRouter();
  ShardRouter& router = *router_ptr;
  RebalancerOptions options;  // defaults: threshold 1.15, min weight 8
  options.interval_segments = 64;
  Rebalancer rebalancer(kShards, options);
  SegmentId id = 1;
  Timestamp time = 0;
  constexpr uint32_t kHotShard = 1;
  const ObjectId hot = OwnedBy(kHotShard, 1)[0];
  std::vector<std::vector<ObjectId>> cold(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    if (s != kHotShard) cold[s] = OwnedBy(s, 64, /*after=*/1000);
  }
  for (uint32_t i = 0; i < 64; ++i) {
    std::vector<ObjectId> objects = {hot};
    for (uint32_t s = 0; s < kShards; ++s) {
      if (s != kHotShard) objects.push_back(cold[s][i]);
    }
    RouteSegment(router, rebalancer, objects, id, time);
  }
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(router.routed_to(s), 64u) << "shard " << s;
  }

  auto next = rebalancer.MaybeRebalance(router);
  ASSERT_NE(next, nullptr);
  // Loads 64² on the hot shard, 64 on the others: max/mean = 4096 / 1072.
  EXPECT_EQ(rebalancer.imbalance_permille(), 3820);
  EXPECT_EQ(rebalancer.stats().rounds_triggered, 1u);
  // Only the hot word clears min_move_weight; the cold words stay put.
  EXPECT_EQ(rebalancer.stats().objects_moved, 1u);
  EXPECT_NE(next->shard_of(hot), kHotShard);
}

TEST(RebalancerTest, UniformCountsNeverTriggerAlthoughDeliveriesAreNot) {
  // Every shard owns two objects and every object occurs once per step, so
  // Σ f² is equal on every shard. The even shards' objects arrive in
  // segments of their own and the odd shards' share one, so the even shards
  // receive twice the deliveries (max/mean 1.33, which a delivery trigger
  // would act on). The cost trigger must see balance.
  auto router_ptr = MakeRouter();
  ShardRouter& router = *router_ptr;
  RebalancerOptions options;
  options.interval_segments = 60;  // ten steps of six segments
  options.min_move_weight = 2;
  Rebalancer rebalancer(kShards, options);
  SegmentId id = 1;
  Timestamp time = 0;
  std::vector<std::vector<ObjectId>> owned(kShards);
  for (uint32_t s = 0; s < kShards; ++s) owned[s] = OwnedBy(s, 2);

  std::shared_ptr<const PlacementMap> proposed;
  for (uint32_t step = 0; step < 80; ++step) {
    for (uint32_t s = 0; s < kShards; ++s) {
      if (s % 2 == 0) {
        RouteSegment(router, rebalancer, {owned[s][0]}, id, time);
        RouteSegment(router, rebalancer, {owned[s][1]}, id, time);
      } else {
        RouteSegment(router, rebalancer, owned[s], id, time);
      }
    }
    if (auto next = rebalancer.MaybeRebalance(router)) proposed = next;
  }
  EXPECT_EQ(router.routed_to(0), 2 * router.routed_to(1));
  EXPECT_EQ(proposed, nullptr);
  EXPECT_EQ(rebalancer.stats().rounds, 8u);
  EXPECT_EQ(rebalancer.stats().rounds_triggered, 0u);
  EXPECT_EQ(rebalancer.imbalance_permille(), 1000);
}

TEST(RebalancerTest, OneShotObjectsAreForgotten) {
  // Open vocabularies (new words, new vehicle ids) must not grow the count
  // map, and with it every round's scan: an object whose decayed count
  // reaches 0 leaves the tracked set.
  auto router_ptr = MakeRouter();
  ShardRouter& router = *router_ptr;
  RebalancerOptions options;
  options.interval_segments = 64;
  Rebalancer rebalancer(kShards, options);
  SegmentId id = 1;
  Timestamp time = 0;
  constexpr ObjectId kSteady = 3;
  ObjectId fresh = 1000;
  for (uint32_t round = 0; round < 20; ++round) {
    for (uint32_t i = 0; i < 64; ++i) {
      RouteSegment(router, rebalancer, {kSteady, fresh++}, id, time);
    }
    rebalancer.MaybeRebalance(router);
    // The one-shot objects decayed from 1 to 0 at the round's close.
    EXPECT_EQ(rebalancer.tracked_objects(), 1u) << "round " << round;
  }
  // The steady object goes cold too: 64 halves to 0 within seven rounds.
  for (uint32_t round = 0; round < 7; ++round) {
    for (uint32_t i = 0; i < 64; ++i) {
      RouteSegment(router, rebalancer, {fresh++}, id, time);
    }
    rebalancer.MaybeRebalance(router);
  }
  EXPECT_EQ(rebalancer.tracked_objects(), 0u);
  EXPECT_EQ(rebalancer.stats().rounds, 27u);
}

TEST(RebalancerTest, HotObjectRotatesAcrossShardsOverRounds) {
  // The skew-ceiling breaker: one object dominating every interval must not
  // stay pinned to one shard. Applying each proposed placement back to the
  // router, the hot object's owner changes round over round, visiting
  // several shards — time-sliced LPT.
  auto router_ptr = MakeRouter();
  ShardRouter& router = *router_ptr;
  RebalancerOptions options;
  options.interval_segments = 64;
  options.imbalance_threshold = 1.05;
  options.min_move_weight = 4;
  Rebalancer rebalancer(kShards, options);
  SegmentId id = 1;
  Timestamp time = 0;
  constexpr ObjectId kHot = 11;

  std::set<uint32_t> owners_seen;
  owners_seen.insert(PlacementMap(kShards).shard_of(kHot));
  for (uint32_t round = 0; round < 8; ++round) {
    RouteHot(router, rebalancer, kHot, 64, id, time);
    if (auto next = rebalancer.MaybeRebalance(router)) {
      owners_seen.insert(next->shard_of(kHot));
      router.ApplyPlacement(std::move(next));
    }
    // Drain the hot shard's queue so capacity never backpressures the test.
    for (uint32_t s = 0; s < kShards; ++s) {
      while (router.queue(s).TryPop().has_value()) {
      }
    }
  }
  EXPECT_GE(owners_seen.size(), 3u)
      << "hot object stayed pinned instead of rotating";
  EXPECT_GE(rebalancer.stats().rounds_triggered, 4u);
}

TEST(RebalancerTest, ColdObjectsBelowMinWeightNeverMove) {
  auto router_ptr = MakeRouter();
  ShardRouter& router = *router_ptr;
  RebalancerOptions options;
  options.interval_segments = 40;
  options.imbalance_threshold = 1.05;
  options.min_move_weight = 1000;  // nothing can clear this
  Rebalancer rebalancer(kShards, options);
  SegmentId id = 1;
  Timestamp time = 0;
  RouteHot(router, rebalancer, /*object=*/5, 40, id, time);
  // Skewed, but no candidate clears the weight floor: no proposal.
  EXPECT_EQ(rebalancer.MaybeRebalance(router), nullptr);
  EXPECT_GT(rebalancer.imbalance_permille(), 3000);
  EXPECT_EQ(rebalancer.stats().objects_moved, 0u);
}

TEST(RebalancerTest, IntervalGateHoldsUntilEnoughSegments) {
  auto router_ptr = MakeRouter();
  ShardRouter& router = *router_ptr;
  RebalancerOptions options;
  options.interval_segments = 100;
  Rebalancer rebalancer(kShards, options);
  SegmentId id = 1;
  Timestamp time = 0;
  RouteHot(router, rebalancer, /*object=*/2, 99, id, time);
  EXPECT_EQ(rebalancer.MaybeRebalance(router), nullptr);
  EXPECT_EQ(rebalancer.stats().rounds, 0u);
  RouteHot(router, rebalancer, /*object=*/2, 1, id, time);
  rebalancer.MaybeRebalance(router);
  EXPECT_EQ(rebalancer.stats().rounds, 1u);
}

}  // namespace
}  // namespace fcp
