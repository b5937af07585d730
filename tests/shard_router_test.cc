#include "stream/shard_router.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/shard.h"
#include "test_util.h"

namespace fcp {
namespace {

using testing::MakeSegment;

// Live-set validity window for every router below.
constexpr DurationMs kTau = Minutes(10);

// Shorthand: wraps a test segment in a (pool-less) refcounted slab.
SegmentRef Ref(Segment segment) { return SegmentRef::Adopt(std::move(segment)); }

// Drains everything currently queued for `shard` (the router must be closed
// or the producer done, so Pop never blocks indefinitely here).
std::vector<ShardDelivery> Drain(ShardRouter& router, uint32_t shard) {
  std::vector<ShardDelivery> out;
  while (auto delivery = router.queue(shard).TryPop()) {
    out.push_back(std::move(*delivery));
  }
  return out;
}

TEST(ShardSpecTest, SerialSpecOwnsEverything) {
  const ShardSpec serial;
  EXPECT_TRUE(serial.IsSingleton());
  for (ObjectId o = 0; o < 1000; ++o) EXPECT_TRUE(serial.Owns(o));
}

TEST(ShardSpecTest, ShardsPartitionTheObjectUniverse) {
  for (uint32_t count : {2u, 3u, 8u}) {
    for (ObjectId o = 0; o < 1000; ++o) {
      uint32_t owners = 0;
      for (uint32_t i = 0; i < count; ++i) {
        owners += ShardSpec{i, count}.Owns(o) ? 1 : 0;
      }
      EXPECT_EQ(owners, 1u) << "object " << o << " with " << count
                            << " shards";
    }
  }
}

TEST(ShardRouterTest, SingleShardReceivesEverySegment) {
  ShardRouter router(1, 16, kTau);
  EXPECT_EQ(router.Route(Ref(MakeSegment(1, 0, {5, 7}, 100))), 1u);
  EXPECT_EQ(router.Route(Ref(MakeSegment(2, 1, {9}, 200))), 1u);
  router.Close();
  EXPECT_EQ(Drain(router, 0).size(), 2u);
  EXPECT_EQ(router.stats().segments_routed, 2u);
  EXPECT_EQ(router.stats().deliveries, 2u);
}

TEST(ShardRouterTest, MulticastsToExactlyTheOwningShards) {
  constexpr uint32_t kShards = 4;
  ShardRouter router(kShards, 64, kTau);
  const SegmentRef segment = Ref(MakeSegment(1, 0, {1, 2, 3, 4, 5, 6}, 100));

  std::set<uint32_t> expected;
  for (ObjectId o : segment->DistinctObjects()) {
    expected.insert(ShardOf(o, kShards));
  }
  EXPECT_EQ(router.Route(segment), expected.size());
  router.Close();

  for (uint32_t s = 0; s < kShards; ++s) {
    const std::vector<ShardDelivery> got = Drain(router, s);
    if (expected.contains(s)) {
      ASSERT_EQ(got.size(), 1u) << "shard " << s;
      EXPECT_EQ(got[0].segment->id(), segment->id());
      EXPECT_EQ(got[0].watermark, segment->end_time());
    } else {
      EXPECT_TRUE(got.empty()) << "shard " << s;
    }
  }
}

TEST(ShardRouterTest, DuplicateObjectsDeliverOnce) {
  ShardRouter router(2, 16, kTau);
  // All entries map to the same object: exactly one delivery to its owner.
  EXPECT_EQ(router.Route(Ref(MakeSegment(1, 0, {42, 42, 42}, 50))), 1u);
  router.Close();
  EXPECT_EQ(Drain(router, 0).size() + Drain(router, 1).size(), 1u);
}

TEST(ShardRouterTest, WatermarkIsMonotoneAcrossOutOfOrderSegments) {
  ShardRouter router(2, 16, kTau);
  router.Route(Ref(MakeSegment(1, 0, {1}, 1000)));
  EXPECT_EQ(router.watermark(), 1000);
  // An earlier-ending segment must not regress the shipped watermark.
  router.Route(Ref(MakeSegment(2, 1, {2}, 400)));
  EXPECT_EQ(router.watermark(), 1000);
  router.Close();
  for (uint32_t s = 0; s < 2; ++s) {
    for (const ShardDelivery& delivery : Drain(router, s)) {
      if (delivery.segment->id() == 2) {
        EXPECT_EQ(delivery.watermark, 1000);
      }
    }
  }
}

TEST(ShardRouterTest, CloseEndsConsumers) {
  ShardRouter router(3, 4, kTau);
  router.Route(Ref(MakeSegment(1, 0, {7}, 10)));
  router.Close();
  for (uint32_t s = 0; s < 3; ++s) {
    Drain(router, s);
    EXPECT_EQ(router.queue(s).Pop(), std::nullopt);
  }
}

}  // namespace
}  // namespace fcp
