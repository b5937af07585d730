#include "stream/shard_router.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "util/stopwatch.h"

namespace fcp {
namespace {

// Live-set compaction cadence: a full scan every this many Route() calls
// keeps the amortized prune cost O(1) per segment while bounding how long an
// expired reference can linger (segments complete out of start order, so a
// simple pop-from-front would stall on one late-starting segment).
constexpr uint64_t kCompactEvery = 256;

}  // namespace

ShardRouter::ShardRouter(uint32_t num_shards, size_t queue_capacity,
                         DurationMs tau)
    : num_shards_(num_shards),
      tau_(tau),
      routed_to_(new std::atomic<uint64_t>[num_shards]) {
  FCP_CHECK(num_shards >= 1);
  FCP_CHECK(num_shards <= kMaxShards);
  queues_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    // One shared tag pair across shards: off-CPU profiles aggregate shard
    // idling / routing backpressure rather than splitting per shard.
    queues_.push_back(std::make_unique<BoundedQueue<ShardDelivery>>(
        queue_capacity, "shard/deliveries-empty", "router/deliveries-full"));
    routed_to_[s].store(0, std::memory_order_relaxed);
  }
  target_scratch_.assign(num_shards, 0);
}

void ShardRouter::MarkTargets(const Segment& segment) {
  std::fill(target_scratch_.begin(), target_scratch_.end(), 0);
  // The segment's construction-time distinct cache: one TargetShard lookup
  // per distinct object instead of one per entry.
  for (const ObjectId object : segment.distinct_objects()) {
    target_scratch_[TargetShard(object)] = 1;
  }
}

uint32_t ShardRouter::Route(const SegmentRef& segment) {
  watermark_ = std::max(watermark_, segment->end_time());
  watermark_pub_.store(watermark_, std::memory_order_relaxed);
  ++stats_.segments_routed;
  const int64_t now_ns = MonotonicNowNs();

  uint32_t delivered = 0;
  uint64_t delivered_mask = 0;
  if (num_shards_ == 1) {
    if (queues_[0]->Push(ShardDelivery{segment, watermark_, now_ns,
                                       segment->id(), placement_,
                                       /*index_only=*/false})) {
      routed_to_[0].fetch_add(1, std::memory_order_relaxed);
      ++delivered;
      delivered_mask = 1;
    }
  } else {
    MarkTargets(*segment);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      if (!target_scratch_[s]) continue;
      // The delivery shares the caller's slab: a refcount bump per shard,
      // no entry-vector copy.
      if (queues_[s]->Push(ShardDelivery{segment, watermark_, now_ns,
                                         segment->id(), placement_,
                                         /*index_only=*/false})) {
        routed_to_[s].fetch_add(1, std::memory_order_relaxed);
        ++delivered;
        delivered_mask |= uint64_t{1} << s;
      }
    }
  }
  stats_.deliveries += delivered;
  if (num_shards_ > 1 && delivered > 0) {
    live_.push_back(LiveEntry{segment, delivered_mask});
    if (++routes_since_compact_ >= kCompactEvery) CompactLive();
  }
  return delivered;
}

void ShardRouter::CompactLive() {
  routes_since_compact_ = 0;
  while (!live_.empty() &&
         watermark_ - live_.front().segment->start_time() > tau_) {
    live_.pop_front();
  }
  // Segments complete out of start order, so expired entries can hide behind
  // a long-lived front. Scan first; only when a straggler exists rotate the
  // survivors through the ring in one pass (a move per entry — a SegmentRef
  // pointer swap — never an allocation).
  const size_t n = live_.size();
  bool stale = false;
  for (size_t i = 0; i < n && !stale; ++i) {
    stale = watermark_ - live_.at(i).segment->start_time() > tau_;
  }
  if (!stale) return;
  for (size_t i = 0; i < n; ++i) {
    LiveEntry entry = std::move(live_.front());
    live_.pop_front();
    if (watermark_ - entry.segment->start_time() <= tau_) {
      live_.push_back(std::move(entry));
    }
  }
}

uint64_t ShardRouter::ApplyPlacement(std::shared_ptr<const PlacementMap> next) {
  FCP_CHECK(num_shards_ > 1);
  FCP_CHECK(next != nullptr && next->num_shards() == num_shards_);
  const int64_t now_ns = MonotonicNowNs();
  CompactLive();
  uint64_t backfills = 0;
  for (size_t i = 0; i < live_.size(); ++i) {
    LiveEntry& entry = live_.at(i);
    // Shards owning >= 1 object of this segment under the NEW placement but
    // that never received it: their index would miss a valid supporter of a
    // pattern they are about to own, so replay it index-only. FIFO order
    // guarantees the replay lands before any trigger routed under `next`.
    uint64_t need = 0;
    for (const ObjectId object : entry.segment->distinct_objects()) {
      need |= uint64_t{1} << next->shard_of(object);
    }
    need &= ~entry.delivered;
    if (need == 0) continue;
    for (uint32_t s = 0; s < num_shards_; ++s) {
      if (!(need & (uint64_t{1} << s))) continue;
      if (queues_[s]->Push(ShardDelivery{entry.segment, watermark_, now_ns,
                                         entry.segment->id(), next,
                                         /*index_only=*/true})) {
        ++backfills;
      }
    }
    entry.delivered |= need;
  }
  placement_ = std::move(next);
  placement_version_.fetch_add(1, std::memory_order_relaxed);
  stats_.backfill_deliveries += backfills;
  ++stats_.placements_applied;
  return backfills;
}

void ShardRouter::Close() {
  for (auto& queue : queues_) queue->Close();
}

}  // namespace fcp
