// ShardRouter: multicasts completed segments to object-partitioned miner
// shards.
//
// One producer (the ParallelEngine's ingest thread, or a bench driver) calls
// Route() with segments in global completion order; the router delivers each
// segment to every shard that owns at least one of its distinct objects,
// together with the *global* stream-time watermark at routing time. Each
// per-shard queue is SPSC — single producer (the router caller), single
// consumer (that shard's miner thread) — and bounded, so a slow shard exerts
// condition-variable backpressure instead of unbounded buffering.
//
// Deliveries carry SegmentRefs (segment_ref.h): the multicast, the live set
// and every backfill replay share ONE slab per segment, so an S-way fan-out
// costs S refcount increments instead of S entry-vector copies.
//
// Shipping the global watermark with every delivery is what keeps sharded
// mining byte-identical to a serial run: a shard only sees a subset of the
// segment stream, so its own max-end-time would lag the pipeline's and
// expire supporters later than the serial miner does. Miners call
// AdvanceWatermark(delivery.watermark) before AddSegment to stay aligned.
//
// Live migration (DESIGN.md §2.6) rides the same delivery path. The router
// targets shards through an immutable PlacementMap snapshot and stamps the
// route-time snapshot on every delivery — that is the fence: a trigger is
// mined under exactly one placement on every shard that receives it, so the
// per-trigger ownership partition stays complete and disjoint no matter how
// many times placement changes. ApplyPlacement() switches to a successor
// snapshot after enqueuing *index-only backfill* deliveries: every still-
// valid segment is replayed to the shards that own one of its objects under
// the new placement but never received it. Per-shard FIFO order then
// guarantees the new owner's index holds every valid supporter before the
// first trigger routed under the new snapshot arrives.

#ifndef FCP_STREAM_SHARD_ROUTER_H_
#define FCP_STREAM_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/placement.h"
#include "common/shard.h"
#include "common/types.h"
#include "stream/bounded_queue.h"
#include "stream/segment.h"
#include "stream/segment_ref.h"
#include "util/ring_buffer.h"

namespace fcp {

/// One delivery to a miner shard: a reference to the shared segment slab
/// plus the global watermark (max segment end time routed so far, this
/// segment included).
struct ShardDelivery {
  SegmentRef segment;
  Timestamp watermark = kMinTimestamp;
  /// Steady-clock stamp taken when Route() enqueued this delivery; the shard
  /// thread turns (now - routed_at_ns) into the segment->discovery latency
  /// histogram (queue wait + mining).
  int64_t routed_at_ns = 0;
  /// Trace-flow id stamped at route time (the segment's global id). Shard
  /// threads emit flow-end events against it so one segment's journey —
  /// ingest, route, per-shard mine — renders as a connected arrow chain in
  /// Perfetto. Stamped unconditionally (one uint64 store) so the
  /// router stays independent of the recorder's enabled state.
  uint64_t trace_flow = 0;
  /// The placement snapshot in force when this delivery was enqueued (null =
  /// hash placement). The consuming shard applies it to its miner before
  /// processing, so ownership decisions for this segment match the routing
  /// decision that produced the delivery — the migration fence.
  std::shared_ptr<const PlacementMap> placement;
  /// Migration backfill: index the segment (AddSegmentIndexOnly), do not
  /// mine it. The segment was already mined by its route-time owners.
  bool index_only = false;
};

/// Routing counters (racy snapshots while the pipeline runs; exact after
/// Close()).
struct ShardRouterStats {
  uint64_t segments_routed = 0;  ///< Route() calls
  uint64_t deliveries = 0;       ///< sum over shards of segments enqueued
  uint64_t backfill_deliveries = 0;  ///< index-only migration replays
  uint64_t placements_applied = 0;   ///< ApplyPlacement() calls
};

/// Most shards a router serves: the live set records each segment's
/// delivered shards in a 64-bit mask.
inline constexpr uint32_t kMaxShards = 64;

class ShardRouter {
 public:
  /// `1 <= num_shards <= kMaxShards`; `queue_capacity` bounds each per-shard
  /// queue. Routing starts on the Mix64 hash. With more than one shard the
  /// router keeps the live-segment set ApplyPlacement backfills from: one
  /// SegmentRef per Route (a refcount, not a copy), expired by `tau`, the
  /// same validity window the miners use.
  ShardRouter(uint32_t num_shards, size_t queue_capacity, DurationMs tau);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Multicasts `segment` to every shard owning >= 1 of its distinct
  /// objects (all shards when num_shards == 1). Blocks while target queues
  /// are full. Returns the number of shards the segment was delivered to
  /// (0 only if the router was closed mid-route).
  uint32_t Route(const SegmentRef& segment);

  /// Switches routing to `next` (a successor snapshot, normally produced by
  /// Rebalancer / PlacementMap::WithMoves) after enqueuing index-only
  /// backfill deliveries for every still-valid segment a new owner lacks.
  /// Requires num_shards > 1. Must be called from the routing thread (the
  /// router is single-producer). Returns the number of backfill deliveries
  /// enqueued.
  uint64_t ApplyPlacement(std::shared_ptr<const PlacementMap> next);

  /// The placement snapshot currently in force (null = hash).
  const std::shared_ptr<const PlacementMap>& placement() const {
    return placement_;
  }

  /// Closes every shard queue; consumers drain then see end-of-stream.
  void Close();

  uint32_t num_shards() const { return num_shards_; }

  /// The ShardSpec shard `i`'s miner must be constructed with.
  ShardSpec spec(uint32_t shard) const { return ShardSpec{shard, num_shards_}; }

  /// Shard `i`'s delivery queue (consumer side).
  BoundedQueue<ShardDelivery>& queue(uint32_t shard) {
    return *queues_[shard];
  }

  /// The global watermark after the last Route() call. Published through a
  /// relaxed atomic so the observability plane can sample it from another
  /// thread while the pipeline runs (per-shard watermark lag in /statusz).
  Timestamp watermark() const {
    return watermark_pub_.load(std::memory_order_relaxed);
  }

  /// Monotonic count of placement snapshots applied (0 = the initial one),
  /// also sampled cross-thread by /statusz. The placement() accessor itself
  /// remains routing-thread-only.
  uint64_t placement_version() const {
    return placement_version_.load(std::memory_order_relaxed);
  }

  const ShardRouterStats& stats() const { return stats_; }

  /// Segments delivered to `shard` so far. Relaxed-atomic, so telemetry can
  /// sample it from another thread while the pipeline runs (skew visibility:
  /// per-shard delivery counts diverge under object-popularity skew).
  uint64_t routed_to(uint32_t shard) const {
    return routed_to_[shard].load(std::memory_order_relaxed);
  }

 private:
  /// One still-valid routed segment plus the set of shards (bitmask) it has
  /// been delivered to, mined or backfilled. ApplyPlacement compares the
  /// mask against the new placement's target set to find owed backfills.
  struct LiveEntry {
    SegmentRef segment;
    uint64_t delivered = 0;
  };

  /// The shard `object` routes to under the current placement.
  uint32_t TargetShard(ObjectId object) const {
    if (placement_ != nullptr) return placement_->shard_of(object);
    return ShardOf(object, num_shards_);
  }

  /// Marks target_scratch_[s] for every shard owning >= 1 distinct object
  /// of `segment` under the current placement.
  void MarkTargets(const Segment& segment);

  /// Drops expired entries (watermark anchored, same predicate as the
  /// miners) from the live set.
  void CompactLive();

  const uint32_t num_shards_;
  const DurationMs tau_;
  std::vector<std::unique_ptr<BoundedQueue<ShardDelivery>>> queues_;
  std::unique_ptr<std::atomic<uint64_t>[]> routed_to_;  ///< per-shard count
  /// Routing-thread working copy; watermark_pub_ mirrors it for cross-thread
  /// reads (the hot routing loop reads the plain field, the atomic is only
  /// stored once per Route).
  Timestamp watermark_ = kMinTimestamp;
  std::atomic<Timestamp> watermark_pub_{kMinTimestamp};
  std::atomic<uint64_t> placement_version_{0};
  std::shared_ptr<const PlacementMap> placement_;  ///< null = hash
  std::vector<uint8_t> target_scratch_;  ///< per-shard "owns an object" flags
  /// Valid routed segments (num_shards > 1). A ring, not a deque: the live set
  /// is a watermark-bounded FIFO, so once its capacity covers the tau window
  /// the expiry churn performs zero allocations (a deque would allocate and
  /// free a block every ~32 entries, the single largest steady-state heap
  /// source in the whole pipeline).
  RingBuffer<LiveEntry> live_;
  uint64_t routes_since_compact_ = 0;
  ShardRouterStats stats_;
};

}  // namespace fcp

#endif  // FCP_STREAM_SHARD_ROUTER_H_
