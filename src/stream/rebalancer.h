// Rebalancer: turns modeled per-shard mining cost into placement changes.
//
// The routing thread feeds it every routed segment (ObserveSegment) and
// periodically asks for a decision (MaybeRebalance). ObserveSegment keeps a
// decayed per-object count f_w (entries seen, halved every interval). Every
// `interval_segments` routed segments the rebalancer closes an *interval*:
// each shard's load is Σ f_w² over every object w it owns under the current
// placement, and the interval imbalance is max/mean of those loads — the
// same number the `fcp_shard_load_imbalance_permille` gauge publishes.
// Squared, because the owner of object w pays O(f_w²) of the pairwise
// probe-vs-chain work. Delivery counts anti-correlate with that cost at high
// skew (the hot object's owner owns little else and so receives fewer
// deliveries than the tail shards), so neither the trigger nor the
// destination choice reads them. The load is a pure function of the input:
// no timing crosses threads, and a trace places the same way on every run.
//
// When the imbalance reaches the threshold, the rebalancer proposes a
// successor PlacementMap that moves the hottest objects onto the shards
// that have paid the least *cumulative* modeled cost (the same Σ f_w²,
// attributed each interval to the owner of every object that clears
// `min_move_weight`). Choosing destinations by cumulative cost is what
// breaks the skew ceiling: a single object hot enough to dominate mining
// cost cannot be split within one interval (its pairwise work is inherently
// serial per trigger), but because its current owner accumulates cost
// fastest, the argmin-cumulative rule hands it to a different shard each
// round — over the run every shard pays ~1/S of the hot object's total
// cost, which is exactly the LPT bound a static placement can never reach.
// Cold objects stay put: only objects whose decayed count clears
// `min_move_weight` are candidates. An object whose count decays to 0 is
// forgotten.
//
// Single-threaded: lives on the routing thread, next to the ShardRouter
// whose placement it reads. Placement changes are applied by the caller via
// ShardRouter::ApplyPlacement (see shard_router.h for the fence protocol).

#ifndef FCP_STREAM_REBALANCER_H_
#define FCP_STREAM_REBALANCER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/placement.h"
#include "common/types.h"
#include "stream/segment.h"
#include "util/flat_map.h"

namespace fcp {

class ShardRouter;

struct RebalancerOptions {
  /// Decision cadence: close an interval every this many routed segments.
  uint32_t interval_segments = 1024;
  /// Interval imbalance (max/mean per-shard Σ f²) that triggers moves.
  double imbalance_threshold = 1.15;
  /// At most this many objects move per round.
  uint32_t max_moves_per_round = 4;
  /// Objects with a smaller decayed count than this are never moved (the
  /// tail is already spread fine by the hash).
  uint64_t min_move_weight = 8;
};

/// Counters describing rebalancing activity (single-threaded, read after the
/// run or from the owning thread).
struct RebalancerStats {
  uint64_t rounds = 0;           ///< intervals closed (gauge refreshes)
  uint64_t rounds_triggered = 0; ///< intervals that produced a new placement
  uint64_t objects_moved = 0;    ///< total moves across all rounds
};

class Rebalancer {
 public:
  Rebalancer(uint32_t num_shards, RebalancerOptions options = {});

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  /// Accounts one routed segment toward the current interval and its
  /// objects toward the hot-object weights.
  void ObserveSegment(const Segment& segment);

  /// Closes the interval if due. Returns the successor placement to apply
  /// (router->ApplyPlacement), or null when the interval is still open or
  /// the load is balanced. Reads `router`'s current placement; does not
  /// mutate the router.
  std::shared_ptr<const PlacementMap> MaybeRebalance(const ShardRouter& router);

  /// max/mean per-shard Σ f² of the last closed interval, in permille
  /// (1000 = perfectly balanced). Valid after the first round.
  int64_t imbalance_permille() const { return imbalance_permille_; }

  const RebalancerStats& stats() const { return stats_; }

  /// Objects with a nonzero decayed count: the set every round scans.
  size_t tracked_objects() const { return counts_.size(); }

  /// Thread-safe copy of stats() plus the live imbalance, mirrored through
  /// relaxed atomics by the owning (routing) thread after every closed
  /// round. This is what /statusz samples while the pipeline runs; stats()
  /// stays single-threaded and exact.
  struct LiveStats {
    uint64_t rounds = 0;
    uint64_t rounds_triggered = 0;
    uint64_t objects_moved = 0;
    int64_t imbalance_permille = 1000;
  };
  LiveStats SnapshotStats() const {
    LiveStats s;
    s.rounds = live_rounds_.load(std::memory_order_relaxed);
    s.rounds_triggered = live_triggered_.load(std::memory_order_relaxed);
    s.objects_moved = live_moved_.load(std::memory_order_relaxed);
    s.imbalance_permille = live_imbalance_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  const uint32_t num_shards_;
  const RebalancerOptions options_;
  FlatMap<ObjectId, uint64_t> counts_;  ///< decayed per-object count f
  std::vector<uint64_t> interval_cost_;    ///< per-shard Σf², all objects
  std::vector<uint64_t> cumulative_cost_;  ///< per-shard Σf², candidates
  std::vector<uint64_t> model_load_;    ///< scratch: cost model during moves
  uint64_t observed_since_round_ = 0;
  int64_t imbalance_permille_ = 1000;
  RebalancerStats stats_;
  std::atomic<uint64_t> live_rounds_{0};
  std::atomic<uint64_t> live_triggered_{0};
  std::atomic<uint64_t> live_moved_{0};
  std::atomic<int64_t> live_imbalance_{1000};
  std::vector<std::pair<uint64_t, ObjectId>> hot_scratch_;
  std::vector<std::pair<ObjectId, uint32_t>> moves_scratch_;
  std::vector<ObjectId> dead_scratch_;  ///< counts decayed to 0
};

}  // namespace fcp

#endif  // FCP_STREAM_REBALANCER_H_
