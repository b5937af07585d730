#include "stream/rebalancer.h"

#include <algorithm>

#include "common/check.h"
#include "common/shard.h"
#include "stream/shard_router.h"

namespace fcp {

Rebalancer::Rebalancer(uint32_t num_shards, RebalancerOptions options)
    : num_shards_(num_shards), options_(options) {
  FCP_CHECK(num_shards >= 1);
  FCP_CHECK(options_.interval_segments >= 1);
  last_routed_.assign(num_shards, 0);
  cumulative_.assign(num_shards, 0);
  cumulative_cost_.assign(num_shards, 0);
  model_load_.assign(num_shards, 0);
}

void Rebalancer::ObserveSegment(const Segment& segment) {
  ++observed_since_round_;
  // Entry counts (with multiplicity) approximate the delivery/probe load an
  // object's owner pays; distinct-ness is not worth a dedup pass here.
  for (const SegmentEntry& entry : segment.entries()) {
    ++counts_[entry.object];
  }
}

std::shared_ptr<const PlacementMap> Rebalancer::MaybeRebalance(
    const ShardRouter& router) {
  if (observed_since_round_ < options_.interval_segments) return nullptr;
  observed_since_round_ = 0;

  // Close the interval: per-shard deliveries since the last round.
  uint64_t total = 0;
  uint64_t max_load = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const uint64_t routed = router.routed_to(s);
    const uint64_t interval = routed - last_routed_[s];
    last_routed_[s] = routed;
    cumulative_[s] += interval;
    total += interval;
    max_load = std::max(max_load, interval);
  }
  ++stats_.rounds;
  live_rounds_.store(stats_.rounds, std::memory_order_relaxed);
  if (total == 0) return nullptr;
  // max/mean in permille: 1000 * max / (total / S).
  imbalance_permille_ =
      static_cast<int64_t>((max_load * 1000 * num_shards_) / total);
  live_imbalance_.store(imbalance_permille_, std::memory_order_relaxed);

  // Attribute this interval's modeled mining cost to the owner that held
  // each hot object: pairwise probe work scales with the SQUARE of an
  // object's frequency, so cost — not delivery count — is what the
  // destination model must balance. (Delivery counts anti-correlate with
  // cost at high skew: the hot object's owner owns little else, so the
  // tail shards receive MORE deliveries than it does, and an argmin over
  // deliveries would keep handing the hot object back to its own shard.)
  // Tail objects below min_move_weight are skipped — the hash already
  // spreads them evenly and they are never move candidates.
  const PlacementMap* current = router.placement().get();
  for (const auto& [object, count] : counts_) {
    if (count < options_.min_move_weight) continue;
    const uint32_t owner = current != nullptr
                               ? current->shard_of(object)
                               : ShardOf(object, num_shards_);
    cumulative_cost_[owner] += count * count;
  }

  const bool triggered =
      static_cast<double>(imbalance_permille_) >=
      options_.imbalance_threshold * 1000.0;

  std::shared_ptr<const PlacementMap> next;
  if (triggered && num_shards_ > 1) {
    // Hot candidates: heaviest decayed counts first, deterministic tie-break.
    hot_scratch_.clear();
    for (const auto& [object, count] : counts_) {
      if (count >= options_.min_move_weight) {
        hot_scratch_.push_back({count, object});
      }
    }
    const size_t top = std::min<size_t>(options_.max_moves_per_round,
                                        hot_scratch_.size());
    std::partial_sort(hot_scratch_.begin(), hot_scratch_.begin() + top,
                      hot_scratch_.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });

    // Greedy re-assignment against cumulative modeled COST: each candidate
    // goes to the shard that has paid the least so far. The hot object's
    // owner is by construction the fastest cost accumulator, so this rule
    // rotates ownership round by round — time-sliced LPT: over the run
    // every shard pays ~1/S of a dominant object's cost, the bound no
    // static placement reaches once one object exceeds total/S.
    model_load_ = cumulative_cost_;
    moves_scratch_.clear();
    for (size_t i = 0; i < top; ++i) {
      const auto [count, object] = hot_scratch_[i];
      const uint32_t from = current != nullptr
                                ? current->shard_of(object)
                                : ShardOf(object, num_shards_);
      uint32_t dest = 0;
      for (uint32_t s = 1; s < num_shards_; ++s) {
        if (model_load_[s] < model_load_[dest]) dest = s;
      }
      model_load_[dest] += count * count;
      if (dest == from) continue;
      moves_scratch_.push_back({object, dest});
    }
    if (!moves_scratch_.empty()) {
      auto current_sp = router.placement();
      if (current_sp == nullptr) {
        current_sp = std::make_shared<const PlacementMap>(num_shards_);
      }
      next = current_sp->WithMoves(moves_scratch_);
      ++stats_.rounds_triggered;
      stats_.objects_moved += moves_scratch_.size();
      live_triggered_.store(stats_.rounds_triggered, std::memory_order_relaxed);
      live_moved_.store(stats_.objects_moved, std::memory_order_relaxed);
    }
  }

  // Halve every weight so they track the recent window; stale heat must not
  // keep bouncing an object that went cold.
  for (auto& [object, count] : counts_) {
    (void)object;
    count >>= 1;
  }
  return next;
}

}  // namespace fcp
