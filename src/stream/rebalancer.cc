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
  interval_cost_.assign(num_shards, 0);
  cumulative_cost_.assign(num_shards, 0);
  model_load_.assign(num_shards, 0);
}

void Rebalancer::ObserveSegment(const Segment& segment) {
  ++observed_since_round_;
  // Entry counts (with multiplicity) approximate the frequency f whose
  // square the object's owner pays; distinct-ness is not worth a dedup pass.
  for (const SegmentEntry& entry : segment.entries()) {
    ++counts_[entry.object];
  }
}

std::shared_ptr<const PlacementMap> Rebalancer::MaybeRebalance(
    const ShardRouter& router) {
  if (observed_since_round_ < options_.interval_segments) return nullptr;
  observed_since_round_ = 0;

  // Close the interval: each shard's load is its modeled mining cost, Σ
  // count² over ALL the objects it owns under the current placement (the
  // header says why squared counts and not deliveries). The same pass
  // charges the move candidates' (count >= min_move_weight) cost to their
  // owners' cumulative totals, which choose the destinations below.
  ++stats_.rounds;
  live_rounds_.store(stats_.rounds, std::memory_order_relaxed);
  const PlacementMap* current = router.placement().get();
  std::fill(interval_cost_.begin(), interval_cost_.end(), 0);
  for (const auto& [object, count] : counts_) {
    const uint32_t owner = current != nullptr
                               ? current->shard_of(object)
                               : ShardOf(object, num_shards_);
    interval_cost_[owner] += count * count;
    if (count >= options_.min_move_weight) {
      cumulative_cost_[owner] += count * count;
    }
  }
  uint64_t total = 0;
  uint64_t max_load = 0;
  for (const uint64_t cost : interval_cost_) {
    total += cost;
    max_load = std::max(max_load, cost);
  }
  if (total == 0) return nullptr;
  // max/mean in permille: 1000 * max / (total / S). In floating point: a
  // squared count overflows the integer product long before the ratio does.
  imbalance_permille_ = static_cast<int64_t>(
      1000.0 * static_cast<double>(max_load) * num_shards_ /
      static_cast<double>(total));
  live_imbalance_.store(imbalance_permille_, std::memory_order_relaxed);

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
  // keep bouncing an object that went cold. An object whose weight reaches
  // 0 is forgotten, so the map holds the recent vocabulary, not every
  // object ever routed. (Erase invalidates iteration: collect, then erase.)
  dead_scratch_.clear();
  for (auto& [object, count] : counts_) {
    count >>= 1;
    if (count == 0) dead_scratch_.push_back(object);
  }
  for (const ObjectId object : dead_scratch_) counts_.Erase(object);
  return next;
}

}  // namespace fcp
