// Load-aware object placement: the data-driven replacement for hash(o) % S.
//
// Static `ShardOf(o, S) = Mix64(o) % S` ownership balances shards only as
// well as the object popularity distribution allows: the shard owning a hot
// word pays the O(f_w^2) pairwise probe work of that word, so at Zipf
// s = 1.0 one shard is ~half of all mining cost and the pipeline tops out
// far short of linear (README.md, "Skewed input"). A PlacementMap makes the
// object -> shard function data: a dense table for the moved id range
// (generators hand out ids densely) with the Mix64 hash as fallback for
// every other object. Every pipeline starts on the hash; the Rebalancer
// amends it at runtime.
//
// Snapshots are IMMUTABLE. Routing threads publish a new snapshot (via
// shared_ptr) instead of mutating the current one, and every ShardDelivery
// carries the snapshot in force when it was routed. A segment is therefore
// mined under exactly one placement — the one at route time — which is the
// fence that keeps migration from ever splitting or duplicating a pattern's
// ownership mid-trigger (DESIGN.md §2.6).

#ifndef FCP_COMMON_PLACEMENT_H_
#define FCP_COMMON_PLACEMENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace fcp {

/// One immutable object -> shard assignment. Objects inside the dense range
/// read a flat table; objects beyond it fall back to the Mix64 hash, so an
/// open vocabulary never needs the table resized.
class PlacementMap {
 public:
  /// The hash-equivalent placement: empty dense table, every object falls
  /// back to Mix64(o) % num_shards.
  explicit PlacementMap(uint32_t num_shards);

  /// A placement with an explicit dense table (`dense[o]` is the shard of
  /// object `o` for `o < dense.size()`). Every entry must be < num_shards.
  PlacementMap(uint32_t num_shards, std::vector<uint32_t> dense);

  PlacementMap(const PlacementMap&) = delete;
  PlacementMap& operator=(const PlacementMap&) = delete;

  uint32_t shard_of(ObjectId object) const {
    if (object < dense_.size()) return dense_[static_cast<size_t>(object)];
    return static_cast<uint32_t>(Mix64(object) % num_shards_);
  }

  uint32_t num_shards() const { return num_shards_; }
  size_t dense_size() const { return dense_.size(); }

  /// Monotone snapshot id (0 for the initial placement); the Rebalancer
  /// bumps it on every ApplyPlacement so logs and traces can name epochs.
  uint64_t version() const { return version_; }

  /// A copy of this placement with `moves` applied ([object, new_shard]
  /// pairs; objects beyond the dense range grow the table to include them)
  /// and the version bumped. This is the only way placements change:
  /// the successor is a fresh immutable snapshot.
  std::shared_ptr<const PlacementMap> WithMoves(
      std::span<const std::pair<ObjectId, uint32_t>> moves) const;

  size_t MemoryUsage() const {
    return sizeof(*this) + dense_.capacity() * sizeof(uint32_t);
  }

 private:
  uint32_t num_shards_;
  uint64_t version_ = 0;
  std::vector<uint32_t> dense_;
};

}  // namespace fcp

#endif  // FCP_COMMON_PLACEMENT_H_
