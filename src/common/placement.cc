#include "common/placement.h"

#include <utility>

#include "common/check.h"

namespace fcp {

PlacementMap::PlacementMap(uint32_t num_shards) : num_shards_(num_shards) {
  FCP_CHECK(num_shards >= 1);
}

PlacementMap::PlacementMap(uint32_t num_shards, std::vector<uint32_t> dense)
    : num_shards_(num_shards), dense_(std::move(dense)) {
  FCP_CHECK(num_shards >= 1);
  for (uint32_t shard : dense_) FCP_CHECK(shard < num_shards);
}

std::shared_ptr<const PlacementMap> PlacementMap::WithMoves(
    std::span<const std::pair<ObjectId, uint32_t>> moves) const {
  std::vector<uint32_t> dense = dense_;
  for (const auto& [object, shard] : moves) {
    FCP_CHECK(shard < num_shards_);
    if (object >= dense.size()) {
      // Grow to cover the moved object; the new slots keep their hash
      // assignment so only the moved object changes owner.
      const size_t old_size = dense.size();
      dense.resize(static_cast<size_t>(object) + 1);
      for (size_t o = old_size; o < dense.size(); ++o) {
        dense[o] = static_cast<uint32_t>(Mix64(o) % num_shards_);
      }
    }
    dense[static_cast<size_t>(object)] = shard;
  }
  auto next = std::make_shared<PlacementMap>(num_shards_, std::move(dense));
  next->version_ = version_ + 1;
  return next;
}

}  // namespace fcp
