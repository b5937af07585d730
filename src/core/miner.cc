#include "core/miner.h"

#include <algorithm>

#include "common/check.h"
#include "core/brute_force.h"
#include "core/coomine.h"
#include "core/posting_miner.h"

namespace fcp {

std::vector<ObjectId> DistinctObjectsCapped(const Segment& segment,
                                            uint32_t cap) {
  // The distinct set is cached at segment construction; this helper only
  // pays for the copy (and the cap truncation) callers asked for.
  const std::vector<ObjectId>& distinct = segment.distinct_objects();
  std::vector<ObjectId> objects(
      distinct.begin(),
      cap > 0 && distinct.size() > cap ? distinct.begin() + cap
                                       : distinct.end());
  return objects;
}

std::optional<Fcp> MakeFcpIfFrequent(const Pattern& pattern,
                                     std::vector<Occurrence> occurrences,
                                     uint32_t theta, SegmentId trigger) {
  std::vector<StreamId> streams;
  streams.reserve(occurrences.size());
  for (const Occurrence& occ : occurrences) streams.push_back(occ.stream);
  std::sort(streams.begin(), streams.end());
  streams.erase(std::unique(streams.begin(), streams.end()), streams.end());
  if (streams.size() < theta) return std::nullopt;

  Fcp fcp;
  fcp.objects = pattern;
  fcp.streams = std::move(streams);
  fcp.trigger = trigger;
  fcp.window_start = kMaxTimestamp;
  fcp.window_end = kMinTimestamp;
  for (const Occurrence& occ : occurrences) {
    fcp.window_start = std::min(fcp.window_start, occ.start);
    fcp.window_end = std::max(fcp.window_end, occ.end);
  }
  return fcp;
}

std::string_view MinerKindToString(MinerKind kind) {
  switch (kind) {
    case MinerKind::kCooMine:
      return "CooMine";
    case MinerKind::kDiMine:
      return "DIMine";
    case MinerKind::kMatrixMine:
      return "MatrixMine";
    case MinerKind::kBruteForce:
      return "BruteForce";
  }
  return "Unknown";
}

std::unique_ptr<FcpMiner> MakeMiner(MinerKind kind,
                                    const MiningParams& params) {
  return MakeMiner(kind, params, ShardSpec{});
}

std::unique_ptr<FcpMiner> MakeMiner(MinerKind kind, const MiningParams& params,
                                    const ShardSpec& shard) {
  FCP_CHECK(params.Validate().ok());
  FCP_CHECK(shard.count >= 1 && shard.index < shard.count);
  switch (kind) {
    case MinerKind::kCooMine:
      return std::make_unique<CooMine>(params, shard);
    case MinerKind::kDiMine:
      return std::make_unique<DiMine>(params, shard);
    case MinerKind::kMatrixMine:
      return std::make_unique<MatrixMine>(params, shard);
    case MinerKind::kBruteForce:
      return std::make_unique<BruteForceMiner>(params, shard);
  }
  return nullptr;
}

}  // namespace fcp
