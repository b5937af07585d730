// Reference miner: a direct, unoptimized implementation of Definition 3 used
// as a correctness oracle. It stores segments verbatim and enumerates every
// subset of the trigger segment's objects — exponential, suitable only for
// tests and small examples.

#ifndef FCP_CORE_BRUTE_FORCE_H_
#define FCP_CORE_BRUTE_FORCE_H_

#include <deque>
#include <vector>

#include "common/params.h"
#include "core/miner.h"
#include "stream/segment.h"

namespace fcp {

class BruteForceMiner : public FcpMiner {
 public:
  /// `shard` restricts emission to patterns whose minimum object the shard
  /// owns, so the oracle can also check sharded runs shard-by-shard.
  explicit BruteForceMiner(const MiningParams& params,
                           const ShardSpec& shard = {});

  /// Aborts if the segment has more than 20 distinct objects after the
  /// max_segment_objects cap (2^20 subsets is the oracle's practical limit).
  void AddSegment(const Segment& segment, std::vector<Fcp>* out) override;
  void AddSegmentIndexOnly(const Segment& segment) override;
  void SetPlacement(const PlacementMap* map) override {
    shard_.placement = map;
  }
  void AdvanceWatermark(Timestamp now) override {
    watermark_ = now > watermark_ ? now : watermark_;
  }
  size_t MemoryUsage() const override;
  const MinerStats& stats() const override { return stats_; }
  std::string_view name() const override { return "BruteForce"; }

 private:
  struct Stored {
    StreamId stream;
    Timestamp start;
    Timestamp end;
    std::vector<ObjectId> objects;  // sorted distinct
  };

  MiningParams params_;
  ShardSpec shard_;
  std::deque<Stored> segments_;
  MinerStats stats_;
  Timestamp watermark_ = kMinTimestamp;
};

}  // namespace fcp

#endif  // FCP_CORE_BRUTE_FORCE_H_
