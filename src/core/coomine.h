// CooMine (Section 5 of the paper): Seg-tree based FCP mining.
//
// For every completed segment: (1) SLCP finds the largest common CP between
// the new segment and each valid existing segment (the LCP table), then
// (2) an Apriori pass over the LCP table yields the FCPs the new segment
// completes. Expired segments discovered by the search are deleted lazily
// (the paper's LD strategy); a periodic sweep bounds memory.
//
// Only patterns of min_pattern_size (m) or more objects are reported, so
// SLCP is given the mined objects and m, and builds a row only for a
// segment sharing >= m of them; any other segment supports no reported
// pattern. A trigger with fewer than m mined objects skips both steps.
//
// The Apriori pass is the shared driver (core/apriori.h); CooMine supplies
// its support policy, counted Eclat-style: each probe object gets a bitset
// over the LCP rows (its tidset), a pattern's supporting rows are the AND of
// its parent's bitset with the last object's bitset (carried level to
// level), and a popcount prefilter rejects infrequent candidates before the
// rows are read. A candidate past the prefilter is tested by counting the
// distinct stream ranks of its set bits (each row carries its stream's
// rank within the trigger), stopping at theta unless the pattern is emitted;
// occurrences are materialized only for emitted patterns. All per-trigger
// state lives in a reusable MiningScratch, so steady-state AddSegment
// performs no heap allocations.
//
// When constructed as one shard of a sharded group (ShardSpec), the Apriori
// pass is restricted to the patterns the shard owns: SLCP returns a row only
// for a segment sharing >= 1 owned probe object, holding its common objects
// from the first owned one onward (an owned pattern's minimum is owned and
// its other objects are larger, so every supporter's row still holds the
// whole pattern and the owned patterns' supports are exact), the size-2 join
// only extends owned first objects, and subset pruning skips subsets whose
// minimum the shard cannot verify locally. A non-owned singleton's support
// may shrink, but never below that of an owned pattern containing it, so
// the downward-closure prune stays sound. With the default ShardSpec the
// filter is the identity.

#ifndef FCP_CORE_COOMINE_H_
#define FCP_CORE_COOMINE_H_

#include <cstdint>
#include <vector>

#include "common/params.h"
#include "core/apriori.h"
#include "core/miner.h"
#include "index/seg_tree.h"
#include "stream/segment.h"
#include "util/flat_map.h"

namespace fcp {

/// CooMine-specific knobs (the MiningParams thresholds are shared).
struct CooMineOptions {
  /// Run a full Seg-tree expiry sweep every MiningParams::maintenance_
  /// interval of event time (the paper triggers this sweep on memory
  /// pressure; an event-time cadence is deterministic and testable).
  bool periodic_sweep = true;
};

class CooMine : public FcpMiner {
 public:
  /// `shard` restricts mining to patterns whose minimum object the shard
  /// owns (see MakeMiner's sharded overload); the default owns everything.
  explicit CooMine(const MiningParams& params, CooMineOptions options = {},
                   const ShardSpec& shard = {});

  void AddSegment(const Segment& segment, std::vector<Fcp>* out) override;
  void AddSegmentIndexOnly(const Segment& segment) override;
  void SetPlacement(const PlacementMap* map) override {
    shard_.placement = map;
  }
  void AdvanceWatermark(Timestamp now) override {
    watermark_ = std::max(watermark_, now);
  }
  void ForceMaintenance(Timestamp now) override;
  void PrefetchSegment(const Segment& segment) const override;
  size_t MemoryUsage() const override;
  const MinerStats& stats() const override { return stats_; }
  MinerIntrospection Introspect() const override;
  std::string_view name() const override { return "CooMine"; }

  /// The underlying index (tests, benches, invariant checks).
  const SegTree& seg_tree() const { return tree_; }

 private:
  /// The Apriori support policy: tidsets over the LCP rows.
  class TidsetSupport;

  /// Reusable per-trigger buffers: every vector is cleared (capacity kept)
  /// at the start of a trigger, so a warm miner allocates nothing on the
  /// mining path.
  struct MiningScratch {
    LcpTable lcp;                       ///< SLCP output table
    std::vector<SegmentId> expired;     ///< lazily deleted segments
    std::vector<uint32_t> row_rank;     ///< per LCP row: its stream's rank
    FlatMap<StreamId, uint32_t> stream_rank;  ///< stream -> rank + 1
    std::vector<StreamId> rank_streams;  ///< rank -> stream
    std::vector<uint64_t> rank_epoch;  ///< per rank: last Streams() epoch
    uint64_t stream_epoch = 0;         ///< bumped by every Streams() call
    std::vector<StreamId> sort_scratch;  ///< RadixSortU32 buffer
    std::vector<uint64_t> object_bits;  ///< per-object row bitsets
    AprioriScratch<uint64_t> apriori;   ///< level store, tidsets as words
  };

  /// The periodic full sweep (when due) followed by the Seg-tree insert:
  /// the indexing step AddSegment and AddSegmentIndexOnly share.
  void IndexSegment(const Segment& segment, Timestamp now);

  MiningParams params_;
  CooMineOptions options_;
  ShardSpec shard_;
  SegTree tree_;
  MinerStats stats_;
  MiningScratch scratch_;
  Timestamp last_sweep_ = kMinTimestamp;
  Timestamp watermark_ = kMinTimestamp;
};

}  // namespace fcp

#endif  // FCP_CORE_COOMINE_H_
