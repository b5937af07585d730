// The posting-list miners: DIMine (Section 3.2 of the paper) over the
// DI-Index inverted index, and MatrixMine (Section 6.2), the baseline over
// the pairwise co-occurrence Matrix. Both run the shared Apriori driver
// (core/apriori.h) with supporter-id lists as supports; they differ only in
// where a candidate's supporters come from:
//
//  - DIMine intersects the parent pattern's supporters with the joined-in
//    object's posting list.
//  - MatrixMine reads the (first, last) pair cell: a size-2 candidate's
//    supporters are the cell itself, a larger one intersects the parent's
//    supporters with it (a segment holding the parent and that pair holds
//    every object).
//
// Supporters are carried level to level, so no support is recomputed. At
// min_pattern_size m >= 2 the per-object lists keep only supporters holding
// >= m of the trigger's mined objects, the same rule CooMine's SLCP applies
// to its rows, so all three miners test the same candidates.
// Zipf-skewed postings and hot pair cells make the size ratio of the two
// intersected lists large; galloping keeps the intersection near the small
// side. All per-trigger state lives in a reusable MiningScratch, so
// steady-state AddSegment allocates only for emitted FCPs and occasional
// posting-list growth.
//
// When constructed as one shard of a sharded group (ShardSpec), emission is
// restricted to patterns whose minimum object the shard owns; non-owned
// singletons remain join partners so owned supersets are still found. With
// the default ShardSpec the filter is the identity.

#ifndef FCP_CORE_POSTING_MINER_H_
#define FCP_CORE_POSTING_MINER_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/params.h"
#include "core/apriori.h"
#include "core/miner.h"
#include "index/di_index.h"
#include "index/matrix_index.h"
#include "stream/segment.h"
#include "util/flat_map.h"

namespace fcp {

/// How often, in event time, DIMine and MatrixMine run their full expiry
/// sweep: the paper's periodic maintenance, whose cost Fig. 5(c)-(e)
/// measure. CooMine has no cadence: it sweeps the Seg-tree's start-ordered
/// Tlist before every trigger.
inline constexpr DurationMs kMaintenanceInterval = Minutes(5);

/// `Index` is DiIndex (DIMine) or MatrixIndex (MatrixMine).
template <typename Index>
class PostingMiner final : public FcpMiner {
 public:
  /// `shard` restricts mining to patterns whose minimum object the shard
  /// owns (see MakeMiner's sharded overload); the default owns everything.
  explicit PostingMiner(const MiningParams& params,
                        const ShardSpec& shard = {});

  void AddSegment(const Segment& segment, std::vector<Fcp>* out) override;
  void AddSegmentIndexOnly(const Segment& segment) override;
  void SetPlacement(const PlacementMap* map) override {
    shard_.placement = map;
  }
  void AdvanceWatermark(Timestamp now) override {
    watermark_ = std::max(watermark_, now);
  }
  void PrefetchSegment(const Segment& segment) const override;
  size_t MemoryUsage() const override { return index_.MemoryUsage(); }
  const MinerStats& stats() const override { return stats_; }
  MinerIntrospection Introspect() const override;
  std::string_view name() const override {
    return kPairCells ? "MatrixMine" : "DIMine";
  }

  /// The underlying index (tests and benches).
  const Index& index() const { return index_; }

 private:
  static constexpr bool kPairCells = std::is_same_v<Index, MatrixIndex>;

  /// The Apriori support policy: supporter-id lists.
  class PostingSupport;

  /// Reusable per-trigger buffers; every container is cleared (capacity
  /// kept) at the start of a trigger.
  struct MiningScratch {
    std::vector<std::vector<SegmentId>> valid;  ///< per-object valid lists
    FlatMap<SegmentId, uint32_t> held;  ///< supporter -> mined objects held
    std::vector<SegmentId> pair_cell;  ///< MatrixMine: one (first, last) cell
    std::vector<StreamId> streams;     ///< a support's distinct streams
    AprioriScratch<SegmentId> apriori;  ///< level store, supporters as ids
  };

  /// Indexes `segment` (the paper's step (1) updates the index before
  /// verification), then runs the periodic full sweep when due: the indexing
  /// step AddSegment and AddSegmentIndexOnly share.
  void IndexSegment(const Segment& segment, Timestamp now);

  MiningParams params_;
  ShardSpec shard_;
  Index index_;
  MinerStats stats_;
  MiningScratch scratch_;
  Timestamp last_sweep_ = kMinTimestamp;
  Timestamp watermark_ = kMinTimestamp;
};

extern template class PostingMiner<DiIndex>;
extern template class PostingMiner<MatrixIndex>;

using DiMine = PostingMiner<DiIndex>;
using MatrixMine = PostingMiner<MatrixIndex>;

}  // namespace fcp

#endif  // FCP_CORE_POSTING_MINER_H_
