// CooMine (Section 5 of the paper): Seg-tree based FCP mining.
//
// For every completed segment: (0) the Seg-tree's Tlist sweep removes every
// segment expired at the watermark, so the tree holds exactly the valid
// segments, (1) SLCP finds the largest common CP between the new segment and
// each of them (the LCP table), then (2) an Apriori pass over the LCP table
// yields the FCPs the new segment completes. The sweep replaces the paper's
// lazy deletion and memory-pressure sweep (DESIGN.md §2 item 9).
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
//
// New-object rule (serial only, DESIGN.md §2.1): when the stream's previous
// trigger G_p is still valid and no trigger since G_p was cut by
// max_segment_objects, every frequent pattern made only of objects G_p
// holds was already emitted by a trigger since G_p. When that is the
// cheaper search, such a trigger mines only the patterns holding a new
// object (SLCP walks the new objects' chains; the Apriori pass emits only
// those patterns) and re-certifies the old ones it finds in a tau-bounded
// log of the patterns it emitted. The output is unchanged; the candidates
// checked can only drop.

#ifndef FCP_CORE_COOMINE_H_
#define FCP_CORE_COOMINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/params.h"
#include "core/apriori.h"
#include "core/miner.h"
#include "index/seg_tree.h"
#include "stream/segment.h"
#include "util/flat_map.h"

namespace fcp {

class CooMine : public FcpMiner {
 public:
  /// `shard` restricts mining to patterns whose minimum object the shard
  /// owns (see MakeMiner's sharded overload); the default owns everything.
  explicit CooMine(const MiningParams& params, const ShardSpec& shard = {});

  void AddSegment(const Segment& segment, std::vector<Fcp>* out) override;
  void AddSegmentIndexOnly(const Segment& segment) override;
  void SetPlacement(const PlacementMap* map) override {
    shard_.placement = map;
  }
  void AdvanceWatermark(Timestamp now) override {
    watermark_ = std::max(watermark_, now);
  }
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
    std::vector<uint32_t> row_rank;     ///< per LCP row: its stream's rank
    FlatMap<StreamId, uint32_t> stream_rank;  ///< stream -> rank + 1
    std::vector<StreamId> rank_streams;  ///< rank -> stream
    std::vector<uint64_t> rank_epoch;  ///< per rank: last Streams() epoch
    uint64_t stream_epoch = 0;         ///< bumped by every Streams() call
    std::vector<StreamId> sort_scratch;  ///< RadixSortU32 buffer
    std::vector<uint64_t> object_bits;  ///< per-object row bitsets
    AprioriScratch<uint64_t> apriori;   ///< level store, tidsets as words
    // The new-object rule's buffers.
    std::vector<uint8_t> fresh;          ///< per mined object: 1 iff new
    std::vector<ObjectId> old_objects;   ///< the mined objects G_p holds
    std::vector<uint64_t> logged;        ///< log entries to re-certify
    LcpTable supporters;                 ///< one logged pattern's supporters
    std::vector<StreamId> streams;       ///< its distinct streams
    std::vector<Fcp> reemitted;          ///< the re-certified FCPs
  };

  /// The tau-bounded log of the patterns this serial miner emitted, in
  /// emission order. Entry ids count every entry ever appended; the live
  /// ones are [first_id(), next_id()). Each entry carries its pattern's
  /// signature (one bit per object, as Tail::signature), so a scan rejects
  /// most entries without reading the pattern. Both arrays are queues
  /// compacted in place, so a warm log allocates nothing.
  class EmissionLog {
   public:
    uint64_t first_id() const { return base_ + head_; }
    uint64_t next_id() const { return base_ + entries_.size(); }
    /// Appends `pattern` (sorted, non-empty), emitted at watermark `at`.
    void Append(std::span<const ObjectId> pattern, Timestamp at);
    /// Drops the entries emitted before watermark `at`.
    void DropBefore(Timestamp at);
    uint64_t Signature(uint64_t id) const {
      return entries_[id - base_].signature;
    }
    std::span<const ObjectId> Pattern(uint64_t id) const;

   private:
    struct Entry {
      Timestamp at;
      uint64_t signature;
      uint64_t begin;  ///< offset of the pattern, counted like the ids
      uint32_t size;
    };

    std::vector<Entry> entries_;  ///< live from index head_
    size_t head_ = 0;
    uint64_t base_ = 0;  ///< id of entries_[0]
    std::vector<ObjectId> objects_;
    uint64_t objects_base_ = 0;  ///< offset of objects_[0]
  };

  /// Prices the new-object walk for SlcpInto (the log scan and the
  /// re-certification walks it entails), collecting the trigger's old
  /// patterns on the way.
  class RecertifyPrice;

  /// What the new-object rule keeps of a stream's last trigger. Its
  /// objects are copied here, not looked up in the Seg-tree: a stream's
  /// record stays cache-hot, the segment's tree entry does not.
  struct StreamTrigger {
    uint64_t number = 0;  ///< its trigger number (triggers_ then)
    Timestamp start = 0;
    uint64_t log_begin = 0;  ///< the log id of its first FCP
    std::vector<ObjectId> objects;  ///< its sorted distinct objects
  };

  /// The Tlist sweep at watermark `now` (see SegTree::RemoveExpired), after
  /// which the tree holds exactly the segments valid at `now`: AddSegment's
  /// first step, and AddSegmentIndexOnly's before it inserts. Counts the
  /// expired segments, and the sweep in maintenance_runs if it removed any;
  /// the callers time it.
  void Sweep(Timestamp now);

  /// The new-object rule's premise for `segment` at watermark `now`: its
  /// stream's previous trigger G_p is valid (and so still indexed), and no
  /// trigger since G_p was cut by the cap. If it holds, flags in
  /// scratch_.fresh the mined objects G_p does not hold and returns G_p's
  /// record; otherwise returns null.
  const StreamTrigger* MarkFreshObjects(const Segment& segment,
                                        std::span<const ObjectId> mined,
                                        Timestamp now);

  /// Fills scratch_.logged with the trigger's old patterns, each once in
  /// EmitOrderLess order: the patterns logged from id `log_begin` on that
  /// only old objects (scratch_.fresh) of `mined` hold. Returns the Hlist
  /// slots re-certifying them walks, or `slack` once it is reached.
  uint64_t CollectLogged(std::span<const ObjectId> mined, uint64_t log_begin,
                         uint64_t slack);

  /// Appends the patterns of scratch_.logged still frequent among the
  /// swept tree's segments to `out`, merged into the trigger's FCPs (those
  /// from index `out_begin` on) in EmitOrderLess order.
  void ReemitLogged(const Segment& segment, bool trigger_valid,
                    size_t out_begin, std::vector<Fcp>* out);

  /// Logs the trigger's FCPs (from index `out_begin` of `out`) and records
  /// the trigger as its stream's last.
  void RecordTrigger(const Segment& segment, std::span<const ObjectId> mined,
                     Timestamp now, size_t out_begin,
                     const std::vector<Fcp>& out);

  MiningParams params_;
  ShardSpec shard_;
  SegTree tree_;
  MinerStats stats_;
  MiningScratch scratch_;
  Timestamp watermark_ = kMinTimestamp;
  // The new-object rule's state (serial only).
  EmissionLog log_;
  FlatMap<StreamId, StreamTrigger> last_trigger_;
  uint64_t triggers_ = 0;  ///< segments received, mined or backfilled
  /// Number of the last trigger cut by the cap or backfilled unmined
  /// (0: none): the rule needs none since G_p.
  uint64_t last_cut_ = 0;
};

}  // namespace fcp

#endif  // FCP_CORE_COOMINE_H_
