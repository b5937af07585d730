// The FcpMiner interface implemented by CooMine, DIMine, MatrixMine and the
// brute-force reference miner.

#ifndef FCP_CORE_MINER_H_
#define FCP_CORE_MINER_H_

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/params.h"
#include "common/shard.h"
#include "common/types.h"
#include "core/fcp.h"
#include "stream/segment.h"
#include "stream/segment_ref.h"

namespace fcp {

/// Uniform counters across miners. Times are split the way the paper's
/// evaluation splits them: `maintenance_ns` covers index insertion and
/// expiry; `mining_ns` covers candidate search and FCP verification
/// (Figs. 5(c)-(e) vs 6(a)-(b); their sum is the "total cost" of 6(c)-(d)).
/// `slcp_ns` is the part of `mining_ns` CooMine spends building the LCP
/// table (Algorithm 2); the rest is the Apriori pass. Every miner times its
/// AddSegment into `mining_ns` + `maintenance_ns`: MineTimed() takes the
/// call's latency from their delta instead of reading the clock again.
struct MinerStats {
  uint64_t segments_processed = 0;
  uint64_t segments_indexed_only = 0;  ///< backfill deliveries (indexed, not
                                       ///< mined) from shard migrations
  uint64_t fcps_emitted = 0;
  uint64_t candidates_checked = 0;
  uint64_t candidates_pruned = 0;  ///< candidates rejected before emission
  uint64_t candidates_bound_passed = 0;  ///< candidates past the policy's
                                         ///< cheap bound (popcount / list
                                         ///< length) that reached the exact
                                         ///< distinct-stream test
  uint64_t slcp_probes = 0;        ///< per-object pattern probes (SLCP rows
                                   ///< for CooMine, posting/matrix probes
                                   ///< for DIMine/MatrixMine)
  uint64_t lcp_rows = 0;           ///< CooMine: LCP-table rows built
  uint64_t lcp_rows_dropped = 0;   ///< CooMine: segments SLCP reached
                                   ///< whose row would hold fewer than
                                   ///< min_pattern_size mined probe objects
                                   ///< (on a shard: from the first owned
                                   ///< one), so get no row. A segment whose
                                   ///< row holds only the object of a
                                   ///< skipped chain is not reached (see
                                   ///< SegTree::SlcpInto). 0 at
                                   ///< min_pattern_size 1 and for
                                   ///< DIMine/MatrixMine
  uint64_t slcp_nodes_visited = 0; ///< CooMine: Seg-tree nodes (slots)
                                   ///< stepped by SLCP's DistanceBound
                                   ///< searches, re-certification walks
                                   ///< included (0 for DIMine/MatrixMine)
  uint64_t slcp_runs_visited = 0;  ///< CooMine: Seg-tree runs those
                                   ///< searches entered (0 for
                                   ///< DIMine/MatrixMine)
  uint64_t slcp_chains_skipped = 0;  ///< CooMine: SLCP searches that
                                     ///< skipped the probe's dominant Hlist
                                     ///< chain (0 for DIMine/MatrixMine)
  uint64_t new_object_triggers = 0;  ///< serial CooMine: triggers that mined
                                     ///< only patterns holding an object new
                                     ///< since the stream's previous trigger
                                     ///< (DESIGN.md §2.1; 0 otherwise)
  uint64_t reemissions = 0;  ///< serial CooMine: FCPs of those triggers
                             ///< re-certified from the emission log (part
                             ///< of fcps_emitted)
  uint64_t log_patterns_certified = 0;  ///< serial CooMine: logged patterns
                                        ///< those triggers re-certified
  uint64_t maintenance_runs = 0;   ///< expiry sweeps: DIMine/MatrixMine
                                   ///< count every periodic or forced full
                                   ///< sweep; CooMine sweeps before every
                                   ///< trigger and counts the sweeps that
                                   ///< removed at least one segment
  uint64_t segments_expired = 0;
  int64_t mining_ns = 0;
  int64_t slcp_ns = 0;  ///< CooMine: SLCP share of mining_ns (0 for
                        ///< DIMine/MatrixMine)
  int64_t maintenance_ns = 0;

  /// Adds every counter of `other` (summing per-shard stats). A template
  /// only so that a non-template operator+= a caller declares for
  /// MinerStats wins overload resolution instead of being ambiguous.
  template <std::same_as<MinerStats> Stats>
  MinerStats& operator+=(const Stats& other) {
    segments_processed += other.segments_processed;
    segments_indexed_only += other.segments_indexed_only;
    fcps_emitted += other.fcps_emitted;
    candidates_checked += other.candidates_checked;
    candidates_pruned += other.candidates_pruned;
    candidates_bound_passed += other.candidates_bound_passed;
    slcp_probes += other.slcp_probes;
    lcp_rows += other.lcp_rows;
    lcp_rows_dropped += other.lcp_rows_dropped;
    slcp_nodes_visited += other.slcp_nodes_visited;
    slcp_runs_visited += other.slcp_runs_visited;
    slcp_chains_skipped += other.slcp_chains_skipped;
    new_object_triggers += other.new_object_triggers;
    reemissions += other.reemissions;
    log_patterns_certified += other.log_patterns_certified;
    maintenance_runs += other.maintenance_runs;
    segments_expired += other.segments_expired;
    mining_ns += other.mining_ns;
    slcp_ns += other.slcp_ns;
    maintenance_ns += other.maintenance_ns;
    return *this;
  }
};

/// Point-in-time view of a miner's index structures, for telemetry — the
/// quantities the paper plots per structure (Seg-tree node counts and
/// compression ratio, DI-Index/Matrix posting sizes).
struct MinerIntrospection {
  uint64_t live_segments = 0;   ///< segments currently indexed (not expired)
  uint64_t index_nodes = 0;     ///< Seg-tree nodes / postings / matrix cells
  uint64_t index_entries = 0;   ///< total indexed (object, segment) entries
  uint64_t index_bytes = 0;     ///< analytic footprint (== MemoryUsage())
  uint64_t arena_bytes = 0;     ///< CooMine: bytes held by the node arena
  double compression_ratio = 0; ///< CooMine: (d1-d2)/d1, the share of
                                ///< indexed entries saved by prefix sharing
                                ///< (d1 entries, d2 Seg-tree nodes)
};

/// One supporting appearance of a pattern: stream + the (segment-granularity)
/// time interval of the occurrence.
struct Occurrence {
  StreamId stream = 0;
  Timestamp start = 0;
  Timestamp end = 0;
};

/// The distinct objects of `segment` (sorted), truncated to the first `cap`
/// objects when cap > 0 (MiningParams::max_segment_objects). The brute-force
/// oracle uses this helper; the Apriori miners mine the same prefix through
/// MinedObjects.
std::vector<ObjectId> DistinctObjectsCapped(const Segment& segment,
                                            uint32_t cap);

/// The objects the Apriori miners mine for a trigger: a view of the first
/// `cap` (all when cap is 0) of the segment's cached sorted distinct
/// objects. Every pattern they report is a subset of it, so a trigger whose
/// view is shorter than min_pattern_size reports nothing.
inline std::span<const ObjectId> MinedObjects(const Segment& segment,
                                              uint32_t cap) {
  const std::vector<ObjectId>& distinct = segment.distinct_objects();
  return {distinct.data(),
          cap > 0 && distinct.size() > cap ? cap : distinct.size()};
}

/// If `occurrences` (all within the tau window of the trigger — callers
/// filter by segment validity first) span >= theta distinct streams, builds
/// the Fcp; otherwise returns nullopt. `occurrences` is consumed.
std::optional<Fcp> MakeFcpIfFrequent(const Pattern& pattern,
                                     std::vector<Occurrence> occurrences,
                                     uint32_t theta, SegmentId trigger);

/// Online FCP miner over completed segments. Implementations are
/// single-threaded; one miner instance is driven by one pipeline.
class FcpMiner {
 public:
  virtual ~FcpMiner() = default;

  /// Processes one completed segment: mines the FCPs this segment completes
  /// (appended to `out` in EmitOrderLess order, each with min_pattern_size
  /// <= size <= max_pattern_size and >= theta streams), then indexes the
  /// segment.
  ///
  /// Segments arrive in completion order, which across streams is not
  /// necessarily end-time order; validity (the tau window) is anchored at
  /// the stream-time watermark — the maximum end time seen so far — so all
  /// miners make identical expiry decisions regardless of interleaving.
  virtual void AddSegment(const Segment& segment, std::vector<Fcp>* out) = 0;

  /// Indexes `segment` WITHOUT mining it. This is the migration backfill
  /// path: when an object moves to this shard, the router replays the live
  /// segments containing it that this shard never received, so the index
  /// holds every valid supporter before the first trigger mined under the
  /// new placement arrives. The segment must be indexed exactly as
  /// AddSegment would index it (same expiry anchor, same structure state);
  /// only the mining phase is skipped. Bumps segments_indexed_only, not
  /// segments_processed.
  virtual void AddSegmentIndexOnly(const Segment& segment) = 0;

  /// Swaps the ownership placement this miner filters patterns by. `map`
  /// may be null (revert to the hash). The caller owns the snapshot's
  /// lifetime and must call this only between AddSegment calls — the
  /// ShardRouter ships the route-time snapshot with every delivery and the
  /// shard loop applies it before mining, so each trigger is mined under
  /// exactly one placement.
  virtual void SetPlacement(const PlacementMap* map) = 0;

  /// Advances the miner's stream-time watermark to at least `now` without
  /// processing a segment. A sharded miner sees only a subset of the global
  /// segment stream, so its own max-end-time anchor would lag the pipeline's
  /// and expire supporters later than a serial run; the ShardRouter ships
  /// the global watermark with every delivery and the shard calls this
  /// before AddSegment to keep expiry decisions byte-identical to serial.
  virtual void AdvanceWatermark(Timestamp now) = 0;

  /// Advisory hint that `segment` will be passed to AddSegment soon: warms
  /// the index cache lines its objects will probe (Hlist heads, posting-list
  /// slots). MUST have no observable effect — batched ingestion calls it for
  /// segment k+1 while segment k is being mined, and outputs must stay
  /// byte-identical whether or not the hint fires. Default: no-op.
  virtual void PrefetchSegment(const Segment& segment) const {
    (void)segment;
  }

  /// Analytic memory footprint of the miner's index structures, in bytes.
  virtual size_t MemoryUsage() const = 0;

  virtual const MinerStats& stats() const = 0;

  /// Index-structure introspection for telemetry. The default covers the
  /// structure-agnostic fields; miners with richer indexes override.
  virtual MinerIntrospection Introspect() const {
    MinerIntrospection view;
    view.index_bytes = MemoryUsage();
    return view;
  }

  /// "CooMine", "DIMine", "MatrixMine", "BruteForce".
  virtual std::string_view name() const = 0;

  /// SegmentRef conveniences for the refcounted pipeline: engines hold
  /// shared slabs and deref at the miner boundary. Non-virtual on purpose —
  /// implementations only ever see `const Segment&`. (These are hidden when
  /// calling through a derived type; pipelines call via FcpMiner&.)
  void AddSegment(const SegmentRef& segment, std::vector<Fcp>* out) {
    AddSegment(*segment, out);
  }
  void AddSegmentIndexOnly(const SegmentRef& segment) {
    AddSegmentIndexOnly(*segment);
  }
  void PrefetchSegment(const SegmentRef& segment) const {
    PrefetchSegment(*segment);
  }
};

/// Which algorithm to instantiate.
enum class MinerKind { kCooMine, kDiMine, kMatrixMine, kBruteForce };

std::string_view MinerKindToString(MinerKind kind);

/// Creates a miner. `params` must validate OK (checked).
std::unique_ptr<FcpMiner> MakeMiner(MinerKind kind, const MiningParams& params);

/// Creates one miner *shard*: a replica that mines only the patterns whose
/// minimum object it owns (`shard.Owns(min_obj(P))`). Feed it every segment
/// containing >= 1 owned object (the ShardRouter's multicast rule) and the
/// union of the shard outputs over shard.index in [0, shard.count) equals
/// the serial miner's output exactly. The default ShardSpec (0 of 1) yields
/// a serial miner.
std::unique_ptr<FcpMiner> MakeMiner(MinerKind kind, const MiningParams& params,
                                    const ShardSpec& shard);

}  // namespace fcp

#endif  // FCP_CORE_MINER_H_
