// The Seg-tree (Section 4 of the paper): a trie-like in-memory index over the
// valid segments of all streams, with two auxiliary structures:
//
//  - Hlist: for every object, a doubly linked chain through all tree slots
//    carrying that object (paper Fig. 2 left edge), and its length. Prefix
//    search and SLCP start from Hlist, which is why segments may share
//    prefixes *anywhere* in the tree, not only at the root.
//  - Tlist: tail references in a binary min-heap on segment start, used to
//    find obsolete segments quickly (Section 4.5): a sweep pops exactly the
//    expired ones, whatever order the segments completed in.
//
// Layout (DESIGN.md §2.1): the paper's tree is stored path-compressed. A
// *run* is a path in which every slot but the last has exactly one child;
// one slot is one node of the paper's tree. A run keeps its slots' fields
// in two parallel arrays (what a search reads: distance, next Hlist link,
// first tail key; the rest: object, count, previous Hlist link), the hot
// fields of its tails (slot, length, start, SLCP stamp) in one array in
// slot order, and child runs only under its last slot. The tails' cold
// fields live in a table of their own. Hlist entries and tails name slots
// as (run, slot) pairs. DistanceBound therefore scans one contiguous array
// per unary path instead of chasing one node per object. Insert appends in
// place when the matched prefix ends at a childless run end (the
// sliding-window case) and splits a run where a new path diverges mid-run;
// removal trims dead front slots, pops dead last slots and splits at a dead
// middle slot. The paper-level tree is the same as with one struct per
// node: same slots, same parent/child relation and same newest-first Hlist
// order, so node counts, compression and DistanceBound's slot visits do
// not depend on the layout.
//
// Differences from the paper, all documented in DESIGN.md §2:
//  - `distance` is maintained as an upper bound after deletions (the paper
//    never recomputes it either); DistanceBound only uses it for pruning.
//  - Hlist chains are doubly linked for O(1) unlink on deletion.
//  - Disconnected subtrees produced by deletion are re-attached under the
//    root instead of being re-inserted into a slot carrying their object.
//  - Objects that share a timestamp are laid along the path rare-first (the
//    paper leaves the order of simultaneous objects open): each run of
//    equal-time entries is ordered by ascending tie count, the number of
//    live tied segments in this tree that contain the object, then by
//    object id. Popular objects thus sit near the tail, where the
//    DistanceBound subtrees below them are small. Untied entries keep time
//    order, and a segment without ties is inserted as given.
//  - SLCP with a pattern-size floor of 2 or more does not search a probe
//    object's chain when it holds more slots than all the other probe
//    objects' chains together; the walk of the others tests each segment
//    it reaches for that object instead (SlcpInto, DESIGN.md §2.1).
//  - SLCP can walk only the chains of the probe objects new since the
//    stream's previous trigger, testing each segment it reaches for the
//    others the same way (SlcpInto's `fresh`, DESIGN.md §2.1).
//  - Expiry is one exact sweep, not lazy deletion (DESIGN.md §2 item 9): the
//    caller sweeps the start-ordered Tlist at its watermark before every
//    search, so the tree holds exactly the valid segments and the searches
//    test no validity.
//
// Hot-path memory layout (DESIGN.md §2 "Hot-path memory layout"): runs live
// in a slab ObjectPool; their slot, tail key and child arrays live in
// size-class ChunkArenas and are recycled through per-capacity free lists;
// the tail table reuses freed entries; the id maps are open-addressing
// FlatMaps and the Tlist is a heap in a vector that keeps its capacity.
// Steady-state insert/remove churn therefore performs no heap allocations
// once the structures are warm.

#ifndef FCP_INDEX_SEG_TREE_H_
#define FCP_INDEX_SEG_TREE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/shard.h"
#include "common/types.h"
#include "stream/segment.h"
#include "util/arena.h"
#include "util/flat_map.h"

namespace fcp {

/// The bit of `object` in a 64-bit object-set signature (Tail::signature):
/// the top six bits of a multiplicative (Fibonacci) hash. A clear bit proves
/// the object absent from the set.
inline uint64_t ObjectBit(ObjectId object) {
  return uint64_t{1} << ((object * 0x9e3779b97f4a7c15ULL) >> 58);
}

/// What taking SlcpInto's new-object walk costs its caller besides the
/// walk itself, in Hlist slots (serial CooMine: re-certifying the patterns
/// it logged, DESIGN.md §2.1).
class FreshWalkPrice {
 public:
  /// Called only when the fresh chains hold fewer slots than the full walk
  /// would search; `slack` is the difference. A result >= slack keeps the
  /// full walk, so the count may stop there.
  virtual uint64_t ExtraSlots(uint64_t slack) = 0;

 protected:
  ~FreshWalkPrice() = default;
};

/// Tuning knobs of the Seg-tree.
struct SegTreeOptions {
  /// If true, DistanceBound uses the per-slot `distance` upper bound to
  /// prune its downward search (the paper's optimization). Disabling it
  /// explores every descendant — used by the ablation bench and by tests.
  bool use_distance_bound = true;
};

/// Counters describing Seg-tree activity (inspected by tests and benches).
struct SegTreeStats {
  uint64_t segments_inserted = 0;
  uint64_t segments_removed = 0;
  uint64_t nodes_created = 0;  ///< slots (paper-level nodes) created
  uint64_t nodes_deleted = 0;
  uint64_t runs_recycled = 0;  ///< run acquisitions served by the free list
  uint64_t prefix_nodes_shared = 0;  ///< slots reused via prefix match
  /// Inserts whose new slots extended a childless run end in place.
  uint64_t appends_in_place = 0;
  /// Runs cut in two: on insert where a new path diverges mid-run, on
  /// removal where dead middle slots part the run.
  uint64_t runs_split = 0;
  /// Removal cuts that dropped a run's dead front slots, re-rooting the
  /// rest.
  uint64_t front_trims = 0;
  uint64_t subtrees_reattached = 0;  ///< pieces re-rooted by removal
  uint64_t distance_bound_visits = 0;  ///< slots stepped in DistanceBound
  uint64_t runs_visited = 0;           ///< runs entered in DistanceBound
  /// SLCP calls that skipped their dominant Hlist chain (see SlcpInto).
  uint64_t slcp_chains_skipped = 0;
};

/// One row of an SLCP result: an existing segment and the set of objects it
/// shares with the probe segment (its largest common CP with the probe).
/// This is the owning, allocation-per-row convenience shape; the mining hot
/// path uses LcpTable instead.
struct LcpRow {
  SegmentId segment = kInvalidSegmentId;
  StreamId stream = 0;
  Timestamp start = 0;
  Timestamp end = 0;
  std::vector<ObjectId> common;  ///< sorted distinct objects
};

/// Flat, reusable SLCP result: one Row per relevant segment, with each row's
/// common set stored as a [begin, end) slice of one shared pool. The pool
/// holds *positions* into the probe objects SlcpInto was given (the miner's
/// sorted, capped mined objects), not object ids: the miner indexes its
/// per-object tidsets by the same positions, so it sets a row's bits without
/// merging the row against the probe again. Positions ascend within a row,
/// in the same order as the ids they stand for, because the probe's objects
/// are sorted. A serial row holds the whole common set; a shard's row holds
/// the common set from its first owned object onward (SlcpInto's `shard`).
/// Every row holds at least the `min_common` objects SlcpInto was asked
/// for; `rows_dropped` counts the segments SLCP reached whose row would
/// hold fewer. Rows come in the order SLCP first reached each segment,
/// not in segment-id order: the table is read as a set (supporting streams
/// are counted distinct and sorted, windows are a min/max), so grouping needs
/// no sort. Clearing keeps the capacity, so a table reused across triggers
/// stops allocating once warm — the zero-allocation counterpart of
/// std::vector<LcpRow>.
struct LcpTable {
  struct Row {
    SegmentId segment = kInvalidSegmentId;
    StreamId stream = 0;
    Timestamp start = 0;
    Timestamp end = 0;
    uint32_t common_begin = 0;  ///< index into common_pool
    uint32_t common_end = 0;    ///< one past the row's last common position
  };

  std::vector<Row> rows;
  std::vector<uint32_t> common_pool;  ///< ascending probe positions per row
  uint64_t rows_dropped = 0;  ///< segments reached, rows < min_common long

  void Clear() {
    rows.clear();
    common_pool.clear();
    rows_dropped = 0;
  }
  size_t CommonSize(const Row& row) const {
    return row.common_end - row.common_begin;
  }
  const uint32_t* CommonBegin(const Row& row) const {
    return common_pool.data() + row.common_begin;
  }
  const uint32_t* CommonEnd(const Row& row) const {
    return common_pool.data() + row.common_end;
  }
};

/// The Seg-tree index. Single-threaded; owned by a CooMine instance (or used
/// directly by tests/benches).
class SegTree {
 public:
  /// Insertion examines at most this many Hlist chain slots when searching
  /// the longest matching prefix; the paper's algorithm scans the whole
  /// chain (DESIGN.md §1 item 8). Popular objects can have very long chains;
  /// prefix sharing is purely a compression optimization, so bounding the
  /// scan trades a little compression for O(1) insertion on skewed data.
  static constexpr uint32_t kMaxPrefixProbes = 64;

  explicit SegTree(SegTreeOptions options = {});
  ~SegTree();

  SegTree(const SegTree&) = delete;
  SegTree& operator=(const SegTree&) = delete;

  /// Inserts a completed segment (paper Section 4.4): finds its longest
  /// matching prefix via Hlist, shares it, appends the remainder, updates
  /// (distance, count) along the prefix, pushes the tail onto the Tlist heap
  /// and the new slots onto their Hlist chains. Runs of entries sharing a
  /// timestamp are laid down rare-first (see the header comment).
  void Insert(const Segment& segment);

  /// Removes one segment (paper Section 4.5): backtracks length-1 steps from
  /// the tail, decrements counts, deletes count==0 slots and re-attaches any
  /// disconnected subtrees under the root. No-op if the segment is not
  /// present. Its Tlist entry stays until it expires, so a removed id must
  /// not be inserted again.
  void Remove(SegmentId id);

  /// Removes every segment whose validity window has passed
  /// (`now - start > tau`): pops the Tlist heap while its oldest start has
  /// expired, skipping the entries of segments already Remove()d. Returns
  /// the number of segments removed. O(#expired log #live): it reads no
  /// live entry but the heap's top.
  size_t RemoveExpired(Timestamp now, DurationMs tau);

  /// The smallest start on the Tlist (kMaxTimestamp if empty): after
  /// RemoveExpired(now, tau), at least now - tau.
  Timestamp oldest_start() const {
    return tlist_.empty() ? kMaxTimestamp : tlist_.front().start;
  }

  /// SLCP (paper Algorithm 2) into a caller-owned reusable table: for every
  /// object of `probe_objects` (sorted, distinct: the prefix of the probe's
  /// `distinct_objects()` the miner mines), finds all segments containing
  /// it via DistanceBound (Algorithm 3), and emits one row per relevant
  /// segment with the common object set. Rows come in discovery order, each
  /// segment once, and name their common objects by ascending position in
  /// `probe_objects` (see LcpTable). Neither rows nor hits are sorted: each
  /// call bumps a 64-bit probe epoch, and a tail entry stamped with it has
  /// already been reached.
  ///
  /// Every segment in the tree counts: the caller sweeps it first
  /// (RemoveExpired at the probe's watermark), so it holds exactly the
  /// valid segments. The probe itself must not be in the tree yet (mine
  /// first, insert after). `out` is cleared first; with a warm table the
  /// call performs no allocations.
  ///
  /// `min_common` (the miner's min_pattern_size, m) drops every segment
  /// whose common set holds fewer than m probe objects: such a segment
  /// contains no pattern of size >= m, so it supports nothing the miner
  /// reports. With m >= 2 the search builds no row for a segment's first
  /// hit, only parks its position on the tail entry; the second distinct
  /// position opens the row. Most segments share a single object with the
  /// probe, so most tails never get a row.
  ///
  /// `shard` restricts the result to what a pattern OWNED by the shard
  /// (min-object ownership, see common/shard.h) can draw support from. An
  /// owned pattern's minimum object is owned and its other objects are
  /// larger, so within a supporter's common set it lies at or after the
  /// first owned object. A shard's row for segment G is therefore
  /// {x in probe ∩ G : x >= o}, o the smallest owned object of probe ∩ G;
  /// a segment sharing no owned object gets no row. Only the probe suffix
  /// from the first owned position is searched (serially: all of it), and
  /// only a hit at an owned position reaches a tail first.
  ///
  /// Dominant-chain skip (DESIGN.md §2.1): with m >= 2, if one searched
  /// position h has an Hlist chain of more slots than all the other
  /// searched chains together, h's chain is not searched. A row of >= 2
  /// objects always holds one besides probe[h], so the walk of the other
  /// chains still reaches its tail; probe[h] is then looked up in the
  /// segment's objects (Tail::signature, then a binary search) and, if
  /// there and in the row, placed at its position. On a shard an owned h
  /// may be a row's first owned object, so a hit past h at a position the
  /// shard does not own also reaches a tail first when the tail holds
  /// probe[h]. stats().slcp_chains_skipped counts the skips;
  /// chain_length() gives the lengths the rule reads.
  ///
  /// `out->rows_dropped` counts the segments whose row holds an object
  /// other than the skipped probe[h] but fewer than m objects: the tails
  /// the search reached and built no row for.
  ///
  /// New-object walk (DESIGN.md §2.1): `fresh`, if not empty, flags the
  /// probe positions new to the trigger (one byte per position, 1 = new).
  /// On the serial shard, when the fresh positions' chains hold fewer slots
  /// than the walk above would search, and `price` (if given) prices the
  /// difference above its extra cost, only the fresh chains are walked,
  /// with no chain skipped, and each tail reached is tested for the other
  /// probe objects (Tail::signature, then a binary search). The table then
  /// holds exactly the rows of the full walk that hold a fresh position,
  /// with the same common positions; `rows_dropped` counts the reached
  /// tails whose row is short. When the fresh chains hold no slot and the
  /// price is 0 (asked with slack 1), the walk is empty and the other
  /// chains are not looked up. Returns true iff this walk ran.
  bool SlcpInto(std::span<const ObjectId> probe_objects, LcpTable* out,
                const ShardSpec& shard = {}, uint32_t min_common = 1,
                std::span<const uint8_t> fresh = {},
                FreshWalkPrice* price = nullptr) const;

  /// The segments holding every object of `objects` (sorted, distinct,
  /// non-empty), one row each, in `out->rows` (with empty common slices):
  /// walks the shortest of the objects' Hlist chains and tests each segment
  /// it reaches for the others, as the new-object walk does. Like SlcpInto,
  /// it counts every segment in the tree.
  void SupportersInto(std::span<const ObjectId> objects, LcpTable* out) const;

  /// Convenience SLCP shape for tests/benches: SlcpInto over all of the
  /// probe's distinct objects with min_common 1, one owning LcpRow per
  /// relevant segment, with the common positions mapped back to object ids.
  std::vector<LcpRow> Slcp(const Segment& probe) const;

  /// All segments containing `object` (DistanceBound over the object's
  /// Hlist chain), sorted. Exposed for tests and the ablation bench.
  std::vector<SegmentId> RelevantSegments(ObjectId object) const;

  /// Number of slots on `object`'s Hlist chain (0 if none): the length
  /// SlcpInto's dominant-chain skip compares.
  uint32_t chain_length(ObjectId object) const {
    const Chain* chain = hlist_.Find(object);
    return chain == nullptr ? 0 : chain->length;
  }

  /// Number of live segments.
  size_t num_segments() const { return tail_of_.size(); }

  /// True iff segment `id` is in the tree.
  bool Contains(SegmentId id) const { return tail_of_.Contains(id); }

  /// Number of tree nodes (slots, excluding the root).
  size_t num_nodes() const { return num_nodes_; }

  /// Number of runs (excluding the root) the nodes are stored in.
  size_t num_runs() const { return num_runs_; }

  /// Total objects (with multiplicity) across live segments; the compression
  /// ratio of Fig. 5(f) is (total_objects - num_nodes) / total_objects.
  uint64_t total_objects() const { return total_objects_; }

  /// Compression ratio (d1-d2)/d1 per Section 6.3, 0 if empty.
  double CompressionRatio() const;

  /// Memory footprint (bytes) of the tree + Hlist + Tlist + tails. Slab
  /// arena bytes are counted in full (free-listed and never-used slots
  /// included), so the figure never undercounts the true footprint.
  size_t MemoryUsage() const;

  /// Bytes held by the run pool and the chunk arenas (slabs + free-list
  /// bookkeeping). O(1): every part is a running total.
  size_t ArenaBytes() const;

  /// Bytes of the tail table and the Hlist/Tlist/tail/tie maps at capacity:
  /// MemoryUsage() is ArenaBytes() + TableBytes().
  size_t TableBytes() const;

  /// Number of objects with a nonzero tie count: the distinct objects of the
  /// live segments that had tied timestamps when inserted. 0 once every
  /// such segment is removed.
  size_t num_tie_counted_objects() const { return tie_counts_.size(); }

  const SegTreeStats& stats() const { return stats_; }

  /// Software-prefetches `object`'s Hlist head slot (advisory, no observable
  /// effect). Batched ingestion calls this for the next segment's objects
  /// while the current one is mined, hiding the Hlist probe's cache miss.
  void PrefetchObject(ObjectId object) const { hlist_.PrefetchSlot(object); }

  /// Validates every structural invariant (parent/child symmetry, Hlist
  /// chains, counts, distance upper bounds, tail reachability, and the run
  /// layout: runs are non-empty, child runs hang only under a run's last
  /// slot, tails lie in their run's live slots in slot order, and every
  /// Hlist and tail (run, slot) reference is exact). Aborts on violation;
  /// O(tree). Called by tests after every mutation batch.
  void CheckInvariants() const;

  /// Multi-line dump for debugging / the paper's Fig. 2 test.
  std::string DebugString() const;

 private:
  struct Run;

  // A paper-level tree node: slot number `slot` of `run`. A slot keeps its
  // number while it stays in its run; it lives at index slot - base of the
  // run's arrays (unsigned arithmetic, so the numbers may wrap). Packed to
  // 12 bytes: Hlist links and heads are the most numerous references.
  struct __attribute__((packed, aligned(4))) SlotRef {
    Run* run = nullptr;
    uint32_t slot = 0;
  };

  // A slot's fields, split by use into two parallel arrays of a run. A
  // search reads only SlotHot: the Hlist step to the next start, the
  // distance bound it scans and where the slot's tail keys begin.
  // Insertion and removal also read SlotCold.
  struct SlotHot {
    SlotRef next;       // next slot of the Hlist chain (run null: none)
    uint32_t distance;  // see Run::hot
    // Index of the run's first live tail key on this slot or a later one
    // (the key array's size if none).
    uint32_t key;
  };
  struct SlotCold {
    SlotRef prev;  // previous slot of the Hlist chain (run null: none)
    ObjectId object;
    uint32_t count;  // exact number of live segments through the slot
  };

  // An object's Hlist chain: its newest slot and its exact number of slots.
  struct Chain {
    SlotRef head;
    uint32_t length;
  };

  // The fields SLCP reads for every tail on a stepped slot: the tail's
  // place, the coverage test, the row's start and the grouping stamp. A run
  // keeps them in one array in slot order; the rest of the entry (Tail) is
  // read only when a tail gets a row, or on removal.
  struct TailKey {
    uint32_t index;   // the tail slot's index in the run's arrays
    uint32_t length;  // segment length in objects
    Timestamp start;
    // SlcpInto's grouping stamp: the current probe already reached the tail
    // iff probe_epoch equals the tree's probe_epoch_. Then probe_row is the
    // tail's row index, or — under kPendingRow, while a min_common >= 2
    // search has seen one hit and built no row — the position of that hit.
    // A stale stamp is simply older than every later epoch, so it needs no
    // reset.
    mutable uint64_t probe_epoch;
    mutable uint32_t probe_row;
    uint32_t tail;  // the entry's index in tails_
  };
  // Two keys per 64-byte line: SLCP streams through them.
  static_assert(sizeof(TailKey) == 32);

  // One segment recorded on its tail slot — the only place the Seg-tree
  // stores per-segment membership and metadata (paper Section 4.3), with
  // its TailKey. Entries live in one table (tails_) and do not move with
  // their keys.
  struct Tail {
    SegmentId segment;
    StreamId stream;
    Timestamp end;
    // Sorted distinct objects of the segment (object_arena_-backed). Read
    // by SLCP's skipped-object test (HoldsObject) and by RemoveSegmentPath
    // to take back tie counts. Released in RemoveSegmentPath.
    PooledVec<ObjectId> objects;
    // One bit per object of `objects` (ObjectBit): a clear bit proves an
    // object absent without reading the list.
    uint64_t signature;
    SlotRef slot;  // the tail slot, whose run holds the key
    // Set iff the segment had tied timestamps at insertion and so added its
    // distinct objects to tie_counts_ (RemoveSegmentPath takes them back).
    bool tie_counted;
  };

  // Tlist element: a segment (found via tail_of_) and its start, the heap
  // key.
  struct TlistEntry {
    SegmentId segment = kInvalidSegmentId;
    Timestamp start = 0;
  };
  // The Tlist heap's order: the oldest start on top.
  static bool StartsLater(const TlistEntry& a, const TlistEntry& b) {
    return a.start > b.start;
  }

  // The slots at indices [lo, hi] of one run on a path (prefix match,
  // removal).
  struct PathPiece {
    Run* run;
    uint32_t lo;
    uint32_t hi;
  };

  // CollectRelevantTails' depth-first worklist item: enter `run` at its
  // first slot.
  struct SearchItem {
    const Run* run;
    uint32_t budget;  // how many more levels we may descend, before the
                      // run's own bound
    uint32_t depth;   // edges from the search start
  };

  // TailKey::probe_row's flag for a parked first hit (see there).
  static constexpr uint32_t kPendingRow = uint32_t{1} << 31;

  // One (row, probe-object) hit of the SLCP walk. `row` indexes the
  // output table's rows; `position` indexes the probe objects.
  struct Hit {
    uint32_t row;
    uint32_t position;
  };

  // --- construction helpers ---
  // Fills tie_path_scratch_ with `entries`, each run of equal timestamps
  // reordered by (tie count, object id). Only called for tied segments.
  void OrderTiedRuns(const std::vector<SegmentEntry>& entries);
  // Fills prefix_best_scratch_ with the pieces of the longest matching
  // prefix (possibly empty), in segment order; returns its length in slots.
  uint32_t FindLongestMatchingPrefix(const std::vector<SegmentEntry>& entries);
  Run* NewRun();
  void FreeRun(Run* run);
  static SlotRef RefOf(Run* run, uint32_t index);
  static SlotHot& HotOf(SlotRef ref);
  static SlotCold& ColdOf(SlotRef ref);
  // Appends a slot to `run` and links it at the head of its Hlist chain.
  void AppendSlot(Run* run, ObjectId object, uint32_t distance);
  void LinkIntoHlist(Run* run, uint32_t index);
  void UnlinkFromHlist(Run* run, uint32_t index);
  uint32_t NewTail();
  void FreeTail(uint32_t tail);
  // InsertTail keeps a run's tail keys slot-ordered, after the keys already
  // on the slot; both keep the slots' first-key indices exact.
  void InsertTail(Run* run, const TailKey& key);
  void EraseTail(Run* run, uint32_t i);
  // After the slots at indices [lo, hi) of `from` were copied to `to` under
  // the same slot numbers: repoints their links, their chain neighbours'
  // links and chain heads from `from` to `to`.
  void RepointSlots(const Run* from, uint32_t lo, uint32_t hi, Run* to);
  // Cuts `run` after index upper_end - 1: `run` keeps the indices
  // [first, upper_end), and the slots at [lower_begin, size) move to a new
  // run that takes `run`'s children and hangs under `lower_parent`. The
  // slots between were unlinked by the caller.
  void SplitRun(Run* run, uint32_t upper_end, uint32_t lower_begin,
                Run* lower_parent);
  void AttachChild(Run* parent, Run* child);
  void DetachChild(Run* child);

  // --- deletion helpers ---
  // Removes segment `id`, whose tail is tails_[tail].
  void RemoveSegmentPath(SegmentId id, uint32_t tail);
  // Removes the slots at indices [lo, hi] of `run`, whose counts fell to 0,
  // re-rooting what hangs below them (DESIGN.md §2 item 6). The slots at
  // indices [first, lo) stay in `run`; `run` is freed if it empties.
  void RemoveDeadSlots(Run* run, uint32_t lo, uint32_t hi);
  // Shifts the live slots to the front of the arrays (slot numbers stay).
  void CompactRun(Run* run);

  // --- search helpers ---
  // DistanceBound (Algorithm 3) from every slot of the Hlist chain that
  // starts at `head`: calls on_hit(const TailKey*) for each tail whose
  // segment covers the start slot, in search order.
  template <typename OnHit>
  void CollectRelevantTails(SlotRef head, OnHit&& on_hit) const;
  // True iff segment tails_[tail] contains `object`, whose ObjectBit is
  // `bit`.
  bool HoldsObject(uint32_t tail, ObjectId object, uint64_t bit) const;
  // SlcpInto's new-object walk over the chains in probe_chains_ (serial,
  // no chain skipped).
  void WalkFreshChains(std::span<const ObjectId> probe_objects,
                       std::span<const uint8_t> fresh, uint32_t min_common,
                       LcpTable* out) const;
  // SlcpInto's last step: lays out the rows' common slices from
  // hit_records_ (probe position `skip` placed for skip_rows_ between the
  // first `hits_before_skip` hits and the rest), sorting each slice if
  // asked, and drops rows shorter than min_common.
  void LayOutRows(size_t skip, size_t hits_before_skip, uint32_t min_common,
                  bool sort_slices, LcpTable* out) const;

  SegTreeOptions options_;
  ObjectPool<Run> pool_;
  // The runs' slot, tail key and child arrays and the tails' object lists
  // live in these size-class arenas (not in per-run std::vectors): a freed
  // array goes back to its capacity class, so ANY run that later needs that
  // capacity reuses it — the property that makes steady-state churn
  // allocation-free.
  ChunkArena<SlotHot> hot_arena_;
  ChunkArena<SlotCold> cold_arena_;
  ChunkArena<TailKey> key_arena_;
  ChunkArena<Run*> child_arena_;
  ChunkArena<ObjectId> object_arena_;  // Tail::objects
  // Tail table and its free indices; it only grows with the peak number of
  // live segments.
  std::vector<Tail> tails_;
  std::vector<uint32_t> free_tails_;
  Run* root_;  // holds no slots; its children are the top-level runs
  FlatMap<ObjectId, Chain> hlist_;
  std::vector<TlistEntry> tlist_;  // min-heap on start (StartsLater)
  FlatMap<SegmentId, uint32_t> tail_of_;  // segment -> its tail
  // object -> number of live tied segments containing it: the popularity
  // key of the tie rule. Untied segments are not counted, so data without
  // simultaneous objects never touches this map.
  FlatMap<ObjectId, uint32_t> tie_counts_;
  size_t num_nodes_ = 0;
  size_t num_runs_ = 0;
  uint64_t total_objects_ = 0;
  // Reusable hot-path buffers (cleared per call, capacity kept) so the
  // steady-state insert/remove cycle performs no heap allocations.
  std::vector<PathPiece> path_scratch_;         // RemoveSegmentPath backtrack
  std::vector<PathPiece> prefix_path_scratch_;  // prefix-match trial path
  std::vector<PathPiece> prefix_best_scratch_;  // prefix-match best path
  std::vector<SegmentEntry> tie_path_scratch_;  // tied segment's path order
  std::vector<uint64_t> tie_keys_scratch_;      // (count << 32 | object)
  // Search scratch, owned by the tree (not per thread) so a shard's miner
  // holds it whichever thread runs the search. Searches are const; the
  // buffers are not observable state.
  mutable std::vector<SearchItem> search_queue_;     // CollectRelevantTails
  mutable std::vector<Hit> hit_records_;             // SLCP walk hits
  mutable std::vector<const Chain*> probe_chains_;   // SLCP per position
  mutable std::vector<uint32_t> skip_rows_;  // rows holding the skipped object
  mutable std::vector<uint32_t> row_tails_;  // new-object walk: rows' tails
  mutable uint64_t probe_epoch_ = 0;  // bumped once per SlcpInto call
  mutable SegTreeStats stats_;
};

}  // namespace fcp

#endif  // FCP_INDEX_SEG_TREE_H_
