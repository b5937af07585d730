#include "index/seg_tree.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace fcp {
namespace {

constexpr size_t kPoolSlabRuns = 512;          // runs per run-pool slab
constexpr size_t kChunkSlabBytes = 64 * 1024;  // bytes per chunk-arena slab

// Appends `value` through emplace_back(). The new-object walk and the
// supporter search append rows and hits this way, so the full SLCP walk's
// push_back instantiations keep their few call sites and stay inlined.
template <typename T>
void Append(std::vector<T>& values, const T& value) {
  values.emplace_back() = value;
}

// Adds `delta` (mod 2^32) to the first-key index of the slots at [lo, hi).
template <typename Hot>
void ShiftSlotKeys(PooledVec<Hot>& hot, uint32_t lo, uint32_t hi,
                   uint32_t delta) {
  for (uint32_t i = lo; i < hi; ++i) hot[i].key += delta;
}

}  // namespace

// A run: a path of the paper's tree in which every slot but the last has
// exactly one child, the next slot. The two slot arrays are parallel; a slot
// numbered s lives at index s - base, and the live slots are the indices
// [first, size()). The run's tail keys are in slot order. Dropping dead
// front slots only advances `first`; the slot arrays are compacted (shifted
// down, no slot renumbered) when an append finds them full. A run that grows
// at the back and dies at the front (the sliding-window case) thus costs
// O(1) amortized per slot and never repoints a slot reference.
struct SegTree::Run {
  Run() = default;

  // The fields a search reads come first.
  uint32_t base = 0;   // number of the slot at index 0
  uint32_t first = 0;  // index of the first live slot
  // SlotHot::distance is an upper bound on the number of edges from the
  // slot to the farthest tail among segments containing it. Insertion
  // raises it to the new segment's distance along the segment's path and
  // nothing lowers it, so after a deletion, or on a shared prefix slot
  // whose longer segment has left, it overestimates; that only weakens
  // pruning.
  PooledVec<SlotHot> hot;
  PooledVec<TailKey> tail_keys;
  PooledVec<Run*> children;  // the last slot's child runs
  PooledVec<SlotCold> cold;
  Run* parent = nullptr;      // the run whose last slot this run hangs under
  uint32_t parent_index = 0;  // position in parent->children (swap-erase)

  uint32_t size() const { return hot.count; }
  uint32_t last() const { return hot.count - 1; }
};

SegTree::SegTree(SegTreeOptions options)
    : options_(options),
      pool_(kPoolSlabRuns),
      hot_arena_(kChunkSlabBytes),
      cold_arena_(kChunkSlabBytes),
      key_arena_(kChunkSlabBytes),
      child_arena_(kChunkSlabBytes),
      object_arena_(kChunkSlabBytes) {
  root_ = pool_.Acquire();  // freshly constructed: fields are default-init
}

SegTree::~SegTree() = default;  // pool_ destroys every run it ever made

// ---------------------------------------------------------------------------
// Low-level linkage helpers
// ---------------------------------------------------------------------------

SegTree::Run* SegTree::NewRun() {
  ++num_runs_;
  Run* run = pool_.Acquire();
  stats_.runs_recycled = pool_.stats().objects_recycled;
  run->parent = nullptr;
  run->parent_index = 0;
  run->base = 0;
  run->first = 0;
  FCP_DCHECK(run->hot.empty() && run->tail_keys.empty() &&
             run->children.empty());
  return run;
}

void SegTree::FreeRun(Run* run) {
  // The arrays go back to their capacity-class free lists, not to the run:
  // whichever run next needs that capacity reuses them.
  run->hot.Reset(hot_arena_);
  run->cold.Reset(cold_arena_);
  run->tail_keys.Reset(key_arena_);
  run->children.Reset(child_arena_);
  pool_.Release(run);
  --num_runs_;
}

SegTree::SlotRef SegTree::RefOf(Run* run, uint32_t index) {
  return SlotRef{run, run->base + index};
}

SegTree::SlotHot& SegTree::HotOf(SlotRef ref) {
  return ref.run->hot[ref.slot - ref.run->base];
}

SegTree::SlotCold& SegTree::ColdOf(SlotRef ref) {
  return ref.run->cold[ref.slot - ref.run->base];
}

uint32_t SegTree::NewTail() {
  if (free_tails_.empty()) {
    tails_.emplace_back();
    return static_cast<uint32_t>(tails_.size() - 1);
  }
  const uint32_t tail = free_tails_.back();
  free_tails_.pop_back();
  return tail;
}

void SegTree::FreeTail(uint32_t tail) {
  tails_[tail].objects.Reset(object_arena_);
  free_tails_.push_back(tail);
}

void SegTree::AppendSlot(Run* run, ObjectId object, uint32_t distance) {
  // Reuse a dead front before growing the arrays.
  if (run->first > 0 && run->size() == run->hot.capacity) CompactRun(run);
  ++num_nodes_;
  ++stats_.nodes_created;
  run->hot.push_back(SlotHot{.next = {},
                             .distance = distance,
                             .key = run->tail_keys.count},
                     hot_arena_);
  run->cold.push_back(SlotCold{.prev = {}, .object = object, .count = 1},
                      cold_arena_);
  LinkIntoHlist(run, run->last());
}

void SegTree::LinkIntoHlist(Run* run, uint32_t index) {
  const SlotRef ref = RefOf(run, index);
  Chain& chain = hlist_[run->cold[index].object];
  run->cold[index].prev = SlotRef{};
  run->hot[index].next = chain.head;
  if (chain.head.run != nullptr) ColdOf(chain.head).prev = ref;
  chain.head = ref;
  ++chain.length;
}

void SegTree::UnlinkFromHlist(Run* run, uint32_t index) {
  const SlotRef next = run->hot[index].next;
  const SlotRef prev = run->cold[index].prev;
  const ObjectId object = run->cold[index].object;
  Chain* chain = hlist_.Find(object);
  FCP_DCHECK(chain != nullptr && chain->length > 0);
  if (--chain->length == 0) {
    FCP_DCHECK(prev.run == nullptr && next.run == nullptr);
    hlist_.Erase(object);
    return;
  }
  if (prev.run != nullptr) {
    HotOf(prev).next = next;
  } else {
    FCP_DCHECK(chain->head.run == run &&
               chain->head.slot == run->base + index);
    chain->head = next;
  }
  if (next.run != nullptr) ColdOf(next).prev = prev;
}

void SegTree::RepointSlots(const Run* from, uint32_t lo, uint32_t hi,
                           Run* to) {
  // A link to a moved slot gets the new run (the number stays); any other
  // link names a slot that stays, whose back link is repointed here.
  auto moved = [&](SlotRef ref) {
    return ref.run == from && ref.slot - from->base - lo < hi - lo;
  };
  for (uint32_t i = to->first; i < to->size(); ++i) {
    const SlotRef self = RefOf(to, i);
    SlotRef& prev = to->cold[i].prev;
    SlotHot& hot = to->hot[i];
    if (moved(prev)) {
      prev.run = to;
    } else if (prev.run != nullptr) {
      HotOf(prev).next = self;
    } else {
      hlist_.Find(to->cold[i].object)->head = self;
    }
    if (moved(hot.next)) {
      hot.next.run = to;
    } else if (hot.next.run != nullptr) {
      ColdOf(hot.next).prev = self;
    }
  }
}

void SegTree::InsertTail(Run* run, const TailKey& key) {
  // After the keys already on the slot. The common case, a tail on the last
  // slot, appends.
  const uint32_t t = key.index;
  const uint32_t at =
      t == run->last() ? run->tail_keys.count : run->hot[t + 1].key;
  run->tail_keys.insert_at(at, key, key_arena_);
  ShiftSlotKeys(run->hot, t + 1, run->size(), 1);
}

void SegTree::EraseTail(Run* run, uint32_t i) {
  const uint32_t t = run->tail_keys[i].index;
  run->tail_keys.erase_at(i);
  ShiftSlotKeys(run->hot, t + 1, run->size(), 0u - 1);
}

void SegTree::SplitRun(Run* run, uint32_t upper_end, uint32_t lower_begin,
                       Run* lower_parent) {
  ++stats_.runs_split;
  FCP_DCHECK(lower_begin < run->size());
  // The slots at indices [lower_begin, size) move to a new run, which keeps
  // their numbers, their tail keys and `run`'s children.
  Run* lower = NewRun();
  const uint32_t end = run->size();
  lower->base = run->base + lower_begin;
  lower->hot.reserve(end - lower_begin, hot_arena_);
  lower->cold.reserve(end - lower_begin, cold_arena_);
  for (uint32_t i = lower_begin; i < end; ++i) {
    lower->hot.push_back(run->hot[i], hot_arena_);
    lower->cold.push_back(run->cold[i], cold_arena_);
  }
  RepointSlots(run, lower_begin, end, lower);
  const uint32_t split_key = run->hot[lower_begin].key;
  ShiftSlotKeys(lower->hot, 0, lower->size(), 0u - split_key);
  for (uint32_t i = split_key; i < run->tail_keys.count; ++i) {
    TailKey key = run->tail_keys[i];
    key.index -= lower_begin;
    lower->tail_keys.push_back(key, key_arena_);
    tails_[key.tail].slot.run = lower;
  }
  run->tail_keys.truncate(split_key);
  run->hot.truncate(upper_end);
  run->cold.truncate(upper_end);
  lower->children = run->children;
  run->children = PooledVec<Run*>{};
  for (Run* child : lower->children) child->parent = lower;
  AttachChild(lower_parent, lower);
}

void SegTree::CompactRun(Run* run) {
  const uint32_t shift = run->first;
  auto compact = [shift](auto& array) {
    std::copy(array.begin() + shift, array.end(), array.begin());
    array.truncate(array.size() - shift);
  };
  compact(run->hot);
  compact(run->cold);
  run->base += shift;
  run->first = 0;
  for (TailKey& key : run->tail_keys) key.index -= shift;
}

void SegTree::AttachChild(Run* parent, Run* child) {
  child->parent = parent;
  child->parent_index = static_cast<uint32_t>(parent->children.size());
  parent->children.push_back(child, child_arena_);
}

void SegTree::DetachChild(Run* child) {
  Run* parent = child->parent;
  FCP_DCHECK(parent != nullptr);
  auto& siblings = parent->children;
  FCP_DCHECK(child->parent_index < siblings.size() &&
             siblings[child->parent_index] == child);
  Run* last = siblings.back();
  siblings[child->parent_index] = last;
  last->parent_index = child->parent_index;
  siblings.pop_back();
  child->parent = nullptr;
  child->parent_index = 0;
}

// ---------------------------------------------------------------------------
// Insertion (paper Section 4.4, Algorithm 1)
// ---------------------------------------------------------------------------

uint32_t SegTree::FindLongestMatchingPrefix(
    const std::vector<SegmentEntry>& entries) {
  std::vector<PathPiece>& best = prefix_best_scratch_;
  std::vector<PathPiece>& path = prefix_path_scratch_;
  best.clear();
  const Chain* chain = hlist_.Find(entries.front().object);
  if (chain == nullptr) return 0;

  size_t best_length = 0;
  uint32_t probes = 0;
  for (SlotRef start = chain->head; start.run != nullptr;) {
    // Bound the number of candidate start slots examined: popular objects
    // (hot words) can have thousands of chain slots, and prefix sharing is
    // an optimization, not a correctness requirement. Chains are
    // newest-first, so the first probes are the most likely matches.
    if (++probes > kMaxPrefixProbes) break;
    path.clear();
    Run* run = start.run;
    uint32_t lo = start.slot - run->base;
    start = run->hot[lo].next;
    uint32_t k = lo;
    size_t i = 1;
    while (i < entries.size()) {
      if (k < run->last()) {  // the only child is the next slot
        if (run->cold[k + 1].object != entries[i].object) break;
        ++k;
        ++i;
        continue;
      }
      Run* next = nullptr;
      for (Run* child : run->children) {
        if (child->cold[child->first].object == entries[i].object) {
          next = child;
          break;
        }
      }
      if (next == nullptr) break;
      path.push_back(PathPiece{run, lo, k});
      run = next;
      lo = k = next->first;
      ++i;
    }
    path.push_back(PathPiece{run, lo, k});
    if (i > best_length) {
      best.assign(path.begin(), path.end());
      best_length = i;
    }
    if (best_length == entries.size()) break;  // cannot do better
  }
  return static_cast<uint32_t>(best_length);
}

namespace {

// True iff two adjacent entries share a timestamp (entries are time-sorted).
bool HasTiedTimes(const std::vector<SegmentEntry>& entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].time == entries[i - 1].time) return true;
  }
  return false;
}

}  // namespace

void SegTree::OrderTiedRuns(const std::vector<SegmentEntry>& entries) {
  std::vector<SegmentEntry>& ordered = tie_path_scratch_;
  std::vector<uint64_t>& keys = tie_keys_scratch_;
  ordered.clear();
  for (size_t i = 0; i < entries.size();) {
    const Timestamp time = entries[i].time;
    size_t end = i + 1;
    while (end < entries.size() && entries[end].time == time) ++end;
    // (count, id) is a total order on distinct objects and equal keys are
    // identical entries, so an unstable, non-allocating sort is exact.
    keys.clear();
    for (size_t k = i; k < end; ++k) {
      const ObjectId object = entries[k].object;
      const uint32_t* count = tie_counts_.Find(object);
      const uint64_t tie_count = count == nullptr ? 0 : *count;
      keys.push_back((tie_count << 32) | object);
    }
    std::sort(keys.begin(), keys.end());
    for (uint64_t key : keys) {
      ordered.push_back(SegmentEntry{static_cast<ObjectId>(key), time});
    }
    i = end;
  }
}

void SegTree::Insert(const Segment& segment) {
  const uint32_t length = static_cast<uint32_t>(segment.length());
  FCP_CHECK(length > 0);

  // The tie rule (see the header): only segments with simultaneous objects
  // pay for the reordering and the counting.
  const bool tied = HasTiedTimes(segment.entries());
  if (tied) OrderTiedRuns(segment.entries());
  const std::vector<SegmentEntry>& entries =
      tied ? tie_path_scratch_ : segment.entries();

  const uint32_t matched = FindLongestMatchingPrefix(entries);

  // Update the attributes of the shared prefix (Example 3).
  uint32_t i = 0;
  for (const PathPiece& piece : prefix_best_scratch_) {
    Run* run = piece.run;
    for (uint32_t k = piece.lo; k <= piece.hi; ++k, ++i) {
      run->cold[k].count += 1;
      run->hot[k].distance = std::max(run->hot[k].distance, length - 1 - i);
    }
  }
  stats_.prefix_nodes_shared += matched;

  // Append the remaining objects below the prefix (or below the root): in
  // place when the prefix ends at a childless run end, else in a new child
  // run, after splitting the run if the prefix ends mid-run.
  Run* run = root_;
  uint32_t slot = 0;  // the tail slot's index in `run`
  if (matched > 0) {
    run = prefix_best_scratch_.back().run;
    slot = prefix_best_scratch_.back().hi;
  }
  if (matched < length) {
    if (matched > 0 && slot == run->last() && run->children.empty()) {
      ++stats_.appends_in_place;
    } else {
      if (matched > 0 && slot != run->last()) {
        SplitRun(run, slot + 1, slot + 1, run);
      }
      Run* child = NewRun();
      child->hot.reserve(length - matched, hot_arena_);
      child->cold.reserve(length - matched, cold_arena_);
      AttachChild(run, child);
      run = child;
    }
    for (uint32_t k = matched; k < length; ++k) {
      AppendSlot(run, entries[k].object, length - 1 - k);
    }
    slot = run->last();
  }

  const uint32_t tail = NewTail();
  Tail& entry = tails_[tail];
  entry.segment = segment.id();
  entry.stream = segment.stream();
  entry.end = segment.end_time();
  entry.slot = RefOf(run, slot);
  entry.tie_counted = tied;
  FCP_DCHECK(entry.objects.empty());
  // Construction-time distinct cache: no per-insert sort+unique.
  entry.objects.reserve(segment.distinct_objects().size(), object_arena_);
  entry.signature = 0;
  for (ObjectId object : segment.distinct_objects()) {
    entry.objects.push_back(object, object_arena_);
    entry.signature |= ObjectBit(object);
    if (tied) ++tie_counts_[object];
  }
  InsertTail(run, TailKey{.index = slot,
                          .length = length,
                          .start = segment.start_time(),
                          .probe_epoch = 0,
                          .probe_row = 0,
                          .tail = tail});
  // Each id is inserted once; checked here, where the map is probed anyway.
  const bool inserted = tail_of_.Insert(segment.id(), tail);
  FCP_CHECK(inserted);
  tlist_.push_back(TlistEntry{segment.id(), segment.start_time()});
  std::push_heap(tlist_.begin(), tlist_.end(), StartsLater);
  total_objects_ += length;
  ++stats_.segments_inserted;
}

// ---------------------------------------------------------------------------
// Deletion (paper Section 4.5)
// ---------------------------------------------------------------------------

void SegTree::Remove(SegmentId id) {
  const uint32_t* tail = tail_of_.Find(id);
  if (tail == nullptr) return;  // not present
  RemoveSegmentPath(id, *tail);
}

void SegTree::RemoveSegmentPath(SegmentId id, uint32_t tail) {
  Tail& entry = tails_[tail];
  Run* const tail_run = entry.slot.run;
  const uint32_t slot = entry.slot.slot - tail_run->base;

  // Drop the tail.
  uint32_t key = tail_run->hot[slot].key;
  while (key < tail_run->tail_keys.size() &&
         tail_run->tail_keys[key].tail != tail) {
    ++key;
  }
  FCP_CHECK(key < tail_run->tail_keys.size() &&
            tail_run->tail_keys[key].index == slot);
  const uint32_t length = tail_run->tail_keys[key].length;
  EraseTail(tail_run, key);
  if (entry.tie_counted) {
    for (ObjectId object : entry.objects) {
      uint32_t* count = tie_counts_.Find(object);
      FCP_DCHECK(count != nullptr && *count > 0);
      if (--*count == 0) tie_counts_.Erase(object);
    }
  }
  FreeTail(tail);

  // Backtrack length-1 edges from the tail, run by run, decrementing the
  // counts; the pieces come bottom-up.
  std::vector<PathPiece>& path = path_scratch_;
  path.clear();
  Run* run = tail_run;
  uint32_t hi = slot;
  for (uint32_t remaining = length;;) {
    FCP_CHECK(run != nullptr && run != root_);
    const uint32_t span = std::min(remaining, hi - run->first + 1);
    const uint32_t lo = hi + 1 - span;
    for (uint32_t k = lo; k <= hi; ++k) {
      FCP_CHECK(run->cold[k].count > 0);
      run->cold[k].count -= 1;
    }
    path.push_back(PathPiece{run, lo, hi});
    remaining -= span;
    if (remaining == 0) break;
    run = run->parent;
    hi = run->last();
  }

  // Bottom-up removal of slots that no longer belong to any live segment,
  // one block of adjacent dead slots at a time. Cutting a block out of a
  // run leaves the slots above it in place. A block that starts the piece
  // ends the loop, so a run freed with it is not read again.
  for (const PathPiece& piece : path) {
    run = piece.run;
    for (uint32_t k = piece.hi + 1; k-- > piece.lo;) {
      if (run->cold[k].count > 0) continue;
      uint32_t j = k;
      while (j > piece.lo && run->cold[j - 1].count == 0) --j;
      RemoveDeadSlots(run, j, k);
      k = j;
    }
  }
  path.clear();

  total_objects_ -= length;
  tail_of_.Erase(id);
  ++stats_.segments_removed;
  // The Tlist entry is left behind and skipped once RemoveExpired pops it.
}

void SegTree::RemoveDeadSlots(Run* run, uint32_t lo, uint32_t hi) {
  // What hangs below the dead block survives (dead slots below it were
  // removed first) and becomes a disconnected subtree. Every live segment
  // with a tail in it lies wholly inside it (else the block's counts would
  // be > 0), so it moves under the root as it is (DESIGN.md §2 item 6). In
  // run terms that is a front trim (the block starts the run: the rest of
  // the run re-roots), a split (a block mid-run: the slots below it re-root
  // as a run of their own) or, at the run's end, its child runs re-rooting
  // one by one.
  for (uint32_t k = lo; k <= hi; ++k) UnlinkFromHlist(run, k);
  num_nodes_ -= hi + 1 - lo;
  stats_.nodes_deleted += hi + 1 - lo;
  if (lo == run->first && hi != run->last()) {
    // Re-rooting a root child leaves it in place: the paper-level tree
    // appends the orphan to the root's children and swap-erases the dead
    // slot, which puts the orphan where the dead slot was.
    if (run->parent != root_) {
      DetachChild(run);
      AttachChild(root_, run);
    }
    ++stats_.subtrees_reattached;
    ++stats_.front_trims;
    run->first = hi + 1;
    return;
  }
  if (hi != run->last()) {
    SplitRun(run, lo, hi + 1, root_);
    ++stats_.subtrees_reattached;
    return;
  }
  while (!run->children.empty()) {
    Run* child = run->children.back();
    DetachChild(child);
    AttachChild(root_, child);
    ++stats_.subtrees_reattached;
  }
  run->hot.truncate(lo);
  run->cold.truncate(lo);
  if (lo > run->first) return;
  DetachChild(run);
  FreeRun(run);
}

size_t SegTree::RemoveExpired(Timestamp now, DurationMs tau) {
  // The heap's top is the oldest start, so the sweep pops exactly the
  // expired entries and stops at the first valid one — the purpose of the
  // Tlist (Section 4.5). A segment that completed late (an idle stream's)
  // is ordered by its start, not queued behind younger ones.
  size_t removed = 0;
  while (!tlist_.empty() && now - tlist_.front().start > tau) {
    std::pop_heap(tlist_.begin(), tlist_.end(), StartsLater);
    const SegmentId segment = tlist_.back().segment;
    tlist_.pop_back();
    const uint32_t* tail = tail_of_.Find(segment);
    if (tail == nullptr) continue;  // Remove()d earlier
    RemoveSegmentPath(segment, *tail);
    ++removed;
  }
  return removed;
}

// ---------------------------------------------------------------------------
// Search (paper Algorithms 2 & 3)
// ---------------------------------------------------------------------------

template <typename OnHit>
void SegTree::CollectRelevantTails(SlotRef head, OnHit&& on_hit) const {
  // The paper's search, one run at a time: a visit to a slot with budget b
  // steps on to its child with budget min(child distance, b - 1) while
  // b > 0, so inside a run the walk is a scan of one array. Each slot
  // stepped counts as one visit of the paper's search.
  constexpr uint32_t kUnbounded = 0xffffffffu;
  const bool bounded = options_.use_distance_bound;
  std::vector<SearchItem>& queue = search_queue_;
  uint64_t slots = 0;
  uint64_t runs = 0;
  // Steps through `run` from `index` and collects the tails on the stepped
  // slots; queues the child runs if the budget lasts past the last slot.
  auto scan = [&](const Run* run, uint32_t index, uint32_t budget,
                  uint32_t depth) {
    const uint32_t last = run->last();
    const SlotHot* const hot = run->hot.data;
    uint32_t k = index;
    if (bounded) {
      while (budget != 0 && k < last) {
        ++k;
        budget = std::min(hot[k].distance, budget - 1);
      }
    } else {
      const uint32_t steps = std::min(budget, last - k);
      k += steps;
      budget -= steps;
    }
    ++runs;
    slots += k - index + 1;

    // Tails on the stepped slots [index, k]. The segment covers the start
    // slot iff it lies within length-1 edges above the tail (Theorem 2 /
    // Section 5.2.1). `offset` turns a slot index into its depth below the
    // search start.
    const uint32_t offset = depth - index;
    const TailKey* const keys = run->tail_keys.data;
    const uint32_t num_keys = run->tail_keys.count;
    uint32_t t = hot[index].key;
    for (; t < num_keys && keys[t].index <= k; ++t) {
      if (keys[t].index + offset < keys[t].length) on_hit(keys + t);
    }
    if (budget == 0) return;
    // A child's own bound is applied when it is entered, so queuing it
    // touches only the child array.
    for (const Run* c : run->children) {
      queue.push_back(SearchItem{c, budget - 1, k + offset + 1});
    }
  };
  for (SlotRef ref = head; ref.run != nullptr;) {
    const Run* start = ref.run;
    const uint32_t index = ref.slot - start->base;
    ref = start->hot[index].next;
    // The chain hops between runs: start loading the next start's slot
    // while this one is searched.
    if (ref.run != nullptr) {
      __builtin_prefetch(ref.run->hot.data + (ref.slot - ref.run->base));
    }
    scan(start, index, bounded ? start->hot[index].distance : kUnbounded, 0);
    while (!queue.empty()) {
      const SearchItem item = queue.back();
      queue.pop_back();
      const Run* run = item.run;
      const uint32_t bound =
          bounded ? run->hot[run->first].distance : kUnbounded;
      scan(run, run->first, std::min(bound, item.budget), item.depth);
    }
  }
  stats_.distance_bound_visits += slots;
  stats_.runs_visited += runs;
}

std::vector<SegmentId> SegTree::RelevantSegments(ObjectId object) const {
  std::vector<SegmentId> result;
  const Chain* chain = hlist_.Find(object);
  if (chain == nullptr) return result;
  CollectRelevantTails(chain->head, [&](const TailKey* key) {
    result.push_back(tails_[key->tail].segment);
  });
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

bool SegTree::HoldsObject(uint32_t tail, ObjectId object,
                          uint64_t bit) const {
  const Tail& entry = tails_[tail];
  return (entry.signature & bit) != 0 &&
         std::binary_search(entry.objects.begin(), entry.objects.end(),
                            object);
}

bool SegTree::SlcpInto(std::span<const ObjectId> probe_objects, LcpTable* out,
                       const ShardSpec& shard, uint32_t min_common,
                       std::span<const uint8_t> fresh,
                       FreshWalkPrice* price) const {
  out->Clear();
  // Rows are grouped without sorting: a tail entry stamped with this call's
  // epoch has already been reached. The epoch is 64 bit and only grows, so
  // stamps left by earlier calls never need clearing.
  const uint64_t epoch = ++probe_epoch_;

  // Owned-suffix search (see the header comment): every owned pattern lies
  // in probe[begin..], so no position before the first owned one is
  // searched. One Hlist lookup per searched position gives both the chain
  // to walk and the length the skip rule compares.
  const size_t np = probe_objects.size();
  size_t begin = 0;
  if (!shard.IsSingleton()) {
    while (begin < np && !shard.Owns(probe_objects[begin])) ++begin;
  }
  std::vector<const Chain*>& chains = probe_chains_;
  chains.assign(np - begin, nullptr);
  // New-object walk: the fresh chains are looked up first. If they hold no
  // slot and the caller's price is 0 too, the walk is free and empty, and
  // the other chains need no lookup.
  const bool may_walk_fresh = !fresh.empty() && shard.IsSingleton();
  uint64_t fresh_slots = 0;
  if (may_walk_fresh) {
    for (size_t pos = 0; pos < np; ++pos) {
      if (!fresh[pos]) continue;
      chains[pos] = hlist_.Find(probe_objects[pos]);
      if (chains[pos] != nullptr) fresh_slots += chains[pos]->length;
    }
    if (fresh_slots == 0 && (price == nullptr || price->ExtraSlots(1) == 0)) {
      return true;
    }
  }
  size_t skip = np;  // the skipped position; np: none
  uint64_t total_slots = 0;
  uint32_t longest = 0;
  for (size_t pos = begin; pos < np; ++pos) {
    const Chain*& chain = chains[pos - begin];
    if (!may_walk_fresh || !fresh[pos]) chain = hlist_.Find(probe_objects[pos]);
    if (chain == nullptr) continue;
    total_slots += chain->length;
    if (chain->length > longest) {
      longest = chain->length;
      skip = pos;
    }
  }
  // Dominant-chain skip: a row of >= 2 objects holds one besides
  // probe[skip], whose chain the walk below reaches its tail from.
  if (min_common < 2 || longest <= total_slots - longest) skip = np;
  // The new-object walk is taken when the fresh chains, plus what the
  // caller prices the walk at, are a shorter search than this one.
  const uint64_t searched = total_slots - (skip < np ? longest : 0);
  if (may_walk_fresh && fresh_slots < searched &&
      (price == nullptr ||
       price->ExtraSlots(searched - fresh_slots) < searched - fresh_slots)) {
    WalkFreshChains(probe_objects, fresh, min_common, out);
    return true;
  }
  if (skip < np) ++stats_.slcp_chains_skipped;
  const ObjectId skipped = skip < np ? probe_objects[skip] : 0;
  const uint64_t skipped_bit = ObjectBit(skipped);
  const bool skipped_owned = skip < np && shard.Owns(skipped);

  // Gather one (row, position) hit per segment and probe position. Until the
  // rows are laid out, a row's common_begin counts its positions and
  // common_end holds its last walked position + 1. A segment carrying an
  // object twice is reached from two chain slots for the same position; the
  // second hit is dropped here, so the counts are exact.
  //
  // Positions ascend, so the first hit that reaches a tail fixes where its
  // row opens: at its first owned object (the serial shard owns all). That
  // is a hit at an owned position p, or — when probe[skip] is owned and the
  // segment holds it — any hit past skip. probe[skip] joins the row iff the
  // segment holds it and it is owned or past p. Other hits count only once
  // the tail is reached. With min_common = 1 the first hit opens the row.
  // Otherwise, unless probe[skip] joins, it only parks its position in
  // probe_row under kPendingRow, and the first hit at another position opens
  // the row with both: a segment sharing one probe object never gets a Row
  // or a Hit.
  const bool park_first_hit = min_common >= 2;
  uint64_t parked = 0;  // tails whose only hit so far is parked
  std::vector<Hit>& hit_records = hit_records_;
  std::vector<uint32_t>& skip_rows = skip_rows_;
  hit_records.clear();
  skip_rows.clear();
  // hit_records' size when the walk passed skip. Without a skip it stays 0:
  // there are no skip_rows, and the hits are all placed by the last loop.
  size_t hits_before_skip = 0;
  for (size_t pos = begin; pos < np; ++pos) {
    if (pos == skip) hits_before_skip = hit_records.size();
    const Chain* chain = chains[pos - begin];
    if (pos == skip || chain == nullptr) continue;
    const bool owned = shard.Owns(probe_objects[pos]);
    const bool test_skipped =
        skip < np && (owned ? skipped_owned || skip > pos
                            : skipped_owned && skip < pos);
    const uint32_t position = static_cast<uint32_t>(pos);
    CollectRelevantTails(chain->head, [&](const TailKey* t) {
      if (t->probe_epoch != epoch) {
        const bool with_skipped =
            test_skipped && HoldsObject(t->tail, skipped, skipped_bit);
        if (!owned && !with_skipped) return;
        t->probe_epoch = epoch;
        if (park_first_hit && !with_skipped) {
          t->probe_row = kPendingRow | position;
          ++parked;
          return;
        }
        t->probe_row = static_cast<uint32_t>(out->rows.size());
        const Tail& entry = tails_[t->tail];
        out->rows.push_back(
            LcpTable::Row{.segment = entry.segment,
                          .stream = entry.stream,
                          .start = t->start,
                          .end = entry.end,
                          .common_begin = with_skipped ? 1u : 0u});
        if (with_skipped) skip_rows.push_back(t->probe_row);
      } else if ((t->probe_row & kPendingRow) != 0) {
        const uint32_t first = t->probe_row & ~kPendingRow;
        if (first == position) return;  // repeated object
        --parked;
        t->probe_row = static_cast<uint32_t>(out->rows.size());
        const Tail& entry = tails_[t->tail];
        out->rows.push_back(LcpTable::Row{.segment = entry.segment,
                                          .stream = entry.stream,
                                          .start = t->start,
                                          .end = entry.end,
                                          .common_begin = 1,
                                          .common_end = first + 1});
        hit_records.push_back(Hit{t->probe_row, first});
      }
      LcpTable::Row& row = out->rows[t->probe_row];
      if (row.common_end == position + 1) return;  // repeated object
      row.common_end = position + 1;
      ++row.common_begin;
      hit_records.push_back(Hit{t->probe_row, position});
    });
  }
  out->rows_dropped = parked;
  LayOutRows(skip, hits_before_skip, min_common, /*sort_slices=*/false, out);
  return false;
}

// Forced inline, as it was in SlcpInto: both walks end here.
[[gnu::always_inline]] inline void SegTree::LayOutRows(
    size_t skip, size_t hits_before_skip, uint32_t min_common,
    bool sort_slices, LcpTable* out) const {
  // Lay the rows out back to back (prefix sum of the counts), then place
  // every hit in one pass, with probe[skip] between the hits before and
  // after it. The full walk went through positions in ascending order, so
  // each row's positions land ascending. (A parked tail never holds
  // probe[skip], so the parked position of a row opened later needs no
  // ordering against it.) The new-object walk records a row's old positions
  // before its walked ones, so it sorts each slice. A row with fewer than
  // min_common positions (possible for min_common >= 3) gets no slice and
  // is dropped after the placement.
  const std::vector<Hit>& hit_records = hit_records_;
  constexpr uint32_t kDropped = ~uint32_t{0};
  uint32_t offset = 0;
  uint64_t short_rows = 0;
  for (LcpTable::Row& row : out->rows) {
    const uint32_t count = row.common_begin;
    if (count < min_common) {
      row.common_begin = kDropped;
      ++short_rows;
      continue;
    }
    row.common_begin = row.common_end = offset;
    offset += count;
  }
  out->common_pool.resize(offset);
  auto place = [&](uint32_t row_index, uint32_t position) {
    LcpTable::Row& row = out->rows[row_index];
    if (row.common_begin != kDropped) {
      out->common_pool[row.common_end++] = position;
    }
  };
  for (size_t i = 0; i < hits_before_skip; ++i) {
    place(hit_records[i].row, hit_records[i].position);
  }
  for (const uint32_t row : skip_rows_) {
    place(row, static_cast<uint32_t>(skip));
  }
  for (size_t i = hits_before_skip; i < hit_records.size(); ++i) {
    place(hit_records[i].row, hit_records[i].position);
  }
  if (sort_slices) {
    uint32_t* const pool = out->common_pool.data();
    for (const LcpTable::Row& row : out->rows) {
      if (row.common_begin == kDropped) continue;
      std::sort(pool + row.common_begin, pool + row.common_end);
    }
  }
  if (short_rows > 0) {
    std::erase_if(out->rows, [](const LcpTable::Row& row) {
      return row.common_begin == kDropped;
    });
    out->rows_dropped += short_rows;
  }
}

// Flattened: its tail tests inline here without growing the full walk.
[[gnu::flatten]] void SegTree::WalkFreshChains(
    std::span<const ObjectId> probe_objects, std::span<const uint8_t> fresh,
    uint32_t min_common, LcpTable* out) const {
  // A row the full walk would build holds a fresh position iff the walk of
  // that position's chain reaches its tail, so only fresh chains are walked.
  // Every tail reached opens a row that counts its fresh hits, and its Tail
  // entry is prefetched. Then each row's tail is tested for the old
  // objects: the signature first, prefetching the object list of the tails
  // it passes, then a binary search per old object. Both tests run after
  // the walk, so the tails' cache misses overlap. The old positions are
  // recorded after the fresh ones, so LayOutRows sorts each slice, and it
  // drops the rows shorter than min_common. The serial walk owns every
  // position.
  const uint64_t epoch = probe_epoch_;
  const size_t np = probe_objects.size();
  std::vector<Hit>& hit_records = hit_records_;
  std::vector<uint32_t>& row_tails = row_tails_;
  hit_records.clear();
  skip_rows_.clear();
  row_tails.clear();
  for (size_t pos = 0; pos < np; ++pos) {
    const Chain* chain = probe_chains_[pos];
    if (!fresh[pos] || chain == nullptr) continue;
    const uint32_t position = static_cast<uint32_t>(pos);
    CollectRelevantTails(chain->head, [&](const TailKey* t) {
      if (t->probe_epoch != epoch) {
        t->probe_epoch = epoch;
        t->probe_row = static_cast<uint32_t>(out->rows.size());
        __builtin_prefetch(&tails_[t->tail]);
        Append(out->rows, LcpTable::Row{.start = t->start});
        Append(row_tails, t->tail);
      }
      LcpTable::Row& row = out->rows[t->probe_row];
      if (row.common_end == position + 1) return;  // repeated object
      row.common_end = position + 1;
      ++row.common_begin;
      Append(hit_records, Hit{t->probe_row, position});
    });
  }
  uint64_t old_signature = 0;
  for (size_t q = 0; q < np; ++q) {
    if (!fresh[q]) old_signature |= ObjectBit(probe_objects[q]);
  }
  // A tail whose signature shares no bit with the old objects holds none;
  // its row_tails slot is cleared to skip the second pass.
  constexpr uint32_t kNoOldObject = ~uint32_t{0};
  for (size_t r = 0; r < out->rows.size(); ++r) {
    const Tail& entry = tails_[row_tails[r]];
    LcpTable::Row& row = out->rows[r];
    row.segment = entry.segment;
    row.stream = entry.stream;
    row.end = entry.end;
    if ((entry.signature & old_signature) == 0) {
      row_tails[r] = kNoOldObject;
    } else {
      __builtin_prefetch(entry.objects.begin());
    }
  }
  for (size_t r = 0; r < out->rows.size(); ++r) {
    if (row_tails[r] == kNoOldObject) continue;
    const uint32_t row = static_cast<uint32_t>(r);
    for (size_t q = 0; q < np; ++q) {
      if (!fresh[q] && HoldsObject(row_tails[r], probe_objects[q],
                                   ObjectBit(probe_objects[q]))) {
        ++out->rows[r].common_begin;
        Append(hit_records, Hit{row, static_cast<uint32_t>(q)});
      }
    }
  }
  LayOutRows(np, hit_records.size(), min_common, /*sort_slices=*/true, out);
}

void SegTree::SupportersInto(std::span<const ObjectId> objects,
                             LcpTable* out) const {
  out->Clear();
  const Chain* shortest = nullptr;
  size_t from = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    const Chain* chain = hlist_.Find(objects[i]);
    if (chain == nullptr) return;
    if (shortest == nullptr || chain->length < shortest->length) {
      shortest = chain;
      from = i;
    }
  }
  // A segment holding an object twice is reached twice on its chain: the
  // epoch stamp keeps one row per segment.
  const uint64_t epoch = ++probe_epoch_;
  CollectRelevantTails(shortest->head, [&](const TailKey* t) {
    if (t->probe_epoch == epoch) return;
    t->probe_epoch = epoch;
    for (size_t i = 0; i < objects.size(); ++i) {
      if (i != from &&
          !HoldsObject(t->tail, objects[i], ObjectBit(objects[i]))) {
        return;
      }
    }
    const Tail& entry = tails_[t->tail];
    Append(out->rows, LcpTable::Row{.segment = entry.segment,
                                    .stream = entry.stream,
                                    .start = t->start,
                                    .end = entry.end});
  });
}

std::vector<LcpRow> SegTree::Slcp(const Segment& probe) const {
  LcpTable table;
  SlcpInto(probe.distinct_objects(), &table);
  const std::vector<ObjectId>& probe_objects = probe.distinct_objects();
  std::vector<LcpRow> rows;
  rows.reserve(table.rows.size());
  for (const LcpTable::Row& row : table.rows) {
    LcpRow out;
    out.segment = row.segment;
    out.stream = row.stream;
    out.start = row.start;
    out.end = row.end;
    for (const uint32_t* c = table.CommonBegin(row); c != table.CommonEnd(row);
         ++c) {
      out.common.push_back(probe_objects[*c]);
    }
    rows.push_back(std::move(out));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

double SegTree::CompressionRatio() const {
  if (total_objects_ == 0) return 0.0;
  return static_cast<double>(total_objects_ - num_nodes_) /
         static_cast<double>(total_objects_);
}

size_t SegTree::ArenaBytes() const {
  return pool_.SlabBytes() + pool_.FreeListBytes() + hot_arena_.SlabBytes() +
         hot_arena_.FreeListBytes() + cold_arena_.SlabBytes() +
         cold_arena_.FreeListBytes() + key_arena_.SlabBytes() +
         key_arena_.FreeListBytes() + child_arena_.SlabBytes() +
         child_arena_.FreeListBytes() + object_arena_.SlabBytes() +
         object_arena_.FreeListBytes();
}

size_t SegTree::MemoryUsage() const {
  // Every run struct and every slot/key/child array lives in the arenas, so
  // ArenaBytes() — slabs counted in full, live, free-listed and never-used
  // space alike — already covers the runs without walking them. The tail
  // table is counted at capacity too. That memory is held either way, so
  // the figure never undercounts.
  return ArenaBytes() + TableBytes();
}

size_t SegTree::TableBytes() const {
  return tails_.capacity() * sizeof(Tail) +
         free_tails_.capacity() * sizeof(uint32_t) + hlist_.MemoryUsage() +
         tlist_.capacity() * sizeof(TlistEntry) + tail_of_.MemoryUsage() +
         tie_counts_.MemoryUsage();
}

void SegTree::CheckInvariants() const {
  using Slot = std::pair<const Run*, uint32_t>;  // (run, array index)
  size_t walked = 0;
  size_t runs = 0;
  size_t tails = 0;
  std::map<Slot, uint32_t> expected_count;
  std::unordered_map<ObjectId, size_t> object_nodes;
  // The live slot a reference names; aborts if it names none.
  auto resolve = [&](SlotRef ref) {
    const Run* run = ref.run;
    const uint32_t index = ref.slot - run->base;
    FCP_CHECK(expected_count.count(Slot{run, index}) == 1);
    return Slot{run, index};
  };

  // Pass 1: structural walk. Child runs can only hang under a run's last
  // slot, so every slot but a run's last has exactly one child (the next
  // slot).
  FCP_CHECK(root_->size() == 0 && root_->tail_keys.empty());
  std::vector<Run*> stack{root_};
  while (!stack.empty()) {
    Run* run = stack.back();
    stack.pop_back();
    for (size_t i = 0; i < run->children.size(); ++i) {
      Run* c = run->children[i];
      FCP_CHECK(c->parent == run);
      FCP_CHECK(c->parent_index == i);
      stack.push_back(c);
    }
    if (run == root_) continue;
    ++runs;
    FCP_CHECK(run->first < run->size());
    FCP_CHECK(run->cold.size() == run->size());
    uint32_t key = 0;  // the first tail key at or after slot k
    for (uint32_t k = run->first; k < run->size(); ++k) {
      FCP_CHECK(run->cold[k].count > 0);
      while (key < run->tail_keys.size() && run->tail_keys[key].index < k) {
        ++key;
      }
      FCP_CHECK(run->hot[k].key == key);
      ++walked;
      ++object_nodes[run->cold[k].object];
      expected_count[Slot{run, k}] = 0;
    }
    // Tail keys lie on live slots, in slot order, and each entry names its
    // key's slot and is the one tail_of_ names for its segment.
    for (uint32_t i = 0; i < run->tail_keys.size(); ++i) {
      const TailKey& key = run->tail_keys[i];
      FCP_CHECK(key.index >= run->first && key.index < run->size());
      if (i > 0) {
        FCP_CHECK(run->tail_keys[i - 1].index <= key.index);
      }
      FCP_CHECK(key.tail < tails_.size());
      const Tail& t = tails_[key.tail];
      const SlotRef ref = RefOf(run, key.index);
      FCP_CHECK(t.slot.run == ref.run && t.slot.slot == ref.slot);
      const uint32_t* named = tail_of_.Find(t.segment);
      FCP_CHECK(named != nullptr && *named == key.tail);
      ++tails;
    }
  }
  FCP_CHECK(walked == num_nodes_);
  FCP_CHECK(runs == num_runs_);
  FCP_CHECK(tails == tail_of_.size());
  FCP_CHECK(tails + free_tails_.size() == tails_.size());

  // Pass 2: every live segment's path exists, matches its length, and
  // contributes to counts; distance is an upper bound along the path.
  uint64_t objects_total = 0;
  std::unordered_map<ObjectId, uint32_t> expected_ties;
  for (const auto& [id, tail] : tail_of_) {
    const Tail& t = tails_[tail];
    FCP_CHECK(t.segment == id);
    auto [run, k] = resolve(t.slot);
    const TailKey* found = nullptr;
    for (const TailKey& key : run->tail_keys) {
      if (key.tail != tail) continue;
      FCP_CHECK(found == nullptr && key.index == k);
      found = &key;
    }
    FCP_CHECK(found != nullptr);
    const uint32_t length = found->length;
    if (t.tie_counted) {
      for (ObjectId object : t.objects) ++expected_ties[object];
    }
    for (uint32_t d = 0; d < length; ++d) {
      FCP_CHECK(run != nullptr && run != root_);
      FCP_CHECK(run->hot[k].distance >= d);
      ++expected_count[Slot{run, k}];
      if (k > run->first) {
        --k;
      } else {
        run = run->parent;
        if (run != nullptr && run != root_) k = run->last();
      }
    }
    objects_total += length;
  }
  FCP_CHECK(objects_total == total_objects_);
  for (const auto& [slot, cnt] : expected_count) {
    FCP_CHECK(slot.first->cold[slot.second].count == cnt);
  }
  // Tie counts are exactly the tie-counted live segments' distinct objects.
  FCP_CHECK(tie_counts_.size() == expected_ties.size());
  for (const auto& [object, cnt] : expected_ties) {
    const uint32_t* count = tie_counts_.Find(object);
    FCP_CHECK(count != nullptr && *count == cnt);
  }

  // Pass 3: Hlist chains exactly cover the tree's live slots per object,
  // with exact (run, slot) links both ways and exact lengths.
  size_t chained = 0;
  for (const auto& [object, chain] : hlist_) {
    FCP_CHECK(chain.head.run != nullptr);
    SlotRef prev{};
    size_t len = 0;
    for (SlotRef ref = chain.head; ref.run != nullptr;) {
      const auto [run, k] = resolve(ref);
      FCP_CHECK(run->cold[k].object == object);
      FCP_CHECK(run->cold[k].prev.run == prev.run &&
                run->cold[k].prev.slot == prev.slot);
      prev = ref;
      ref = run->hot[k].next;
      ++len;
    }
    FCP_CHECK(chain.length == len);
    auto it = object_nodes.find(object);
    FCP_CHECK(it != object_nodes.end() && it->second == len);
    chained += len;
  }
  FCP_CHECK(chained == num_nodes_);
}

std::string SegTree::DebugString() const {
  // One line per slot, indented by tree depth, as the paper draws the tree.
  std::ostringstream os;
  struct Frame {
    const Run* run;
    uint32_t index;
    int depth;
  };
  os << "root\n";
  std::vector<Frame> stack;
  auto push_children = [&stack](const Run* run, int depth) {
    // Reversed, so children print in insertion order.
    for (size_t i = run->children.size(); i-- > 0;) {
      const Run* child = run->children[i];
      stack.push_back(Frame{child, child->first, depth});
    }
  };
  push_children(root_, 1);
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Run* run = f.run;
    os << std::string(static_cast<size_t>(f.depth) * 2, ' ') << "obj="
       << run->cold[f.index].object << " (dist=" << run->hot[f.index].distance
       << ", cnt=" << run->cold[f.index].count << ")";
    for (uint32_t i = run->hot[f.index].key;
         i < run->tail_keys.size() && run->tail_keys[i].index == f.index;
         ++i) {
      os << " tail{G" << tails_[run->tail_keys[i].tail].segment
         << ", len=" << run->tail_keys[i].length << "}";
    }
    os << "\n";
    if (f.index < run->last()) {
      stack.push_back(Frame{run, f.index + 1, f.depth + 1});
    } else {
      push_children(run, f.depth + 1);
    }
  }
  return os.str();
}

}  // namespace fcp
