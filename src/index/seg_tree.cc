#include "index/seg_tree.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/check.h"

namespace fcp {
namespace {

constexpr size_t kPoolSlabNodes = 512;         // nodes per node-pool slab
constexpr size_t kChunkSlabBytes = 64 * 1024;  // bytes per chunk-arena slab

}  // namespace

struct SegTree::Node {
  Node() = default;

  ObjectId object = kInvalidObjectId;
  // Upper bound on the number of edges from this node to the farthest tail
  // node among segments containing it (exact after insertion; may
  // overestimate after deletions, which only weakens pruning).
  uint32_t distance = 0;
  // Exact number of live segments whose path contains this node.
  uint32_t count = 0;

  Node* parent = nullptr;
  uint32_t parent_index = 0;  // position in parent->children (swap-erase)
  PooledVec<Node*> children;  // chunk-arena backed (see ChunkArena)

  // Doubly linked Hlist chain of nodes carrying the same object.
  Node* hnext = nullptr;
  Node* hprev = nullptr;

  // Non-empty iff this is a tail node.
  PooledVec<TailEntry> tails;
};

SegTree::SegTree(SegTreeOptions options)
    : options_(options),
      pool_(kPoolSlabNodes),
      child_arena_(kChunkSlabBytes),
      tail_arena_(kChunkSlabBytes),
      object_arena_(kChunkSlabBytes) {
  root_ = pool_.Acquire();  // freshly constructed: fields are default-init
}

SegTree::~SegTree() = default;  // pool_ destroys every node it ever made

// ---------------------------------------------------------------------------
// Low-level linkage helpers
// ---------------------------------------------------------------------------

SegTree::Node* SegTree::NewNode(ObjectId object) {
  ++num_nodes_;
  ++stats_.nodes_created;
  Node* node = pool_.Acquire();
  stats_.nodes_recycled = pool_.stats().objects_recycled;
  node->object = object;
  node->distance = 0;
  node->count = 0;
  node->parent = nullptr;
  node->parent_index = 0;
  node->hnext = node->hprev = nullptr;
  FCP_DCHECK(node->children.empty() && node->tails.empty());
  return node;
}

void SegTree::FreeNode(Node* node) {
  // The arrays go back to their capacity-class free lists, not to the node:
  // whichever node next needs that capacity reuses them.
  node->children.Reset(child_arena_);
  node->tails.Reset(tail_arena_);
  pool_.Release(node);
  --num_nodes_;
  ++stats_.nodes_deleted;
}

void SegTree::LinkIntoHlist(Node* node) {
  Node*& head = hlist_[node->object];
  node->hprev = nullptr;
  node->hnext = head;
  if (head != nullptr) head->hprev = node;
  head = node;
}

void SegTree::UnlinkFromHlist(Node* node) {
  if (node->hprev != nullptr) {
    node->hprev->hnext = node->hnext;
  } else {
    Node** head = hlist_.Find(node->object);
    FCP_DCHECK(head != nullptr && *head == node);
    if (node->hnext == nullptr) {
      hlist_.Erase(node->object);
    } else {
      *head = node->hnext;
    }
  }
  if (node->hnext != nullptr) node->hnext->hprev = node->hprev;
  node->hprev = node->hnext = nullptr;
}

void SegTree::AttachChild(Node* parent, Node* child) {
  child->parent = parent;
  child->parent_index = static_cast<uint32_t>(parent->children.size());
  parent->children.push_back(child, child_arena_);
}

void SegTree::DetachChild(Node* child) {
  Node* parent = child->parent;
  FCP_DCHECK(parent != nullptr);
  auto& siblings = parent->children;
  FCP_DCHECK(child->parent_index < siblings.size() &&
             siblings[child->parent_index] == child);
  Node* last = siblings.back();
  siblings[child->parent_index] = last;
  last->parent_index = child->parent_index;
  siblings.pop_back();
  child->parent = nullptr;
  child->parent_index = 0;
}

// ---------------------------------------------------------------------------
// Insertion (paper Section 4.4, Algorithm 1)
// ---------------------------------------------------------------------------

void SegTree::FindLongestMatchingPrefix(
    const std::vector<SegmentEntry>& entries) {
  std::vector<Node*>& best = prefix_best_scratch_;
  std::vector<Node*>& path = prefix_path_scratch_;
  best.clear();
  Node* const* head = hlist_.Find(entries.front().object);
  if (head == nullptr) return;

  uint32_t probes = 0;
  for (Node* start = *head; start != nullptr; start = start->hnext) {
    // Bound the number of candidate start nodes examined: popular objects
    // (hot words) can have thousands of chain nodes, and prefix sharing is
    // an optimization, not a correctness requirement. Chains are
    // newest-first, so the first probes are the most likely matches.
    if (++probes > kMaxPrefixProbes) break;
    path.clear();
    path.push_back(start);
    Node* cur = start;
    for (size_t i = 1; i < entries.size(); ++i) {
      Node* next = nullptr;
      for (Node* c : cur->children) {
        if (c->object == entries[i].object) {
          next = c;
          break;
        }
      }
      if (next == nullptr) break;
      path.push_back(next);
      cur = next;
    }
    if (path.size() > best.size()) best.assign(path.begin(), path.end());
    if (best.size() == entries.size()) break;  // cannot do better
  }
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
  FCP_CHECK(registry_.Find(segment.id()) == nullptr);

  // The tie rule (see the header): only segments with simultaneous objects
  // pay for the reordering and the counting.
  const bool tied = HasTiedTimes(segment.entries());
  if (tied) OrderTiedRuns(segment.entries());
  const std::vector<SegmentEntry>& entries =
      tied ? tie_path_scratch_ : segment.entries();

  FindLongestMatchingPrefix(entries);
  const std::vector<Node*>& prefix = prefix_best_scratch_;

  // Update the attributes of the shared prefix (Example 3).
  for (size_t i = 0; i < prefix.size(); ++i) {
    Node* node = prefix[i];
    node->count += 1;
    node->distance =
        std::max(node->distance, length - 1 - static_cast<uint32_t>(i));
  }
  stats_.prefix_nodes_shared += prefix.size();

  // Append the remaining objects below the prefix (or below the root).
  Node* cur = prefix.empty() ? root_ : prefix.back();
  for (size_t i = prefix.size(); i < entries.size(); ++i) {
    Node* node = NewNode(entries[i].object);
    node->count = 1;
    node->distance = length - 1 - static_cast<uint32_t>(i);
    AttachChild(cur, node);
    LinkIntoHlist(node);
    cur = node;
  }

  // `cur` is the tail node of this segment.
  TailEntry tail_entry{segment.id(),         length,
                       tied,                 segment.stream(),
                       segment.start_time(), segment.end_time(),
                       {}};
  // Construction-time distinct cache: no per-insert sort+unique.
  for (ObjectId object : segment.distinct_objects()) {
    tail_entry.objects.push_back(object, object_arena_);
    if (tied) ++tie_counts_[object];
  }
  cur->tails.push_back(tail_entry, tail_arena_);
  tail_of_.Insert(segment.id(), cur);
  registry_.Add(segment.id(),
                SegmentInfo{segment.stream(), segment.start_time(),
                            segment.end_time(), length});
  tlist_.push_back(
      TlistEntry{segment.id(), segment.start_time(), segment.end_time()});
  total_objects_ += length;
  ++stats_.segments_inserted;
}

// ---------------------------------------------------------------------------
// Deletion (paper Section 4.5)
// ---------------------------------------------------------------------------

void SegTree::Remove(SegmentId id) {
  if (tail_of_.Find(id) == nullptr) return;  // removed (lazy deletion races)
  RemoveSegmentPath(id);
}

void SegTree::RemoveSegmentPath(SegmentId id) {
  Node* const* tail_slot = tail_of_.Find(id);
  FCP_CHECK(tail_slot != nullptr);
  Node* tail = *tail_slot;
  const SegmentInfo* info = registry_.Find(id);
  FCP_CHECK(info != nullptr);
  const uint32_t length = info->length;

  // Drop the tail entry.
  auto& tails = tail->tails;
  size_t te = 0;
  while (te < tails.size() && tails[te].segment != id) ++te;
  FCP_CHECK(te < tails.size());
  if (tails[te].tie_counted) {
    for (ObjectId object : tails[te].objects) {
      uint32_t* count = tie_counts_.Find(object);
      FCP_DCHECK(count != nullptr && *count > 0);
      if (--*count == 0) tie_counts_.Erase(object);
    }
  }
  tails[te].objects.Reset(object_arena_);
  tails.erase_at(te);

  // Reconstruct the segment's node path by backtracking length-1 edges.
  std::vector<Node*>& path = path_scratch_;
  path.resize(length);
  Node* n = tail;
  for (uint32_t i = 0; i < length; ++i) {
    FCP_CHECK(n != nullptr && n != root_);
    path[length - 1 - i] = n;
    n = n->parent;
  }

  for (Node* p : path) {
    FCP_CHECK(p->count > 0);
    p->count -= 1;
  }

  // Bottom-up removal of nodes that no longer belong to any live segment.
  for (uint32_t i = length; i-- > 0;) {
    Node* p = path[i];
    if (p->count > 0) continue;
    FCP_DCHECK(p->tails.empty());
    // Children that survive (count > 0) become disconnected subtrees. Every
    // live segment with a tail in one lies wholly inside it (else p's count
    // would be > 0), so the subtree moves under the root as it is (DESIGN.md
    // §2 item 6).
    while (!p->children.empty()) {
      Node* c = p->children.back();
      FCP_DCHECK(c->count > 0);
      DetachChild(c);
      AttachChild(root_, c);
      ++stats_.subtrees_reattached;
    }
    DetachChild(p);
    UnlinkFromHlist(p);
    FreeNode(p);
  }
  path.clear();

  total_objects_ -= length;
  tail_of_.Erase(id);
  registry_.Remove(id);
  ++stats_.segments_removed;
  // The Tlist entry is left behind and skipped/cleaned by RemoveExpired.
}

size_t SegTree::RemoveExpired(Timestamp now, DurationMs tau) {
  // Tlist is in completion order, which tracks segment start order closely;
  // scanning from the front and stopping at the first live, non-expired
  // entry makes the sweep O(#expired) — the purpose of the Tlist
  // (Section 4.5). A segment completed out of start order may survive one
  // sweep longer; it is still filtered from every query by the validity
  // check and is removed once the entries ahead of it expire (or lazily via
  // Slcp's expired-flagging).
  size_t removed = 0;
  while (!tlist_.empty()) {
    const TlistEntry& entry = tlist_.front();
    const SegmentInfo* info = registry_.Find(entry.segment);
    if (info == nullptr) {  // removed earlier (lazy deletion); drop stale
      tlist_.pop_front();
      continue;
    }
    if (now - info->start > tau) {
      RemoveSegmentPath(entry.segment);
      tlist_.pop_front();
      ++removed;
    } else {
      break;
    }
  }
  return removed;
}

// ---------------------------------------------------------------------------
// Search (paper Algorithms 2 & 3)
// ---------------------------------------------------------------------------

void SegTree::CollectRelevantTails(const Node* start, Timestamp now,
                                   DurationMs tau,
                                   std::vector<const TailEntry*>* out,
                                   std::vector<SegmentId>* expired) const {
  constexpr uint32_t kUnbounded = 0xffffffffu;
  std::vector<SearchItem>& queue = search_queue_;
  queue.clear();
  queue.push_back(SearchItem{
      start, options_.use_distance_bound ? start->distance : kUnbounded, 0});

  while (!queue.empty()) {
    const SearchItem item = queue.back();
    queue.pop_back();
    ++stats_.distance_bound_visits;
    const Node* n = item.node;
    for (const TailEntry& t : n->tails) {
      // The segment covers `start` iff `start` lies within length-1 edges
      // above the tail (Theorem 2 / Section 5.2.1).
      if (item.depth < t.length) {
        if (now - t.start > tau) {
          if (expired != nullptr) expired->push_back(t.segment);
        } else {
          out->push_back(&t);
        }
      }
    }
    if (item.budget == 0) continue;
    for (const Node* c : n->children) {
      const uint32_t child_bound =
          options_.use_distance_bound ? c->distance : kUnbounded;
      queue.push_back(SearchItem{c, std::min(child_bound, item.budget - 1),
                                 item.depth + 1});
    }
  }
}

std::vector<SegmentId> SegTree::RelevantSegments(ObjectId object,
                                                 Timestamp now,
                                                 DurationMs tau) const {
  std::vector<SegmentId> result;
  Node* const* head = hlist_.Find(object);
  if (head == nullptr) return result;
  std::vector<const TailEntry*> hits;
  for (const Node* n = *head; n != nullptr; n = n->hnext) {
    CollectRelevantTails(n, now, tau, &hits, nullptr);
  }
  result.reserve(hits.size());
  for (const TailEntry* t : hits) result.push_back(t->segment);
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

namespace {

// The position of the first probe object `shard` owns, or the probe's size.
size_t FirstOwned(std::span<const ObjectId> probe_objects,
                  const ShardSpec& shard) {
  size_t pos = 0;
  while (pos < probe_objects.size() && !shard.Owns(probe_objects[pos])) ++pos;
  return pos;
}

}  // namespace

bool SegTree::SuffixWalkIsCheaper(std::span<const ObjectId> probe_objects,
                                  size_t begin, const ShardSpec& shard) const {
  // Two cursors step through the Hlist chains of the owned and of the other
  // suffix positions, one node at a time. The other cursor leads by at most
  // one node, so whichever set of chains runs out first is the shorter, and
  // the count costs about twice the shorter length, however long the other.
  struct Cursor {
    bool owned;
    size_t pos;  // the next probe position to open
    const Node* node = nullptr;
  };
  auto step = [&](Cursor& c) {
    if (c.node != nullptr) c.node = c.node->hnext;
    while (c.node == nullptr) {
      if (c.pos == probe_objects.size()) return false;
      const ObjectId object = probe_objects[c.pos++];
      if (shard.Owns(object) != c.owned) continue;
      Node* const* head = hlist_.Find(object);
      if (head != nullptr) c.node = *head;
    }
    return true;
  };
  Cursor owned{.owned = true, .pos = begin};
  Cursor other{.owned = false, .pos = begin};
  uint64_t owned_nodes = 0;
  uint64_t other_nodes = 0;
  for (;;) {
    if (!step(other)) return true;  // other_nodes <= owned_nodes
    if (++other_nodes > owned_nodes) {
      if (!step(owned)) return false;  // the owned chains are shorter
      ++owned_nodes;
    }
  }
}

void SegTree::SlcpInto(std::span<const ObjectId> probe_objects, Timestamp now,
                       DurationMs tau, std::vector<SegmentId>* expired,
                       LcpTable* out, const ShardSpec& shard,
                       uint32_t min_common) const {
  out->Clear();
  // Rows are grouped without sorting: a tail entry stamped with this call's
  // epoch has already been reached. The epoch is 64 bit and only grows, so
  // stamps left by earlier calls never need clearing.
  const uint64_t epoch = ++probe_epoch_;

  const size_t np = probe_objects.size();
  if (shard.IsSingleton()) {
    WalkSuffix(probe_objects, 0, shard, now, tau, expired, out, min_common,
               epoch);
  } else if (size_t begin = FirstOwned(probe_objects, shard); begin < np) {
    // Owned-suffix search (see the header comment): every owned pattern
    // lies in probe[begin..], so no position before the first owned one is
    // searched. Of the two ways to build the rows, the walk searches the
    // non-owned suffix chains as well and the verify merges every tail the
    // owned chains reach; the chain lengths pick the cheaper one.
    if (SuffixWalkIsCheaper(probe_objects, begin, shard)) {
      ++stats_.slcp_suffix_walks;
      WalkSuffix(probe_objects, begin, shard, now, tau, expired, out,
                 min_common, epoch);
    } else {
      ++stats_.slcp_owned_verifies;
      VerifyOwned(probe_objects, begin, shard, now, tau, expired, out,
                  min_common, epoch);
    }
  }
  // Lazy deletion removes these in id order; the list is short.
  if (expired != nullptr) {
    std::sort(expired->begin(), expired->end());
    expired->erase(std::unique(expired->begin(), expired->end()),
                   expired->end());
  }
}

void SegTree::WalkSuffix(std::span<const ObjectId> probe_objects,
                         size_t begin, const ShardSpec& shard, Timestamp now,
                         DurationMs tau, std::vector<SegmentId>* expired,
                         LcpTable* out, uint32_t min_common,
                         uint64_t epoch) const {
  // Gather one (row, position) hit per segment and probe position. Until the
  // rows are laid out, a row's common_begin counts its positions and
  // common_end holds its last position + 1. A segment carrying an object
  // twice is reached from two chain nodes for the same position; the second
  // hit is dropped here, so the counts are exact.
  //
  // Only a hit at an owned position reaches an unstamped tail; hits at other
  // positions count only once the tail has one. Positions ascend, so each
  // row opens at its first owned object (the serial shard owns all). With
  // min_common = 1 that hit opens the row. Otherwise it only parks its
  // position in probe_row under kPendingRow, and the first hit at another
  // position opens the row with both: a segment sharing one probe object
  // never gets a Row or a Hit.
  const bool park_first_hit = min_common >= 2;
  uint64_t parked = 0;  // tails whose only hit so far is parked
  std::vector<const TailEntry*>& hits = tail_hits_;
  std::vector<Hit>& hit_records = hit_records_;
  hit_records.clear();
  for (size_t pos = begin; pos < probe_objects.size(); ++pos) {
    Node* const* head = hlist_.Find(probe_objects[pos]);
    if (head == nullptr) continue;
    hits.clear();
    for (const Node* n = *head; n != nullptr; n = n->hnext) {
      CollectRelevantTails(n, now, tau, &hits, expired);
    }
    const bool owned = shard.Owns(probe_objects[pos]);
    const uint32_t position = static_cast<uint32_t>(pos);
    for (const TailEntry* t : hits) {
      if (t->probe_epoch != epoch) {
        if (!owned) continue;
        t->probe_epoch = epoch;
        if (park_first_hit) {
          t->probe_row = kPendingRow | position;
          ++parked;
          continue;
        }
        t->probe_row = static_cast<uint32_t>(out->rows.size());
        out->rows.push_back(LcpTable::Row{.segment = t->segment,
                                          .stream = t->stream,
                                          .start = t->start,
                                          .end = t->end});
      } else if ((t->probe_row & kPendingRow) != 0) {
        const uint32_t first = t->probe_row & ~kPendingRow;
        if (first == position) continue;  // repeated object
        --parked;
        t->probe_row = static_cast<uint32_t>(out->rows.size());
        out->rows.push_back(LcpTable::Row{.segment = t->segment,
                                          .stream = t->stream,
                                          .start = t->start,
                                          .end = t->end,
                                          .common_begin = 1,
                                          .common_end = first + 1});
        hit_records.push_back(Hit{t->probe_row, first});
      }
      LcpTable::Row& row = out->rows[t->probe_row];
      if (row.common_end == position + 1) continue;  // repeated object
      row.common_end = position + 1;
      ++row.common_begin;
      hit_records.push_back(Hit{t->probe_row, position});
    }
  }
  out->rows_dropped = parked;
  // Lay the rows out back to back (prefix sum of the counts), then place
  // every hit in one pass. The outer loop above walked positions in
  // ascending order, so each row's positions land ascending. A row with
  // fewer than min_common positions (possible for min_common >= 3) gets no
  // slice and is dropped after the placement.
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
  for (const Hit& hit : hit_records) {
    LcpTable::Row& row = out->rows[hit.row];
    if (row.common_begin != kDropped) {
      out->common_pool[row.common_end++] = hit.position;
    }
  }
  if (short_rows > 0) {
    std::erase_if(out->rows, [](const LcpTable::Row& row) {
      return row.common_begin == kDropped;
    });
    out->rows_dropped += short_rows;
  }
}

void SegTree::VerifyOwned(std::span<const ObjectId> probe_objects,
                          size_t begin, const ShardSpec& shard, Timestamp now,
                          DurationMs tau, std::vector<SegmentId>* expired,
                          LcpTable* out, uint32_t min_common,
                          uint64_t epoch) const {
  // Only the owned chains are searched, in ascending position order, so a
  // tail is first reached at its smallest owned position p. Its row is p
  // followed by probe[p+1..] ∩ segment: one merge of two sorted arrays
  // (TailEntry::objects is the segment's sorted distinct object list),
  // started past probe[p] on both sides. A tail that cannot reach
  // min_common objects skips the merge; a merge that ends short is rolled
  // back.
  const size_t np = probe_objects.size();
  const ObjectId* const probe = probe_objects.data();
  std::vector<const TailEntry*>& hits = tail_hits_;
  for (size_t pos = begin; pos < np; ++pos) {
    if (!shard.Owns(probe[pos])) continue;
    Node* const* head = hlist_.Find(probe[pos]);
    if (head == nullptr) continue;
    hits.clear();
    for (const Node* n = *head; n != nullptr; n = n->hnext) {
      CollectRelevantTails(n, now, tau, &hits, expired);
    }
    for (const TailEntry* t : hits) {
      if (t->probe_epoch == epoch) continue;
      t->probe_epoch = epoch;
      const ObjectId* b =
          std::upper_bound(t->objects.begin(), t->objects.end(), probe[pos]);
      const ObjectId* const be = t->objects.end();
      const size_t reachable =
          1 + std::min(np - pos - 1, static_cast<size_t>(be - b));
      if (reachable < min_common) {
        ++out->rows_dropped;
        continue;
      }
      LcpTable::Row row{.segment = t->segment,
                        .stream = t->stream,
                        .start = t->start,
                        .end = t->end};
      row.common_begin = static_cast<uint32_t>(out->common_pool.size());
      out->common_pool.push_back(static_cast<uint32_t>(pos));
      const ObjectId* a = probe + pos + 1;
      const ObjectId* const ae = probe + np;
      while (a != ae && b != be) {
        if (*a < *b) {
          ++a;
        } else if (*b < *a) {
          ++b;
        } else {
          out->common_pool.push_back(static_cast<uint32_t>(a - probe));
          ++a;
          ++b;
        }
      }
      row.common_end = static_cast<uint32_t>(out->common_pool.size());
      if (row.common_end - row.common_begin < min_common) {
        out->common_pool.resize(row.common_begin);
        ++out->rows_dropped;
        continue;
      }
      out->rows.push_back(row);
    }
  }
}

std::vector<LcpRow> SegTree::Slcp(const Segment& probe, Timestamp now,
                                  DurationMs tau,
                                  std::vector<SegmentId>* expired) const {
  LcpTable table;
  SlcpInto(probe.distinct_objects(), now, tau, expired, &table);
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
  return pool_.SlabBytes() + pool_.FreeListBytes() + child_arena_.SlabBytes() +
         child_arena_.FreeListBytes() + tail_arena_.SlabBytes() +
         tail_arena_.FreeListBytes() + object_arena_.SlabBytes() +
         object_arena_.FreeListBytes();
}

size_t SegTree::MemoryUsage() const {
  // Every node struct and every child/tail array lives in the arenas, so
  // ArenaBytes() — slabs counted in full, live, free-listed and never-used
  // space alike — already covers the whole tree without walking it. That
  // memory is held either way, so the figure never undercounts.
  return ArenaBytes() + hlist_.MemoryUsage() + tlist_.MemoryUsage() +
         tail_of_.MemoryUsage() + tie_counts_.MemoryUsage() +
         registry_.MemoryUsage();
}

void SegTree::CheckInvariants() const {
  size_t walked = 0;
  std::unordered_map<const Node*, uint32_t> expected_count;
  std::unordered_map<ObjectId, size_t> object_nodes;

  // Pass 1: structural walk.
  std::vector<const Node*> stack{root_};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    for (size_t i = 0; i < n->children.size(); ++i) {
      const Node* c = n->children[i];
      FCP_CHECK(c->parent == n);
      FCP_CHECK(c->parent_index == i);
      FCP_CHECK(c->count > 0);
      stack.push_back(c);
    }
    if (n != root_) {
      ++walked;
      ++object_nodes[n->object];
      expected_count[n] = 0;
    }
  }
  FCP_CHECK(walked == num_nodes_);

  // Pass 2: every live segment's path exists, matches its length, and
  // contributes to counts; distance is an upper bound along the path.
  uint64_t objects_total = 0;
  std::unordered_map<ObjectId, uint32_t> expected_ties;
  for (const auto& [id, info] : registry_) {
    Node* const* tail_slot = tail_of_.Find(id);
    FCP_CHECK(tail_slot != nullptr);
    const Node* n = *tail_slot;
    bool tail_entry_found = false;
    for (const TailEntry& t : n->tails) {
      if (t.segment == id) {
        FCP_CHECK(t.length == info.length);
        tail_entry_found = true;
        if (t.tie_counted) {
          for (ObjectId object : t.objects) ++expected_ties[object];
        }
      }
    }
    FCP_CHECK(tail_entry_found);
    for (uint32_t d = 0; d < info.length; ++d) {
      FCP_CHECK(n != nullptr && n != root_);
      FCP_CHECK(n->distance >= d);
      ++expected_count[n];
      n = n->parent;
    }
    objects_total += info.length;
  }
  FCP_CHECK(objects_total == total_objects_);
  for (const auto& [node, cnt] : expected_count) {
    FCP_CHECK(node->count == cnt);
  }
  FCP_CHECK(tail_of_.size() == registry_.size());
  // Tie counts are exactly the tie-counted live segments' distinct objects.
  FCP_CHECK(tie_counts_.size() == expected_ties.size());
  for (const auto& [object, cnt] : expected_ties) {
    const uint32_t* count = tie_counts_.Find(object);
    FCP_CHECK(count != nullptr && *count == cnt);
  }

  // Pass 3: Hlist chains exactly cover the tree's nodes per object.
  size_t chained = 0;
  for (const auto& [object, head] : hlist_) {
    FCP_CHECK(head != nullptr);
    FCP_CHECK(head->hprev == nullptr);
    size_t len = 0;
    for (const Node* n = head; n != nullptr; n = n->hnext) {
      FCP_CHECK(n->object == object);
      if (n->hnext != nullptr) FCP_CHECK(n->hnext->hprev == n);
      ++len;
    }
    auto it = object_nodes.find(object);
    FCP_CHECK(it != object_nodes.end() && it->second == len);
    chained += len;
  }
  FCP_CHECK(chained == num_nodes_);
}

std::string SegTree::DebugString() const {
  std::ostringstream os;
  struct Frame {
    const Node* node;
    int depth;
  };
  std::vector<Frame> stack{{root_, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.node == root_) {
      os << "root\n";
    } else {
      os << std::string(static_cast<size_t>(f.depth) * 2, ' ') << "obj="
         << f.node->object << " (dist=" << f.node->distance
         << ", cnt=" << f.node->count << ")";
      for (const TailEntry& t : f.node->tails) {
        os << " tail{G" << t.segment << ", len=" << t.length << "}";
      }
      os << "\n";
    }
    // Push in reverse so children print in insertion order.
    for (size_t i = f.node->children.size(); i-- > 0;) {
      stack.push_back(Frame{f.node->children[i], f.depth + 1});
    }
  }
  return os.str();
}

}  // namespace fcp
