#include "core/coomine.h"

#include <algorithm>
#include <bit>
#include <span>

#include "common/check.h"
#include "telemetry/trace.h"
#include "util/kernels/kernels.h"
#include "util/radix_sort.h"
#include "util/stopwatch.h"

namespace fcp {

CooMine::CooMine(const MiningParams& params, const ShardSpec& shard)
    : params_(params), shard_(shard) {
  FCP_CHECK(params.Validate().ok());
  FCP_CHECK(shard.count >= 1 && shard.index < shard.count);
}

// Tidset support (Algorithm 4, counted Eclat-style): a pattern's support is
// the bitset of the LCP rows whose common set holds all its objects, and
// extending a pattern ANDs its bitset with the joined-in object's.
// Def. 3 counts distinct streams, not rows: each row carries the dense
// rank of its stream within the trigger, and Streams() counts distinct ranks
// over the set bits with a per-rank epoch stamp, so no occurrence list is
// built or sorted to decide frequency.
//
// The trigger supports its own patterns only while it is valid at the
// watermark, as every stored segment does. A segment completes when its
// stream's next event arrives (or at Flush), so an idle stream's trigger
// can reach the miner more than tau after its start; it then counts for
// nothing, and theta rows are needed instead of theta - 1.
class CooMine::TidsetSupport {
 public:
  using Elem = uint64_t;

  TidsetSupport(const Segment& trigger, bool trigger_valid,
                const MiningParams& params, MiningScratch* scratch)
      : s_(*scratch),
        probe_{trigger.stream(), trigger.start_time(), trigger.end_time()},
        probe_valid_(trigger_valid),
        row_threshold_(params.theta - (trigger_valid ? 1 : 0)) {}

  // Builds the per-object tidsets: bit b of object oi's tidset is set iff
  // LCP row b's common set contains objects[oi]. SLCP was given these very
  // objects (the capped mined prefix) and the pattern-size floor, so its
  // rows already are the ones that can support a reported pattern: each
  // shares >= min_pattern_size of the objects and, on a shard, >= 1 owned
  // one (every supporting row of an owned pattern contains the pattern's
  // owned minimum object). Rows record their common sets as ascending
  // positions into `objects`, so the bits are set directly. Each row also
  // gets its stream's rank (the probe's stream is 0).
  void Load(std::span<const ObjectId> objects,
            std::span<const uint8_t> /*owned*/) {
    const LcpTable& lcp = s_.lcp;
    const size_t num_rows = lcp.rows.size();
    words_ = (num_rows + 63) / 64;
    s_.object_bits.assign(objects.size() * words_, 0);
    s_.row_rank.clear();
    s_.stream_rank.Clear();
    s_.rank_streams.clear();
    RankOf(probe_.stream);
    for (size_t b = 0; b < num_rows; ++b) {
      const LcpTable::Row& row = lcp.rows[b];
      s_.row_rank.push_back(RankOf(row.stream));
      const uint64_t bit_word = uint64_t{1} << (b % 64);
      const size_t word = b / 64;
      for (const uint32_t* p = lcp.CommonBegin(row); p != lcp.CommonEnd(row);
           ++p) {
        s_.object_bits[*p * words_ + word] |= bit_word;
      }
    }
    // Stamps of ranks new to this trigger start at 0, below every epoch.
    if (s_.rank_epoch.size() < s_.rank_streams.size()) {
      s_.rank_epoch.resize(s_.rank_streams.size(), 0);
    }
  }

  // The popcount bound is exact pruning, not an approximation: popcount
  // rows plus a valid probe bounds the distinct supporting streams, so failing
  // it proves the candidate infrequent without touching the rows. The
  // count exits early at the threshold; only the boolean is consumed.
  bool Singleton(uint32_t oi, std::span<const uint64_t>* support) const {
    const uint64_t* bits = s_.object_bits.data() + oi * words_;
    *support = {bits, words_};
    return kernels::PopcountAtLeast(bits, words_, row_threshold_);
  }

  // Fused AND + popcount bound: the candidate's tidset is written in full
  // (carried to the next level on success) while the bound is counted in
  // the same pass.
  bool Extend(std::span<const uint64_t> parent, const uint32_t* /*prefix*/,
              size_t /*k*/, uint32_t last, std::vector<uint64_t>* cand) const {
    cand->resize(words_);
    return kernels::AndPopcountAtLeast(parent.data(),
                                       s_.object_bits.data() + last * words_,
                                       cand->data(), words_, row_threshold_);
  }

  // Distinct stream ranks over a valid probe and the set bits: a rank
  // counts the first time its stamp differs from this call's epoch. Epochs
  // are 64 bit and only grow, so stamps never need clearing. The listing
  // form sorts only the distinct streams it found.
  size_t Streams(std::span<const uint64_t> support, size_t need,
                 std::vector<StreamId>* out) {
    const uint64_t epoch = ++s_.stream_epoch;
    uint64_t* const stamp = s_.rank_epoch.data();
    size_t seen = 0;
    if (probe_valid_) {
      stamp[0] = epoch;
      seen = 1;
      if (out != nullptr) {
        out->push_back(s_.rank_streams[0]);
      } else if (seen >= need) {
        return seen;
      }
    }
    for (size_t w = 0; w < support.size(); ++w) {
      uint64_t word = support[w];
      while (word != 0) {
        const size_t b = w * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        const uint32_t rank = s_.row_rank[b];
        if (stamp[rank] == epoch) continue;
        stamp[rank] = epoch;
        ++seen;
        if (out != nullptr) {
          out->push_back(s_.rank_streams[rank]);
        } else if (seen >= need) {
          return seen;
        }
      }
    }
    if (out != nullptr) RadixSortU32(out, &s_.sort_scratch);
    return seen;
  }

  // A valid probe's own occurrence first, then one per set bit.
  void Occurrences(std::span<const uint64_t> support,
                   std::vector<Occurrence>* out) const {
    if (probe_valid_) out->push_back(probe_);
    for (size_t w = 0; w < support.size(); ++w) {
      uint64_t word = support[w];
      while (word != 0) {
        const size_t b = w * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        const LcpTable::Row& row = s_.lcp.rows[b];
        out->push_back(Occurrence{row.stream, row.start, row.end});
      }
    }
  }

 private:
  // The dense rank of `stream` within this trigger, assigned in first-seen
  // order. The map holds rank + 1, so one probe both finds a seen stream
  // and claims the slot of a new one (0 = just inserted).
  uint32_t RankOf(StreamId stream) {
    uint32_t& slot = s_.stream_rank[stream];
    if (slot == 0) {
      s_.rank_streams.push_back(stream);
      slot = static_cast<uint32_t>(s_.rank_streams.size());
    }
    return slot - 1;
  }

  MiningScratch& s_;
  const Occurrence probe_;
  const bool probe_valid_;
  const size_t row_threshold_;
  size_t words_ = 0;  ///< bitset words per tidset
};

// Scanning kEntriesPerSlot log entries (sequential, a few cache lines) is
// priced as one Hlist slot of a walk (a dependent cache miss).
class CooMine::RecertifyPrice final : public FreshWalkPrice {
 public:
  static constexpr uint64_t kEntriesPerSlot = 16;

  RecertifyPrice(CooMine* miner, std::span<const ObjectId> mined,
                 uint64_t log_begin)
      : miner_(*miner), mined_(mined), log_begin_(log_begin) {}

  uint64_t ExtraSlots(uint64_t slack) override {
    const uint64_t scan = (miner_.log_.next_id() - log_begin_) /
                          kEntriesPerSlot;
    if (scan >= slack) return slack;
    return scan + miner_.CollectLogged(mined_, log_begin_, slack - scan);
  }

 private:
  CooMine& miner_;
  const std::span<const ObjectId> mined_;
  const uint64_t log_begin_;
};

void CooMine::AddSegment(const Segment& segment, std::vector<Fcp>* out) {
  // Validity is anchored at the stream-time watermark (max end time seen):
  // segments complete out of end-time order across streams, and a monotonic
  // anchor expires each segment once and for good.
  watermark_ = std::max(watermark_, segment.end_time());
  const Timestamp now = watermark_;
  const bool trigger_valid = now - segment.start_time() <= params_.tau;
  ++triggers_;

  // The phases share their boundary clock reads: sweep start, mining start,
  // SLCP end, mining end = insert start, end. The sweep and the insert are
  // maintenance.
  const int64_t sweep_ns = MonotonicNowNs();
  Sweep(now);
  const int64_t start_ns = MonotonicNowNs();
  stats_.maintenance_ns += start_ns - sweep_ns;

  // --- Mining phase: SLCP + Apriori over the LCP table. -------------------
  // A trigger with fewer mined objects than min_pattern_size completes no
  // reportable pattern; it skips the search and the pass (MineApriori would
  // return before loading the table anyway).
  const std::span<const ObjectId> mined =
      MinedObjects(segment, params_.max_segment_objects);
  const size_t out_begin = out->size();
  if (mined.size() >= params_.min_pattern_size) {
    const SegTreeStats tree_before = tree_.stats();
    // The new-object rule (DESIGN.md §2.1): with its premise, SLCP may walk
    // only the new objects' chains; the Apriori pass then emits only the
    // patterns holding a new object, and the log supplies the rest.
    const StreamTrigger* previous =
        shard_.IsSingleton() ? MarkFreshObjects(segment, mined, now) : nullptr;
    std::span<const uint8_t> fresh;
    if (previous != nullptr) fresh = scratch_.fresh;
    RecertifyPrice price(
        this, mined,
        previous != nullptr ? std::max(previous->log_begin, log_.first_id())
                            : 0);
    bool fresh_only;
    {
      trace::Span slcp_span("coomine/slcp");
      fresh_only = tree_.SlcpInto(mined, &scratch_.lcp, shard_,
                                  params_.min_pattern_size, fresh, &price);
    }
    stats_.slcp_ns += MonotonicNowNs() - start_ns;
    stats_.lcp_rows += scratch_.lcp.rows.size();
    stats_.lcp_rows_dropped += scratch_.lcp.rows_dropped;
    // Every supporter of a pattern holding a fresh object holds that object
    // and so has a row: without rows only the trigger supports it, one
    // stream, below any theta > 1. The pass is skipped then; its probe
    // objects still count.
    if (fresh_only && scratch_.lcp.rows.empty() && params_.theta > 1) {
      stats_.slcp_probes += mined.size();
    } else {
      trace::Span apriori_span("coomine/apriori");
      TidsetSupport support(segment, trigger_valid, params_, &scratch_);
      MineApriori(segment, params_, shard_, support, &scratch_.apriori,
                  &stats_, out,
                  fresh_only ? fresh : std::span<const uint8_t>{});
    }
    if (fresh_only) {
      ++stats_.new_object_triggers;
      ReemitLogged(segment, trigger_valid, out_begin, out);
    }
    // The re-certification walks count as SLCP visits too.
    const SegTreeStats& tree_after = tree_.stats();
    stats_.slcp_nodes_visited +=
        tree_after.distance_bound_visits - tree_before.distance_bound_visits;
    stats_.slcp_runs_visited +=
        tree_after.runs_visited - tree_before.runs_visited;
    stats_.slcp_chains_skipped +=
        tree_after.slcp_chains_skipped - tree_before.slcp_chains_skipped;
  }
  if (shard_.IsSingleton()) RecordTrigger(segment, mined, now, out_begin, *out);
  const int64_t mined_ns = MonotonicNowNs();
  stats_.mining_ns += mined_ns - start_ns;

  // --- Maintenance phase: the insert (the sweep ran first). --------------
  // The watermark only grows, so an expired trigger (an idle stream's late
  // segment) supports nothing from now on and is not indexed: the tree
  // keeps exactly the segments valid at the watermark.
  trace::Span maintenance_span("coomine/maintenance");
  if (trigger_valid) tree_.Insert(segment);
  stats_.maintenance_ns += MonotonicNowNs() - mined_ns;

  ++stats_.segments_processed;
}

const CooMine::StreamTrigger* CooMine::MarkFreshObjects(
    const Segment& segment, std::span<const ObjectId> mined, Timestamp now) {
  const StreamTrigger* previous = last_trigger_.Find(segment.stream());
  if (previous == nullptr || previous->number <= last_cut_ ||
      now - previous->start > params_.tau) {
    return nullptr;
  }
  // The sweep removes only expired segments, so a valid G_p is indexed.
  const std::vector<ObjectId>& held = previous->objects;
  std::vector<uint8_t>& fresh = scratch_.fresh;
  // A branch-free merge of the two sorted lists: a mined object below the
  // held one is fresh, an equal one is not, and a larger one waits for the
  // next held object (its flag is written again).
  fresh.assign(mined.size(), 1);
  size_t i = 0, j = 0;
  while (i < mined.size() && j < held.size()) {
    const ObjectId a = mined[i], b = held[j];
    fresh[i] = a != b ? 1 : 0;
    i += a <= b ? 1 : 0;
    j += a >= b ? 1 : 0;
  }
  return previous;
}

uint64_t CooMine::CollectLogged(std::span<const ObjectId> mined,
                                uint64_t log_begin, uint64_t slack) {
  MiningScratch& s = scratch_;
  s.logged.clear();
  // Every frequent pattern P of the trigger's old objects was emitted by
  // the last trigger T before this one whose mined objects hold P: each of
  // P's supporters now was indexed and valid at T, and G_p, which holds P
  // and is valid now, stood in for this stream. T is G_p or later, because
  // G_p holds P and no trigger since was cut. So P is in the log since
  // G_p's first FCP. A signature with a bit outside the old objects' rules
  // an entry out.
  s.old_objects.clear();
  uint64_t old_signature = 0;
  for (size_t i = 0; i < mined.size(); ++i) {
    if (s.fresh[i]) continue;
    s.old_objects.push_back(mined[i]);
    old_signature |= ObjectBit(mined[i]);
  }
  // Re-certifying a pattern walks its shortest chain. A pattern logged
  // twice is priced twice, which errs toward the full walk; the count stops
  // at the slack, before the sort.
  uint64_t slots = 0;
  for (uint64_t id = log_begin; id < log_.next_id(); ++id) {
    if ((log_.Signature(id) & ~old_signature) != 0) continue;
    const std::span<const ObjectId> pattern = log_.Pattern(id);
    if (!std::includes(s.old_objects.begin(), s.old_objects.end(),
                       pattern.begin(), pattern.end())) {
      continue;
    }
    uint32_t shortest = ~uint32_t{0};
    for (const ObjectId object : pattern) {
      shortest = std::min(shortest, tree_.chain_length(object));
    }
    slots += shortest;
    if (slots >= slack) return slack;
    s.logged.push_back(id);
  }
  // Each pattern once, in emission order.
  std::sort(s.logged.begin(), s.logged.end(), [&](uint64_t a, uint64_t b) {
    return EmitOrderLess(log_.Pattern(a), log_.Pattern(b));
  });
  s.logged.erase(std::unique(s.logged.begin(), s.logged.end(),
                             [&](uint64_t a, uint64_t b) {
                               return !EmitOrderLess(log_.Pattern(a),
                                                   log_.Pattern(b));
                             }),
                 s.logged.end());
  return slots;
}

void CooMine::ReemitLogged(const Segment& segment, bool trigger_valid,
                           size_t out_begin, std::vector<Fcp>* out) {
  MiningScratch& s = scratch_;
  if (s.logged.empty()) return;
  // Re-certify each against the swept tree, counting the trigger itself
  // while it is valid, and build its FCP as the Apriori pass would.
  s.reemitted.clear();
  for (const uint64_t id : s.logged) {
    ++stats_.log_patterns_certified;
    const std::span<const ObjectId> pattern = log_.Pattern(id);
    tree_.SupportersInto(pattern, &s.supporters);
    s.streams.clear();
    if (trigger_valid) s.streams.push_back(segment.stream());
    for (const LcpTable::Row& row : s.supporters.rows) {
      s.streams.push_back(row.stream);
    }
    if (s.streams.size() < params_.theta) continue;
    RadixSortU32(&s.streams, &s.sort_scratch);
    s.streams.erase(std::unique(s.streams.begin(), s.streams.end()),
                    s.streams.end());
    if (s.streams.size() < params_.theta) continue;
    Fcp fcp;
    fcp.objects.assign(pattern.begin(), pattern.end());
    fcp.streams.assign(s.streams.begin(), s.streams.end());
    fcp.trigger = segment.id();
    fcp.window_start = kMaxTimestamp;
    fcp.window_end = kMinTimestamp;
    if (trigger_valid) {
      fcp.window_start = segment.start_time();
      fcp.window_end = segment.end_time();
    }
    for (const LcpTable::Row& row : s.supporters.rows) {
      fcp.window_start = std::min(fcp.window_start, row.start);
      fcp.window_end = std::max(fcp.window_end, row.end);
    }
    s.reemitted.push_back(std::move(fcp));
  }
  stats_.reemissions += s.reemitted.size();
  stats_.fcps_emitted += s.reemitted.size();

  // Merge from the back: both runs are in EmitOrderLess order, and no
  // pattern is in both (only the Apriori pass's hold a fresh object).
  size_t mined_end = out->size();
  size_t j = s.reemitted.size();
  out->resize(mined_end + j);
  for (size_t w = out->size(); j > 0;) {
    if (mined_end > out_begin &&
        EmitOrderLess(s.reemitted[j - 1].objects,
                      (*out)[mined_end - 1].objects)) {
      (*out)[--w] = std::move((*out)[--mined_end]);
    } else {
      (*out)[--w] = std::move(s.reemitted[--j]);
    }
  }
  s.reemitted.clear();
}

void CooMine::RecordTrigger(const Segment& segment,
                            std::span<const ObjectId> mined, Timestamp now,
                            size_t out_begin, const std::vector<Fcp>& out) {
  // A later trigger needs the entries since its G_p's first, and G_p is
  // valid then: those were emitted at a watermark >= G_p's start, which is
  // >= that trigger's watermark - tau >= this one's.
  log_.DropBefore(now - params_.tau);
  const uint64_t log_begin = log_.next_id();
  for (size_t i = out_begin; i < out.size(); ++i) {
    log_.Append(out[i].objects, now);
  }
  StreamTrigger& last = last_trigger_[segment.stream()];
  last.number = triggers_;
  last.start = segment.start_time();
  last.log_begin = log_begin;
  last.objects.assign(segment.distinct_objects().begin(),
                      segment.distinct_objects().end());
  if (mined.size() < segment.distinct_objects().size()) last_cut_ = triggers_;
}

void CooMine::EmissionLog::Append(std::span<const ObjectId> pattern,
                                  Timestamp at) {
  uint64_t signature = 0;
  for (const ObjectId object : pattern) signature |= ObjectBit(object);
  entries_.push_back(Entry{at, signature, objects_base_ + objects_.size(),
                           static_cast<uint32_t>(pattern.size())});
  objects_.insert(objects_.end(), pattern.begin(), pattern.end());
}

void CooMine::EmissionLog::DropBefore(Timestamp at) {
  while (head_ < entries_.size() && entries_[head_].at < at) ++head_;
  // Compact once the dropped half dominates: amortized O(1) per entry, and
  // erasing a prefix keeps the capacity.
  if (head_ >= 64 && 2 * head_ >= entries_.size()) {
    const uint64_t objects_end = head_ < entries_.size()
                                     ? entries_[head_].begin
                                     : objects_base_ + objects_.size();
    objects_.erase(objects_.begin(),
                   objects_.begin() +
                       static_cast<ptrdiff_t>(objects_end - objects_base_));
    objects_base_ = objects_end;
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<ptrdiff_t>(head_));
    base_ += head_;
    head_ = 0;
  }
}

std::span<const ObjectId> CooMine::EmissionLog::Pattern(uint64_t id) const {
  const Entry& entry = entries_[id - base_];
  return {objects_.data() + (entry.begin - objects_base_), entry.size};
}

void CooMine::AddSegmentIndexOnly(const Segment& segment) {
  // Migration backfill: index the segment exactly as AddSegment would —
  // same watermark anchor, same sweep, an expired segment left out — with
  // SLCP and the Apriori pass skipped. The Fcp output is insensitive to
  // Hlist chain order (streams are sorted and the window is a min/max), so
  // inserting an old segment after newer ones is safe. A segment indexed
  // unmined breaks the new-object rule's premise, as a cut trigger does.
  watermark_ = std::max(watermark_, segment.end_time());
  last_cut_ = ++triggers_;
  trace::Span backfill_span("coomine/index_backfill");
  Stopwatch maint_timer;
  Sweep(watermark_);
  if (watermark_ - segment.start_time() <= params_.tau) tree_.Insert(segment);
  stats_.maintenance_ns += maint_timer.ElapsedNanos();
  ++stats_.segments_indexed_only;
}

void CooMine::Sweep(Timestamp now) {
  trace::Span sweep_span("coomine/sweep");
  const size_t removed = tree_.RemoveExpired(now, params_.tau);
  // The tree now holds exactly the segments valid at `now`.
  FCP_DCHECK(tree_.oldest_start() >= now - params_.tau);
  stats_.segments_expired += removed;
  if (removed > 0) ++stats_.maintenance_runs;
}

void CooMine::PrefetchSegment(const Segment& segment) const {
  // Warm the Hlist head slots the upcoming AddSegment will probe. Capped:
  // beyond a few lines the prefetches evict each other before they help.
  constexpr size_t kPrefetchEntryCap = 16;
  size_t issued = 0;
  for (const SegmentEntry& entry : segment.entries()) {
    tree_.PrefetchObject(entry.object);
    if (++issued >= kPrefetchEntryCap) break;
  }
}

size_t CooMine::MemoryUsage() const { return tree_.MemoryUsage(); }

MinerIntrospection CooMine::Introspect() const {
  MinerIntrospection view;
  view.live_segments = tree_.num_segments();
  view.index_nodes = tree_.num_nodes();
  view.index_entries = tree_.total_objects();
  view.arena_bytes = tree_.ArenaBytes();
  view.index_bytes = view.arena_bytes + tree_.TableBytes();
  view.compression_ratio = tree_.CompressionRatio();
  return view;
}

}  // namespace fcp
