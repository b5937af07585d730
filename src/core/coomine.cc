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

CooMine::CooMine(const MiningParams& params, CooMineOptions options,
                 const ShardSpec& shard)
    : params_(params), options_(options), shard_(shard) {
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
        ops_(kernels::Ops()),
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
  // kernels exit early at the threshold; only the boolean is consumed.
  bool Singleton(uint32_t oi, std::span<const uint64_t>* support) const {
    const uint64_t* bits = s_.object_bits.data() + oi * words_;
    *support = {bits, words_};
    return ops_.popcount_atleast(bits, words_, row_threshold_);
  }

  // Fused AND + popcount bound: the candidate's tidset is written in full
  // (carried to the next level on success) while the bound is counted in
  // the same pass.
  bool Extend(std::span<const uint64_t> parent, const uint32_t* /*prefix*/,
              size_t /*k*/, uint32_t last, std::vector<uint64_t>* cand) const {
    cand->resize(words_);
    return ops_.and_popcount_atleast(parent.data(),
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
  const kernels::KernelOps& ops_;
  const size_t row_threshold_;
  size_t words_ = 0;  ///< bitset words per tidset
};

void CooMine::AddSegment(const Segment& segment, std::vector<Fcp>* out) {
  // Validity is anchored at the stream-time watermark (max end time seen):
  // segments complete out of end-time order across streams, and a monotonic
  // anchor keeps lazy deletion consistent with per-trigger re-evaluation.
  watermark_ = std::max(watermark_, segment.end_time());
  const Timestamp now = watermark_;

  // --- Mining phase: SLCP + Apriori over the LCP table. -------------------
  // A trigger with fewer mined objects than min_pattern_size completes no
  // reportable pattern; it skips the search and the pass (MineApriori would
  // return before loading the table anyway). The phases share their
  // boundary clock reads: start, SLCP end, mining end = maintenance start,
  // end.
  const int64_t start_ns = MonotonicNowNs();
  scratch_.expired.clear();
  const std::span<const ObjectId> mined =
      MinedObjects(segment, params_.max_segment_objects);
  if (mined.size() >= params_.min_pattern_size) {
    const uint64_t visits_before = tree_.stats().distance_bound_visits;
    const uint64_t runs_before = tree_.stats().runs_visited;
    const uint64_t skips_before = tree_.stats().slcp_chains_skipped;
    {
      trace::Span slcp_span("coomine/slcp");
      tree_.SlcpInto(mined, now, params_.tau, &scratch_.expired,
                     &scratch_.lcp, shard_, params_.min_pattern_size);
    }
    stats_.slcp_ns += MonotonicNowNs() - start_ns;
    stats_.lcp_rows += scratch_.lcp.rows.size();
    stats_.lcp_rows_dropped += scratch_.lcp.rows_dropped;
    stats_.slcp_nodes_visited +=
        tree_.stats().distance_bound_visits - visits_before;
    stats_.slcp_runs_visited += tree_.stats().runs_visited - runs_before;
    stats_.slcp_chains_skipped +=
        tree_.stats().slcp_chains_skipped - skips_before;
    trace::Span apriori_span("coomine/apriori");
    TidsetSupport support(segment, now - segment.start_time() <= params_.tau,
                          params_, &scratch_);
    MineApriori(segment, params_, shard_, support, &scratch_.apriori, &stats_,
                out);
  }
  const int64_t mined_ns = MonotonicNowNs();
  stats_.mining_ns += mined_ns - start_ns;

  // --- Maintenance phase: lazy deletion + periodic sweep + insert. --------
  trace::Span maintenance_span("coomine/maintenance");
  for (SegmentId id : scratch_.expired) tree_.Remove(id);
  stats_.segments_expired += scratch_.expired.size();
  IndexSegment(segment, now);
  stats_.maintenance_ns += MonotonicNowNs() - mined_ns;

  ++stats_.segments_processed;
}

void CooMine::AddSegmentIndexOnly(const Segment& segment) {
  // Migration backfill: index the segment exactly as AddSegment's
  // maintenance phase would — same watermark anchor, same periodic-sweep
  // cadence — with SLCP and the Apriori pass skipped. The Fcp output is
  // insensitive to Hlist chain order (streams are sorted and the window is
  // a min/max), so inserting an old segment after newer ones is safe.
  watermark_ = std::max(watermark_, segment.end_time());
  trace::Span backfill_span("coomine/index_backfill");
  Stopwatch maint_timer;
  IndexSegment(segment, watermark_);
  stats_.maintenance_ns += maint_timer.ElapsedNanos();
  ++stats_.segments_indexed_only;
}

void CooMine::IndexSegment(const Segment& segment, Timestamp now) {
  if (options_.periodic_sweep &&
      (last_sweep_ == kMinTimestamp ||
       now - last_sweep_ >= params_.maintenance_interval)) {
    if (last_sweep_ != kMinTimestamp) {
      stats_.segments_expired += tree_.RemoveExpired(now, params_.tau);
      ++stats_.maintenance_runs;
    }
    last_sweep_ = now;
  }
  tree_.Insert(segment);
}

void CooMine::ForceMaintenance(Timestamp now) {
  Stopwatch maint_timer;
  stats_.segments_expired += tree_.RemoveExpired(now, params_.tau);
  ++stats_.maintenance_runs;
  last_sweep_ = now;
  stats_.maintenance_ns += maint_timer.ElapsedNanos();
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
