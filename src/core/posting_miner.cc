#include "core/posting_miner.h"

#include <algorithm>
#include <span>

#include "common/check.h"
#include "telemetry/trace.h"
#include "util/intersect.h"
#include "util/stopwatch.h"

namespace fcp {

template <typename Index>
class PostingMiner<Index>::PostingSupport {
 public:
  using Elem = SegmentId;

  PostingSupport(Index& index, Timestamp now, const MiningParams& params,
                 MiningScratch* scratch)
      : index_(index),
        s_(*scratch),
        now_(now),
        tau_(params.tau),
        theta_(params.theta),
        min_size_(params.min_pattern_size) {}

  // Valid supporters per probe object, ascending id (DIMine: the posting
  // list; MatrixMine: the diagonal cell). They include the trigger, which
  // was indexed just before mining, unless it has already expired. With min_pattern_size m >= 2 a
  // supporter holding fewer than m of `objects` is dropped from every list:
  // it supports no reported pattern (CooMine's SLCP builds no row for it).
  void Load(std::span<const ObjectId> objects,
            std::span<const uint8_t> /*owned*/) {
    objects_ = objects;
    if (s_.valid.size() < objects.size()) s_.valid.resize(objects.size());
    for (size_t oi = 0; oi < objects.size(); ++oi) {
      if constexpr (kPairCells) {
        index_.ValidSegmentsInto(objects[oi], objects[oi], now_, tau_,
                                 &s_.valid[oi]);
      } else {
        index_.ValidSegmentsInto(objects[oi], now_, tau_, &s_.valid[oi]);
      }
    }
    if (min_size_ < 2) return;
    s_.held.Clear();
    for (size_t oi = 0; oi < objects.size(); ++oi) {
      for (SegmentId id : s_.valid[oi]) ++s_.held[id];
    }
    for (size_t oi = 0; oi < objects.size(); ++oi) {
      std::erase_if(s_.valid[oi], [this](SegmentId id) { return !Holds(id); });
    }
  }

  // The length bound is exact: distinct streams never exceed supporters.
  bool Singleton(uint32_t oi, std::span<const SegmentId>* support) const {
    *support = s_.valid[oi];
    return support->size() >= theta_;
  }

  bool Extend(std::span<const SegmentId> parent, const uint32_t* prefix,
              size_t k, uint32_t last, std::vector<SegmentId>* cand) {
    if constexpr (kPairCells) {
      const ObjectId first = objects_[prefix[0]];
      if (k == 1) {
        // The cell's supporters hold both objects: at m >= 3 some still
        // hold too few.
        index_.ValidSegmentsInto(first, objects_[last], now_, tau_, cand);
        if (min_size_ >= 3) {
          std::erase_if(*cand, [this](SegmentId id) { return !Holds(id); });
        }
      } else {
        index_.ValidSegmentsInto(first, objects_[last], now_, tau_,
                                 &s_.pair_cell);
        IntersectSorted(parent.data(), parent.size(), s_.pair_cell.data(),
                        s_.pair_cell.size(), cand);
      }
    } else {
      IntersectSorted(parent.data(), parent.size(), s_.valid[last].data(),
                      s_.valid[last].size(), cand);
    }
    return cand->size() >= theta_;
  }

  // Distinct streams of the supporters (the trigger among them): collected
  // and sorted. The list-length bound already passed, so there is no cheap
  // early exit; `need` is unused.
  size_t Streams(std::span<const SegmentId> support, size_t /*need*/,
                 std::vector<StreamId>* out) {
    std::vector<StreamId>& streams = out != nullptr ? *out : s_.streams;
    streams.clear();
    for (SegmentId id : support) {
      const SegmentInfo* info = index_.registry().Find(id);
      FCP_DCHECK(info != nullptr);
      streams.push_back(info->stream);
    }
    std::sort(streams.begin(), streams.end());
    streams.erase(std::unique(streams.begin(), streams.end()), streams.end());
    return streams.size();
  }

  void Occurrences(std::span<const SegmentId> support,
                   std::vector<Occurrence>* out) const {
    for (SegmentId id : support) {
      const SegmentInfo* info = index_.registry().Find(id);
      FCP_DCHECK(info != nullptr);
      out->push_back(Occurrence{info->stream, info->start, info->end});
    }
  }

 private:
  // True iff supporter `id` holds >= min_pattern_size of the mined objects
  // (Load counted them).
  bool Holds(SegmentId id) const {
    const uint32_t* held = s_.held.Find(id);
    return held != nullptr && *held >= min_size_;
  }

  Index& index_;
  MiningScratch& s_;
  const Timestamp now_;
  const DurationMs tau_;
  const uint32_t theta_;
  const uint32_t min_size_;
  std::span<const ObjectId> objects_;
};

template <typename Index>
PostingMiner<Index>::PostingMiner(const MiningParams& params,
                                  const ShardSpec& shard)
    : params_(params), shard_(shard) {
  FCP_CHECK(params.Validate().ok());
  FCP_CHECK(shard.count >= 1 && shard.index < shard.count);
}

template <typename Index>
void PostingMiner<Index>::AddSegment(const Segment& segment,
                                     std::vector<Fcp>* out) {
  // Monotonic watermark anchor; see CooMine::AddSegment.
  watermark_ = std::max(watermark_, segment.end_time());
  const Timestamp now = watermark_;

  // One clock read marks both the end of maintenance and the start of
  // mining.
  const int64_t start_ns = MonotonicNowNs();
  {
    trace::Span span(kPairCells ? "matrixmine/maintenance"
                                : "dimine/maintenance");
    IndexSegment(segment, now);
  }
  const int64_t indexed_ns = MonotonicNowNs();
  stats_.maintenance_ns += indexed_ns - start_ns;

  {
    trace::Span span(kPairCells ? "matrixmine/mine" : "dimine/mine");
    PostingSupport support(index_, now, params_, &scratch_);
    MineApriori(segment, params_, shard_, support, &scratch_.apriori, &stats_,
                out);
  }
  stats_.mining_ns += MonotonicNowNs() - indexed_ns;

  ++stats_.segments_processed;
}

template <typename Index>
void PostingMiner<Index>::AddSegmentIndexOnly(const Segment& segment) {
  // Migration backfill: index exactly as AddSegment would (Index::Insert
  // keeps postings and cells ascending when the backfilled id is older than
  // existing entries), with the mining pass skipped.
  watermark_ = std::max(watermark_, segment.end_time());
  Stopwatch maint_timer;
  {
    trace::Span span(kPairCells ? "matrixmine/index_backfill"
                                : "dimine/index_backfill");
    IndexSegment(segment, watermark_);
  }
  stats_.maintenance_ns += maint_timer.ElapsedNanos();
  ++stats_.segments_indexed_only;
}

template <typename Index>
void PostingMiner<Index>::IndexSegment(const Segment& segment, Timestamp now) {
  index_.Insert(segment);
  if (last_sweep_ == kMinTimestamp) {
    last_sweep_ = now;
  } else if (now - last_sweep_ >= kMaintenanceInterval) {
    stats_.segments_expired += index_.RemoveExpired(now, params_.tau);
    ++stats_.maintenance_runs;
    last_sweep_ = now;
  }
}

template <typename Index>
void PostingMiner<Index>::PrefetchSegment(
    [[maybe_unused]] const Segment& segment) const {
  // Warm the posting-list slots the upcoming AddSegment will probe (cap as
  // in CooMine::PrefetchSegment: more prefetches start evicting each other).
  // The Matrix has no per-object slot to warm.
  if constexpr (!kPairCells) {
    constexpr size_t kPrefetchEntryCap = 16;
    size_t issued = 0;
    for (const SegmentEntry& entry : segment.entries()) {
      index_.PrefetchObject(entry.object);
      if (++issued >= kPrefetchEntryCap) break;
    }
  }
}

template <typename Index>
MinerIntrospection PostingMiner<Index>::Introspect() const {
  MinerIntrospection view;
  view.live_segments = index_.num_segments();
  if constexpr (kPairCells) {
    view.index_nodes = index_.num_cells();
  } else {
    view.index_nodes = index_.num_postings();
  }
  view.index_entries = index_.total_entries();
  view.index_bytes = index_.MemoryUsage();
  return view;
}

template class PostingMiner<DiIndex>;
template class PostingMiner<MatrixIndex>;

}  // namespace fcp
