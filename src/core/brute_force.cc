#include "core/brute_force.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"
#include "util/stopwatch.h"

namespace fcp {

BruteForceMiner::BruteForceMiner(const MiningParams& params,
                                 const ShardSpec& shard)
    : params_(params), shard_(shard) {
  FCP_CHECK(params.Validate().ok());
  FCP_CHECK(shard.count >= 1 && shard.index < shard.count);
}

void BruteForceMiner::AddSegment(const Segment& segment,
                                 std::vector<Fcp>* out) {
  // Monotonic watermark anchor; see CooMine::AddSegment.
  watermark_ = std::max(watermark_, segment.end_time());
  const Timestamp now = watermark_;
  Stopwatch timer;
  segments_.push_back(Stored{segment.stream(), segment.start_time(),
                             segment.end_time(), segment.distinct_objects()});

  const std::vector<ObjectId> objects =
      DistinctObjectsCapped(segment, params_.max_segment_objects);
  FCP_CHECK(objects.size() <= 20);

  // Enumerate every non-empty subset of the trigger's objects and test
  // Definition 3 directly against all valid stored segments — no Apriori,
  // no index, so the oracle shares no code path with the real miners.
  const uint32_t n = static_cast<uint32_t>(objects.size());
  const size_t first_emitted = out->size();
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    const uint32_t size = static_cast<uint32_t>(__builtin_popcount(mask));
    if (size < params_.min_pattern_size) continue;
    if (params_.max_pattern_size != 0 && size > params_.max_pattern_size) {
      continue;
    }
    Pattern pattern;
    pattern.reserve(size);
    for (uint32_t b = 0; b < n; ++b) {
      if (mask & (1u << b)) pattern.push_back(objects[b]);
    }
    // Sharded oracle: only the owner of the pattern's minimum object mines
    // it (objects are sorted, so pattern[0] is the minimum).
    if (!shard_.Owns(pattern[0])) continue;
    ++stats_.candidates_checked;

    std::vector<Occurrence> occurrences;
    for (const Stored& stored : segments_) {
      if (now - stored.start > params_.tau) continue;  // expired
      if (std::includes(stored.objects.begin(), stored.objects.end(),
                        pattern.begin(), pattern.end())) {
        occurrences.push_back(
            Occurrence{stored.stream, stored.start, stored.end});
      }
    }
    auto fcp = MakeFcpIfFrequent(pattern, std::move(occurrences),
                                 params_.theta, segment.id());
    if (fcp.has_value()) {
      out->push_back(*std::move(fcp));
      ++stats_.fcps_emitted;
    }
  }
  // Masks enumerate subsets out of size order; report in the emit order
  // every miner shares.
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first_emitted),
            out->end(), [](const Fcp& a, const Fcp& b) {
              return EmitOrderLess(a.objects, b.objects);
            });
  stats_.mining_ns += timer.ElapsedNanos();
  ++stats_.segments_processed;
}

void BruteForceMiner::AddSegmentIndexOnly(const Segment& segment) {
  // Migration backfill: store without mining. The oracle re-checks validity
  // per stored segment on every trigger, so an old segment landing at the
  // back of the deque is harmless.
  watermark_ = std::max(watermark_, segment.end_time());
  segments_.push_back(Stored{segment.stream(), segment.start_time(),
                             segment.end_time(), segment.distinct_objects()});
  ++stats_.segments_indexed_only;
}

size_t BruteForceMiner::MemoryUsage() const {
  size_t bytes = sizeof(Stored) * segments_.size();
  for (const Stored& s : segments_) bytes += s.objects.size() * sizeof(ObjectId);
  return bytes;
}

}  // namespace fcp
