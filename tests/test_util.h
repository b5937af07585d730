// Shared helpers for the libfcp test suite.

#ifndef FCP_TESTS_TEST_UTIL_H_
#define FCP_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/params.h"
#include "common/types.h"
#include "core/fcp.h"
#include "index/seg_tree.h"
#include "stream/segment.h"

namespace fcp::testing {

/// Builds a segment whose objects all share one timestamp (tweet-style).
inline Segment MakeSegment(SegmentId id, StreamId stream,
                           std::initializer_list<ObjectId> objects,
                           Timestamp time = 0) {
  std::vector<SegmentEntry> entries;
  for (ObjectId o : objects) entries.push_back(SegmentEntry{o, time});
  return Segment(id, stream, std::move(entries));
}

/// Builds a segment from (object, time) pairs.
inline Segment MakeTimedSegment(
    SegmentId id, StreamId stream,
    std::initializer_list<std::pair<ObjectId, Timestamp>> entries) {
  std::vector<SegmentEntry> list;
  for (const auto& [o, t] : entries) list.push_back(SegmentEntry{o, t});
  return Segment(id, stream, std::move(list));
}

/// The set of patterns among a batch of FCPs (for order-insensitive
/// comparison across miners).
inline std::set<Pattern> PatternsOf(const std::vector<Fcp>& fcps) {
  std::set<Pattern> out;
  for (const Fcp& fcp : fcps) out.insert(fcp.objects);
  return out;
}

/// The set of (pattern, sorted-stream-set) pairs — the strongest
/// order-insensitive signature of a mining result.
inline std::set<std::pair<Pattern, std::vector<StreamId>>> SignaturesOf(
    const std::vector<Fcp>& fcps) {
  std::set<std::pair<Pattern, std::vector<StreamId>>> out;
  for (const Fcp& fcp : fcps) out.insert({fcp.objects, fcp.streams});
  return out;
}

/// Full per-discovery signature, order-insensitive: one entry per emitted
/// FCP (sorted), so result equality is checked as a multiset, not a set.
/// Two mining runs with equal FullSignatures found exactly the same
/// discoveries — triggers, streams and windows included.
using FcpSignature = std::tuple<SegmentId, Pattern, std::vector<StreamId>,
                                Timestamp, Timestamp>;
inline std::vector<FcpSignature> FullSignatures(const std::vector<Fcp>& fcps) {
  std::vector<FcpSignature> out;
  out.reserve(fcps.size());
  for (const Fcp& fcp : fcps) {
    out.emplace_back(fcp.trigger, fcp.objects, fcp.streams, fcp.window_start,
                     fcp.window_end);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Offline Definition-3 checker: does `pattern` appear in >= theta distinct
/// streams, each appearance within xi, all within one tau window? Used to
/// verify that every emitted pattern is genuine, independent of any miner's
/// code path.
inline bool IsGenuineFcp(const std::vector<ObjectEvent>& events,
                         const Pattern& pattern, const MiningParams& params) {
  // Occurrences per stream: sliding window over the stream's events finding
  // windows of span <= xi containing all pattern objects.
  std::map<StreamId, std::vector<ObjectEvent>> per_stream;
  for (const ObjectEvent& e : events) per_stream[e.stream].push_back(e);
  std::vector<std::pair<StreamId, Timestamp>> occurrences;  // (stream, time)
  for (const auto& [stream, stream_events] : per_stream) {
    for (size_t l = 0; l < stream_events.size(); ++l) {
      std::set<ObjectId> seen;
      for (size_t r = l; r < stream_events.size() &&
                         stream_events[r].time - stream_events[l].time <=
                             params.xi;
           ++r) {
        if (std::binary_search(pattern.begin(), pattern.end(),
                               stream_events[r].object)) {
          seen.insert(stream_events[r].object);
        }
        if (seen.size() == pattern.size()) {
          occurrences.push_back({stream, stream_events[l].time});
          break;
        }
      }
    }
  }
  // Any tau window covering >= theta distinct streams?
  std::sort(occurrences.begin(), occurrences.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (size_t i = 0; i < occurrences.size(); ++i) {
    std::set<StreamId> streams;
    for (size_t j = i; j < occurrences.size() &&
                       occurrences[j].second - occurrences[i].second <=
                           params.tau;
         ++j) {
      streams.insert(occurrences[j].first);
    }
    if (streams.size() >= params.theta) return true;
  }
  return false;
}

/// The (segment -> common object ids) view of an SLCP table, for
/// order-insensitive comparison (rows come in discovery order). Clears
/// `*well_formed` if a segment has two rows or a row's probe positions are
/// not strictly ascending.
inline std::map<SegmentId, std::vector<ObjectId>> SlcpRowsOf(
    const LcpTable& table, const Segment& probe, bool* well_formed) {
  const std::vector<ObjectId>& objects = probe.distinct_objects();
  std::map<SegmentId, std::vector<ObjectId>> rows;
  for (const LcpTable::Row& row : table.rows) {
    std::vector<ObjectId> common;
    for (const uint32_t* pos = table.CommonBegin(row);
         pos != table.CommonEnd(row); ++pos) {
      if (pos != table.CommonBegin(row) && pos[-1] >= *pos) {
        *well_formed = false;
      }
      common.push_back(objects[*pos]);
    }
    if (!rows.emplace(row.segment, std::move(common)).second) {
      *well_formed = false;
    }
  }
  return rows;
}

/// The probe object SegTree::SlcpInto skips for `shard` at min_common `m`,
/// computed by the same rule from the tree's chain lengths: with m >= 2, the
/// searched probe object (from the shard's first owned one on) whose Hlist
/// chain holds more slots than all the other searched chains together.
inline std::optional<ObjectId> SkippedObject(
    const SegTree& tree, std::span<const ObjectId> probe_objects,
    const ShardSpec& shard, size_t m) {
  if (m < 2) return std::nullopt;
  auto it = std::find_if(probe_objects.begin(), probe_objects.end(),
                         [&](ObjectId object) { return shard.Owns(object); });
  uint64_t total = 0;
  uint32_t longest = 0;
  std::optional<ObjectId> skipped;
  for (; it != probe_objects.end(); ++it) {
    const uint32_t length = tree.chain_length(*it);
    total += length;
    if (length > longest) {
      longest = length;
      skipped = *it;
    }
  }
  if (longest <= total - longest) return std::nullopt;
  return skipped;
}

/// The rows an SLCP for `shard` with min_common `m` returns, built from the
/// full rows `rows` (segment -> every common object): each row keeps its
/// common objects from its first owned one onward, and is returned iff that
/// leaves >= m objects. The serial shard owns every object, so it keeps
/// the rows that hold >= m objects whole. `*dropped`, if given, is set to
/// the number of rows holding an owned object that are not returned, less
/// those whose row holds only `skipped` (the search never reaches them):
/// the search's `rows_dropped`.
inline std::map<SegmentId, std::vector<ObjectId>> ShardRowsOf(
    const std::map<SegmentId, std::vector<ObjectId>>& rows,
    const ShardSpec& shard, size_t m, uint64_t* dropped = nullptr,
    std::optional<ObjectId> skipped = std::nullopt) {
  std::map<SegmentId, std::vector<ObjectId>> kept;
  uint64_t short_rows = 0;
  for (const auto& [id, common] : rows) {
    const auto first = std::find_if(
        common.begin(), common.end(),
        [&](ObjectId object) { return shard.Owns(object); });
    if (first == common.end()) continue;
    if (static_cast<size_t>(common.end() - first) < m) {
      if (common.end() - first > 1 || *first != skipped) ++short_rows;
      continue;
    }
    kept.emplace(id, std::vector<ObjectId>(first, common.end()));
  }
  if (dropped != nullptr) *dropped = short_rows;
  return kept;
}

/// Pretty-printer for gtest failure messages.
inline std::string ToString(const Pattern& pattern) {
  std::string out = "{";
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(pattern[i]);
  }
  return out + "}";
}

}  // namespace fcp::testing

#endif  // FCP_TESTS_TEST_UTIL_H_
