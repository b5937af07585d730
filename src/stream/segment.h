// Segment: the unit of work of all miners (Definition 5 of the paper).

#ifndef FCP_STREAM_SEGMENT_H_
#define FCP_STREAM_SEGMENT_H_

#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace fcp {

class SegmentRef;
class SegmentPool;

/// One timestamped object inside a segment.
struct SegmentEntry {
  ObjectId object = 0;
  Timestamp time = 0;

  friend bool operator==(const SegmentEntry&, const SegmentEntry&) = default;
};

/// A maximal subsequence of one stream whose time span is <= xi
/// (Definition 5). Segments of one stream overlap; every co-occurrence
/// pattern occurrence is contained in at least one segment, which is why the
/// miners only ever look at segments.
///
/// Invariants (established by the Segmenter, checked by tests):
///  - entries are ordered by non-decreasing time;
///  - last().time - first().time <= xi;
///  - maximality is a property of the enclosing stream, not of the Segment
///    object itself.
///
/// The distinct-object set is computed ONCE at construction and cached
/// (`distinct_objects()`): routing, ownership filtering and SLCP probes all
/// need it, and a segment is multicast to up to S shards — recomputing a
/// sort+unique per consumer was pure hot-path waste.
class Segment {
 public:
  Segment() = default;

  /// Builds a segment from parts. `entries` must be non-empty and sorted by
  /// time; `id` must be unique among live segments.
  Segment(SegmentId id, StreamId stream, std::vector<SegmentEntry> entries)
      : id_(id), stream_(stream), entries_(std::move(entries)) {
    FCP_CHECK(!entries_.empty());
    RebuildDistinct();
  }

  /// Rebuilds this segment in place from up to two contiguous entry spans
  /// (the two halves of a ring-buffered window), reusing the entry and
  /// distinct-object capacity already held. This is how the SegmentPool
  /// recycles slabs without churning their vectors. `head` + `tail` must be
  /// non-empty overall and time-sorted across the concatenation.
  void Assign(SegmentId id, StreamId stream,
              std::span<const SegmentEntry> head,
              std::span<const SegmentEntry> tail);

  SegmentId id() const { return id_; }
  StreamId stream() const { return stream_; }

  /// Timestamp of the first object (the segment's start time).
  Timestamp start_time() const { return entries_.front().time; }

  /// Timestamp of the last object (the segment's end time).
  Timestamp end_time() const { return entries_.back().time; }

  /// end_time() - start_time(); always <= xi for segmenter-produced segments.
  DurationMs span() const { return end_time() - start_time(); }

  /// Number of objects (with multiplicity).
  size_t length() const { return entries_.size(); }

  const std::vector<SegmentEntry>& entries() const { return entries_; }

  /// The distinct objects of this segment in ascending ObjectId order
  /// (duplicates removed), cached at construction. This is what pattern
  /// mining operates on (patterns are sets; see DESIGN.md Semantics #4).
  const std::vector<ObjectId>& distinct_objects() const { return distinct_; }

  /// Recomputes the distinct-object set from the entries (allocates). This
  /// is the reference implementation the cached `distinct_objects()` is
  /// tested against; hot paths use the cache.
  std::vector<ObjectId> DistinctObjects() const;

  /// Debug representation, e.g. "G7[s2 @100..160: 5 3 9]".
  std::string DebugString() const;

  friend bool operator==(const Segment&, const Segment&) = default;

 private:
  friend class SegmentPool;  // vector-capacity management when recycling

  void RebuildDistinct();

  SegmentId id_ = kInvalidSegmentId;
  StreamId stream_ = 0;
  std::vector<SegmentEntry> entries_;
  std::vector<ObjectId> distinct_;  ///< sorted, unique; derived from entries_
};

}  // namespace fcp

#endif  // FCP_STREAM_SEGMENT_H_
