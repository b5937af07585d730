// Routes the interleaved event feed of many streams to per-stream segmenters.

#ifndef FCP_STREAM_STREAM_MUX_H_
#define FCP_STREAM_STREAM_MUX_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "stream/segment.h"
#include "stream/segment_ref.h"
#include "stream/segmenter.h"

namespace fcp {

/// Demultiplexes a single interleaved feed of ObjectEvents (the union of all
/// streams, as a data-center front end would receive it) into per-stream
/// Segmenters, and surfaces completed segments in arrival order as pooled
/// SegmentRefs (see segment_ref.h — one slab per segment, shared downstream).
///
/// Single-threaded: the mining pipeline is one consumer; concurrency enters
/// only via the BoundedQueue in front of it (Fig. 8 experiment).
class StreamMux {
 public:
  /// `xi` is the segment span threshold, shared by all streams.
  explicit StreamMux(DurationMs xi);

  StreamMux(const StreamMux&) = delete;
  StreamMux& operator=(const StreamMux&) = delete;

  /// Feeds one event; appends any segments it completes to `out`.
  void Push(const ObjectEvent& event, std::vector<SegmentRef>* out);

  /// Feeds `count` events in order; appends any segments they complete to
  /// `out`. Equivalent to calling Push per event, but the segmenter lookup
  /// is cached across consecutive same-stream events, so a feed with runs
  /// (the common shape of a batched front end) pays one hash probe per run
  /// instead of one per event.
  void PushBatch(const ObjectEvent* events, size_t count,
                 std::vector<SegmentRef>* out);

  /// Flushes the open window of every stream (end of feed).
  void FlushAll(std::vector<SegmentRef>* out);

  /// Number of streams seen so far.
  size_t num_streams() const { return segmenters_.size(); }

  /// Cross-thread-safe mirrors for the observability plane (/statusz,
  /// serial-engine gauges): the ingest thread maintains them incrementally
  /// with relaxed stores, so a scrape never touches the segmenter map.
  int64_t open_windows() const {
    return open_windows_.load(std::memory_order_relaxed);
  }
  int64_t streams_seen() const {
    return streams_seen_.load(std::memory_order_relaxed);
  }

  /// Total events whose timestamps had to be clamped (see Segmenter). A
  /// running total kept beside the other mirrors, so it is safe to read from
  /// any thread and costs no walk over the streams.
  uint64_t reordered_count() const {
    return reordered_.load(std::memory_order_relaxed);
  }

  /// The id generator (exposed so callers can pre-register segments built by
  /// hand, e.g. tests and the Twitter generator which emits whole segments).
  SegmentIdGen* id_gen() { return &id_gen_; }

  /// The slab pool completed segments are built in. Every SegmentRef must
  /// be released before the mux is destroyed (checked in ~SegmentPool).
  SegmentPool* pool() { return &pool_; }
  const SegmentPool& pool() const { return pool_; }

 private:
  /// The stream's segmenter, created on first sight.
  Segmenter* SegmenterFor(StreamId stream);
  /// Feeds `event` to its stream's segmenter and updates the mirrors.
  void PushTo(Segmenter* segmenter, const ObjectEvent& event,
              std::vector<SegmentRef>* out);

  DurationMs xi_;
  SegmentPool pool_;  ///< declared first: the segmenters release into it
  SegmentIdGen id_gen_;
  std::unordered_map<StreamId, std::unique_ptr<Segmenter>> segmenters_;
  /// Incrementally maintained around each segmenter push/flush: +1 when a
  /// push opens a stream's window, -1 when emission/flush drains it.
  std::atomic<int64_t> open_windows_{0};
  std::atomic<int64_t> streams_seen_{0};
  std::atomic<uint64_t> reordered_{0};
};

}  // namespace fcp

#endif  // FCP_STREAM_STREAM_MUX_H_
