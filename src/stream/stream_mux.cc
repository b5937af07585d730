#include "stream/stream_mux.h"

#include "common/check.h"
#include "telemetry/trace.h"

namespace fcp {
namespace {

/// Emits the ingest-side origin of each completed segment's trace flow: a
/// zero-width "mux/segment_complete" span enclosing a flow-begin keyed by the
/// segment id. The downstream mine span (serial engine) or shard span
/// (sharded pipeline) ends the flow, so Perfetto draws one arrow per segment
/// from ingest to mine. `before` is out->size() before the push.
inline void TraceCompletedSegments(const std::vector<SegmentRef>& out,
                                   size_t before) {
  if (!trace::IsEnabled()) return;
  for (size_t k = before; k < out.size(); ++k) {
    trace::Emit(trace::Phase::kBegin, "mux/segment_complete", out[k]->id(),
                static_cast<uint32_t>(out[k]->length()));
    trace::Emit(trace::Phase::kFlowBegin, "segment", out[k]->id());
    trace::Emit(trace::Phase::kEnd, "mux/segment_complete");
  }
}

}  // namespace

StreamMux::StreamMux(DurationMs xi) : xi_(xi) { FCP_CHECK(xi > 0); }

Segmenter* StreamMux::SegmenterFor(StreamId stream) {
  auto it = segmenters_.find(stream);
  if (it == segmenters_.end()) {
    it = segmenters_
             .emplace(stream, std::make_unique<Segmenter>(stream, xi_,
                                                          &id_gen_, &pool_))
             .first;
    streams_seen_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second.get();
}

void StreamMux::Push(const ObjectEvent& event, std::vector<SegmentRef>* out) {
  PushTo(SegmenterFor(event.stream), event, out);
}

void StreamMux::PushBatch(const ObjectEvent* events, size_t count,
                          std::vector<SegmentRef>* out) {
  Segmenter* cached = nullptr;
  StreamId cached_stream = 0;
  for (size_t k = 0; k < count; ++k) {
    const ObjectEvent& event = events[k];
    if (cached == nullptr || event.stream != cached_stream) {
      cached = SegmenterFor(event.stream);
      cached_stream = event.stream;
    }
    PushTo(cached, event, out);
  }
}

void StreamMux::PushTo(Segmenter* segmenter, const ObjectEvent& event,
                       std::vector<SegmentRef>* out) {
  const size_t before = out->size();
  const bool was_open = segmenter->has_open_window();
  const uint64_t reordered = segmenter->reordered_count();
  segmenter->Push(event.object, event.time, out);
  if (segmenter->has_open_window() != was_open) {
    open_windows_.fetch_add(was_open ? -1 : 1, std::memory_order_relaxed);
  }
  if (segmenter->reordered_count() != reordered) {
    reordered_.fetch_add(segmenter->reordered_count() - reordered,
                         std::memory_order_relaxed);
  }
  TraceCompletedSegments(*out, before);
}

void StreamMux::FlushAll(std::vector<SegmentRef>* out) {
  for (auto& [stream, segmenter] : segmenters_) {
    const size_t before = out->size();
    const bool was_open = segmenter->has_open_window();
    segmenter->Flush(out);
    if (was_open) open_windows_.fetch_add(-1, std::memory_order_relaxed);
    TraceCompletedSegments(*out, before);
  }
}

}  // namespace fcp
