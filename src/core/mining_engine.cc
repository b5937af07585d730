#include "core/mining_engine.h"

#include "common/check.h"
#include "telemetry/trace.h"

namespace fcp {

MiningEngine::MiningEngine(MinerKind kind, const MiningParams& params,
                           EngineOptions options)
    : params_(params),
      front_(params.xi, options.suppression_window, options.metrics),
      miner_(MakeMiner(kind, params)) {
  FCP_CHECK(params.Validate().ok());
  miner_metrics_ = MinerMetrics::Register(front_.registry(), "");
  mine_site_ = {"engine/mine", front_.MineLatency("")};
  heartbeat_ = front_.RegisterIngestStage(options.watchdog);
}

std::string MiningEngine::StatusJson() const {
  std::string out = "{\"engine\":\"serial\"";
  front_.AppendStatus(&out);
  out += "}";
  return out;
}

std::vector<Fcp> MiningEngine::PushEvent(const ObjectEvent& event) {
  if (heartbeat_ != nullptr) heartbeat_->MarkIdle(false);
  front_.CountIngested(1);
  scratch_segments_.clear();
  front_.mux().Push(event, &scratch_segments_);
  return ProcessSegments(scratch_segments_);
}

std::vector<Fcp> MiningEngine::IngestBatch(std::span<const ObjectEvent> events) {
  trace::Span span("engine/ingest_batch", 0,
                   static_cast<uint32_t>(events.size()));
  if (heartbeat_ != nullptr) heartbeat_->MarkIdle(false);
  // One counter delta per batch — same final totals as per-event increments.
  if (!events.empty()) front_.CountIngested(events.size());
  scratch_segments_.clear();
  front_.mux().PushBatch(events.data(), events.size(), &scratch_segments_);
  return ProcessSegments(scratch_segments_);
}

std::vector<Fcp> MiningEngine::PushSegment(const Segment& segment) {
  if (heartbeat_ != nullptr) heartbeat_->MarkIdle(false);
  scratch_segments_.clear();
  // One copy into a pooled slab; ProcessSegments shares it from there.
  scratch_segments_.push_back(front_.mux().pool()->Make(
      segment.id(), segment.stream(), segment.entries()));
  return ProcessSegments(scratch_segments_);
}

std::vector<Fcp> MiningEngine::Flush() {
  if (heartbeat_ != nullptr) heartbeat_->MarkIdle(false);
  scratch_segments_.clear();
  front_.mux().FlushAll(&scratch_segments_);
  return ProcessSegments(scratch_segments_);
}

std::vector<Fcp> MiningEngine::ProcessSegments(
    const std::vector<SegmentRef>& segments) {
  // Every mux call ends here, so this one delta covers all ingest paths.
  front_.PublishReordered();
  std::vector<Fcp> accepted;
  std::vector<Fcp> mined;
  for (size_t k = 0; k < segments.size(); ++k) {
    // Warm the next segment's index lines while this one is mined (advisory;
    // PrefetchSegment has no observable effect, so results are unchanged).
    if (k + 1 < segments.size()) miner_->PrefetchSegment(segments[k + 1]);
    mined.clear();
    MineTimed(mine_site_, segments[k]->id(), *miner_, *segments[k], &mined);
    ++segments_completed_;
    front_.collector().OfferAll(mined, &accepted);
  }
  if (!segments.empty()) {
    // Per-batch counter deltas: same totals as per-segment increments, one
    // atomic add per batch.
    front_.CountSegments(segments.size());
    miner_metrics_.PublishDelta(miner_->stats(), &published_stats_);
    miner_metrics_.PublishIntrospection(miner_->Introspect());
    front_.CountAccepted(accepted.size());
  }
  if (heartbeat_ != nullptr) {
    // One beat per ingest call: between calls the caller owns the thread,
    // so the stage parks idle and silence is healthy.
    heartbeat_->Beat();
    heartbeat_->MarkIdle(true);
  }
  return accepted;
}

}  // namespace fcp
