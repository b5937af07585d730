#include "core/mining_engine.h"

#include "common/check.h"
#include "core/slow_op.h"
#include "telemetry/trace.h"
#include "util/stopwatch.h"

namespace fcp {

MiningEngine::MiningEngine(MinerKind kind, const MiningParams& params,
                           EngineOptions options)
    : params_(params),
      mux_(params.xi),
      miner_(MakeMiner(kind, params)),
      collector_(options.suppression_window) {
  FCP_CHECK(params.Validate().ok());
  if (options.metrics != nullptr) {
    registry_ = options.metrics;
  } else {
    owned_registry_ = std::make_unique<telemetry::MetricRegistry>();
    registry_ = owned_registry_.get();
  }
  miner_metrics_ = MinerMetrics::Register(registry_, "");
  events_ingested_ = registry_->GetCounter("fcp_events_ingested_total");
  segments_completed_metric_ =
      registry_->GetCounter("fcp_segments_completed_total");
  fcps_accepted_ = registry_->GetCounter("fcp_fcps_accepted_total");
  events_reordered_ = registry_->GetCounter("fcp_events_reordered_total");
  mine_latency_us_ = registry_->GetHistogram("fcp_segment_mine_latency_us");
  pool_live_refs_ = registry_->GetGauge("fcp_segment_pool_live_refs");
  pool_hits_ = registry_->GetGauge("fcp_segment_pool_hits_total");
  pool_misses_ = registry_->GetGauge("fcp_segment_pool_misses_total");
  pool_recycled_bytes_ =
      registry_->GetGauge("fcp_segment_pool_recycled_bytes_total");
  pool_free_slabs_ = registry_->GetGauge("fcp_segment_pool_free_slabs");
  open_windows_gauge_ = registry_->GetGauge("fcp_open_windows");
  streams_seen_gauge_ = registry_->GetGauge("fcp_streams_seen");
  uptime_seconds_ = RegisterBuildInfo(registry_);
  if (options.watchdog != nullptr) {
    // No depth probe: the serial engine has no input queue — the caller's
    // thread IS the pipeline, so only the busy-and-silent predicate applies.
    heartbeat_ = options.watchdog->RegisterStage("ingest");
  }
}

void MiningEngine::RefreshGauges() const {
  open_windows_gauge_->Set(mux_.open_windows());
  streams_seen_gauge_->Set(mux_.streams_seen());
  uptime_seconds_->Set(uptime_.ElapsedNanos() / 1000000000);
}

std::string MiningEngine::StatusJson() const {
  const SegmentPoolStats pool = mux_.pool().stats();
  std::string out = "{\"engine\":\"serial\"";
  out += ",\"streams_seen\":" + std::to_string(mux_.streams_seen());
  out += ",\"open_windows\":" + std::to_string(mux_.open_windows());
  out += ",\"events_ingested\":" + std::to_string(events_ingested_->Value());
  out += ",\"events_reordered\":" + std::to_string(mux_.reordered_count());
  out += ",\"segments_completed\":" +
         std::to_string(segments_completed_metric_->Value());
  out += ",\"fcps_accepted\":" + std::to_string(fcps_accepted_->Value());
  out += ",\"pool\":{\"live_refs\":" + std::to_string(pool.live) +
         ",\"free_slabs\":" + std::to_string(pool.free) +
         ",\"hits\":" + std::to_string(pool.pool_hits) +
         ",\"misses\":" + std::to_string(pool.slab_allocs) +
         ",\"recycled_bytes\":" + std::to_string(pool.recycled_bytes) + "}";
  out += "}";
  return out;
}

std::vector<Fcp> MiningEngine::PushEvent(const ObjectEvent& event) {
  if (heartbeat_ != nullptr) heartbeat_->MarkIdle(false);
  events_ingested_->Increment();
  scratch_segments_.clear();
  mux_.Push(event, &scratch_segments_);
  return ProcessSegments(scratch_segments_);
}

std::vector<Fcp> MiningEngine::IngestBatch(std::span<const ObjectEvent> events) {
  FCP_TRACE_SPAN_FLOW("engine/ingest_batch", 0,
                      static_cast<uint32_t>(events.size()));
  if (heartbeat_ != nullptr) heartbeat_->MarkIdle(false);
  // One counter delta per batch — same final totals as per-event increments.
  if (!events.empty()) events_ingested_->Increment(events.size());
  scratch_segments_.clear();
  mux_.PushBatch(events.data(), events.size(), &scratch_segments_);
  return ProcessSegments(scratch_segments_);
}

std::vector<Fcp> MiningEngine::PushSegment(const Segment& segment) {
  if (heartbeat_ != nullptr) heartbeat_->MarkIdle(false);
  scratch_segments_.clear();
  // One copy into a pooled slab; ProcessSegments shares it from there.
  scratch_segments_.push_back(mux_.pool()->Make(
      segment.id(), segment.stream(), segment.entries()));
  return ProcessSegments(scratch_segments_);
}

std::vector<Fcp> MiningEngine::Flush() {
  if (heartbeat_ != nullptr) heartbeat_->MarkIdle(false);
  scratch_segments_.clear();
  mux_.FlushAll(&scratch_segments_);
  return ProcessSegments(scratch_segments_);
}

std::vector<Fcp> MiningEngine::ProcessSegments(
    const std::vector<SegmentRef>& segments) {
  // Every mux call ends here, so this one delta covers all ingest paths.
  const uint64_t reordered = mux_.reordered_count();
  if (reordered != reordered_published_) {
    events_reordered_->Increment(reordered - reordered_published_);
    reordered_published_ = reordered;
  }
  std::vector<Fcp> accepted;
  std::vector<Fcp> mined;
  for (size_t k = 0; k < segments.size(); ++k) {
    // Warm the next segment's index lines while this one is mined (advisory;
    // PrefetchSegment has no observable effect, so results are unchanged).
    if (k + 1 < segments.size()) miner_->PrefetchSegment(segments[k + 1]);
    mined.clear();
    {
      FCP_TRACE_SPAN_FLOW("engine/mine", segments[k]->id(),
                          static_cast<uint32_t>(segments[k]->length()));
      FCP_TRACE_FLOW_END("segment", segments[k]->id());
      Stopwatch timer;
      miner_->AddSegment(segments[k], &mined);
      const int64_t elapsed = timer.ElapsedNanos();
      mine_latency_us_->Record(static_cast<uint64_t>(elapsed) / 1000);
      const int64_t slow_ns = trace::SlowOpThresholdNs();
      if (slow_ns > 0 && elapsed >= slow_ns) {
        DumpSlowOp("engine/mine", *segments[k], *miner_, 0, elapsed);
      }
    }
    ++segments_completed_;
    collector_.OfferAll(mined, &accepted);
  }
  if (!segments.empty()) {
    // Per-batch counter deltas: same totals as per-segment increments, one
    // atomic add per batch.
    segments_completed_metric_->Increment(segments.size());
    miner_metrics_.PublishDelta(miner_->stats(), &published_stats_);
    miner_metrics_.PublishIntrospection(miner_->Introspect());
    fcps_accepted_->Increment(accepted.size());
    const SegmentPoolStats pool = mux_.pool()->stats();
    pool_live_refs_->Set(static_cast<int64_t>(pool.live));
    pool_hits_->Set(static_cast<int64_t>(pool.pool_hits));
    pool_misses_->Set(static_cast<int64_t>(pool.slab_allocs));
    pool_recycled_bytes_->Set(static_cast<int64_t>(pool.recycled_bytes));
    pool_free_slabs_->Set(static_cast<int64_t>(pool.free));
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
