#include "core/engine_front.h"

#include "core/engine_metrics.h"
#include "telemetry/trace.h"

namespace fcp {

EngineFront::EngineFront(DurationMs xi, DurationMs suppression_window,
                         telemetry::MetricRegistry* metrics)
    : mux_(xi), collector_(suppression_window) {
  if (metrics != nullptr) {
    registry_ = metrics;
  } else {
    owned_registry_ = std::make_unique<telemetry::MetricRegistry>();
    registry_ = owned_registry_.get();
  }
  events_ingested_ = registry_->GetCounter("fcp_events_ingested_total");
  segments_completed_ = registry_->GetCounter("fcp_segments_completed_total");
  events_reordered_ = registry_->GetCounter("fcp_events_reordered_total");
  fcps_accepted_ = registry_->GetCounter("fcp_fcps_accepted_total");
  open_windows_ = registry_->GetGauge("fcp_open_windows");
  streams_seen_ = registry_->GetGauge("fcp_streams_seen");
  pool_live_refs_ = registry_->GetGauge("fcp_segment_pool_live_refs");
  pool_hits_ = registry_->GetGauge("fcp_segment_pool_hits_total");
  pool_misses_ = registry_->GetGauge("fcp_segment_pool_misses_total");
  pool_recycled_bytes_ =
      registry_->GetGauge("fcp_segment_pool_recycled_bytes_total");
  pool_free_slabs_ = registry_->GetGauge("fcp_segment_pool_free_slabs");
  uptime_seconds_ = RegisterBuildInfo(registry_);
}

obs::StageHeartbeat* EngineFront::RegisterIngestStage(
    obs::Watchdog* watchdog, std::function<size_t()> depth, size_t capacity) {
  if (watchdog == nullptr) return nullptr;
  return watchdog->RegisterStage("ingest", std::move(depth), capacity);
}

telemetry::LatencyHistogram* EngineFront::MineLatency(
    const std::string& labels) {
  std::string name = "fcp_segment_mine_latency_us";
  if (!labels.empty()) name += "{" + labels + "}";
  return registry_->GetHistogram(name);
}

void EngineFront::RefreshGauges() const {
  const SegmentPoolStats pool = mux_.pool().stats();
  pool_live_refs_->Set(static_cast<int64_t>(pool.live));
  pool_hits_->Set(static_cast<int64_t>(pool.pool_hits));
  pool_misses_->Set(static_cast<int64_t>(pool.slab_allocs));
  pool_recycled_bytes_->Set(static_cast<int64_t>(pool.recycled_bytes));
  pool_free_slabs_->Set(static_cast<int64_t>(pool.free));
  open_windows_->Set(mux_.open_windows());
  streams_seen_->Set(mux_.streams_seen());
  uptime_seconds_->Set(uptime_.ElapsedNanos() / 1000000000);
}

void EngineFront::AppendStatus(std::string* out) const {
  const SegmentPoolStats pool = mux_.pool().stats();
  *out += ",\"streams_seen\":" + std::to_string(mux_.streams_seen());
  *out += ",\"open_windows\":" + std::to_string(mux_.open_windows());
  *out += ",\"events_ingested\":" + std::to_string(events_ingested_->Value());
  *out += ",\"events_reordered\":" + std::to_string(mux_.reordered_count());
  *out += ",\"segments_completed\":" +
          std::to_string(segments_completed_->Value());
  *out += ",\"fcps_accepted\":" + std::to_string(fcps_accepted_->Value());
  *out += ",\"pool\":{\"live_refs\":" + std::to_string(pool.live) +
          ",\"free_slabs\":" + std::to_string(pool.free) +
          ",\"hits\":" + std::to_string(pool.pool_hits) +
          ",\"misses\":" + std::to_string(pool.slab_allocs) +
          ",\"recycled_bytes\":" + std::to_string(pool.recycled_bytes) + "}";
}

void MineTimed(const MineSite& site, uint64_t flow, FcpMiner& miner,
               const Segment& segment, std::vector<Fcp>* out) {
  trace::Span span(site.span, flow, static_cast<uint32_t>(segment.length()));
  trace::Emit(trace::Phase::kFlowEnd, "segment", flow);
  // The miner times its own phases; their delta is the call's latency, so
  // the step adds no clock reads of its own.
  const MinerStats& stats = miner.stats();
  const int64_t before = stats.mining_ns + stats.maintenance_ns;
  miner.AddSegment(segment, out);
  const int64_t elapsed = stats.mining_ns + stats.maintenance_ns - before;
  site.latency_us->Record(static_cast<uint64_t>(elapsed) / 1000);
}

}  // namespace fcp
