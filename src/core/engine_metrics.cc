#include "core/engine_metrics.h"

namespace fcp {
namespace {

std::string Name(const std::string& base, const std::string& labels) {
  if (labels.empty()) return base;
  return base + "{" + labels + "}";
}

}  // namespace

MinerMetrics MinerMetrics::Register(telemetry::MetricRegistry* registry,
                                    const std::string& labels) {
  MinerMetrics m;
  m.segments_mined =
      registry->GetCounter(Name("fcp_segments_mined_total", labels));
  m.fcps_emitted = registry->GetCounter(Name("fcp_fcps_emitted_total", labels));
  m.candidates_checked =
      registry->GetCounter(Name("fcp_candidates_checked_total", labels));
  m.candidates_pruned =
      registry->GetCounter(Name("fcp_candidates_pruned_total", labels));
  m.candidates_bound_passed =
      registry->GetCounter(Name("fcp_candidates_bound_passed_total", labels));
  m.slcp_probes = registry->GetCounter(Name("fcp_slcp_probes_total", labels));
  m.lcp_rows = registry->GetCounter(Name("fcp_lcp_rows_total", labels));
  m.lcp_rows_dropped =
      registry->GetCounter(Name("fcp_lcp_rows_dropped_total", labels));
  m.slcp_nodes_visited =
      registry->GetCounter(Name("fcp_slcp_nodes_visited_total", labels));
  m.slcp_runs_visited =
      registry->GetCounter(Name("fcp_slcp_runs_visited_total", labels));
  m.maintenance_runs =
      registry->GetCounter(Name("fcp_maintenance_runs_total", labels));
  m.segments_expired =
      registry->GetCounter(Name("fcp_segments_expired_total", labels));
  m.mining_ns = registry->GetCounter(Name("fcp_mining_ns_total", labels));
  m.slcp_ns = registry->GetCounter(Name("fcp_slcp_ns_total", labels));
  m.maintenance_ns =
      registry->GetCounter(Name("fcp_maintenance_ns_total", labels));

  m.live_segments = registry->GetGauge(Name("fcp_live_segments", labels));
  m.index_nodes = registry->GetGauge(Name("fcp_index_nodes", labels));
  m.index_entries = registry->GetGauge(Name("fcp_index_entries", labels));
  m.index_bytes = registry->GetGauge(Name("fcp_index_bytes", labels));
  m.arena_bytes = registry->GetGauge(Name("fcp_arena_bytes", labels));
  m.compression_ratio_milli =
      registry->GetGauge(Name("fcp_compression_ratio_milli", labels));
  return m;
}

namespace {

// Zero deltas are the common case for most fields when publishing per
// segment; skipping them avoids dirtying the counter's cache line.
inline void Bump(telemetry::Counter* counter, uint64_t delta) {
  if (delta != 0) counter->Increment(delta);
}

}  // namespace

void MinerMetrics::PublishDelta(const MinerStats& current,
                                MinerStats* last) const {
  Bump(segments_mined, current.segments_processed - last->segments_processed);
  Bump(fcps_emitted, current.fcps_emitted - last->fcps_emitted);
  Bump(candidates_checked,
       current.candidates_checked - last->candidates_checked);
  Bump(candidates_pruned, current.candidates_pruned - last->candidates_pruned);
  Bump(candidates_bound_passed,
       current.candidates_bound_passed - last->candidates_bound_passed);
  Bump(slcp_probes, current.slcp_probes - last->slcp_probes);
  Bump(lcp_rows, current.lcp_rows - last->lcp_rows);
  Bump(lcp_rows_dropped, current.lcp_rows_dropped - last->lcp_rows_dropped);
  Bump(slcp_nodes_visited,
       current.slcp_nodes_visited - last->slcp_nodes_visited);
  Bump(slcp_runs_visited, current.slcp_runs_visited - last->slcp_runs_visited);
  Bump(maintenance_runs, current.maintenance_runs - last->maintenance_runs);
  Bump(segments_expired, current.segments_expired - last->segments_expired);
  Bump(mining_ns, static_cast<uint64_t>(current.mining_ns - last->mining_ns));
  Bump(slcp_ns, static_cast<uint64_t>(current.slcp_ns - last->slcp_ns));
  Bump(maintenance_ns,
       static_cast<uint64_t>(current.maintenance_ns - last->maintenance_ns));
  *last = current;
}

telemetry::Gauge* RegisterBuildInfo(telemetry::MetricRegistry* registry) {
#ifdef FCP_VERSION
  const std::string version = FCP_VERSION;
#else
  const std::string version = "dev";
#endif
  const std::string name =
      "fcp_build_info{" + telemetry::FormatLabel("version", version) + "}";
  registry->GetGauge(name)->Set(1);
  return registry->GetGauge("fcp_uptime_seconds");
}

void MinerMetrics::PublishIntrospection(const MinerIntrospection& view) const {
  live_segments->Set(static_cast<int64_t>(view.live_segments));
  index_nodes->Set(static_cast<int64_t>(view.index_nodes));
  index_entries->Set(static_cast<int64_t>(view.index_entries));
  index_bytes->Set(static_cast<int64_t>(view.index_bytes));
  arena_bytes->Set(static_cast<int64_t>(view.arena_bytes));
  compression_ratio_milli->Set(
      static_cast<int64_t>(view.compression_ratio * 1000.0));
}

}  // namespace fcp
