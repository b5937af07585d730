// Bridges the miners' plain-counter MinerStats/MinerIntrospection into the
// atomic telemetry registry.
//
// Miners are single-threaded by contract, so their stats structs are plain
// uint64 fields — racy to read from a scraping thread. The bridge keeps the
// miner unchanged: the thread that *owns* the miner calls PublishDelta /
// PublishIntrospection after each segment (or batch), pushing the increment
// since the last publish into relaxed-atomic registry counters. Readers (a
// scrape, the exit report) then only ever read atomics. Publishing is itself allocation-free
// and wait-free: one fetch_add per counter, one store per gauge.

#ifndef FCP_CORE_ENGINE_METRICS_H_
#define FCP_CORE_ENGINE_METRICS_H_

#include <string>

#include "core/miner.h"
#include "telemetry/registry.h"

namespace fcp {

/// Registry handles for one miner's counters, optionally labeled (sharded
/// engines register one set per shard with `{shard="s"}`).
struct MinerMetrics {
  telemetry::Counter* segments_mined = nullptr;
  telemetry::Counter* fcps_emitted = nullptr;
  telemetry::Counter* candidates_checked = nullptr;
  telemetry::Counter* candidates_pruned = nullptr;
  telemetry::Counter* candidates_bound_passed = nullptr;
  telemetry::Counter* slcp_probes = nullptr;
  telemetry::Counter* lcp_rows = nullptr;
  telemetry::Counter* lcp_rows_dropped = nullptr;
  telemetry::Counter* slcp_nodes_visited = nullptr;
  telemetry::Counter* slcp_runs_visited = nullptr;
  telemetry::Counter* new_object_triggers = nullptr;
  telemetry::Counter* reemissions = nullptr;
  telemetry::Counter* log_patterns_certified = nullptr;
  telemetry::Counter* maintenance_runs = nullptr;
  telemetry::Counter* segments_expired = nullptr;
  telemetry::Counter* mining_ns = nullptr;
  telemetry::Counter* slcp_ns = nullptr;
  telemetry::Counter* maintenance_ns = nullptr;

  telemetry::Gauge* live_segments = nullptr;
  telemetry::Gauge* index_nodes = nullptr;
  telemetry::Gauge* index_entries = nullptr;
  telemetry::Gauge* index_bytes = nullptr;
  telemetry::Gauge* arena_bytes = nullptr;
  /// CooMine compression ratio scaled by 1000 (gauges are integral).
  telemetry::Gauge* compression_ratio_milli = nullptr;

  /// Registers (or re-binds) the metric set in `registry`. `labels` is empty
  /// or a canonical Prometheus label block without braces (`shard="2"`).
  /// Allocates; call once at construction time.
  static MinerMetrics Register(telemetry::MetricRegistry* registry,
                               const std::string& labels);

  /// Publishes the increment `current - *last` into the counters and updates
  /// *last. `last` must start zero-initialized and be reused across calls.
  void PublishDelta(const MinerStats& current, MinerStats* last) const;

  /// Publishes the current index-structure view into the gauges.
  void PublishIntrospection(const MinerIntrospection& view) const;
};

/// Registers the process identity metrics every engine exports
/// (DESIGN.md §2.8): `fcp_build_info{version=...} = 1` — the standard
/// Prometheus idiom of a constant-1 gauge whose labels carry the build
/// facts — and `fcp_uptime_seconds`, whose gauge is returned so the caller
/// can refresh it on snapshot/scrape.
/// Idempotent per registry (re-registration rebinds the same metrics).
telemetry::Gauge* RegisterBuildInfo(telemetry::MetricRegistry* registry);

}  // namespace fcp

#endif  // FCP_CORE_ENGINE_METRICS_H_
