// Standard observability endpoints (DESIGN.md §2.8): the glue between the
// ObsServer transport and the telemetry/watchdog data sources.
//
//   /metrics  Prometheus 0.0.4 text (MetricRegistry::ToPrometheus)
//   /varz     flat JSON snapshot of the same registry
//   /statusz  pipeline topology + watchdog stage table (JSON)
//   /healthz  liveness: 200 unless the watchdog says stalled (503)
//   /readyz   readiness: 503 until SetReady()+clean evaluation, 503 on stall
//   /tracez   flight-recorder state (JSON)
//
// All handlers are snapshot-on-scrape: each call builds a fresh string from
// relaxed atomics / snapshot mutexes and touches nothing on the mining hot
// path.

#ifndef FCP_OBS_ENDPOINTS_H_
#define FCP_OBS_ENDPOINTS_H_

#include <functional>
#include <string>

namespace fcp {

namespace telemetry {
class MetricRegistry;
}  // namespace telemetry

namespace obs {

class ObsServer;
class Watchdog;

/// Data sources behind the standard endpoints. Pointers are borrowed and
/// must outlive the server (fcpmine stops the server before the engine and
/// watchdog are destroyed).
struct EndpointSources {
  /// Registry behind /metrics and /varz. Required.
  telemetry::MetricRegistry* registry = nullptr;
  /// Health state machine behind /healthz, /readyz and the watchdog half of
  /// /statusz. Nullable: without one, healthz/readyz always answer 200.
  Watchdog* watchdog = nullptr;
  /// Engine topology JSON for /statusz (ParallelEngine::StatusJson or
  /// MiningEngine::StatusJson). Nullable: "{}" is reported.
  std::function<std::string()> pipeline_status;
  /// Called before serializing /metrics and /varz so the owner can refresh
  /// sampled gauges (engine SnapshotMetrics side effects). Nullable.
  std::function<void()> refresh;
};

/// Installs the six standard handlers on `server`. Call before Start().
void InstallStandardEndpoints(ObsServer& server, EndpointSources sources);

/// The /tracez payload builder (exposed for tests): whether the flight
/// recorder is recording, as {"enabled":true|false}.
std::string TracezJson();

}  // namespace obs
}  // namespace fcp

#endif  // FCP_OBS_ENDPOINTS_H_
