#include "obs/endpoints.h"

#include <cstdlib>

#include "obs/obs_server.h"
#include "obs/watchdog.h"
#include "prof/prof.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace fcp::obs {
namespace {

constexpr char kTextPlain[] = "text/plain; charset=utf-8";
constexpr char kAppJson[] = "application/json";
/// The content type Prometheus scrapers negotiate for the 0.0.4 text format.
constexpr char kPromText[] = "text/plain; version=0.0.4; charset=utf-8";

/// Pulls an integer "key=value" out of a raw query string; `fallback` when
/// absent or unparseable. Good enough for the /pprof parameters — no
/// percent-decoding (the keys and values are plain tokens).
int QueryInt(std::string_view query, std::string_view key, int fallback) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    std::string_view pair = query.substr(pos, amp - pos);
    size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      const std::string value(pair.substr(eq + 1));
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end != value.c_str() && *end == '\0') {
        return static_cast<int>(parsed);
      }
      return fallback;
    }
    pos = amp + 1;
  }
  return fallback;
}

}  // namespace

std::string TracezJson() {
  return trace::IsEnabled() ? "{\"enabled\":true}" : "{\"enabled\":false}";
}

void InstallStandardEndpoints(ObsServer& server, EndpointSources sources) {
  telemetry::MetricRegistry* registry = sources.registry;
  Watchdog* watchdog = sources.watchdog;
  auto refresh = sources.refresh;
  auto pipeline_status = sources.pipeline_status;

  server.SetHandler("/metrics", [registry, refresh]() {
    if (refresh) refresh();
    return HttpResponse{200, kPromText,
                        registry != nullptr ? registry->ToPrometheus() : ""};
  });

  server.SetHandler("/varz", [registry, refresh]() {
    if (refresh) refresh();
    return HttpResponse{200, kAppJson,
                        registry != nullptr ? registry->ToJson() : "{}"};
  });

  server.SetHandler("/statusz", [pipeline_status, watchdog]() {
    std::string body = "{\"pipeline\":";
    body += pipeline_status ? pipeline_status() : "{}";
    body += ",\"watchdog\":";
    body += watchdog != nullptr ? watchdog->StatusJson() : "{}";
    body += '}';
    return HttpResponse{200, kAppJson, std::move(body)};
  });

  server.SetHandler("/healthz", [watchdog]() {
    if (watchdog == nullptr) {
      return HttpResponse{200, kTextPlain, "ok\n"};
    }
    const HealthState state = watchdog->state();
    const int status = state == HealthState::kStalled ? 503 : 200;
    std::string body(HealthStateName(state));
    body += '\n';
    return HttpResponse{status, kTextPlain, std::move(body)};
  });

  server.SetHandler("/readyz", [watchdog]() {
    if (watchdog == nullptr) {
      return HttpResponse{200, kTextPlain, "ok\n"};
    }
    if (watchdog->ready()) {
      return HttpResponse{200, kTextPlain, "ready\n"};
    }
    std::string body = "not ready (";
    body += HealthStateName(watchdog->state());
    body += ")\n";
    return HttpResponse{503, kTextPlain, std::move(body)};
  });

  server.SetHandler("/tracez", []() {
    return HttpResponse{200, kAppJson, TracezJson()};
  });

  // CPU profile of the next N seconds in collapsed/folded-stack format
  // (flamegraph.pl / speedscope / inferno consume it directly). Blocks the
  // obs poll thread for the window — scrapes queue behind it, by design:
  // one poll thread, and a profile capture is an interactive operation.
  server.SetQueryHandler("/pprof/profile", [registry](std::string_view q) {
    int seconds = QueryInt(q, "seconds", 2);
    if (seconds < 1) seconds = 1;
    if (seconds > 60) seconds = 60;
    int hz = QueryInt(q, "hz", 100);
    if (hz < 1 || hz > 1000) hz = 100;
    // Bind the profiler gauges on the first capture if nothing armed them.
    if (registry != nullptr && !prof::IsSampling()) {
      prof::StartCpuProfiler(hz, registry);
      prof::StopCpuProfiler();
    }
    return HttpResponse{200, kTextPlain,
                        prof::CaptureFoldedProfile(seconds, hz)};
  });

  // Allocation-site profile (folded stacks, sampled bytes). Empty until
  // the binary arms prof::EnableHeapProfiler (fcpmine --profile does).
  server.SetHandler("/pprof/heap", []() {
    if (!prof::HeapProfilerEnabled()) {
      return HttpResponse{200, kTextPlain,
                          "# heap profiler not enabled (run with --profile "
                          "or call prof::EnableHeapProfiler)\n"};
    }
    return HttpResponse{200, kTextPlain, prof::HeapProfile()};
  });

  // A tiny index so a human hitting the root sees what is available.
  server.SetHandler("/", []() {
    return HttpResponse{
        200, kTextPlain,
        "fcp observability endpoints:\n"
        "  /metrics        Prometheus 0.0.4 text\n"
        "  /varz           flat JSON metric snapshot\n"
        "  /statusz        pipeline topology + watchdog stage table\n"
        "  /healthz        liveness (503 when stalled)\n"
        "  /readyz         readiness (503 while starting or stalled)\n"
        "  /tracez         flight-recorder state\n"
        "  /pprof/profile  folded CPU+wait profile (?seconds=N&hz=F)\n"
        "  /pprof/heap     folded allocation-site profile\n"};
  });
}

}  // namespace fcp::obs
