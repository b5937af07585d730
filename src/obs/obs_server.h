// ObsServer: an embedded, read-only HTTP/1.1 observability endpoint
// (DESIGN.md §2.8).
//
// One epoll-driven poll thread serves GET/HEAD requests against a fixed
// handler table (/metrics, /varz, /statusz, /healthz, /readyz, /tracez).
// Every handler produces a self-contained snapshot string, so a scrape
// never holds a lock the mining pipeline contends on and never blocks the
// hot path — the only coupling is the relaxed atomics and snapshot mutexes
// the telemetry layer already exposes. Connections are bounded; requests
// over the cap get 503 and malformed or oversized requests are rejected
// without ever touching a handler. No keep-alive: one request, one
// response, close — the simplest thing that is correct for scrapers, and
// the connection substrate the future ingest daemon's admin port reuses.
//
// Lifetime: handlers are registered before Start() and may capture pointers
// into the engine; the owner must Stop() the server before those objects
// are destroyed (fcpmine stops it after Finish(), before the engine leaves
// scope).

#ifndef FCP_OBS_OBS_SERVER_H_
#define FCP_OBS_OBS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"

namespace fcp {

namespace telemetry {
class MetricRegistry;
class Counter;
class LatencyHistogram;
}  // namespace telemetry

namespace obs {

/// What a handler returns; the server renders the HTTP envelope.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Concurrent connection cap; one past the cap is accepted, told 503, and
/// closed, so a scraper stampede degrades loudly instead of queueing.
inline constexpr size_t kMaxConnections = 64;
/// Request-head size cap; longer requests get 431 and a close.
inline constexpr size_t kMaxRequestBytes = 8192;

struct ObsServerOptions {
  /// Bind address. The default is loopback-only: the observability plane is
  /// unauthenticated, so exposing it beyond the host is an explicit choice.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (the bound port is published by port()).
  uint16_t port = 0;
  /// Where to count scrape traffic (nullable).
  telemetry::MetricRegistry* metrics = nullptr;
};

class ObsServer {
 public:
  using Handler = std::function<HttpResponse()>;
  /// A handler that also sees the request's raw query string (no '?').
  using QueryHandler = std::function<HttpResponse(std::string_view query)>;

  explicit ObsServer(ObsServerOptions options = {});
  ~ObsServer();

  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Registers `handler` for GET/HEAD `path` (exact match, e.g. "/metrics").
  /// Must be called before Start().
  void SetHandler(std::string path, Handler handler);

  /// Like SetHandler for endpoints that take parameters (e.g.
  /// "/pprof/profile?seconds=5"). A path has either a Handler or a
  /// QueryHandler; the latter wins if both are set.
  void SetQueryHandler(std::string path, QueryHandler handler);

  /// Binds, listens and starts the poll thread. Returns an error Status if
  /// the address cannot be bound.
  Status Start();

  /// Closes the listener, drains connections and joins the poll thread.
  /// Idempotent; safe to call without a successful Start().
  void Stop();

  /// The bound port (after Start(); useful with port=0).
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Total requests answered (any status), for tests.
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// Connections refused with 503 because kMaxConnections was reached.
  uint64_t connections_rejected() const {
    return connections_rejected_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;

  void Loop();
  void AcceptAll();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  /// Parses conn->in and stages the response; returns false if the
  /// connection should be closed with nothing (peer hung up).
  void StageResponse(Connection* conn);
  void CloseConnection(Connection* conn);

  /// Creates (once) the per-endpoint scrape-duration histogram for `path`
  /// when a metrics registry is configured; called at registration time so
  /// the serving path never registers metrics.
  void EnsureScrapeHistogram(const std::string& path);
  /// Records one handler invocation against the endpoint's histogram.
  void RecordScrapeDuration(const std::string& path, int64_t micros);

  ObsServerOptions options_;
  std::map<std::string, Handler, std::less<>> handlers_;
  std::map<std::string, QueryHandler, std::less<>> query_handlers_;
  /// Per-endpoint scrape cost, fcp_obs_scrape_duration_us{endpoint=...}.
  std::map<std::string, telemetry::LatencyHistogram*, std::less<>>
      scrape_histograms_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd poked by Stop()
  std::atomic<uint16_t> port_{0};
  std::thread thread_;
  bool started_ = false;

  std::map<int, Connection*> connections_;  ///< poll-thread only

  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  telemetry::Counter* requests_counter_ = nullptr;
  telemetry::Counter* rejected_counter_ = nullptr;
  telemetry::Counter* bad_requests_counter_ = nullptr;
};

}  // namespace obs
}  // namespace fcp

#endif  // FCP_OBS_OBS_SERVER_H_
