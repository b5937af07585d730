#include "obs/obs_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"
#include "core/parallel_engine.h"
#include "obs/endpoints.h"
#include "obs/http.h"
#include "obs/watchdog.h"
#include "telemetry/registry.h"

namespace fcp::obs {
namespace {

// Minimal blocking HTTP client: one request, read to EOF (the server always
// closes), return the raw response. Returns "" on connect failure.
std::string Fetch(uint16_t port, const std::string& raw_request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < raw_request.size()) {
    const ssize_t n =
        ::send(fd, raw_request.data() + sent, raw_request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(uint16_t port, const std::string& path) {
  return Fetch(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

int StatusOf(const std::string& response) {
  // "HTTP/1.1 200 OK\r\n..."
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(HttpParseTest, RequestLineAndQueryStripping) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest("GET /metrics HTTP/1.1\r\n\r\n", &request),
            ParseResult::kOk);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics");
  EXPECT_EQ(
      ParseHttpRequest("GET /varz?pretty=1 HTTP/1.1\r\n\r\n", &request),
      ParseResult::kOk);
  EXPECT_EQ(request.target, "/varz");
  // Bare-LF framing (curl never sends it, netcat users do).
  EXPECT_EQ(ParseHttpRequest("GET / HTTP/1.0\n\n", &request),
            ParseResult::kOk);
}

TEST(HttpParseTest, IncompleteAndMalformed) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest("GET /metr", &request),
            ParseResult::kIncomplete);
  EXPECT_EQ(ParseHttpRequest("GET /metrics HTTP/1.1\r\nHost: x\r\n", &request),
            ParseResult::kIncomplete);
  EXPECT_EQ(ParseHttpRequest("NOT-HTTP\r\n\r\n", &request), ParseResult::kBad);
  EXPECT_EQ(ParseHttpRequest("GET metrics HTTP/1.1\r\n\r\n", &request),
            ParseResult::kBad);  // target must start with '/'
  EXPECT_EQ(ParseHttpRequest("GET / SMTP/1.0\r\n\r\n", &request),
            ParseResult::kBad);
}

TEST(HttpRenderTest, ResponseEnvelope) {
  const std::string response =
      RenderHttpResponse(200, "text/plain", "hello\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(BodyOf(response), "hello\n");
  // HEAD: same headers (same Content-Length), empty payload.
  const std::string head =
      RenderHttpResponse(200, "text/plain", "hello\n", /*head_only=*/true);
  EXPECT_NE(head.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_EQ(BodyOf(head), "");
}

TEST(ObsServerTest, ServesHandlersAndRejectsTheRest) {
  ObsServer server;  // ephemeral port
  server.SetHandler("/ping", [] {
    HttpResponse response;
    response.body = "pong\n";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();
  ASSERT_NE(port, 0);

  const std::string ok = Get(port, "/ping");
  EXPECT_EQ(StatusOf(ok), 200);
  EXPECT_EQ(BodyOf(ok), "pong\n");

  EXPECT_EQ(StatusOf(Get(port, "/nope")), 404);
  EXPECT_EQ(StatusOf(Fetch(port, "POST /ping HTTP/1.1\r\n\r\n")), 405);
  EXPECT_EQ(StatusOf(Fetch(port, "GARBAGE\r\n\r\n")), 400);

  // HEAD answers with headers only.
  const std::string head = Fetch(port, "HEAD /ping HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusOf(head), 200);
  EXPECT_EQ(BodyOf(head), "");

  // Parsed requests (200/404/405/HEAD) count as served; the malformed one
  // lands in fcp_obs_bad_requests_total instead.
  EXPECT_GE(server.requests_served(), 4u);
  server.Stop();
  server.Stop();  // idempotent
}

TEST(ObsServerTest, OversizedRequestGets431) {
  ObsServer server;
  server.SetHandler("/x", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  // A request head a little over the cap.
  const std::string long_path(kMaxRequestBytes + 100, 'a');
  EXPECT_EQ(StatusOf(Get(server.port(), "/" + long_path)), 431);
  server.Stop();
}

TEST(ObsServerTest, ConnectionCapRejectsWith503) {
  ObsServer server;
  server.SetHandler("/x", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  // kMaxConnections idle connections hold the cap; one more is told 503 and
  // closed.
  auto open_idle = [port] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  };
  std::vector<int> idle;
  for (size_t i = 0; i < kMaxConnections; ++i) idle.push_back(open_idle());
  // The accepts are asynchronous; poll until the server rejects.
  std::string over;
  for (int attempt = 0; attempt < 100; ++attempt) {
    over = Get(port, "/x");
    if (StatusOf(over) == 503 || server.connections_rejected() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(StatusOf(over), 503);
  EXPECT_GE(server.connections_rejected(), 1u);
  for (const int fd : idle) ::close(fd);
  server.Stop();
}

TEST(ObsServerTest, StandardEndpointsOverRegistryAndWatchdog) {
  telemetry::MetricRegistry registry;
  registry.GetCounter("fcp_events_ingested_total")->Increment(42);
  WatchdogOptions wd_options;
  wd_options.poll_interval_ms = 0;
  Watchdog watchdog(wd_options);
  StageHeartbeat* heartbeat = watchdog.RegisterStage("stage");

  ObsServer server;
  EndpointSources sources;
  sources.registry = &registry;
  sources.watchdog = &watchdog;
  sources.pipeline_status = [] { return std::string("{\"x\":1}"); };
  InstallStandardEndpoints(server, sources);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  // Not ready yet: readyz 503, healthz 200 (starting is alive).
  EXPECT_EQ(StatusOf(Get(port, "/readyz")), 503);
  EXPECT_EQ(StatusOf(Get(port, "/healthz")), 200);

  heartbeat->Beat();
  watchdog.SetReady();
  watchdog.EvaluateOnce(0);
  EXPECT_EQ(StatusOf(Get(port, "/readyz")), 200);

  const std::string metrics = Get(port, "/metrics");
  EXPECT_EQ(StatusOf(metrics), 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("fcp_events_ingested_total 42"), std::string::npos);

  const std::string varz = Get(port, "/varz");
  EXPECT_NE(varz.find("application/json"), std::string::npos);
  EXPECT_NE(varz.find("\"fcp_events_ingested_total\": 42"),
            std::string::npos);

  const std::string statusz = BodyOf(Get(port, "/statusz"));
  EXPECT_NE(statusz.find("\"pipeline\":{\"x\":1}"), std::string::npos);
  EXPECT_NE(statusz.find("\"watchdog\":{\"state\":\"healthy\""),
            std::string::npos);

  EXPECT_EQ(StatusOf(Get(port, "/tracez")), 200);
  EXPECT_EQ(BodyOf(Get(port, "/tracez")), "{\"enabled\":false}");

  // A stall flips healthz to 503 (wedged consumer: busy, no progress).
  heartbeat->MarkIdle(false);
  watchdog.EvaluateOnce(3'000'000'000);  // default stall timeout is 2s
  EXPECT_EQ(watchdog.state(), HealthState::kStalled);
  EXPECT_EQ(StatusOf(Get(port, "/healthz")), 503);
  EXPECT_EQ(StatusOf(Get(port, "/readyz")), 503);

  server.Stop();
}

TEST(ObsServerTest, ConcurrentScrapesDuringActiveMiningAreBenign) {
  // The acceptance shape of ISSUE 8: hammer every endpoint from several
  // client threads while the sharded pipeline mines, and require both that
  // every scrape is well-formed and that the mined output is byte-identical
  // to an unscrapted run.
  MiningParams params;
  params.xi = 100;
  params.tau = 2000;
  params.theta = 2;
  auto make_events = [] {
    std::vector<ObjectEvent> events;
    for (uint32_t i = 0; i < 6000; ++i) {
      events.push_back(ObjectEvent{/*stream=*/i % 7, /*object=*/i % 11,
                                   /*time=*/static_cast<Timestamp>(i * 10)});
    }
    return events;
  };

  auto run = [&](bool scrape) {
    telemetry::MetricRegistry registry;
    WatchdogOptions wd_options;
    wd_options.poll_interval_ms = 10;
    wd_options.metrics = &registry;
    Watchdog watchdog(wd_options);
    ParallelEngineOptions options;
    options.num_miner_shards = 4;
    options.metrics = &registry;
    options.watchdog = &watchdog;
    ParallelEngine engine(MinerKind::kCooMine, params, options);

    ObsServer server;
    std::vector<std::thread> scrapers;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> bad{0};
    if (scrape) {
      EndpointSources sources;
      sources.registry = &registry;
      sources.watchdog = &watchdog;
      sources.pipeline_status = [&engine] { return engine.StatusJson(); };
      sources.refresh = [&engine] { engine.SnapshotMetrics(); };
      InstallStandardEndpoints(server, sources);
      EXPECT_TRUE(server.Start().ok());
      watchdog.Start();
      watchdog.SetReady();
      const uint16_t port = server.port();
      for (int t = 0; t < 3; ++t) {
        scrapers.emplace_back([port, &stop, &bad] {
          const char* paths[] = {"/metrics", "/statusz", "/varz", "/healthz"};
          size_t k = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            const std::string response = Get(port, paths[k++ % 4]);
            if (StatusOf(response) != 200) {
              bad.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
    }
    for (const ObjectEvent& event : make_events()) engine.Push(event);
    engine.Finish();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& thread : scrapers) thread.join();
    watchdog.Stop();
    server.Stop();
    EXPECT_EQ(bad.load(), 0u);
    return engine.results();
  };

  const std::vector<Fcp> baseline = run(/*scrape=*/false);
  const std::vector<Fcp> scraped = run(/*scrape=*/true);
  ASSERT_FALSE(baseline.empty());
  ASSERT_EQ(baseline.size(), scraped.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].trigger, scraped[i].trigger);
    EXPECT_EQ(baseline[i].objects, scraped[i].objects);
    EXPECT_EQ(baseline[i].streams, scraped[i].streams);
    EXPECT_EQ(baseline[i].window_start, scraped[i].window_start);
    EXPECT_EQ(baseline[i].window_end, scraped[i].window_end);
  }
}

}  // namespace
}  // namespace fcp::obs
