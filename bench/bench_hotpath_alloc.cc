// Hot-path allocation/latency microbench: ns/op and heap-allocations/op of
// steady-state AddSegment for the three miners, on the skewed (Zipf
// vocabulary) Twitter workload by default.
//
// Two workloads per miner:
//  - "zipf":   paper-default parameters — the latency comparison point;
//  - "steady": same trace with theta raised so no FCP clears the bar — every
//              trigger exercises the full index + mining path but emits
//              nothing. The Zipf tail still yields first-seen objects
//              throughout the trace, so structures keep growing slightly;
//  - "cycle":  closed-universe replay — a fixed pool of segment shapes
//              repeated with fresh ids and advancing timestamps. After the
//              warm cycles every structure has converged, which is the
//              regime where CooMine must perform ZERO heap allocations per
//              AddSegment.
//
// `--json=<path>` appends the records to a JSON trajectory file;
// `--label=<tag>` names the run (e.g. "pre", "post"). The exact
// zero-allocation claims are ctests (alloc_regression_test,
// pipeline_alloc_test); this bench is a measuring tool, and its exit code
// enforces only the armed profiler's overhead bar.

#include "util/alloc_counter.h"  // must be first: defines operator new/delete

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/shard.h"
#include "core/engine_metrics.h"
#include "core/miner.h"
#include "obs/endpoints.h"
#include "obs/obs_server.h"
#include "obs/watchdog.h"
#include "prof/prof.h"
#include "stream/segment_ref.h"
#include "stream/shard_router.h"
#include "telemetry/registry.h"
#include "telemetry/thread_registry.h"
#include "telemetry/trace.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace fcp::bench {
namespace {

struct OpCost {
  double ns_per_op = 0;
  double allocs_per_op = 0;
};

OpCost MeasureAddSegment(MinerKind kind, const MiningParams& params,
                         const std::vector<Segment>& segments) {
  auto miner = MakeMiner(kind, params);
  const size_t warm = segments.size() / 2;
  std::vector<Fcp> sink;
  sink.reserve(1024);
  for (size_t i = 0; i < warm; ++i) {
    sink.clear();
    miner->AddSegment(segments[i], &sink);
  }

  const uint64_t allocs_before = alloc_counter::allocations();
  Stopwatch timer;
  for (size_t i = warm; i < segments.size(); ++i) {
    sink.clear();
    miner->AddSegment(segments[i], &sink);
  }
  const int64_t elapsed_ns = timer.ElapsedNanos();
  const uint64_t allocs = alloc_counter::allocations() - allocs_before;

  const double ops = static_cast<double>(segments.size() - warm);
  OpCost cost;
  cost.ns_per_op = static_cast<double>(elapsed_ns) / ops;
  cost.allocs_per_op = static_cast<double>(allocs) / ops;
  return cost;
}

// Like MeasureAddSegment, but with the engines' per-segment telemetry
// publish sequence (histogram Record + PublishDelta + PublishIntrospection)
// when `publish` is set. The registry is always constructed, so `publish ==
// false` is the compiled-but-unread baseline the overhead is measured
// against.
OpCost MeasureWithTelemetry(MinerKind kind, const MiningParams& params,
                            const std::vector<Segment>& segments,
                            bool publish) {
  telemetry::MetricRegistry registry;
  const MinerMetrics metrics = MinerMetrics::Register(&registry, "");
  telemetry::LatencyHistogram* latency =
      registry.GetHistogram("fcp_segment_mine_latency_us");
  MinerStats published;

  auto miner = MakeMiner(kind, params);
  const size_t warm = segments.size() / 2;
  std::vector<Fcp> sink;
  sink.reserve(1024);
  for (size_t i = 0; i < warm; ++i) {
    sink.clear();
    miner->AddSegment(segments[i], &sink);
    if (publish) {
      latency->Record(static_cast<uint64_t>(i & 1023));
      metrics.PublishDelta(miner->stats(), &published);
      metrics.PublishIntrospection(miner->Introspect());
    }
  }

  const uint64_t allocs_before = alloc_counter::allocations();
  Stopwatch timer;
  for (size_t i = warm; i < segments.size(); ++i) {
    sink.clear();
    miner->AddSegment(segments[i], &sink);
    if (publish) {
      latency->Record(static_cast<uint64_t>(i & 1023));
      metrics.PublishDelta(miner->stats(), &published);
      metrics.PublishIntrospection(miner->Introspect());
    }
  }
  const int64_t elapsed_ns = timer.ElapsedNanos();
  const uint64_t allocs = alloc_counter::allocations() - allocs_before;

  const double ops = static_cast<double>(segments.size() - warm);
  OpCost cost;
  cost.ns_per_op = static_cast<double>(elapsed_ns) / ops;
  cost.allocs_per_op = static_cast<double>(allocs) / ops;
  return cost;
}

// Sharded replay: `num_shards` replicas each index their routed share of the
// trace (min-object routing, ownership-filtered mining — the ShardRouter's
// delivery pattern without the queues). The delivery plan is precomputed so
// routing never charges the measurement; allocs/op is per delivery. Posting
// growth is re-paid by every replica, so this is where unpooled per-shard
// postings make allocs/op climb with S — arena-pooled postings must hold it
// near-flat.
OpCost MeasureShardedAddSegment(MinerKind kind, const MiningParams& params,
                                const std::vector<Segment>& segments,
                                uint32_t num_shards) {
  std::vector<std::unique_ptr<FcpMiner>> miners;
  for (uint32_t s = 0; s < num_shards; ++s) {
    miners.push_back(MakeMiner(kind, params, ShardSpec{s, num_shards}));
  }
  std::vector<std::vector<uint32_t>> plan(segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    for (ObjectId object : segments[i].DistinctObjects()) {
      const uint32_t shard = ShardOf(object, num_shards);
      std::vector<uint32_t>& targets = plan[i];
      if (std::find(targets.begin(), targets.end(), shard) == targets.end()) {
        targets.push_back(shard);
      }
    }
  }

  std::vector<Fcp> sink;
  sink.reserve(1024);
  uint64_t deliveries = 0;
  auto replay = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      for (uint32_t target : plan[i]) {
        miners[target]->AdvanceWatermark(segments[i].end_time());
        sink.clear();
        miners[target]->AddSegment(segments[i], &sink);
        ++deliveries;
      }
    }
  };
  const size_t warm = segments.size() / 2;
  replay(0, warm);

  deliveries = 0;
  const uint64_t allocs_before = alloc_counter::allocations();
  Stopwatch timer;
  replay(warm, segments.size());
  const int64_t elapsed_ns = timer.ElapsedNanos();
  const uint64_t allocs = alloc_counter::allocations() - allocs_before;

  const double ops = static_cast<double>(deliveries);
  OpCost cost;
  cost.ns_per_op = static_cast<double>(elapsed_ns) / ops;
  cost.allocs_per_op = static_cast<double>(allocs) / ops;
  return cost;
}

// Router-path cost of the zero-copy segment fabric: a real ShardRouter
// (keeping its live set, as every sharded router does) multicasting
// refcounted slabs, with every delivery drained and dropped right after its
// Route so the measurement covers the delivery's full life — multicast
// refcount bumps, queue churn, live-ring upkeep, final release. The refs
// are adopted once before the timed region; steady state must stay at
// (essentially) zero allocations per delivery for every fan-out, because a
// delivery is a refcount increment, never an entry-vector copy.
struct RouterCost {
  OpCost op;
  double bytes_per_op = 0;
};

RouterCost MeasureRouterPath(const std::vector<Segment>& segments,
                             DurationMs tau, uint32_t num_shards) {
  ShardRouter router(num_shards, /*queue_capacity=*/4096, tau);
  std::vector<SegmentRef> refs;
  refs.reserve(segments.size());
  for (const Segment& segment : segments) {
    refs.push_back(SegmentRef::Adopt(Segment(segment)));
  }

  uint64_t deliveries = 0;
  auto replay = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      router.Route(refs[i]);
      for (uint32_t s = 0; s < num_shards; ++s) {
        while (router.queue(s).TryPop()) ++deliveries;
      }
    }
  };
  const size_t warm = segments.size() / 2;
  replay(0, warm);

  deliveries = 0;
  const uint64_t allocs_before = alloc_counter::allocations();
  const uint64_t bytes_before = alloc_counter::bytes_allocated();
  Stopwatch timer;
  replay(warm, segments.size());
  const int64_t elapsed_ns = timer.ElapsedNanos();
  const uint64_t allocs = alloc_counter::allocations() - allocs_before;
  const uint64_t bytes = alloc_counter::bytes_allocated() - bytes_before;

  const double ops = static_cast<double>(deliveries);
  RouterCost cost;
  cost.op.ns_per_op = static_cast<double>(elapsed_ns) / ops;
  cost.op.allocs_per_op = static_cast<double>(allocs) / ops;
  cost.bytes_per_op = static_cast<double>(bytes) / ops;
  return cost;
}

// One blocking loopback HTTP GET against the embedded ObsServer; returns
// bytes received (0 on any failure).
size_t ScrapeOnce(uint16_t port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  size_t total = 0;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    char request[128];
    const int len = std::snprintf(
        request, sizeof(request), "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n",
        path);
    if (::send(fd, request, static_cast<size_t>(len), 0) == len) {
      char buffer[4096];
      ssize_t got;
      while ((got = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
        total += static_cast<size_t>(got);
      }
    }
  }
  ::close(fd);
  return total;
}

enum class ObsMode {
  kOff,      // no obs plane at all: the overhead baseline
  kWired,    // heartbeat wired + server live, nobody scraping
  kScraped,  // a client thread scrapes /metrics,/statusz,/varz back-to-back
};

// CPU time consumed by the calling thread, in nanoseconds.
int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

struct ScrapeCost {
  OpCost mining;          // wall ns/op + process-wide allocation delta
  double cpu_ns_per_op = 0;  // mining-thread CPU time per op
  uint64_t scrapes = 0;   // scrapes completed inside the timed region
};

// Scrape-under-load: the converged cyclic CooMine workload with the full
// per-segment publish sequence, mined while an embedded ObsServer answers a
// scraper. `kWired` proves the instrumentation itself (heartbeat stores, a
// parked poll thread) costs nothing — the process-wide allocation delta must
// stay exactly 0/op. Under `kScraped` every allocation the scrapes cause
// lands on the server's poll thread, never the mining thread, so the
// process-wide allocs/op is reported per *scrape* instead and the mining
// claim rides on the wired leg.
ScrapeCost MeasureUnderScrape(const MiningParams& params,
                              const std::vector<Segment>& segments,
                              ObsMode mode) {
  telemetry::MetricRegistry registry;
  const MinerMetrics metrics = MinerMetrics::Register(&registry, "");
  telemetry::LatencyHistogram* latency =
      registry.GetHistogram("fcp_segment_mine_latency_us");
  MinerStats published;

  obs::WatchdogOptions watchdog_options;
  watchdog_options.poll_interval_ms = 0;  // heartbeats only, no eval thread
  watchdog_options.metrics = &registry;
  obs::Watchdog watchdog(watchdog_options);
  obs::StageHeartbeat* heartbeat =
      mode == ObsMode::kOff ? nullptr : watchdog.RegisterStage("bench-mine");

  std::unique_ptr<obs::ObsServer> server;
  if (mode != ObsMode::kOff) {
    obs::ObsServerOptions server_options;
    server_options.metrics = &registry;
    server = std::make_unique<obs::ObsServer>(server_options);
    obs::EndpointSources sources;
    sources.registry = &registry;
    sources.watchdog = &watchdog;
    obs::InstallStandardEndpoints(*server, sources);
    if (!server->Start().ok()) server.reset();
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper;
  if (mode == ObsMode::kScraped && server != nullptr) {
    // 10 scrapes/s — still ~150x a real Prometheus interval, but paced: a
    // zero-delay loop measures how fast the snapshot path can be hammered
    // (pure CPU-sharing on small hosts), not what a scraper costs the miner.
    const uint16_t port = server->port();
    scraper = std::thread([&stop, &scrapes, port] {
      const char* paths[] = {"/metrics", "/statusz", "/varz"};
      for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        if (ScrapeOnce(port, paths[i % 3]) > 0) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  auto miner = MakeMiner(MinerKind::kCooMine, params);
  std::vector<Fcp> sink;
  sink.reserve(1024);
  auto mine = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (heartbeat != nullptr) heartbeat->MarkIdle(false);
      sink.clear();
      miner->AddSegment(segments[i], &sink);
      latency->Record(static_cast<uint64_t>(i & 1023));
      metrics.PublishDelta(miner->stats(), &published);
      metrics.PublishIntrospection(miner->Introspect());
      if (heartbeat != nullptr) {
        heartbeat->Beat();
        heartbeat->MarkIdle(true);
      }
    }
  };
  const size_t warm = segments.size() / 2;
  mine(0, warm);

  const uint64_t scrapes_before = scrapes.load(std::memory_order_relaxed);
  const uint64_t allocs_before = alloc_counter::allocations();
  const int64_t cpu_before = ThreadCpuNanos();
  Stopwatch timer;
  mine(warm, segments.size());
  const int64_t elapsed_ns = timer.ElapsedNanos();
  const int64_t cpu_ns = ThreadCpuNanos() - cpu_before;
  const uint64_t allocs = alloc_counter::allocations() - allocs_before;
  const uint64_t scrapes_during =
      scrapes.load(std::memory_order_relaxed) - scrapes_before;

  stop.store(true, std::memory_order_relaxed);
  if (scraper.joinable()) scraper.join();
  if (server != nullptr) server->Stop();
  watchdog.Stop();

  const double ops = static_cast<double>(segments.size() - warm);
  ScrapeCost cost;
  cost.mining.ns_per_op = static_cast<double>(elapsed_ns) / ops;
  cost.mining.allocs_per_op = static_cast<double>(allocs) / ops;
  cost.cpu_ns_per_op = static_cast<double>(cpu_ns) / ops;
  cost.scrapes = scrapes_during;
  return cost;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  flags.RejectUnknown({"scale", "quick", "dataset", "events", "label",
                       "json"});
  const BenchScale scale(flags);
  const Dataset dataset =
      flags.GetString("dataset", "twitter") == "traffic" ? Dataset::kTraffic
                                                         : Dataset::kTwitter;
  const uint64_t events = scale.Events(
      static_cast<uint64_t>(flags.GetInt("events", 400000)));
  const std::string label = flags.GetString("label", "run");
  PrintHeader("hot-path alloc",
              "steady-state AddSegment ns/op and heap allocations/op "
              "(operator-new counter); 'steady' raises theta so no FCP is "
              "emitted");

  const std::vector<ObjectEvent> trace =
      GenerateEvents(dataset, events, /*seed=*/42);
  const MiningParams zipf_params = DefaultParams(dataset);
  const std::vector<Segment> segments = SegmentTrace(trace, zipf_params.xi);
  std::printf("dataset=%s events=%" PRIu64 " segments=%zu\n\n",
              std::string(DatasetName(dataset)).c_str(), events,
              segments.size());

  MiningParams steady_params = zipf_params;
  steady_params.theta = 1u << 20;  // unreachable: no emissions

  const MinerKind kinds[] = {MinerKind::kCooMine, MinerKind::kDiMine,
                             MinerKind::kMatrixMine};
  std::vector<JsonRecord> records;
  std::printf("%-24s %14s %14s %12s\n", "case", "ns/op", "allocs/op",
              "rss(MB)");
  for (MinerKind kind : kinds) {
    for (const bool steady : {false, true}) {
      const OpCost cost = MeasureAddSegment(
          kind, steady ? steady_params : zipf_params, segments);
      JsonRecord record;
      record.name = std::string(MinerKindToString(kind)) +
                    (steady ? "/steady" : "/zipf");
      record.ns_per_op = cost.ns_per_op;
      record.allocs_per_op = cost.allocs_per_op;
      record.rss_bytes = CurrentRssBytes();
      std::printf("%-24s %14.1f %14.3f %12.1f\n", record.name.c_str(),
                  record.ns_per_op, record.allocs_per_op,
                  static_cast<double>(record.rss_bytes) / (1024.0 * 1024.0));
      records.push_back(record);
    }
  }
  // Closed-universe cyclic replay (see file comment): MeasureAddSegment
  // warms on the first half (3 cycles), measures the last 3.
  const std::vector<Segment> cyclic =
      BuildCyclicTrace(segments, /*pool_size=*/4000, /*cycles=*/6,
                       steady_params);
  for (MinerKind kind : kinds) {
    const OpCost cost = MeasureAddSegment(kind, steady_params, cyclic);
    JsonRecord record;
    record.name = std::string(MinerKindToString(kind)) + "/cycle";
    record.ns_per_op = cost.ns_per_op;
    record.allocs_per_op = cost.allocs_per_op;
    record.rss_bytes = CurrentRssBytes();
    std::printf("%-24s %14.1f %14.3f %12.1f\n", record.name.c_str(),
                record.ns_per_op, record.allocs_per_op,
                static_cast<double>(record.rss_bytes) / (1024.0 * 1024.0));
    records.push_back(record);
  }
  // Shard-count allocation scaling (Issue 6 satellite): the open-universe
  // zipf trace replayed into S DiMine shard replicas. Arena-pooled postings
  // must keep allocs/op near-flat as S grows instead of re-paying every
  // posting's doubling chain per replica.
  std::printf("\n%-24s %14s %14s %12s\n", "sharded DiMine", "ns/op",
              "allocs/op", "rss(MB)");
  for (const uint32_t num_shards : {1u, 2u, 4u, 8u}) {
    const OpCost cost = MeasureShardedAddSegment(MinerKind::kDiMine,
                                                 zipf_params, segments,
                                                 num_shards);
    JsonRecord record;
    record.name = "DiMine/zipf/S" + std::to_string(num_shards);
    record.ns_per_op = cost.ns_per_op;
    record.allocs_per_op = cost.allocs_per_op;
    record.rss_bytes = CurrentRssBytes();
    record.AddExtra("num_shards", static_cast<double>(num_shards));
    std::printf("%-24s %14.1f %14.3f %12.1f\n", record.name.c_str(),
                record.ns_per_op, record.allocs_per_op,
                static_cast<double>(record.rss_bytes) / (1024.0 * 1024.0));
    records.push_back(record);
  }
  // Zero-copy router path (Issue 7 satellite): allocations and bytes per
  // delivery through a live-tracking ShardRouter. The fan-out grows with S
  // but a delivery stays a refcount bump, so both columns must hold
  // near-zero at every shard count.
  std::printf("\n%-24s %14s %14s %12s\n", "router path", "ns/op", "allocs/op",
              "bytes/op");
  for (const uint32_t num_shards : {2u, 4u, 8u}) {
    const RouterCost cost =
        MeasureRouterPath(segments, zipf_params.tau, num_shards);
    JsonRecord record;
    record.name = "router/zipf/S" + std::to_string(num_shards);
    record.ns_per_op = cost.op.ns_per_op;
    record.allocs_per_op = cost.op.allocs_per_op;
    record.rss_bytes = CurrentRssBytes();
    record.AddExtra("num_shards", static_cast<double>(num_shards));
    record.AddExtra("bytes_per_op", cost.bytes_per_op);
    std::printf("%-24s %14.1f %14.3f %12.1f\n", record.name.c_str(),
                record.ns_per_op, record.allocs_per_op, cost.bytes_per_op);
    records.push_back(record);
  }
  // Telemetry overhead datapoint: per-segment publish sequence on vs.
  // telemetry compiled but unread, on the converged cyclic workload. The
  // acceptance bar is <= 5% — printed, not asserted (shared-host noise).
  std::printf("\n%-24s %14s %14s %12s\n", "telemetry", "ns/op", "allocs/op",
              "overhead%");
  for (MinerKind kind : kinds) {
    const OpCost off = MeasureWithTelemetry(kind, steady_params, cyclic,
                                            /*publish=*/false);
    const OpCost on = MeasureWithTelemetry(kind, steady_params, cyclic,
                                           /*publish=*/true);
    const double overhead_pct =
        off.ns_per_op > 0 ? (on.ns_per_op / off.ns_per_op - 1.0) * 100.0 : 0;
    JsonRecord record;
    record.name = std::string(MinerKindToString(kind)) + "/telemetry";
    record.ns_per_op = on.ns_per_op;
    record.allocs_per_op = on.allocs_per_op;
    record.rss_bytes = CurrentRssBytes();
    record.AddExtra("baseline_ns_per_op", off.ns_per_op);
    record.AddExtra("overhead_pct", overhead_pct);
    std::printf("%-24s %14.1f %14.3f %+11.2f%%\n", record.name.c_str(),
                record.ns_per_op, record.allocs_per_op, overhead_pct);
    records.push_back(record);
  }
  // Flight-recorder overhead datapoint (DESIGN.md §2.5): the converged
  // cyclic workload with recording off (the span fast path — one relaxed
  // load + branch per span) vs. recording into the per-thread ring. The
  // acceptance bar is <= 10% with recording on — printed, not asserted
  // (shared-host noise).
  std::printf("\n%-24s %14s %14s %12s\n", "trace", "ns/op", "allocs/op",
              "overhead%");
  for (MinerKind kind : kinds) {
    trace::Reset();
    const OpCost off = MeasureAddSegment(kind, steady_params, cyclic);
    trace::Start(/*ring_kb=*/256);  // ring registers during the warm half
    const OpCost on = MeasureAddSegment(kind, steady_params, cyclic);
    trace::Stop();
    trace::Reset();
    const double overhead_pct =
        off.ns_per_op > 0 ? (on.ns_per_op / off.ns_per_op - 1.0) * 100.0 : 0;
    JsonRecord record;
    record.name = std::string(MinerKindToString(kind)) + "/trace";
    record.ns_per_op = on.ns_per_op;
    record.allocs_per_op = on.allocs_per_op;
    record.rss_bytes = CurrentRssBytes();
    record.AddExtra("baseline_ns_per_op", off.ns_per_op);
    record.AddExtra("overhead_pct", overhead_pct);
    std::printf("%-24s %14.1f %14.3f %+11.2f%%\n", record.name.c_str(),
                record.ns_per_op, record.allocs_per_op, overhead_pct);
    records.push_back(record);
  }
  // Scrape-under-load datapoint (DESIGN.md §2.8): the converged cyclic
  // CooMine workload with the embedded ObsServer live. The wired leg must
  // hold the mining thread at exactly 0 allocs/op; the scraped leg's ns/op
  // overhead vs. the no-obs baseline has a <= 2% acceptance bar — printed,
  // not asserted (shared-host noise). Scrape-side allocations happen on the
  // server's poll thread and are reported per scrape.
  std::printf("\n%-24s %14s %14s %12s\n", "scrape", "ns/op", "allocs/op",
              "overhead%");
  {
    // Interleaved best-of-5: the three modes run back-to-back inside each
    // rep so they sample the same background load, and the min ns/op per
    // mode drops the reps a noisy neighbour stole (single shots minutes
    // apart confound scheduler noise with the ~1% effect under test).
    // Allocations are deterministic, so the max across reps is kept — any
    // rep that allocates on the mining thread must show.
    const ObsMode modes[] = {ObsMode::kOff, ObsMode::kWired,
                             ObsMode::kScraped};
    ScrapeCost best[3];
    for (int rep = 0; rep < 5; ++rep) {
      for (int m = 0; m < 3; ++m) {
        const ScrapeCost cost =
            MeasureUnderScrape(steady_params, cyclic, modes[m]);
        if (rep == 0 || cost.cpu_ns_per_op < best[m].cpu_ns_per_op) {
          best[m].mining.ns_per_op = cost.mining.ns_per_op;
          best[m].cpu_ns_per_op = cost.cpu_ns_per_op;
          best[m].scrapes = cost.scrapes;
        }
        best[m].mining.allocs_per_op = std::max(
            best[m].mining.allocs_per_op, cost.mining.allocs_per_op);
      }
    }
    const ScrapeCost& off = best[0];
    const ScrapeCost& wired = best[1];
    const ScrapeCost& scraped = best[2];
    // Overhead is on the mining thread's CPU time: wall time on a small
    // host measures the scheduler slicing the core between the miner and
    // the scraper, while CPU time is what the hot path itself pays —
    // including any contention the obs plane induces.
    auto pct = [&](const ScrapeCost& leg) {
      return off.cpu_ns_per_op > 0
                 ? (leg.cpu_ns_per_op / off.cpu_ns_per_op - 1.0) * 100.0
                 : 0;
    };
    std::printf("%-24s %14.1f %14.3f %12s\n", "CooMine/obs-off",
                off.cpu_ns_per_op, off.mining.allocs_per_op, "--");
    std::printf("%-24s %14.1f %14.3f %+11.2f%%\n", "CooMine/obs-wired",
                wired.cpu_ns_per_op, wired.mining.allocs_per_op, pct(wired));
    std::printf("%-24s %14.1f %14.3f %+11.2f%%  (%" PRIu64 " scrapes)\n",
                "CooMine/obs-scraped", scraped.cpu_ns_per_op,
                wired.mining.allocs_per_op, pct(scraped), scraped.scrapes);
    JsonRecord record;
    record.name = "CooMine/scrape";
    record.ns_per_op = scraped.cpu_ns_per_op;
    // The mining path's allocations: the wired leg's process-wide delta
    // (no scraper thread muddying the counter) — must be 0.
    record.allocs_per_op = wired.mining.allocs_per_op;
    record.rss_bytes = CurrentRssBytes();
    record.AddExtra("baseline_cpu_ns_per_op", off.cpu_ns_per_op);
    record.AddExtra("wired_cpu_ns_per_op", wired.cpu_ns_per_op);
    record.AddExtra("overhead_pct", pct(scraped));
    record.AddExtra("wall_ns_per_op", scraped.mining.ns_per_op);
    record.AddExtra("baseline_wall_ns_per_op", off.mining.ns_per_op);
    record.AddExtra("scrapes", static_cast<double>(scraped.scrapes));
    records.push_back(record);
  }
  // Sampling-profiler overhead datapoint (DESIGN.md §2.9): the converged
  // cyclic CooMine workload with the profiler disarmed (one relaxed load at
  // each wait point) vs. armed at 100 Hz (per-thread SIGPROF timer firing
  // into the mining loop). Unlike the legs above this one is ENFORCED: at
  // 100 samples/s a handler costing even microseconds is < 0.1% of the
  // thread's CPU time, so > 2% mining-thread CPU overhead means the sample
  // path regressed structurally, not that the host was busy. CPU time (not
  // wall) and interleaved best-of-5 keep neighbour noise out of the
  // comparison; the armed leg must also stay at the disarmed leg's
  // allocs/op — the signal handler and ring writes touch no allocator.
  std::printf("\n%-24s %14s %14s %12s\n", "profiler", "cpu-ns/op",
              "allocs/op", "overhead%");
  int exit_code = 0;
  {
    constexpr int kProfHz = 100;
    telemetry::ThreadScope thread_scope("bench-mine");
    struct ProfLeg {
      double cpu_ns_per_op = 0;
      double allocs_per_op = 0;
    };
    auto measure = [&](bool armed) {
      auto miner = MakeMiner(MinerKind::kCooMine, steady_params);
      const size_t warm = cyclic.size() / 2;
      std::vector<Fcp> sink;
      sink.reserve(1024);
      for (size_t i = 0; i < warm; ++i) {
        sink.clear();
        miner->AddSegment(cyclic[i], &sink);
      }
      // Arm after the warm half: the ring allocation (first arm only) and
      // timer syscalls stay outside the measured region.
      if (armed) prof::StartCpuProfiler(kProfHz);
      const uint64_t allocs_before = alloc_counter::allocations();
      const int64_t cpu_before = ThreadCpuNanos();
      for (size_t i = warm; i < cyclic.size(); ++i) {
        sink.clear();
        miner->AddSegment(cyclic[i], &sink);
      }
      const int64_t cpu_ns = ThreadCpuNanos() - cpu_before;
      const uint64_t allocs = alloc_counter::allocations() - allocs_before;
      if (armed) prof::StopCpuProfiler();
      const double ops = static_cast<double>(cyclic.size() - warm);
      ProfLeg leg;
      leg.cpu_ns_per_op = static_cast<double>(cpu_ns) / ops;
      leg.allocs_per_op = static_cast<double>(allocs) / ops;
      return leg;
    };
    ProfLeg off, armed;
    for (int rep = 0; rep < 5; ++rep) {
      const ProfLeg off_rep = measure(false);
      const ProfLeg armed_rep = measure(true);
      if (rep == 0 || off_rep.cpu_ns_per_op < off.cpu_ns_per_op) {
        off.cpu_ns_per_op = off_rep.cpu_ns_per_op;
      }
      if (rep == 0 || armed_rep.cpu_ns_per_op < armed.cpu_ns_per_op) {
        armed.cpu_ns_per_op = armed_rep.cpu_ns_per_op;
      }
      // Allocations are deterministic: keep the max so any rep that
      // allocated on the sample path must show.
      off.allocs_per_op = std::max(off.allocs_per_op, off_rep.allocs_per_op);
      armed.allocs_per_op =
          std::max(armed.allocs_per_op, armed_rep.allocs_per_op);
    }
    const double overhead_pct =
        off.cpu_ns_per_op > 0
            ? (armed.cpu_ns_per_op / off.cpu_ns_per_op - 1.0) * 100.0
            : 0;
    std::printf("%-24s %14.1f %14.3f %12s\n", "CooMine/prof-off",
                off.cpu_ns_per_op, off.allocs_per_op, "--");
    std::printf("%-24s %14.1f %14.3f %+11.2f%%\n", "CooMine/prof-armed",
                armed.cpu_ns_per_op, armed.allocs_per_op, overhead_pct);
    JsonRecord record;
    record.name = "CooMine/prof";
    record.ns_per_op = armed.cpu_ns_per_op;
    record.allocs_per_op = armed.allocs_per_op;
    record.rss_bytes = CurrentRssBytes();
    record.AddExtra("baseline_cpu_ns_per_op", off.cpu_ns_per_op);
    record.AddExtra("overhead_pct", overhead_pct);
    record.AddExtra("hz", kProfHz);
    records.push_back(record);
    if (overhead_pct > 2.0) {
      std::fprintf(stderr,
                   "FAIL: armed profiler costs %+.2f%% mining-thread CPU "
                   "(budget: 2%%)\n",
                   overhead_pct);
      exit_code = 1;
    }
    if (armed.allocs_per_op > off.allocs_per_op + 1e-3) {
      std::fprintf(stderr,
                   "FAIL: armed profiler allocates on the sample path "
                   "(%.3f vs %.3f allocs/op)\n",
                   armed.allocs_per_op, off.allocs_per_op);
      exit_code = 1;
    }
  }
  MaybeAppendBenchJson(flags, "bench_hotpath_alloc", label, records);
  return exit_code;
}

}  // namespace
}  // namespace fcp::bench

int main(int argc, char** argv) { return fcp::bench::Run(argc, argv); }
