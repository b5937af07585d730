// fcpmine — command-line FCP mining over a trace file.
//
// Reads a `.csv` (stream,object,time_ms) or `.fcpt` binary trace, runs the
// chosen miner, and prints the discovered patterns: either every alert as it
// fires, or an end-of-run report (top-K / maximal patterns).
//
// Examples:
//   fcpmine --input=trace.csv --theta=3 --xi=60 --tau=1800
//   fcpmine --input=trace.fcpt --algo=dimine --report=topk --k=20
//   fcpmine --synthetic=traffic --events=100000 --report=maximal
//
// Flags:
//   --input=<path>        trace file (.csv or .fcpt)
//   --synthetic=traffic|twitter   generate a demo workload instead
//   --events=N            synthetic workload size (default 50000)
//   --algo=coomine|dimine|matrixmine   (default coomine)
//   --xi=<seconds>        within-stream window  (default 60)
//   --tau=<seconds>       cross-stream window   (default 1800)
//   --theta=N             min distinct streams  (default 3)
//   --min_size/--max_size pattern size range    (default 2..5)
//   --report=stream|topk|maximal   output mode  (default stream)
//   --k=N                 top-K size            (default 20)
//   --suppress=<seconds>  re-report suppression (default tau)
//   --stats               print miner statistics at the end (with
//                         --shards, one line per shard too), the trace's
//                         bytes (size and capacity) and the process's peak
//                         RSS (VmHWM), so the loader's share of it shows
//   --metrics=json|prom[,<path>]   one telemetry report at exit, with
//                         end-of-run values (JSON or Prometheus text
//                         exposition), to <path> or else stderr; for live
//                         reads use --listen's /metrics and /varz
//   --batch=N             ingest N events per MiningEngine::IngestBatch call
//                         (default 1 = per-event PushEvent); results are
//                         identical for every N, only the ingestion cost
//                         changes
//   --shards=S            mine with the parallel pipeline (S miner shards,
//                         at most 64); 0 (default) = serial MiningEngine.
//                         Results are invariant in S; alerts print after the
//                         run drains. With S >= 2 the pipeline migrates hot
//                         objects between shards when per-shard load skews;
//                         the imbalance gauge and migration counters land in
//                         --metrics output.
//   --trace=<path>[,ring_kb]   record a flight-recorder trace of the run and
//                         write Chrome trace-event JSON to <path> (open in
//                         Perfetto / chrome://tracing). ring_kb sizes each
//                         thread's ring (default 256 KiB, at most 1 GiB).
//                         Also arms a fatal-signal handler that dumps the
//                         recorder to <path>.crash.json. `fcptrace
//                         --input=<path> --slowest=N` lists the slowest
//                         mine calls with their segment id and length.
//   --listen=[host:]port  serve the live introspection plane over HTTP while
//                         mining: GET /metrics (Prometheus 0.0.4), /varz
//                         (JSON), /statusz (pipeline topology), /healthz,
//                         /readyz, /tracez (recorder state), /pprof/profile
//                         and /pprof/heap (folded profiles). Read-only,
//                         snapshot-on-scrape; results are byte-identical
//                         with the server on or off. Also arms the pipeline
//                         watchdog behind /healthz (stall detection).
//   --watchdog_interval_ms=N   watchdog evaluation cadence (default 100)
//   --stall_timeout_ms=N  no stage progress for this long while busy (or
//                         with queued input) => stalled (default 2000)
//   --pace=N              throttle ingestion to ~N events/second (0 =
//                         unthrottled); keeps a run alive long enough to
//                         scrape it
//   --profile=<path>[,hz] sample the whole run with the in-process CPU +
//                         off-CPU profiler (default 100 Hz) and write the
//                         folded-stack profile to <path> at exit (feed it
//                         to flamegraph.pl / speedscope, or inspect with
//                         fcpprof). Also arms allocation-site sampling:
//                         /pprof/heap serves it live under --listen. With
//                         --listen but without --profile, /pprof/profile
//                         still samples on demand.
//
// Any other flag exits 2 with `unknown flag --<name>`.

// Defines the counting operator new/delete for this binary (first include,
// one TU per binary): the alloc benches' counters and the heap profiler's
// sampling hook both hang off it.
#include "util/alloc_counter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/mining_engine.h"
#include "core/parallel_engine.h"
#include "core/pattern_report.h"
#include "datagen/traffic_gen.h"
#include "datagen/twitter_gen.h"
#include "io/trace_io.h"
#include "obs/crash_dump.h"
#include "obs/endpoints.h"
#include "obs/obs_server.h"
#include "obs/watchdog.h"
#include "prof/prof.h"
#include "telemetry/registry.h"
#include "telemetry/thread_registry.h"
#include "telemetry/trace.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "fcpmine: %s\n", message.c_str());
  return 1;
}

// The process's peak resident set (VmHWM) in MB; 0 when /proc is absent.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kb) / 1024.0;
}

std::string PatternToString(const fcp::Pattern& pattern) {
  std::string out = "{";
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(pattern[i]);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  fcp::Flags flags(argc, argv);
  // Removed flags name what replaced them; any other unknown key is a typo.
  static constexpr struct {
    const char* name;
    const char* why;
  } kRemovedFlags[] = {
      {"workers", "the sharded pipeline segments on one ingest thread"},
      {"metrics_interval",
       "--metrics writes one report at exit; read live values from "
       "--listen's /metrics"},
      {"slow_op_ns",
       "record the run with --trace and list its slowest mine calls with "
       "fcptrace --slowest"},
  };
  for (const auto& removed : kRemovedFlags) {
    if (flags.Has(removed.name)) {
      return Fail(std::string("--") + removed.name + " was removed: " +
                  removed.why);
    }
  }
  flags.RejectUnknown({"input", "synthetic", "events", "algo", "xi", "tau",
                       "theta", "min_size", "max_size", "report", "k",
                       "suppress", "stats", "metrics", "batch",
                       "shards", "trace", "listen",
                       "watchdog_interval_ms", "stall_timeout_ms", "pace",
                       "profile"});
  // These are cast to unsigned below, where a negative value would wrap.
  for (const char* name :
       {"events", "batch", "k", "theta", "min_size", "max_size", "suppress"}) {
    if (flags.GetInt(name, 0) < 0) {
      return Fail(std::string("--") + name + " must be >= 0");
    }
  }
  // Seconds() multiplies by 1000, which must not overflow.
  constexpr int64_t kMaxSeconds = std::numeric_limits<int64_t>::max() / 1000;
  for (const char* name : {"xi", "tau", "suppress"}) {
    if (flags.GetInt(name, 0) > kMaxSeconds) {
      return Fail(std::string("--") + name + " must be <= " +
                  std::to_string(kMaxSeconds) + " seconds");
    }
  }

  // Names main for the flight recorder and the profiler alike.
  fcp::telemetry::ThreadScope main_scope("main");

  // --- Flight recorder: arm before any mining runs so the whole run
  // (including engine construction) is on the record. ------------------------
  const std::string trace_flag = flags.GetString("trace", "");
  std::string trace_path;
  if (!trace_flag.empty()) {
    trace_path = trace_flag;
    size_t ring_kb = 256;
    const size_t comma = trace_flag.find(',');
    if (comma != std::string::npos) {
      trace_path = trace_flag.substr(0, comma);
      const std::string kb = trace_flag.substr(comma + 1);
      char* end = nullptr;
      ring_kb = std::strtoul(kb.c_str(), &end, 10);
      if (end == kb.c_str() || *end != '\0' || ring_kb == 0) {
        return Fail("bad --trace ring size '" + kb + "'");
      }
      if (ring_kb > fcp::trace::kMaxRingKb) {
        return Fail("--trace ring size must be <= " +
                    std::to_string(fcp::trace::kMaxRingKb) + " KiB");
      }
    }
    if (trace_path.empty()) return Fail("--trace needs a path");
    fcp::trace::Start(ring_kb);
    fcp::obs::InstallCrashHandler(trace_path + ".crash.json");
  }
  // --- Profiler: arm whole-run sampling when --profile is set (main's
  // scope above registers it, so its samples are attributed). ---------------
  const std::string profile_flag = flags.GetString("profile", "");
  std::string profile_path;
  if (!profile_flag.empty()) {
    profile_path = profile_flag;
    long profile_hz = 100;
    const size_t comma = profile_flag.find(',');
    if (comma != std::string::npos) {
      profile_path = profile_flag.substr(0, comma);
      const std::string hz = profile_flag.substr(comma + 1);
      char* end = nullptr;
      profile_hz = std::strtol(hz.c_str(), &end, 10);
      if (end == hz.c_str() || *end != '\0' || profile_hz < 1 ||
          profile_hz > 1000) {
        return Fail("bad --profile rate '" + hz + "' (want 1..1000 Hz)");
      }
    }
    if (profile_path.empty()) return Fail("--profile needs a path");
    if (!fcp::prof::StartCpuProfiler(
            static_cast<int>(profile_hz),
            &fcp::telemetry::MetricRegistry::Global())) {
      return Fail("--profile: cannot arm the CPU profiler");
    }
    fcp::prof::EnableHeapProfiler();
  }
  // Whole-run captures outlive the sample rings (drop-oldest at ~20s of
  // backlog per thread at 100 Hz), so a background collector folds them
  // into the trie every couple of seconds. Profiling-armed tests run
  // without this thread on purpose — collection allocates, the sample path
  // does not.
  std::atomic<bool> prof_collector_stop{false};
  std::thread prof_collector;
  if (!profile_path.empty()) {
    prof_collector = std::thread([&prof_collector_stop] {
      fcp::telemetry::ThreadScope scope("prof-collector");
      int ticks = 0;
      while (!prof_collector_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        if (++ticks % 10 == 0) fcp::prof::CollectNow();
      }
    });
  }

  // --- Load or synthesize the trace. ---------------------------------------
  std::vector<fcp::ObjectEvent> events;
  const std::string input = flags.GetString("input", "");
  const std::string synthetic = flags.GetString("synthetic", "");
  if (!input.empty()) {
    const fcp::Status status = fcp::LoadTrace(input, &events);
    if (!status.ok()) return Fail(status.ToString());
  } else if (synthetic == "traffic") {
    fcp::TrafficConfig config;
    config.total_events =
        static_cast<uint64_t>(flags.GetInt("events", 50000));
    events = GenerateTraffic(config).events;
  } else if (synthetic == "twitter") {
    fcp::TwitterConfig config;
    config.total_tweets =
        static_cast<uint64_t>(flags.GetInt("events", 50000)) / 5;
    events = GenerateTwitter(config).events;
  } else {
    return Fail("need --input=<trace.csv|trace.fcpt> or --synthetic=traffic|twitter");
  }
  if (events.empty()) return Fail("trace contains no events");

  // --- Configure the miner. -------------------------------------------------
  fcp::MiningParams params;
  params.xi = fcp::Seconds(flags.GetInt("xi", 60));
  params.tau = fcp::Seconds(flags.GetInt("tau", 1800));
  params.theta = static_cast<uint32_t>(flags.GetInt("theta", 3));
  params.min_pattern_size =
      static_cast<uint32_t>(flags.GetInt("min_size", 2));
  params.max_pattern_size =
      static_cast<uint32_t>(flags.GetInt("max_size", 5));
  const fcp::Status valid = params.Validate();
  if (!valid.ok()) return Fail("bad parameters: " + valid.ToString());

  fcp::MinerKind kind;
  const std::string algo = flags.GetString("algo", "coomine");
  if (algo == "coomine") {
    kind = fcp::MinerKind::kCooMine;
  } else if (algo == "dimine") {
    kind = fcp::MinerKind::kDiMine;
  } else if (algo == "matrixmine") {
    kind = fcp::MinerKind::kMatrixMine;
  } else {
    return Fail("unknown --algo '" + algo + "'");
  }

  // --- Telemetry: the engine shares the process-wide registry; --metrics
  // writes one report of it at exit. ------------------------------------------
  const std::string metrics = flags.GetString("metrics", "");
  std::string metrics_path;
  fcp::telemetry::ReportFormat metrics_format =
      fcp::telemetry::ReportFormat::kJson;
  if (!metrics.empty()) {
    std::string format = metrics;
    const size_t comma = metrics.find(',');
    if (comma != std::string::npos) {
      format = metrics.substr(0, comma);
      metrics_path = metrics.substr(comma + 1);
    }
    if (format == "prom") {
      metrics_format = fcp::telemetry::ReportFormat::kPrometheus;
    } else if (format != "json") {
      return Fail("unknown --metrics format '" + format +
                  "' (want json or prom)");
    }
  }

  // --- Observability plane: --listen serves /metrics, /varz, /statusz,
  // /healthz, /readyz, /tracez from a single poll thread and arms the
  // pipeline watchdog. The server starts after the engine exists (handlers
  // capture it) and stops before it is destroyed. -------------------------
  const std::string listen = flags.GetString("listen", "");
  std::string listen_host = "127.0.0.1";
  int listen_port = -1;
  if (!listen.empty()) {
    std::string port_str = listen;
    const size_t colon = listen.rfind(':');
    if (colon != std::string::npos) {
      if (colon > 0) listen_host = listen.substr(0, colon);
      port_str = listen.substr(colon + 1);
    }
    char* end = nullptr;
    const long port = std::strtol(port_str.c_str(), &end, 10);
    if (end == port_str.c_str() || *end != '\0' || port < 0 || port > 65535) {
      return Fail("bad --listen '" + listen + "' (want [host:]port)");
    }
    listen_port = static_cast<int>(port);
  }
  const int64_t watchdog_interval_ms =
      flags.GetInt("watchdog_interval_ms", 100);
  const int64_t stall_timeout_ms = flags.GetInt("stall_timeout_ms", 2000);
  if (watchdog_interval_ms <= 0 || stall_timeout_ms <= 0) {
    return Fail("--watchdog_interval_ms/--stall_timeout_ms must be > 0");
  }
  const int64_t pace = flags.GetInt("pace", 0);
  if (pace < 0) return Fail("--pace must be >= 0 (0 = unthrottled)");
  std::unique_ptr<fcp::obs::Watchdog> watchdog;
  std::unique_ptr<fcp::obs::ObsServer> obs_server;
  if (listen_port >= 0) {
    fcp::obs::WatchdogOptions wd_options;
    wd_options.poll_interval_ms = watchdog_interval_ms;
    wd_options.stall_timeout_ms = stall_timeout_ms;
    wd_options.metrics = &fcp::telemetry::MetricRegistry::Global();
    watchdog = std::make_unique<fcp::obs::Watchdog>(wd_options);
  }
  // Starts the server over the running engine (either kind) when --listen
  // is set.
  auto start_obs = [&](auto& engine) -> fcp::Status {
    if (listen_port < 0) return fcp::Status::OK();
    fcp::obs::ObsServerOptions server_options;
    server_options.host = listen_host;
    server_options.port = static_cast<uint16_t>(listen_port);
    server_options.metrics = &fcp::telemetry::MetricRegistry::Global();
    obs_server = std::make_unique<fcp::obs::ObsServer>(server_options);
    fcp::obs::EndpointSources sources;
    sources.registry = &fcp::telemetry::MetricRegistry::Global();
    sources.watchdog = watchdog.get();
    sources.pipeline_status = [&engine] { return engine.StatusJson(); };
    sources.refresh = [&engine] { engine.SnapshotMetrics(); };
    fcp::obs::InstallStandardEndpoints(*obs_server, sources);
    const fcp::Status started = obs_server->Start();
    if (!started.ok()) return started;
    std::fprintf(stderr, "fcpmine: observability plane on http://%s:%u/\n",
                 listen_host.c_str(), obs_server->port());
    // Readiness flips 503 -> 200 at the first watchdog evaluation after
    // SetReady — about one --watchdog_interval_ms after the port opens.
    watchdog->Start();
    watchdog->SetReady();
    return fcp::Status::OK();
  };
  uint64_t segments_completed = 0;
  fcp::SegmentPoolStats pool_stats;
  uint64_t events_reordered = 0;
  // Reads what both engines answer alike once the feed is drained. The
  // mirror gauges refresh on snapshot, not continuously; one refresh here
  // makes the --metrics report carry end-of-run values. Stop order matters:
  // the watchdog's probes and the server's handlers reference the engine,
  // so both stop before the engine goes out of scope.
  auto finish_run = [&](auto& engine) {
    segments_completed = engine.segments_completed();
    pool_stats = engine.segment_pool().stats();
    events_reordered = engine.events_reordered();
    if (!metrics.empty()) engine.SnapshotMetrics();
    if (watchdog) watchdog->Stop();
    if (obs_server) obs_server->Stop();
  };

  const int64_t shards = flags.GetInt("shards", 0);
  if (shards < 0) return Fail("--shards must be >= 0 (0 = serial engine)");
  if (shards > fcp::kMaxShards) {
    return Fail("--shards must be <= " + std::to_string(fcp::kMaxShards));
  }

  const fcp::DurationMs suppression =
      fcp::Seconds(flags.GetInt("suppress", params.tau / 1000));
  const std::string report = flags.GetString("report", "stream");
  const bool stream_mode = report == "stream";
  fcp::PatternSupportIndex support;

  // --- Run. ------------------------------------------------------------------
  fcp::Stopwatch clock;
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 1));
  // Feeds the trace per event (--batch <= 1) or in --batch chunks, with
  // sleep-throttled pacing against the run clock: cheap when off, and when
  // on it never drifts (sleeps only while ahead of the target rate).
  auto feed = [&](auto push_event, auto push_batch) {
    const size_t step = std::max<size_t>(batch, 1);
    for (size_t i = 0; i < events.size(); i += step) {
      const size_t n = std::min(step, events.size() - i);
      if (batch <= 1) {
        push_event(events[i]);
      } else {
        push_batch(std::span<const fcp::ObjectEvent>(events.data() + i, n));
      }
      if (pace <= 0) continue;
      const double ahead_s =
          static_cast<double>(i + n) / static_cast<double>(pace) -
          clock.ElapsedSeconds();
      if (ahead_s > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(ahead_s));
      }
    }
  };
  uint64_t alerts = 0;
  auto handle = [&](const std::vector<fcp::Fcp>& fcps) {
    for (const fcp::Fcp& fcp : fcps) {
      ++alerts;
      support.Add(fcp);
      if (stream_mode) {
        std::printf("FCP %s in %zu streams within [%lld, %lld]\n",
                    PatternToString(fcp.objects).c_str(), fcp.streams.size(),
                    static_cast<long long>(fcp.window_start),
                    static_cast<long long>(fcp.window_end));
      }
    }
  };
  size_t index_bytes = 0;
  fcp::MinerStats stats;  // summed across shards in the parallel path
  std::vector<fcp::MinerStats> shard_stats;  // the parallel path's, per shard
  if (shards > 0) {
    // Parallel pipeline: alerts surface only after Finish() drains the
    // shards, so stream mode prints them post-hoc in merged order.
    fcp::ParallelEngineOptions poptions;
    poptions.num_miner_shards = static_cast<uint32_t>(shards);
    poptions.suppression_window = suppression;
    poptions.metrics = &fcp::telemetry::MetricRegistry::Global();
    poptions.watchdog = watchdog.get();
    fcp::ParallelEngine engine(kind, params, poptions);
    const fcp::Status started = start_obs(engine);
    if (!started.ok()) return Fail(started.ToString());
    feed([&](const fcp::ObjectEvent& event) { engine.Push(event); },
         [&](auto chunk) { engine.PushBatch(chunk); });
    engine.Finish();
    handle(engine.results());
    for (uint32_t s = 0; s < engine.num_miner_shards(); ++s) {
      const fcp::FcpMiner& miner = engine.shard_miner(s);
      index_bytes += miner.MemoryUsage();
      stats += miner.stats();
      shard_stats.push_back(miner.stats());
    }
    finish_run(engine);
  } else {
    fcp::EngineOptions options;
    options.suppression_window = suppression;
    options.metrics = &fcp::telemetry::MetricRegistry::Global();
    options.watchdog = watchdog.get();
    fcp::MiningEngine engine(kind, params, options);
    const fcp::Status started = start_obs(engine);
    if (!started.ok()) return Fail(started.ToString());
    feed([&](const fcp::ObjectEvent& e) { handle(engine.PushEvent(e)); },
         [&](auto chunk) { handle(engine.IngestBatch(chunk)); });
    handle(engine.Flush());
    index_bytes = engine.MemoryUsage();
    stats = engine.miner().stats();
    finish_run(engine);
  }
  const double elapsed = clock.ElapsedSeconds();
  if (!metrics.empty() &&
      !fcp::telemetry::WriteMetricsReport(
          fcp::telemetry::MetricRegistry::Global(), metrics_format,
          metrics_path)) {
    return Fail("cannot write metrics to " + metrics_path);
  }
  // Stop recording before serializing: the pipeline threads are joined, so
  // the snapshot is exact (no torn tail slots).
  if (!trace_path.empty()) {
    fcp::trace::Stop();
    if (fcp::trace::WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "fcpmine: trace written to %s\n",
                   trace_path.c_str());
    } else {
      return Fail("cannot write trace to " + trace_path);
    }
  }
  if (!profile_path.empty()) {
    // Pipeline threads are joined; stop sampling, fold everything that is
    // still in the rings and write the offline profile.
    prof_collector_stop.store(true, std::memory_order_relaxed);
    prof_collector.join();
    fcp::prof::StopCpuProfiler();
    fcp::prof::DisableHeapProfiler();
    const std::string folded = fcp::prof::FoldedProfile();
    std::FILE* f = std::fopen(profile_path.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(folded.data(), 1, folded.size(), f) != folded.size()) {
      if (f != nullptr) std::fclose(f);
      return Fail("cannot write profile to " + profile_path);
    }
    std::fclose(f);
    const fcp::prof::ProfStats pstats = fcp::prof::Stats();
    std::fprintf(stderr,
                 "fcpmine: folded profile written to %s (%llu samples, "
                 "%llu dropped, %llu threads)\n",
                 profile_path.c_str(),
                 static_cast<unsigned long long>(pstats.samples),
                 static_cast<unsigned long long>(pstats.drops),
                 static_cast<unsigned long long>(pstats.threads));
  }

  // --- Report. ----------------------------------------------------------------
  if (report == "topk" || report == "maximal") {
    const auto entries =
        report == "topk"
            ? support.TopK(static_cast<size_t>(flags.GetInt("k", 20)))
            : support.MaximalPatterns();
    fcp::TablePrinter table({"pattern", "streams", "window_ms"});
    for (const auto& entry : entries) {
      table.AddRow({PatternToString(entry.pattern),
                    std::to_string(entry.support),
                    std::to_string(entry.window_end - entry.window_start)});
    }
    table.Print(std::cout);
  }

  std::fprintf(stderr,
               "fcpmine: %zu events, %llu segments, %llu alerts, "
               "%zu distinct patterns, %.2fs (%.0f events/s), index %.2f MB\n",
               events.size(),
               static_cast<unsigned long long>(segments_completed),
               static_cast<unsigned long long>(alerts), support.size(),
               elapsed, static_cast<double>(events.size()) / elapsed,
               static_cast<double>(index_bytes) / (1024.0 * 1024.0));

  if (flags.GetBool("stats", false)) {
    constexpr double kEventMb = sizeof(fcp::ObjectEvent) / (1024.0 * 1024.0);
    std::fprintf(stderr,
                 "  trace %.2f MB (capacity %.2f MB), peak RSS (VmHWM) "
                 "%.2f MB\n",
                 static_cast<double>(events.size()) * kEventMb,
                 static_cast<double>(events.capacity()) * kEventMb,
                 PeakRssMb());
    std::fprintf(
        stderr,
        "  mining %.1f ms (slcp %.1f ms), maintenance %.1f ms, candidates "
        "%llu (%llu past the bound), lcp rows %llu (%llu dropped), slcp nodes "
        "visited %llu (%llu runs, %llu chains skipped), expired %llu, "
        "reordered events %llu\n",
        static_cast<double>(stats.mining_ns) / 1e6,
        static_cast<double>(stats.slcp_ns) / 1e6,
        static_cast<double>(stats.maintenance_ns) / 1e6,
        static_cast<unsigned long long>(stats.candidates_checked),
        static_cast<unsigned long long>(stats.candidates_bound_passed),
        static_cast<unsigned long long>(stats.lcp_rows),
        static_cast<unsigned long long>(stats.lcp_rows_dropped),
        static_cast<unsigned long long>(stats.slcp_nodes_visited),
        static_cast<unsigned long long>(stats.slcp_runs_visited),
        static_cast<unsigned long long>(stats.slcp_chains_skipped),
        static_cast<unsigned long long>(stats.segments_expired),
        static_cast<unsigned long long>(events_reordered));
    // Serial CooMine's new-object rule (DESIGN.md §2.1); 0 otherwise.
    std::fprintf(stderr,
                 "  new-object triggers %llu, re-emissions %llu (%llu logged "
                 "patterns certified)\n",
                 static_cast<unsigned long long>(stats.new_object_triggers),
                 static_cast<unsigned long long>(stats.reemissions),
                 static_cast<unsigned long long>(stats.log_patterns_certified));
    // The sum above hides how unevenly the shards share the work.
    for (size_t s = 0; s < shard_stats.size(); ++s) {
      const fcp::MinerStats& shard = shard_stats[s];
      std::fprintf(stderr,
                   "  shard %zu: mining %.1f ms (slcp %.1f ms), lcp rows %llu "
                   "(%llu dropped), slcp nodes visited %llu (%llu runs, "
                   "%llu chains skipped)\n",
                   s, static_cast<double>(shard.mining_ns) / 1e6,
                   static_cast<double>(shard.slcp_ns) / 1e6,
                   static_cast<unsigned long long>(shard.lcp_rows),
                   static_cast<unsigned long long>(shard.lcp_rows_dropped),
                   static_cast<unsigned long long>(shard.slcp_nodes_visited),
                   static_cast<unsigned long long>(shard.slcp_runs_visited),
                   static_cast<unsigned long long>(shard.slcp_chains_skipped));
    }
    std::fprintf(
        stderr,
        "  segment pool: %llu hits, %llu misses, %llu live, %llu parked, "
        "%.1f MB recycled\n",
        static_cast<unsigned long long>(pool_stats.pool_hits),
        static_cast<unsigned long long>(pool_stats.slab_allocs),
        static_cast<unsigned long long>(pool_stats.live),
        static_cast<unsigned long long>(pool_stats.free),
        static_cast<double>(pool_stats.recycled_bytes) / (1024.0 * 1024.0));
  }
  return 0;
}
