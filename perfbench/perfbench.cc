// perfbench — the measuring harness behind the repo benchmark.
//
// perfbench/run.py builds this binary, generates the workload trace, gets
// the serial reference signature and checks every pass against it; this
// file only generates, replays and measures. See perfbench/README.md for
// the workloads and what each metric means.
//
// Subcommands (flags are --name=value; every line printed is one JSON
// object):
//
//   gen        --family=traffic|twitter --events=N --seed=S --out=trace.csv
//   reference  --family=F --csv=trace.csv
//              serial MiningEngine, one PushEvent per event, untimed; prints
//              the output signature.
//   run        --family=F --csv=trace.csv --mode=batch|sharded
//              --seconds=T --trace=0|1 [--spans_out=path]
//              replays the trace in passes for about T seconds; prints one
//              "pass" line per replay and a final "summary" line.
//
// Set-up of every pass (LoadCsvTrace + engine construction, thread start
// included) is what an `fcpmine --input` user pays before the first event;
// generating and writing the CSV is harness work and stays untimed.

#include <algorithm>
#include <malloc.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/params.h"
#include "common/types.h"
#include "core/fcp.h"
#include "core/miner.h"
#include "core/mining_engine.h"
#include "core/parallel_engine.h"
#include "io/trace_io.h"
#include "stream/segment_ref.h"
#include "stream/stream_mux.h"
#include "telemetry/registry.h"
#include "util/flags.h"
#include "util/kernels/kernels.h"

namespace {

using fcp::Fcp;
using fcp::MinerStats;
using fcp::ObjectEvent;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Events per IngestBatch / PushBatch call, on both workloads.
constexpr size_t kBatch = 256;
// ParallelEngine miner shards on twitter-sharded: one per vCPU of the
// 4-vCPU host the workload was defined on.
constexpr uint32_t kShards = 4;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// The benchmark times the optimised library only.
void CheckBuild() {
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  bool asserts = true;
#ifdef NDEBUG
  asserts = false;
#endif
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release" || asserts ||
      sanitized) {
    Die(std::string("refusing to measure a '") + PERFBENCH_BUILD_TYPE +
        "' build (asserts=" + (asserts ? "on" : "off") +
        ", sanitizer=" + (sanitized ? "on" : "off") +
        "); build perfbench in Release");
  }
}

enum class Family { kTraffic, kTwitter };

Family ParseFamily(const std::string& name) {
  if (name == "traffic") return Family::kTraffic;
  if (name == "twitter") return Family::kTwitter;
  Die("unknown --family '" + name + "' (want traffic or twitter)");
}

// bench_util's paper defaults, with patterns of sizes 2..5 on both traces
// (the fcpmine default), so single objects never count as co-occurrences.
//
// Traffic uses tau = 5 min instead of the paper's 30 min. At 30 min the
// Seg-tree holds ~8.7 MB and lives in the shared L3; at 5 min it is ~2 MB
// and fits in the per-core L2. On a 4-vCPU KVM guest shared with other
// tenants, ten interleaved 30 s runs per setting spread (IQR over median)
// 17% in events_per_s at 30 min and 6% at 5 min. The layer mix (Seg-tree
// insert, SLCP/Apriori, expiry sweeps) and the planted convoys found stay
// the same (README.md).
fcp::MiningParams ParamsFor(Family family) {
  fcp::MiningParams params = fcp::bench::DefaultParams(
      family == Family::kTraffic ? fcp::bench::Dataset::kTraffic
                                 : fcp::bench::Dataset::kTwitter);
  params.min_pattern_size = 2;
  params.max_pattern_size = 5;
  if (family == Family::kTraffic) params.tau = fcp::Minutes(5);
  return params;
}

// ---------------------------------------------------------------------------
// Output signature: order-independent over the accepted FCP list, covering
// pattern, streams, window and trigger of every alert.

class Signature {
 public:
  void Add(const Fcp& fcp) {
    uint64_t h = 0x6663705f73696700ULL;
    for (fcp::ObjectId o : fcp.objects) h = fcp::HashCombine(h, o);
    h = fcp::HashCombine(h, ~0ULL);
    for (fcp::StreamId s : fcp.streams) h = fcp::HashCombine(h, s);
    h = fcp::HashCombine(h, static_cast<uint64_t>(fcp.window_start));
    h = fcp::HashCombine(h, static_cast<uint64_t>(fcp.window_end));
    h = fcp::HashCombine(h, fcp.trigger);
    sum_ += fcp::Mix64(h);
    xor_ ^= h;
    ++count_;
  }

  void AddAll(const std::vector<Fcp>& fcps) {
    for (const Fcp& fcp : fcps) Add(fcp);
  }

  std::string Hex() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64 "-%" PRIu64,
                  sum_, xor_, count_);
    return buf;
  }

  uint64_t count() const { return count_; }

 private:
  uint64_t sum_ = 0;
  uint64_t xor_ = 0;
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// In-memory span log (traced runs only). A span is (name, start, end,
// parent); self time is its duration minus the durations of its children.

class SpanLog {
 public:
  static constexpr uint32_t kRoot = std::numeric_limits<uint32_t>::max();

  uint32_t Open(std::string_view name, uint32_t parent, int64_t start) {
    spans_.push_back({Intern(name), parent, start, start});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t span, int64_t end) { spans_[span].end = end; }
  uint32_t Add(std::string_view name, uint32_t parent, int64_t start,
               int64_t end) {
    const uint32_t span = Open(name, parent, start);
    Close(span, end);
    return span;
  }

  void Clear() { spans_.clear(); }

  /// Self time of every span: its duration minus its children's.
  std::vector<int64_t> SelfNsPerSpan() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent != kRoot) self[s.parent] -= s.end - s.start;
    }
    return self;
  }

  /// Self time summed over the spans called `name`.
  int64_t SelfNs(std::string_view name) const {
    const std::vector<int64_t> self = SelfNsPerSpan();
    int64_t total = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (names_[spans_[i].name] == name) total += self[i];
    }
    return total;
  }

  /// Gaps between consecutive root spans: how long the harness took to
  /// offer the next call after the previous one returned.
  std::vector<double> RootGapsUs() const {
    std::vector<double> gaps;
    int64_t last_end = -1;
    for (const Span& s : spans_) {
      if (s.parent != kRoot) continue;
      if (last_end >= 0) gaps.push_back((s.start - last_end) / 1e3);
      last_end = s.end;
    }
    return gaps;
  }

  bool Write(const std::string& path, const std::string& label) const {
    std::ofstream out(path, std::ios::app);
    if (!out) return false;
    out << "# pass " << label << "\nid,parent,name,start_ns,end_ns\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ','
          << (s.parent == kRoot ? std::string("-") : std::to_string(s.parent))
          << ',' << names_[s.name] << ',' << s.start << ',' << s.end << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    uint32_t name;
    uint32_t parent;
    int64_t start;
    int64_t end;
  };

  uint32_t Intern(std::string_view name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<uint32_t>(i);
    }
    names_.emplace_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
  }

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Small output helpers.

class JsonLine {
 public:
  explicit JsonLine(std::string_view kind) {
    line_ = "{\"kind\":\"";
    line_ += kind;
    line_ += '"';
  }
  JsonLine& Num(std::string_view key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return Raw(key, std::isfinite(value) ? buf : "null");
  }
  JsonLine& Int(std::string_view key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Str(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    quoted += value;
    quoted += '"';
    return Raw(key, quoted);
  }
  void Print() {
    line_ += "}\n";
    std::fputs(line_.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  JsonLine& Raw(std::string_view key, const std::string& value) {
    line_ += ",\"";
    line_ += key;
    line_ += "\":";
    line_ += value;
    return *this;
  }
  std::string line_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile (p in (0, 1]).
template <typename T>
double Percentile(std::vector<T>* v, double p) {
  if (v->empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v->size())));
  const size_t index = std::min(v->size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(index),
                   v->end());
  return (*v)[index];
}

// Returns freed heap to the kernel and restarts the VmHWM peak from the
// current RSS, so each pass's peak is its own, not a previous pass's.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) Die("cannot reset VmHWM through /proc/self/clear_refs");
}

double VmHwmMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

std::vector<ObjectEvent> LoadTrace(const std::string& csv) {
  std::vector<ObjectEvent> events;
  const fcp::Status status = fcp::LoadCsvTrace(csv, {}, &events);
  if (!status.ok()) Die("loading " + csv + ": " + status.ToString());
  if (events.empty()) Die(csv + " holds no events");
  return events;
}

MinerStats& operator+=(MinerStats& a, const MinerStats& b) {
  a.segments_processed += b.segments_processed;
  a.segments_indexed_only += b.segments_indexed_only;
  a.fcps_emitted += b.fcps_emitted;
  a.candidates_checked += b.candidates_checked;
  a.candidates_pruned += b.candidates_pruned;
  a.slcp_probes += b.slcp_probes;
  a.lcp_rows += b.lcp_rows;
  a.maintenance_runs += b.maintenance_runs;
  a.segments_expired += b.segments_expired;
  a.mining_ns += b.mining_ns;
  a.maintenance_ns += b.maintenance_ns;
  return a;
}

int64_t MinerNs(const MinerStats& s) { return s.mining_ns + s.maintenance_ns; }

// ---------------------------------------------------------------------------
// One replay of the trace: set-up, replay, and what it measured.

struct RunConfig {
  Family family = Family::kTraffic;
  fcp::MiningParams params;
  std::string csv;
  bool sharded = false;
};

struct Pass {
  bool traced = false;
  bool serial_baseline = false;  ///< serial pass inside a traced sharded run
  uint64_t events = 0;
  uint64_t segments = 0;
  double load_s = 0;
  double engine_start_s = 0;
  double replay_s = 0;     ///< first push to complete results
  double push_s = 0;       ///< push/ingest calls
  double finish_s = 0;     ///< Flush / Finish
  std::string signature;
  uint64_t alerts = 0;
  // Layer counters (read after the replay).
  MinerStats stats;
  uint64_t index_bytes = 0;  ///< largest single index (sharded: one shard's)
  uint64_t index_nodes = 0;
  uint64_t index_entries = 0;
  uint64_t index_bytes_all_shards = 0;
  int64_t shard_miner_ns_max = 0;
  double shard_skew = 1;
  uint64_t deliveries = 0;
  uint64_t backfills = 0;
  uint64_t shard_queue_hwm_max = 0;
  uint64_t event_queue_hwm = 0;
  uint64_t merge_stalls = 0;
  fcp::SegmentPoolStats pool;
  int64_t maintenance_max_call_ns = 0;
  // Span-derived (traced passes).
  int64_t segment_self_ns = 0;
  int64_t mine_self_ns = 0;
  int64_t collect_self_ns = 0;
  double rss_peak_mb = 0;       ///< VmHWM over this pass alone
  double accounted_share = 0;  ///< sum of root spans / replay wall time
  int64_t min_span_self_ns = 0;
};

// Span accounting of one traced pass. The self times of all spans add up to
// the durations of the root spans; compare them with the replay's wall time,
// measured independently, and find the smallest single-span self time
// (negative when a child outlasted its parent).
void AccountSpans(const SpanLog& spans, int64_t wall_ns, Pass* pass) {
  const std::vector<int64_t> self = spans.SelfNsPerSpan();
  int64_t total = 0;
  for (int64_t v : self) total += v;
  pass->accounted_share = static_cast<double>(total) /
                          static_cast<double>(std::max<int64_t>(1, wall_ns));
  pass->min_span_self_ns =
      self.empty() ? 0 : *std::min_element(self.begin(), self.end());
}

// Serial passes: traffic-serial, and the serial baseline inside a traced
// twitter-sharded run (IngestBatch of kBatch events per call, both).
//
// Untraced, the harness calls the engine's public entry points exactly as a
// user would. Traced, each engine call is split at the layer boundaries: the
// harness runs the StreamMux itself and hands each completed segment to
// MiningEngine::PushSegment (same segment ids, same miner, same collector,
// so the output signature must not change). Inside PushSegment the miner's
// own MinerStats delta is the "core.mine" child span; the rest of
// PushSegment is the collector plus the engine's per-segment bookkeeping.
Pass RunSerialPass(const RunConfig& config, bool traced, SpanLog* spans) {
  Pass pass;
  pass.traced = traced;

  const int64_t load0 = NowNs();
  std::vector<ObjectEvent> events = LoadTrace(config.csv);
  const int64_t engine0 = NowNs();
  fcp::MiningEngine engine(fcp::MinerKind::kCooMine, config.params);
  const int64_t setup_end = NowNs();
  pass.load_s = Seconds(engine0 - load0);
  pass.engine_start_s = Seconds(setup_end - engine0);
  pass.events = events.size();

  const fcp::FcpMiner& miner = engine.miner();
  fcp::StreamMux mux(config.params.xi);  // traced passes only
  std::vector<fcp::SegmentRef> segments;
  uint32_t parent = SpanLog::kRoot;
  // Hands every segment in `segments` to PushSegment under span `parent`.
  auto push_segments = [&]() {
    for (const fcp::SegmentRef& segment : segments) {
      const MinerStats before = miner.stats();
      const int64_t t0 = NowNs();
      engine.PushSegment(*segment);
      const int64_t t1 = NowNs();
      const MinerStats& after = miner.stats();
      const uint32_t span = spans->Add("core.engine", parent, t0, t1);
      spans->Add("core.mine", span, t0, t0 + MinerNs(after) - MinerNs(before));
      pass.maintenance_max_call_ns =
          std::max(pass.maintenance_max_call_ns,
                   after.maintenance_ns - before.maintenance_ns);
    }
    segments.clear();
  };

  // Closed loop: the next batch is offered when the previous call returns.
  const size_t n = events.size();
  const int64_t replay0 = NowNs();
  int64_t busy_ns = 0;
  for (size_t i = 0; i < n; i += kBatch) {
    const size_t count = std::min(kBatch, n - i);
    const int64_t t0 = NowNs();
    if (!traced) {
      engine.IngestBatch(std::span<const ObjectEvent>(&events[i], count));
    } else {
      parent = spans->Open("core.ingest", SpanLog::kRoot, t0);
      mux.PushBatch(&events[i], count, &segments);
      spans->Add("stream.segment", parent, t0, NowNs());
      push_segments();
    }
    const int64_t t1 = NowNs();
    if (traced) spans->Close(parent, t1);
    busy_ns += t1 - t0;
  }
  const int64_t flush0 = NowNs();
  if (!traced) {
    engine.Flush();
  } else {
    parent = spans->Open("core.flush", SpanLog::kRoot, flush0);
    mux.FlushAll(&segments);
    spans->Add("stream.segment", parent, flush0, NowNs());
    push_segments();
  }
  const int64_t replay_end = NowNs();
  if (traced) spans->Close(parent, replay_end);

  pass.replay_s = Seconds(replay_end - replay0);
  pass.push_s = Seconds(busy_ns);
  pass.finish_s = Seconds(replay_end - flush0);
  pass.segments = engine.segments_completed();

  Signature signature;
  signature.AddAll(engine.collector().results());
  pass.signature = signature.Hex();
  pass.alerts = signature.count();
  pass.stats = miner.stats();
  const fcp::MinerIntrospection view = miner.Introspect();
  pass.index_bytes = engine.MemoryUsage();
  pass.index_nodes = view.index_nodes;
  pass.index_entries = view.index_entries;
  pass.index_bytes_all_shards = pass.index_bytes;
  pass.shard_miner_ns_max = MinerNs(pass.stats);
  pass.deliveries = pass.stats.segments_processed;
  pass.backfills = pass.stats.segments_indexed_only;
  pass.pool = engine.mux().pool().stats();
  if (traced) {
    pass.segment_self_ns = spans->SelfNs("stream.segment");
    pass.mine_self_ns = spans->SelfNs("core.mine");
    pass.collect_self_ns = spans->SelfNs("core.engine");
    AccountSpans(*spans, replay_end - replay0, &pass);
  }
  return pass;
}

uint64_t GaugeValue(const std::vector<fcp::telemetry::MetricSample>& samples,
                    std::string_view prefix, bool max_over_labels) {
  uint64_t value = 0;
  for (const auto& s : samples) {
    if (s.name.rfind(prefix, 0) != 0) continue;
    const uint64_t v = s.type == fcp::telemetry::MetricType::kCounter
                           ? s.counter_value
                           : static_cast<uint64_t>(std::max<int64_t>(
                                 0, s.gauge_value));
    value = max_over_labels ? std::max(value, v) : value + v;
  }
  return value;
}

// One ingest worker keeps the output a function of the input (README.md);
// hash placement, no rebalance or steal, default queue sizes.
fcp::ParallelEngineOptions ShardedOptions() {
  fcp::ParallelEngineOptions options;
  options.num_workers = 1;
  options.num_miner_shards = kShards;
  return options;
}

// twitter-sharded: ParallelEngine with kShards shards. Traced passes record one
// span per PushBatch call and one for Finish; the pipeline's own threads are
// observed only through its public accessors after Finish.
Pass RunShardedPass(const RunConfig& config, bool traced, SpanLog* spans) {
  Pass pass;
  pass.traced = traced;

  const int64_t load0 = NowNs();
  std::vector<ObjectEvent> events = LoadTrace(config.csv);
  const int64_t engine0 = NowNs();
  fcp::ParallelEngine engine(fcp::MinerKind::kCooMine, config.params,
                             ShardedOptions());
  const int64_t setup_end = NowNs();
  pass.load_s = Seconds(engine0 - load0);
  pass.engine_start_s = Seconds(setup_end - engine0);
  pass.events = events.size();

  const size_t n = events.size();
  const int64_t replay0 = NowNs();
  int64_t push_ns = 0;
  for (size_t i = 0; i < n; i += kBatch) {
    const size_t count = std::min(kBatch, n - i);
    const int64_t t0 = NowNs();
    engine.PushBatch(std::span<const ObjectEvent>(&events[i], count));
    const int64_t t1 = NowNs();
    push_ns += t1 - t0;
    if (traced) spans->Add("core.push", SpanLog::kRoot, t0, t1);
  }
  const int64_t finish0 = NowNs();
  engine.Finish();
  const int64_t replay_end = NowNs();
  if (traced) spans->Add("core.finish", SpanLog::kRoot, finish0, replay_end);

  pass.replay_s = Seconds(replay_end - replay0);
  pass.push_s = Seconds(push_ns);
  pass.finish_s = Seconds(replay_end - finish0);
  pass.segments = engine.segments_completed();

  Signature signature;
  signature.AddAll(engine.results());
  pass.signature = signature.Hex();
  pass.alerts = signature.count();

  std::vector<double> shard_ns;
  for (uint32_t s = 0; s < engine.num_miner_shards(); ++s) {
    const fcp::FcpMiner& miner = engine.shard_miner(s);
    const fcp::MinerIntrospection view = miner.Introspect();
    pass.stats += miner.stats();
    pass.index_bytes =
        std::max<uint64_t>(pass.index_bytes, miner.MemoryUsage());
    pass.index_nodes += view.index_nodes;
    pass.index_entries += view.index_entries;
    pass.index_bytes_all_shards += miner.MemoryUsage();
    shard_ns.push_back(static_cast<double>(MinerNs(miner.stats())));
  }
  const double max_ns = *std::max_element(shard_ns.begin(), shard_ns.end());
  double mean_ns = 0;
  for (double v : shard_ns) mean_ns += v / static_cast<double>(shard_ns.size());
  pass.shard_miner_ns_max = static_cast<int64_t>(max_ns);
  pass.shard_skew = mean_ns > 0 ? max_ns / mean_ns : 1;
  pass.deliveries = engine.router_stats().deliveries;
  pass.backfills = engine.router_stats().backfill_deliveries;
  pass.pool = engine.segment_pool().stats();
  const auto samples = engine.SnapshotMetrics();
  pass.shard_queue_hwm_max =
      GaugeValue(samples, "fcp_shard_queue_high_watermark", true);
  pass.event_queue_hwm =
      GaugeValue(samples, "fcp_event_queue_high_watermark", true);
  pass.merge_stalls = GaugeValue(samples, "fcp_merge_stalls_total", false);
  if (traced) AccountSpans(*spans, replay_end - replay0, &pass);
  return pass;
}

void PrintPass(const Pass& p) {
  JsonLine("pass")
      .Int("traced", p.traced ? 1 : 0)
      .Int("serial_baseline", p.serial_baseline ? 1 : 0)
      .Int("events", p.events)
      .Int("segments", p.segments)
      .Str("signature", p.signature)
      .Int("alerts", p.alerts)
      .Num("setup_s", p.load_s + p.engine_start_s)
      .Num("replay_s", p.replay_s)
      .Num("events_per_s", static_cast<double>(p.events) / p.replay_s)
      .Print();
}

// ---------------------------------------------------------------------------
// Subcommands.

int Gen(const fcp::Flags& flags) {
  const Family family = ParseFamily(flags.GetString("family", ""));
  const int64_t events = flags.GetInt("events", 0);
  const std::string out = flags.GetString("out", "");
  if (events <= 0 || out.empty()) Die("gen needs --events=N>0 and --out");
  const std::vector<ObjectEvent> trace = fcp::bench::GenerateEvents(
      family == Family::kTraffic ? fcp::bench::Dataset::kTraffic
                                 : fcp::bench::Dataset::kTwitter,
      static_cast<uint64_t>(events),
      static_cast<uint64_t>(flags.GetInt("seed", 1)));
  const fcp::Status status = fcp::SaveCsvTrace(out, trace);
  if (!status.ok()) Die("writing " + out + ": " + status.ToString());
  JsonLine("gen").Int("events", trace.size()).Print();
  return 0;
}

int Reference(const fcp::Flags& flags) {
  const Family family = ParseFamily(flags.GetString("family", ""));
  const std::vector<ObjectEvent> events =
      LoadTrace(flags.GetString("csv", ""));
  fcp::MiningEngine engine(fcp::MinerKind::kCooMine, ParamsFor(family));
  for (const ObjectEvent& event : events) engine.PushEvent(event);
  engine.Flush();
  Signature signature;
  signature.AddAll(engine.collector().results());
  JsonLine("reference")
      .Str("signature", signature.Hex())
      .Int("alerts", signature.count())
      .Int("events", events.size())
      .Print();
  return 0;
}

int Run(const fcp::Flags& flags) {
  RunConfig config;
  config.family = ParseFamily(flags.GetString("family", ""));
  config.params = ParamsFor(config.family);
  config.csv = flags.GetString("csv", "");
  const std::string mode = flags.GetString("mode", "");
  config.sharded = mode == "sharded";
  const double seconds = flags.GetDouble("seconds", 10);
  const bool traced = flags.GetInt("trace", 0) != 0;
  const std::string spans_out = flags.GetString("spans_out", "");
  const bool sharded = config.sharded;
  if (!sharded && mode != "batch") {
    Die("unknown --mode '" + mode + "' (want batch or sharded)");
  }

  JsonLine("context")
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("kernel", fcp::kernels::KernelLevelName(
                         fcp::kernels::ActiveLevel()))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Int("shards", sharded ? kShards : 1)
      .Int("workers", 1)
      .Int("batch", kBatch)
      .Print();

  // Passes until the time is spent: a pass starts only if it is expected to
  // end in time (at least one pass). Traced runs cycle through an untraced
  // pass, the baseline for the tracing overhead, and a traced one; a traced
  // sharded run adds an untraced serial pass of the same trace, the baseline
  // for core.shard_speedup.
  const int cycle = !traced ? 1 : sharded ? 3 : 2;
  std::vector<Pass> passes;
  SpanLog spans;  // the last traced pass's spans
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<double> pass_ns;
  for (int k = 0;; ++k) {
    const bool traced_pass = k % cycle == 1;
    const bool serial_baseline = k % cycle == 2;
    if (traced_pass) spans.Clear();
    ResetPeakRss();
    const int64_t t0 = NowNs();
    Pass p = sharded && !serial_baseline
                 ? RunShardedPass(config, traced_pass, &spans)
                 : RunSerialPass(config, traced_pass, &spans);
    pass_ns.push_back(static_cast<double>(NowNs() - t0));
    p.serial_baseline = serial_baseline;
    p.rss_peak_mb = VmHwmMb();
    PrintPass(p);
    passes.push_back(std::move(p));
    if (k + 1 >= cycle && NowNs() + Median(pass_ns) > deadline) break;
  }
  // A run reports the set-up time as a median over several set-ups; short
  // runs top them up with set-up-only repetitions.
  constexpr size_t kMinSetupSamples = 11;
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<double> engine_start_s;
  for (const Pass& p : passes) {
    if (p.serial_baseline) continue;
    setup_s.push_back(p.load_s + p.engine_start_s);
    load_s.push_back(p.load_s);
    engine_start_s.push_back(p.engine_start_s);
  }
  while (setup_s.size() < kMinSetupSamples) {
    ResetPeakRss();  // start from the same heap state as a pass
    const int64_t t0 = NowNs();
    std::vector<ObjectEvent> events = LoadTrace(config.csv);
    const int64_t t1 = NowNs();
    if (sharded) {
      fcp::ParallelEngine engine(fcp::MinerKind::kCooMine, config.params,
                                 ShardedOptions());
      engine_start_s.push_back(Seconds(NowNs() - t1));
      setup_s.push_back(Seconds(NowNs() - t0));
      engine.Finish();
    } else {
      fcp::MiningEngine engine(fcp::MinerKind::kCooMine, config.params);
      engine_start_s.push_back(Seconds(NowNs() - t1));
      setup_s.push_back(Seconds(NowNs() - t0));
    }
    load_s.push_back(Seconds(t1 - t0));
  }

  std::vector<const Pass*> timed;   // untraced passes of this workload
  std::vector<const Pass*> traced_passes;
  std::vector<const Pass*> serial_passes;  // serial baseline (sharded runs)
  for (const Pass& p : passes) {
    if (p.serial_baseline) {
      serial_passes.push_back(&p);
    } else if (p.traced) {
      traced_passes.push_back(&p);
    } else {
      timed.push_back(&p);
    }
  }
  auto median_of = [](const std::vector<const Pass*>& ps, auto field) {
    std::vector<double> v;
    for (const Pass* p : ps) v.push_back(field(*p));
    return Median(v);
  };
  auto eps = [](const Pass& p) {
    return static_cast<double>(p.events) / p.replay_s;
  };

  JsonLine out("summary");
  out.Int("passes", timed.size())
      .Int("traced_passes", traced_passes.size())
      .Int("serial_passes", serial_passes.size())
      .Int("setup_samples", setup_s.size());
  out.Num("events_per_s", median_of(timed, eps));
  out.Num("setup_s", Median(setup_s));
  out.Num("rss_peak_mb",
          median_of(timed, [](const Pass& p) { return p.rss_peak_mb; }));

  if (traced) {
    // Counts come from the last untraced pass (the real engine entry
    // points); times from the traced passes. ParallelEngine runs its
    // segmenter and collector on its own threads and times neither, and it
    // runs maintenance inside its shard threads: the metrics of those calls
    // read 0 on twitter-sharded (README.md).
    const Pass& counts = *timed.back();
    const MinerStats& st = counts.stats;
    auto serial_only = [&](auto field) {
      return sharded ? 0.0 : median_of(traced_passes, field);
    };
    out.Num("io.load_s", Median(load_s));
    out.Num("core.engine_start_s", Median(engine_start_s));
    out.Num("stream.segment_us", serial_only([](const Pass& p) {
              return p.segment_self_ns / 1e3 / static_cast<double>(p.events);
            }));
    out.Num("stream.segments_per_event",
            static_cast<double>(counts.segments) /
                static_cast<double>(counts.events));
    out.Num("core.mine_us",
            sharded ? MinerNs(st) / 1e3 /
                          static_cast<double>(std::max<uint64_t>(
                              1, counts.segments))
                    : median_of(traced_passes, [](const Pass& p) {
                        return p.mine_self_ns / 1e3 /
                               static_cast<double>(p.segments);
                      }));
    out.Num("core.mining_ms", st.mining_ns / 1e6);
    out.Num("core.maintenance_ms", st.maintenance_ns / 1e6);
    out.Num("core.maintenance_runs", static_cast<double>(st.maintenance_runs));
    out.Num("core.maintenance_max_call_ms", serial_only([](const Pass& p) {
              return p.maintenance_max_call_ns / 1e6;
            }));
    out.Num("core.candidates_checked",
            static_cast<double>(st.candidates_checked));
    out.Num("core.fcps_per_candidate",
            st.candidates_checked == 0
                ? 0
                : static_cast<double>(st.fcps_emitted) /
                      static_cast<double>(st.candidates_checked));
    out.Num("core.lcp_rows", static_cast<double>(st.lcp_rows));
    out.Num("core.slcp_probes", static_cast<double>(st.slcp_probes));
    out.Num("core.segments_expired", static_cast<double>(st.segments_expired));
    out.Num("core.collect_us", serial_only([](const Pass& p) {
              return p.collect_self_ns / 1e3 /
                     static_cast<double>(std::max<uint64_t>(1, p.segments));
            }));
    out.Num("core.alerts", static_cast<double>(counts.alerts));
    out.Num("index.bytes", static_cast<double>(counts.index_bytes));
    out.Num("index.nodes", static_cast<double>(counts.index_nodes));
    out.Num("index.compression_ratio",
            static_cast<double>(counts.index_entries) /
                static_cast<double>(std::max<uint64_t>(1, counts.index_nodes)));
    out.Num("core.push_s",
            median_of(traced_passes, [](const Pass& p) { return p.push_s; }));
    out.Num("core.finish_drain_s",
            median_of(traced_passes, [](const Pass& p) { return p.finish_s; }));
    out.Num("stream.deliveries_per_segment",
            static_cast<double>(counts.deliveries) /
                static_cast<double>(std::max<uint64_t>(1, counts.segments)));
    out.Num("stream.backfills", static_cast<double>(counts.backfills));
    out.Num("core.shard_mining_ms_max", counts.shard_miner_ns_max / 1e6);
    out.Num("core.shard_skew", counts.shard_skew);
    out.Num("index.bytes_all_shards",
            static_cast<double>(counts.index_bytes_all_shards));
    out.Num("stream.shard_queue_hwm_max",
            static_cast<double>(counts.shard_queue_hwm_max));
    out.Num("stream.event_queue_hwm",
            static_cast<double>(counts.event_queue_hwm));
    out.Num("core.merge_stalls", static_cast<double>(counts.merge_stalls));
    out.Num("stream.pool_slab_allocs",
            static_cast<double>(counts.pool.slab_allocs));
    out.Num("stream.pool_free_slabs", static_cast<double>(counts.pool.free));
    // The serial engine on the same trace, in this run: on traffic-serial
    // the workload itself (speedup 1), on twitter-sharded the serial passes.
    const double serial_eps =
        sharded ? median_of(serial_passes, eps) : median_of(timed, eps);
    out.Num("core.serial_events_per_s", serial_eps);
    out.Num("core.shard_speedup", median_of(timed, eps) / serial_eps);
    // Harness validity: how late the closed-loop generator offered the next
    // call after the previous one returned (its own gap between engine
    // calls), and tracing overhead as untraced over traced events_per_s.
    std::vector<double> gaps = spans.RootGapsUs();
    out.Num("bench.gen_lag_p99_us", Percentile(&gaps, 0.99));
    out.Num("bench.trace_overhead_pct",
            (median_of(timed, eps) / median_of(traced_passes, eps) - 1) * 100);
    // Span accounting: self times of all spans against each traced pass's
    // wall time (worst pass), and the smallest single-span self time.
    double worst_gap = 0;
    int64_t min_self = 0;
    for (const Pass* p : traced_passes) {
      worst_gap = std::max(worst_gap, std::abs(1 - p->accounted_share));
      min_self = std::min(min_self, p->min_span_self_ns);
    }
    out.Num("span_unaccounted_share", worst_gap)
        .Num("span_min_self_us", min_self / 1e3);

    if (!spans_out.empty()) {
      std::remove(spans_out.c_str());
      if (!spans.Write(spans_out, mode)) Die("writing spans to " + spans_out);
    }
  }
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CheckBuild();
  if (argc < 2) Die("usage: perfbench gen|reference|run --flag=value ...");
  const std::string command = argv[1];
  const fcp::Flags flags(argc - 1, argv + 1);
  if (command == "gen") return Gen(flags);
  if (command == "reference") return Reference(flags);
  if (command == "run") return Run(flags);
  Die("unknown subcommand '" + command + "'");
}
