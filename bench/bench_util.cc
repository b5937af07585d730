#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "stream/stream_mux.h"
#include "telemetry/registry.h"

namespace fcp::bench {

std::vector<Segment> BuildCyclicTrace(const std::vector<Segment>& segments,
                                      size_t pool_size, int cycles,
                                      const MiningParams& params) {
  const size_t n = std::min(pool_size, segments.size());
  Timestamp t_min = kMaxTimestamp;
  Timestamp t_max = kMinTimestamp;
  for (size_t i = 0; i < n; ++i) {
    t_min = std::min(t_min, segments[i].start_time());
    t_max = std::max(t_max, segments[i].end_time());
  }
  const Timestamp period = (t_max - t_min) + params.tau + params.xi;
  std::vector<Segment> out;
  out.reserve(n * static_cast<size_t>(cycles));
  SegmentId next_id = 1;
  for (int c = 0; c < cycles; ++c) {
    const Timestamp shift = period * c;
    for (size_t i = 0; i < n; ++i) {
      std::vector<SegmentEntry> entries = segments[i].entries();
      for (SegmentEntry& e : entries) e.time += shift;
      out.emplace_back(next_id++, segments[i].stream(), std::move(entries));
    }
  }
  return out;
}

std::string_view DatasetName(Dataset dataset) {
  return dataset == Dataset::kTraffic ? "TR" : "Twitter";
}

MiningParams DefaultParams(Dataset dataset) {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(30);
  params.theta = dataset == Dataset::kTraffic ? 3 : 10;
  params.min_pattern_size = 1;
  params.max_pattern_size = 5;
  // Cap pathological segments (hot Zipf words can make tweet unions dense).
  params.max_segment_objects = 24;
  return params;
}

std::vector<ObjectEvent> GenerateEvents(Dataset dataset, uint64_t total_events,
                                        uint64_t seed) {
  if (dataset == Dataset::kTraffic) {
    TrafficConfig config;
    config.num_cameras = 200;
    config.num_vehicles = 20000;
    config.per_camera_rate_hz = 0.1;
    config.total_events = total_events;
    config.num_convoys = static_cast<uint32_t>(total_events / 4000);
    config.route_len_min = 3;  // short routes die as theta rises (Fig. 10a)
    config.seed = seed;
    return GenerateTraffic(config).events;
  }
  TwitterConfig config;
  config.num_users = 5000;
  config.vocab_size = 50000;
  // Tweets2011 spreads its tweets over two weeks; a realistic slice has a
  // few thousand tweets live inside a 30-minute tau window. A 30-minute
  // mean inter-tweet gap per user gives ~5000 live tweets at steady state.
  config.mean_tweet_gap = Minutes(30);
  // ~5.5 words per tweet on average.
  config.total_tweets = total_events / 5;
  config.num_events = static_cast<uint32_t>(total_events / 50000 + 2);
  config.seed = seed;
  return GenerateTwitter(config).events;
}

std::vector<Segment> SegmentTrace(const std::vector<ObjectEvent>& events,
                                  DurationMs xi) {
  StreamMux mux(xi);
  std::vector<SegmentRef> refs;
  for (const ObjectEvent& event : events) mux.Push(event, &refs);
  mux.FlushAll(&refs);
  // Copy out of the pool-backed slabs: index/miner benches want plain
  // segments they can hold past the mux's lifetime.
  std::vector<Segment> segments;
  segments.reserve(refs.size());
  for (const SegmentRef& ref : refs) segments.push_back(*ref);
  return segments;
}

namespace {

[[noreturn]] void RejectScale(const std::string& text) {
  std::fprintf(stderr, "bad value for --scale: '%s'\n", text.c_str());
  std::exit(2);
}

}  // namespace

BenchScale::BenchScale(const Flags& flags)
    : factor(flags.GetDouble("scale", 1.0)),
      text(flags.GetString("scale", "1")) {
  if (!std::isfinite(factor) || factor <= 0) RejectScale(text);
  if (flags.GetBool("quick", false)) factor /= 4.0;
}

uint64_t BenchScale::Events(uint64_t paper_value) const {
  const double scaled = static_cast<double>(paper_value) * factor;
  // 2^64: the cast below is undefined for anything at or past it.
  if (scaled >= 18446744073709551616.0) RejectScale(text);
  const uint64_t events = static_cast<uint64_t>(scaled);
  return events < 1000 ? 1000 : events;
}

void PrintHeader(const std::string& figure, const std::string& note) {
  std::printf("=== %s ===\n%s\n\n", figure.c_str(), note.c_str());
  std::fflush(stdout);
}

uint64_t CurrentRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      uint64_t kb = 0;
      std::sscanf(line.c_str() + 6, "%lu", &kb);
      return kb * 1024;
    }
  }
  return 0;
}

void MaybeAppendBenchJson(const Flags& flags, const std::string& bench,
                          const std::string& label,
                          const std::vector<JsonRecord>& records) {
  const std::string path = flags.GetString("json", "");
  if (path.empty()) return;

  auto quoted = [](std::string_view s) {
    std::string out;
    telemetry::AppendJsonString(&out, s);
    return out;
  };
  std::ostringstream run;
  run << "  {\"bench\": " << quoted(bench) << ", \"label\": " << quoted(label)
      << ", \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    run << "    {\"name\": " << quoted(r.name) << ", \"ns_per_op\": "
        << r.ns_per_op << ", \"allocs_per_op\": " << r.allocs_per_op
        << ", \"rss_bytes\": " << r.rss_bytes;
    for (const auto& [key, value] : r.extras) {
      run << ", " << quoted(key) << ": " << value;
    }
    run << "}" << (i + 1 < records.size() ? ",\n" : "\n");
  }
  run << "  ]}";

  // Keep the file a valid JSON array without parsing it: strip the trailing
  // `]` of an existing array and re-close after appending this run.
  std::string existing;
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    existing = buffer.str();
  }
  while (!existing.empty() &&
         (existing.back() == '\n' || existing.back() == ' ')) {
    existing.pop_back();
  }
  std::ofstream out(path, std::ios::trunc);
  FCP_CHECK(out.good());
  if (!existing.empty() && existing.back() == ']') {
    existing.pop_back();
    while (!existing.empty() && (existing.back() == '\n' ||
                                 existing.back() == ' ')) {
      existing.pop_back();
    }
    const bool was_empty_array =
        !existing.empty() && existing.back() == '[';
    out << existing << (was_empty_array ? "\n" : ",\n") << run.str()
        << "\n]\n";
  } else {
    out << "[\n" << run.str() << "\n]\n";
  }
}

}  // namespace fcp::bench
