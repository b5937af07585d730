#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "stream/stream_mux.h"
#include "util/kernels/kernels.h"

namespace fcp::bench {

MinerDriver::MinerDriver(MinerKind kind, const MiningParams& params)
    : mux_(params.xi), miner_(MakeMiner(kind, params)) {}

void MinerDriver::PushEvents(const std::vector<ObjectEvent>& events,
                             size_t begin, size_t end) {
  FCP_CHECK(begin <= end && end <= events.size());
  for (size_t i = begin; i < end; ++i) {
    scratch_.clear();
    mux_.Push(events[i], &scratch_);
    for (const SegmentRef& segment : scratch_) {
      sink_.clear();
      miner_->AddSegment(segment, &sink_);
      ++segments_completed_;
    }
  }
}

CostSample MinerDriver::Measure(const std::vector<ObjectEvent>& events,
                                size_t begin, size_t end) {
  const MinerStats before = miner_->stats();
  PushEvents(events, begin, end);
  const MinerStats& after = miner_->stats();
  CostSample sample;
  sample.mining_ms =
      static_cast<double>(after.mining_ns - before.mining_ns) / 1e6;
  sample.maintenance_ms =
      static_cast<double>(after.maintenance_ns - before.maintenance_ns) / 1e6;
  sample.fcps = after.fcps_emitted - before.fcps_emitted;
  return sample;
}

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

CostSample MinerDriver::MeasureRate(const std::vector<ObjectEvent>& events,
                                    size_t* cursor, uint64_t rate) {
  const uint64_t window = std::max<uint64_t>(5 * rate, 25000);
  const size_t begin = *cursor;
  const size_t end = std::min<size_t>(begin + window, events.size());
  CostSample sample = Measure(events, begin, end);
  *cursor = end;
  const double scale_factor =
      end > begin ? static_cast<double>(rate) / static_cast<double>(end - begin)
                  : 0.0;
  sample.mining_ms *= scale_factor;
  sample.maintenance_ms *= scale_factor;
  sample.fcps = static_cast<uint64_t>(
      static_cast<double>(sample.fcps) * scale_factor);
  return sample;
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

CostSample ProcessRange(FcpMiner* miner, const std::vector<Segment>& segments,
                        size_t begin, size_t end) {
  FCP_CHECK(begin <= end && end <= segments.size());
  const MinerStats before = miner->stats();
  std::vector<Fcp> scratch;
  for (size_t i = begin; i < end; ++i) {
    scratch.clear();
    miner->AddSegment(segments[i], &scratch);
  }
  const MinerStats& after = miner->stats();
  CostSample sample;
  sample.mining_ms =
      static_cast<double>(after.mining_ns - before.mining_ns) / 1e6;
  sample.maintenance_ms =
      static_cast<double>(after.maintenance_ns - before.maintenance_ns) / 1e6;
  sample.fcps = after.fcps_emitted - before.fcps_emitted;
  return sample;
}

BenchScale::BenchScale(const Flags& flags) {
  factor = flags.GetDouble("scale", 1.0);
  if (flags.GetBool("quick", false)) factor /= 4.0;
  FCP_CHECK(factor > 0);
}

uint64_t BenchScale::Events(uint64_t paper_value) const {
  const uint64_t scaled =
      static_cast<uint64_t>(static_cast<double>(paper_value) * factor);
  return scaled < 1000 ? 1000 : scaled;
}

void PrintHeader(const std::string& figure, const std::string& note) {
  std::printf("=== %s ===\n%s\n\n", figure.c_str(), note.c_str());
  std::fflush(stdout);
}

std::string_view ApplyKernelFlag(const Flags& flags) {
  const std::string kernel = flags.GetString("kernel", "");
  if (!kernel.empty() && !kernels::SetKernelLevelFromString(kernel)) {
    std::fprintf(stderr,
                 "unknown --kernel '%s' (want auto, scalar or avx2)\n",
                 kernel.c_str());
    std::exit(1);
  }
  return kernels::KernelLevelName(kernels::ActiveLevel());
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

  std::ostringstream run;
  run << "  {\"bench\": \"" << bench << "\", \"label\": \"" << label
      << "\", \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    run << "    {\"name\": \"" << r.name << "\", \"ns_per_op\": "
        << r.ns_per_op << ", \"allocs_per_op\": " << r.allocs_per_op
        << ", \"rss_bytes\": " << r.rss_bytes;
    for (const auto& [key, value] : r.extras) {
      run << ", \"" << key << "\": " << value;
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
