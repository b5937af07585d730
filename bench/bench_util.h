// Shared plumbing for the figure-reproduction bench harness.
//
// Every bench binary regenerates one table/figure of the paper's evaluation
// (Section 6) as an aligned text table: one row per plotted point. The
// workload interpretation follows EXPERIMENTS.md: "processing the data within
// one second at arrival rate R" = processing R consecutive events of the
// trace, after a warm-up of Ds events.

#ifndef FCP_BENCH_BENCH_UTIL_H_
#define FCP_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/params.h"
#include "common/types.h"
#include "core/miner.h"
#include "datagen/traffic_gen.h"
#include "datagen/twitter_gen.h"
#include "stream/segment.h"
#include "stream/segment_ref.h"
#include "stream/stream_mux.h"
#include "util/flags.h"

namespace fcp::bench {

/// Which synthetic dataset a bench case uses.
enum class Dataset { kTraffic, kTwitter };

std::string_view DatasetName(Dataset dataset);

/// Paper-default mining parameters for each dataset (TR: xi=60s, tau=30min,
/// theta=3; Twitter: theta=10).
MiningParams DefaultParams(Dataset dataset);

/// Generates `total_events` events of the chosen dataset (deterministic for
/// a seed). Traffic uses the default camera/vehicle population; Twitter
/// events count words (a tweet is ~5 events).
std::vector<ObjectEvent> GenerateEvents(Dataset dataset, uint64_t total_events,
                                        uint64_t seed);

/// Pre-segments an event trace (segments in completion order, trailing
/// windows flushed). Used by the index-level benches so segmentation cost
/// does not pollute index measurements.
std::vector<Segment> SegmentTrace(const std::vector<ObjectEvent>& events,
                                  DurationMs xi);

/// Builds `cycles` repetitions of the first `pool_size` segments, each cycle
/// shifted far enough in time that the previous cycle expires, with globally
/// fresh segment ids. The object universe is closed after cycle one, so a
/// warm miner sees no structural novelty — only churn. This is the
/// steady-state regime for allocation and scaling measurements.
std::vector<Segment> BuildCyclicTrace(const std::vector<Segment>& segments,
                                      size_t pool_size, int cycles,
                                      const MiningParams& params);

/// Cost split of processing a batch of segments with a miner.
struct CostSample {
  double mining_ms = 0;
  double maintenance_ms = 0;
  double total_ms() const { return mining_ms + maintenance_ms; }
  uint64_t fcps = 0;
};

/// Feeds segments [begin, end) to the miner, returning the stats-delta cost
/// split.
CostSample ProcessRange(FcpMiner* miner, const std::vector<Segment>& segments,
                        size_t begin, size_t end);

/// Drives one miner behind a segmenter, measuring stats deltas over event
/// ranges. Segmentation cost is excluded from the mining/maintenance split
/// (the paper measures index structures and algorithms, not the splitter).
class MinerDriver {
 public:
  MinerDriver(MinerKind kind, const MiningParams& params);

  /// Feeds events[begin, end) without measuring.
  void PushEvents(const std::vector<ObjectEvent>& events, size_t begin,
                  size_t end);

  /// Feeds events[begin, end) and returns the miner-stats cost delta.
  CostSample Measure(const std::vector<ObjectEvent>& events, size_t begin,
                     size_t end);

  /// Measures the cost of "one second of data at `rate` events/s" by
  /// processing a window of max(5*rate, 25000) events starting at *cursor
  /// (advanced past the window) and scaling the measured cost to `rate`
  /// events. The window amortizes periodic expiry sweeps, which would
  /// otherwise land in some rate points and not others.
  CostSample MeasureRate(const std::vector<ObjectEvent>& events,
                         size_t* cursor, uint64_t rate);

  FcpMiner& miner() { return *miner_; }
  uint64_t segments_completed() const { return segments_completed_; }

 private:
  StreamMux mux_;
  std::unique_ptr<FcpMiner> miner_;
  std::vector<SegmentRef> scratch_;
  std::vector<Fcp> sink_;
  uint64_t segments_completed_ = 0;
};

/// Standard bench scaling: --quick divides all data sizes by 4 (CI-speed),
/// --scale=<f> applies a custom factor.
struct BenchScale {
  explicit BenchScale(const Flags& flags);
  uint64_t Events(uint64_t paper_value) const;
  double factor = 1.0;
};

/// One benchmark measurement for the JSON trajectory files (BENCH_*.json).
/// Every bench emits the same base schema {name, ns_per_op, allocs_per_op,
/// rss_bytes}; bench-specific dimensions (speedup, deliveries per trigger,
/// telemetry overhead, ...) go in `extras` as additional numeric fields
/// rather than per-bench ad-hoc JSON.
struct JsonRecord {
  std::string name;
  double ns_per_op = 0;
  double allocs_per_op = 0;
  uint64_t rss_bytes = 0;
  std::vector<std::pair<std::string, double>> extras;

  void AddExtra(const std::string& key, double value) {
    extras.emplace_back(key, value);
  }
};

/// Resident set size (VmRSS) of the current process in bytes; 0 when
/// /proc/self/status is unavailable.
uint64_t CurrentRssBytes();

/// If `--json=<path>` was passed, appends one run object
/// `{"bench":..., "label":..., "records":[...]}` to the JSON array at
/// <path> (creating it as `[...]` if absent). The file stays a valid JSON
/// array across appends so successive PRs can extend a BENCH_*.json
/// trajectory without a JSON parser.
void MaybeAppendBenchJson(const Flags& flags, const std::string& bench,
                          const std::string& label,
                          const std::vector<JsonRecord>& records);

/// Prints the standard bench header (figure id + interpretation note).
void PrintHeader(const std::string& figure, const std::string& note);

/// Applies the shared `--kernel=auto|scalar|avx2` flag (process-global
/// SIMD dispatch; unset leaves the FCP_KERNEL / auto default in place) and
/// returns the active level's name so benches can label their records.
/// Exits with a diagnostic on an unknown value.
std::string_view ApplyKernelFlag(const Flags& flags);

}  // namespace fcp::bench

#endif  // FCP_BENCH_BENCH_UTIL_H_
