// Shared plumbing for the bench binaries: the synthetic datasets with their
// paper-default parameters, pre-segmented traces, --quick/--scale sizing and
// the `--json` trajectory writer. `bench_paper` regenerates the paper's
// evaluation (Section 6) from these.

#ifndef FCP_BENCH_BENCH_UTIL_H_
#define FCP_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/params.h"
#include "common/types.h"
#include "datagen/traffic_gen.h"
#include "datagen/twitter_gen.h"
#include "stream/segment.h"
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

/// Standard bench scaling: --quick divides all data sizes by 4 (CI-speed),
/// --scale=<f> applies a custom factor. A factor that is not finite and
/// positive, or that scales a count past 2^64, prints
/// `bad value for --scale` and exits with status 2.
struct BenchScale {
  explicit BenchScale(const Flags& flags);
  /// `paper_value` times the factor, at least 1000.
  uint64_t Events(uint64_t paper_value) const;
  double factor = 1.0;
  std::string text;  ///< --scale as passed, for the error message
};

/// One benchmark measurement for the `--json` trajectory files.
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
/// array across appends, so successive runs extend one trajectory file
/// without a JSON parser.
void MaybeAppendBenchJson(const Flags& flags, const std::string& bench,
                          const std::string& label,
                          const std::vector<JsonRecord>& records);

/// Prints the standard bench header (figure id + interpretation note).
void PrintHeader(const std::string& figure, const std::string& note);

}  // namespace fcp::bench

#endif  // FCP_BENCH_BENCH_UTIL_H_
