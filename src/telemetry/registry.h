// MetricRegistry: named aggregation of telemetry metrics with JSON and
// Prometheus text-exposition serialization.
//
// Usage contract, chosen so the record path stays lock-free:
//
//   1. Register at construction time: GetCounter/GetGauge/GetHistogram take
//      the registry mutex and may allocate. They return stable raw pointers
//      (the registry owns the metric objects for its lifetime).
//   2. Record through the returned pointers: no registry involvement, no
//      lock, no allocation (see metric.h).
//   3. Snapshot/serialize from any thread: takes the mutex only against
//      concurrent *registration*, reads the metric values with relaxed
//      atomics.
//
// Naming scheme (DESIGN.md §2.3): Prometheus-style snake_case with an
// `fcp_` prefix; counters end in `_total`; histograms carry their unit
// suffix (`_us`, `_ms`); dimensioned metrics append labels in canonical
// Prometheus form, e.g. `fcp_fcps_emitted_total{shard="3"}`. The label
// block is part of the registered name; the serializers split it back out.

#ifndef FCP_TELEMETRY_REGISTRY_H_
#define FCP_TELEMETRY_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/metric.h"

namespace fcp::telemetry {

enum class MetricType { kCounter, kGauge, kHistogram };

/// One serializable metric value at snapshot time.
struct MetricSample {
  std::string name;  ///< full registered name, may include a {label} block
  MetricType type = MetricType::kCounter;
  uint64_t counter_value = 0;
  int64_t gauge_value = 0;
  HistogramSnapshot histogram;
};

/// Escapes a label value per the Prometheus text exposition format 0.0.4:
/// backslash -> \\, double quote -> \", line feed -> \n. Everything else
/// passes through untouched.
std::string EscapeLabelValue(const std::string& value);

/// Renders one `key="value"` label pair with the value escaped. Producers
/// embedding a label block into a registered metric name use this so values
/// containing quotes, backslashes or newlines serialize as valid Prometheus
/// and JSON output.
std::string FormatLabel(const std::string& key, const std::string& value);

/// Appends `s` to `out` as a quoted JSON string: quote and backslash are
/// escaped, and every control character is written as an escape (\n, \r,
/// \t or \u00XX), never raw. Shared by the metric reports and the trace
/// writer.
void AppendJsonString(std::string* out, std::string_view s);

/// Serializes samples as one flat JSON object: scalar metrics map name ->
/// value, histograms map name -> {count, sum, mean, p50, p90, p99}.
std::string SerializeJson(const std::vector<MetricSample>& samples);

/// Serializes samples in Prometheus text exposition format 0.0.4: one
/// `# TYPE` line per metric family (label variants grouped), `name{labels}
/// value` sample lines, histograms expanded to cumulative `_bucket{le=...}`
/// series plus `_sum` and `_count`.
std::string SerializePrometheus(const std::vector<MetricSample>& samples);

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// Aborts if `name` is already registered with a different type. The
  /// returned pointer is valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  /// Point-in-time copy of every registered metric, in registration order.
  std::vector<MetricSample> Snapshot() const;

  std::string ToJson() const { return SerializeJson(Snapshot()); }
  std::string ToPrometheus() const { return SerializePrometheus(Snapshot()); }

  size_t size() const;

  /// The process-wide default registry (tools). Library components take a
  /// registry parameter instead of reaching for this.
  static MetricRegistry& Global();

 private:
  struct Entry {
    std::string name;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, MetricType type);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< registration order
  std::unordered_map<std::string, size_t> index_;
};

enum class ReportFormat { kJson, kPrometheus };

/// Writes one complete report of `registry` in `format`: to stderr when
/// `path` is empty, otherwise to `<path>.tmp` renamed over `path`, so a
/// reader of `path` only ever sees a whole document. False (with a message
/// on stderr) when the file cannot be written.
bool WriteMetricsReport(const MetricRegistry& registry, ReportFormat format,
                        const std::string& path);

}  // namespace fcp::telemetry

#endif  // FCP_TELEMETRY_REGISTRY_H_
