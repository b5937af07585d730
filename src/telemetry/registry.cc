#include "telemetry/registry.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace fcp::telemetry {
namespace {

/// Splits a registered name into its family base and label block:
/// `fcp_x_total{shard="0"}` -> ("fcp_x_total", `shard="0"`).
std::pair<std::string, std::string> SplitLabels(const std::string& name) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) return {name, ""};
  FCP_CHECK(name.back() == '}');
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// One Prometheus sample line: `base{labels} value\n` (labels optional,
/// `extra` appended as an additional label, e.g. the `le` of a bucket).
void PromLine(std::string* out, const std::string& base,
              const std::string& labels, const std::string& extra,
              const std::string& value) {
  *out += base;
  if (!labels.empty() || !extra.empty()) {
    *out += '{';
    *out += labels;
    if (!labels.empty() && !extra.empty()) *out += ',';
    *out += extra;
    *out += '}';
  }
  *out += ' ';
  *out += value;
  *out += '\n';
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 8);
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string FormatLabel(const std::string& key, const std::string& value) {
  return key + "=\"" + EscapeLabelValue(value) + "\"";
}

std::string SerializeJson(const std::vector<MetricSample>& samples) {
  std::string out = "{\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    out += "  ";
    AppendJsonString(&out, s.name);
    out += ": ";
    switch (s.type) {
      case MetricType::kCounter:
        out += std::to_string(s.counter_value);
        break;
      case MetricType::kGauge:
        out += std::to_string(s.gauge_value);
        break;
      case MetricType::kHistogram: {
        const HistogramSnapshot& h = s.histogram;
        out += "{\"count\": " + std::to_string(h.total);
        out += ", \"sum\": " + std::to_string(h.sum);
        out += ", \"mean\": " + FormatDouble(h.Mean());
        out += ", \"p50\": " + FormatDouble(h.Percentile(50));
        out += ", \"p90\": " + FormatDouble(h.Percentile(90));
        out += ", \"p99\": " + FormatDouble(h.Percentile(99));
        out += "}";
        break;
      }
    }
    out += (i + 1 < samples.size()) ? ",\n" : "\n";
  }
  out += "}\n";
  return out;
}

std::string SerializePrometheus(const std::vector<MetricSample>& samples) {
  // Prometheus requires every sample of a family to follow that family's
  // single `# TYPE` line, so group label variants by base name, preserving
  // first-seen order.
  std::vector<std::pair<std::string, std::vector<const MetricSample*>>>
      families;
  std::unordered_map<std::string, size_t> family_index;
  for (const MetricSample& s : samples) {
    const std::string base = SplitLabels(s.name).first;
    auto [it, inserted] = family_index.emplace(base, families.size());
    if (inserted) families.emplace_back(base, std::vector<const MetricSample*>{});
    families[it->second].second.push_back(&s);
  }

  std::string out;
  for (const auto& [base, members] : families) {
    out += "# TYPE " + base + " " + TypeName(members.front()->type) + "\n";
    for (const MetricSample* s : members) {
      const std::string labels = SplitLabels(s->name).second;
      switch (s->type) {
        case MetricType::kCounter:
          PromLine(&out, base, labels, "", std::to_string(s->counter_value));
          break;
        case MetricType::kGauge:
          PromLine(&out, base, labels, "", std::to_string(s->gauge_value));
          break;
        case MetricType::kHistogram: {
          const HistogramSnapshot& h = s->histogram;
          uint64_t cumulative = 0;
          for (size_t b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
            if (h.counts[b] == 0) continue;
            cumulative += h.counts[b];
            PromLine(&out, base + "_bucket", labels,
                     "le=\"" +
                         std::to_string(HistogramSnapshot::BucketUpperBound(b)) +
                         "\"",
                     std::to_string(cumulative));
          }
          PromLine(&out, base + "_bucket", labels, "le=\"+Inf\"",
                   std::to_string(h.total));
          PromLine(&out, base + "_sum", labels, "", std::to_string(h.sum));
          PromLine(&out, base + "_count", labels, "", std::to_string(h.total));
          break;
        }
      }
    }
  }
  return out;
}

MetricRegistry::Entry* MetricRegistry::FindOrCreate(const std::string& name,
                                                    MetricType type) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  if (it != index_.end()) {
    Entry* entry = entries_[it->second].get();
    FCP_CHECK(entry->type == type);
    return entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->type = type;
  switch (type) {
    case MetricType::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      entry->histogram = std::make_unique<LatencyHistogram>();
      break;
  }
  index_.emplace(name, entries_.size());
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  return FindOrCreate(name, MetricType::kCounter)->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  return FindOrCreate(name, MetricType::kGauge)->gauge.get();
}

LatencyHistogram* MetricRegistry::GetHistogram(const std::string& name) {
  return FindOrCreate(name, MetricType::kHistogram)->histogram.get();
}

std::vector<MetricSample> MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> samples;
  samples.reserve(entries_.size());
  for (const auto& entry : entries_) {
    MetricSample sample;
    sample.name = entry->name;
    sample.type = entry->type;
    switch (entry->type) {
      case MetricType::kCounter:
        sample.counter_value = entry->counter->Value();
        break;
      case MetricType::kGauge:
        sample.gauge_value = entry->gauge->Value();
        break;
      case MetricType::kHistogram:
        sample.histogram = entry->histogram->Snapshot();
        break;
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

size_t MetricRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

bool WriteMetricsReport(const MetricRegistry& registry, ReportFormat format,
                        const std::string& path) {
  const std::string report = format == ReportFormat::kJson
                                 ? registry.ToJson()
                                 : registry.ToPrometheus();
  if (path.empty()) {
    std::fwrite(report.data(), 1, report.size(), stderr);
    std::fflush(stderr);
    return true;
  }
  // rename(2) on the same filesystem is atomic: the visible path holds
  // either the previous file or the new complete report, never a torn one.
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics: cannot open %s\n", tmp_path.c_str());
    return false;
  }
  const bool written =
      std::fwrite(report.data(), 1, report.size(), f) == report.size();
  if (std::fclose(f) != 0 || !written ||
      std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "metrics: cannot write %s\n", path.c_str());
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

}  // namespace fcp::telemetry
