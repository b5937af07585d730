#include "telemetry/reporter.h"

#include <chrono>
#include <cstdio>

#include "telemetry/thread_registry.h"

namespace fcp::telemetry {

MetricReporter::MetricReporter(const MetricRegistry* registry,
                               ReporterOptions options)
    : registry_(registry), options_(std::move(options)) {
  // interval_ms <= 0 means "final report only": no background thread at all
  // (a zero-length wait_for would busy-spin EmitOnce); Stop() still renders
  // one complete report.
  if (options_.interval_ms > 0) {
    thread_ = std::thread([this] { Loop(); });
  }
}

MetricReporter::~MetricReporter() { Stop(); }

void MetricReporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  EmitOnce();
}

std::string MetricReporter::Render() const {
  return options_.format == ReporterOptions::Format::kJson
             ? registry_->ToJson()
             : registry_->ToPrometheus();
}

void MetricReporter::EmitOnce() {
  const std::string report = Render();
  if (options_.path.empty()) {
    std::fwrite(report.data(), 1, report.size(), stderr);
    std::fflush(stderr);
    return;
  }
  // Write-to-temp-then-rename: the file is a live view that scrapers (and
  // CI's strict JSON parser) read while the pipeline runs, and each report
  // must be a complete document — a reader must never observe a half-written
  // file. rename(2) on the same filesystem is atomic, so the visible path
  // always holds either the previous or the new complete report.
  const std::string tmp_path = options_.path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics: cannot open %s\n", tmp_path.c_str());
    return;
  }
  std::fwrite(report.data(), 1, report.size(), f);
  std::fclose(f);
  if (std::rename(tmp_path.c_str(), options_.path.c_str()) != 0) {
    std::fprintf(stderr, "metrics: cannot rename %s -> %s\n",
                 tmp_path.c_str(), options_.path.c_str());
    std::remove(tmp_path.c_str());
  }
}

void MetricReporter::Loop() {
  ThreadScope scope("metrics-reporter");
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const bool stopping = cv_.wait_for(
        lock, std::chrono::milliseconds(options_.interval_ms),
        [this] { return stop_; });
    if (stopping) break;
    lock.unlock();
    EmitOnce();
    lock.lock();
  }
}

}  // namespace fcp::telemetry
