// The front end the serial and sharded engines share (DESIGN.md §2.2).
//
// Both engines segment one event feed through a StreamMux, offer their
// discoveries to a ResultCollector and export the same front-end telemetry.
// EngineFront holds that once: the mux (and with it the segment pool), the
// collector, the registry (owned or borrowed), the front-end counters, the
// mirror gauges, the watchdog's "ingest" stage and the shared /statusz
// fields. MineTimed() is the one timed mine step both engines run per
// segment.
//
// Threading. Counters are delta-published by the thread that owns them:
// CountIngested by the thread that accepts events, PublishReordered and
// CountSegments by the thread that owns mux(). RefreshGauges() and
// AppendStatus() read only relaxed atomics, counters and the pool's locked
// stats, so any thread (a scrape, say) may call them while the
// pipeline runs.

#ifndef FCP_CORE_ENGINE_FRONT_H_
#define FCP_CORE_ENGINE_FRONT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/miner.h"
#include "core/result_collector.h"
#include "obs/watchdog.h"
#include "stream/segment.h"
#include "stream/stream_mux.h"
#include "telemetry/registry.h"
#include "util/stopwatch.h"

namespace fcp {

class EngineFront {
 public:
  /// `xi` is the segment span threshold, `suppression_window` the
  /// collector's. `metrics` null means the front owns a private registry.
  EngineFront(DurationMs xi, DurationMs suppression_window,
              telemetry::MetricRegistry* metrics);

  EngineFront(const EngineFront&) = delete;
  EngineFront& operator=(const EngineFront&) = delete;

  StreamMux& mux() { return mux_; }
  const StreamMux& mux() const { return mux_; }
  ResultCollector& collector() { return collector_; }
  const ResultCollector& collector() const { return collector_; }
  telemetry::MetricRegistry* registry() const { return registry_; }

  /// Registers the watchdog's "ingest" stage; null without a watchdog.
  /// `depth` probes the stage's input queue of `capacity` events. The
  /// serial engine passes none: the caller's thread is its pipeline, so
  /// only the busy-and-silent predicate applies.
  obs::StageHeartbeat* RegisterIngestStage(
      obs::Watchdog* watchdog, std::function<size_t()> depth = nullptr,
      size_t capacity = 0);

  /// The per-call mine latency histogram (microseconds) under `labels`
  /// (empty, or `shard="s"`). Allocates: construction only.
  telemetry::LatencyHistogram* MineLatency(const std::string& labels);

  void CountIngested(uint64_t events) { events_ingested_->Increment(events); }
  void CountSegments(uint64_t segments) {
    segments_completed_->Increment(segments);
  }
  void CountAccepted(uint64_t fcps) { fcps_accepted_->Increment(fcps); }
  /// Publishes the events the mux reordered since the last call. Only the
  /// thread that owns mux() may call it.
  void PublishReordered() {
    const uint64_t reordered = mux_.reordered_count();
    if (reordered != reordered_published_) {
      events_reordered_->Increment(reordered - reordered_published_);
      reordered_published_ = reordered;
    }
  }

  /// Refreshes the mirror gauges: pool occupancy, open windows, streams
  /// seen and uptime. Both engines call it on SnapshotMetrics()/scrape.
  void RefreshGauges() const;

  /// Appends the shared /statusz fields, each led by a comma.
  void AppendStatus(std::string* out) const;

 private:
  StreamMux mux_;
  ResultCollector collector_;
  std::unique_ptr<telemetry::MetricRegistry> owned_registry_;
  telemetry::MetricRegistry* registry_ = nullptr;

  telemetry::Counter* events_ingested_ = nullptr;
  telemetry::Counter* segments_completed_ = nullptr;
  telemetry::Counter* events_reordered_ = nullptr;
  telemetry::Counter* fcps_accepted_ = nullptr;
  uint64_t reordered_published_ = 0;  ///< mux count last published

  telemetry::Gauge* open_windows_ = nullptr;
  telemetry::Gauge* streams_seen_ = nullptr;
  telemetry::Gauge* pool_live_refs_ = nullptr;
  telemetry::Gauge* pool_hits_ = nullptr;
  telemetry::Gauge* pool_misses_ = nullptr;
  telemetry::Gauge* pool_recycled_bytes_ = nullptr;
  telemetry::Gauge* pool_free_slabs_ = nullptr;
  telemetry::Gauge* uptime_seconds_ = nullptr;
  Stopwatch uptime_;  ///< started at construction
};

/// Where a mine step runs: its trace-span name (a string literal; the
/// recorder keeps the pointer) and the histogram it records its latency
/// into.
struct MineSite {
  const char* span = "";
  telemetry::LatencyHistogram* latency_us = nullptr;
};

/// The timed mine step both engines run per segment. Opens `site.span` on
/// `flow` with the segment's length as its arg and ends the segment's flow
/// arrow there, mines `segment` into `out` and records the call's latency.
void MineTimed(const MineSite& site, uint64_t flow, FcpMiner& miner,
               const Segment& segment, std::vector<Fcp>* out);

}  // namespace fcp

#endif  // FCP_CORE_ENGINE_FRONT_H_
