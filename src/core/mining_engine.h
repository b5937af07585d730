// The end-to-end facade: events in, deduplicated FCPs out.
//
//   MiningParams params{...};
//   MiningEngine engine(MinerKind::kCooMine, params);
//   for (const ObjectEvent& e : feed) {
//     for (const Fcp& fcp : engine.PushEvent(e)) Alert(fcp);
//   }
//
// The engine owns the front end it shares with ParallelEngine (EngineFront:
// StreamMux, ResultCollector, front-end telemetry) and the chosen miner.
// Single-threaded.

#ifndef FCP_CORE_MINING_ENGINE_H_
#define FCP_CORE_MINING_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/params.h"
#include "common/types.h"
#include "core/engine_front.h"
#include "core/engine_metrics.h"
#include "core/miner.h"
#include "obs/watchdog.h"
#include "core/result_collector.h"
#include "stream/segment.h"
#include "stream/segment_ref.h"
#include "stream/stream_mux.h"
#include "telemetry/registry.h"

namespace fcp {

/// Engine-level configuration on top of MiningParams.
struct EngineOptions {
  /// Passed to the ResultCollector (0 = report every discovery).
  DurationMs suppression_window = 0;
  /// Registry receiving the engine's metrics; null means the engine owns a
  /// private one (readable via metrics()/SnapshotMetrics()). Tools pass
  /// telemetry::MetricRegistry::Global() to share one process-wide registry.
  telemetry::MetricRegistry* metrics = nullptr;
  /// Health supervision (DESIGN.md §2.8): when set, the engine registers a
  /// single "ingest" stage heartbeat (the whole pipeline runs on the caller's
  /// thread). The watchdog must be Stop()ped before the engine is destroyed.
  obs::Watchdog* watchdog = nullptr;
};

class MiningEngine {
 public:
  /// `params` must validate OK (checked).
  MiningEngine(MinerKind kind, const MiningParams& params,
               EngineOptions options = {});

  MiningEngine(const MiningEngine&) = delete;
  MiningEngine& operator=(const MiningEngine&) = delete;

  /// Feeds one event. Returns the (deduplicated) FCPs completed by any
  /// segment this event closed.
  std::vector<Fcp> PushEvent(const ObjectEvent& event);

  /// Feeds a batch of events in order. Byte-identical results to calling
  /// PushEvent per event, but cheaper: the segmenter lookup is cached across
  /// same-stream runs, telemetry counters take one delta per batch instead
  /// of one per event, and while segment k of the batch is mined the
  /// miner's index lines for segment k+1 are software-prefetched.
  std::vector<Fcp> IngestBatch(std::span<const ObjectEvent> events);

  /// Feeds a pre-built segment directly (e.g., a tweet). The segment id must
  /// come from ids allocated via AllocateSegmentId() so ids stay unique
  /// across direct and segmenter-produced segments.
  std::vector<Fcp> PushSegment(const Segment& segment);

  /// Flushes every stream's trailing window (end of feed) and mines the
  /// resulting segments.
  std::vector<Fcp> Flush();

  SegmentId AllocateSegmentId() { return front_.mux().id_gen()->Next(); }

  const FcpMiner& miner() const { return *miner_; }
  FcpMiner* mutable_miner() { return miner_.get(); }
  const ResultCollector& collector() const { return front_.collector(); }
  const MiningParams& params() const { return params_; }
  const StreamMux& mux() const { return front_.mux(); }

  /// The slab pool every segment lives in. Thread-safe.
  const SegmentPool& segment_pool() const { return front_.mux().pool(); }
  /// Events the segmenters clamped to restore per-stream time order.
  /// Thread-safe.
  uint64_t events_reordered() const { return front_.mux().reordered_count(); }

  /// Memory of the miner's index structures.
  size_t MemoryUsage() const { return miner_->MemoryUsage(); }

  uint64_t segments_completed() const { return segments_completed_; }

  /// The registry this engine publishes into (engine-owned unless
  /// EngineOptions::metrics was set).
  const telemetry::MetricRegistry& metrics() const {
    return *front_.registry();
  }

  /// Point-in-time copy of every metric (thread-safe). Refreshes the
  /// mirror gauges (pool occupancy, open windows, streams seen, uptime)
  /// first.
  std::vector<telemetry::MetricSample> SnapshotMetrics() const {
    front_.RefreshGauges();
    return front_.registry()->Snapshot();
  }

  /// Pipeline topology for /statusz. Thread-safe: built from the mux's
  /// relaxed-atomic mirrors and the pool's locked stats, never from the
  /// single-threaded segmenter map.
  std::string StatusJson() const;

 private:
  std::vector<Fcp> ProcessSegments(const std::vector<SegmentRef>& segments);

  MiningParams params_;
  /// Declared before the miner and the scratch list so every SegmentRef is
  /// released before the mux's pool is destroyed.
  EngineFront front_;
  std::unique_ptr<FcpMiner> miner_;
  uint64_t segments_completed_ = 0;
  std::vector<SegmentRef> scratch_segments_;

  MinerMetrics miner_metrics_;
  MinerStats published_stats_;  ///< last stats pushed via PublishDelta
  MineSite mine_site_;
  obs::StageHeartbeat* heartbeat_ = nullptr;  ///< null without a watchdog
};

}  // namespace fcp

#endif  // FCP_CORE_MINING_ENGINE_H_
