// Parallel mining: the paper's future-work direction ("extend the proposed
// approaches ... to handle greater scales of data streams").
//
// Mining is a cross-stream operation, but it *object*-partitions cleanly: S
// miner shards each own the patterns whose minimum object maps to them (see
// common/shard.h), and a ShardRouter multicasts every completed segment to
// the shards owning >= 1 of its objects. Each shard runs a full miner
// instance restricted to its owned patterns, so the union of shard outputs
// equals the serial output exactly (every occurrence of an owned pattern
// contains the owned minimum object, hence reaches the owner).
//
//   Push(event) -> event queue -> ingest thread: StreamMux -> ShardRouter
//     -> shard[0..S-1] miner threads -> per-shard output FIFOs
//     -> release (k-way merge per trigger) -> ResultCollector
//
// Semantics: the ingest thread segments the one event feed with the same
// StreamMux MiningEngine uses, so segment ids, completion order, the
// watermark shipped with each delivery and the end-of-feed flush order are
// all the serial engine's. results() therefore equals a serial MiningEngine
// run byte for byte (triggers, patterns, streams, windows) for every shard
// count and every sequence of live migrations — by construction, not by
// timing. Tests check this on repeated runs of each configuration.
//
// Output is online (DESIGN.md §2.2): a trigger's FCPs reach the collector as
// soon as every shard it was routed to has mined it, in the serial offer
// order — trigger by trigger, and within a trigger by (size, pattern), the
// order every miner emits (EmitOrderLess) — so suppression decisions match
// a serial run. The thread whose publish completes the oldest unreleased
// trigger (a shard after mining, or the ingest thread after routing)
// releases it; the pushing thread moves the accepted alerts into results()
// on its next call. No output is buffered until Finish().
//
// Both queue hand-offs are chunked on each side (DESIGN.md §2.4): PushBatch
// hands events over with BoundedQueue::PushAll, and the ingest thread and
// each shard take whatever is queued with PopBatch, up to a fixed cap,
// under one lock and with one producer wake-up per batch. A shard publishes
// its mined lists and miner telemetry once per popped batch, and with a
// wait before it blocks for input, so a trigger's release waits for the
// rest of its shard's batch but never for more input. All backpressure
// blocks on condition variables — no spin loops anywhere in the pipeline.

#ifndef FCP_CORE_PARALLEL_ENGINE_H_
#define FCP_CORE_PARALLEL_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/params.h"
#include "common/placement.h"
#include "common/types.h"
#include "core/engine_front.h"
#include "core/engine_metrics.h"
#include "obs/watchdog.h"
#include "core/miner.h"
#include "core/result_collector.h"
#include "stream/bounded_queue.h"
#include "stream/rebalancer.h"
#include "stream/segment.h"
#include "stream/segment_ref.h"
#include "stream/shard_router.h"
#include "stream/stream_mux.h"
#include "telemetry/registry.h"
#include "util/ring_buffer.h"

namespace fcp {

/// Configuration of the parallel front end.
struct ParallelEngineOptions {
  /// Must be 1 (checked): segmentation runs on the one ingest thread. The
  /// field survives only because the benchmark driver
  /// (perfbench/perfbench.cc) still sets it; it goes away together with
  /// that line when the benchmark is next revised.
  uint32_t num_workers = 1;
  /// Miner shards: independent miner replicas partitioning the pattern
  /// space by min-object ownership. 1 = classic single miner thread. At
  /// most kMaxShards (checked): the router tracks deliveries in a 64-bit
  /// per-segment shard mask.
  uint32_t num_miner_shards = 1;
  size_t event_queue_capacity = 8192;  ///< feeds the ingest thread
  size_t shard_queue_capacity = 1024;  ///< per shard, feeds the miners
  DurationMs suppression_window = 0;   ///< ResultCollector dedup
  /// Registry receiving the pipeline's metrics (per-shard counters labeled
  /// `{shard="s"}`); null means the engine owns a private one.
  telemetry::MetricRegistry* metrics = nullptr;
  /// Live rebalancing cadence and thresholds (DESIGN.md §2.6). For S > 1
  /// the ingest thread closes a load interval every `interval_segments`
  /// routed segments and, when the interval's modeled-cost imbalance (max/
  /// mean per-shard Σ f² over owned objects) clears the threshold, migrates
  /// hot objects between shards through the router's backfill fence. Every
  /// shard starts on the Mix64 hash.
  RebalancerOptions rebalancer;
  /// Health supervision (DESIGN.md §2.8): when set, every pipeline stage
  /// registers a heartbeat with this watchdog (ingest, shard-s) plus the
  /// watermark-lag probe. The watchdog must outlive the engine's
  /// threads and be Stop()ped before the engine is destroyed. Heartbeats
  /// are single relaxed atomics — zero cost on the mining hot path, and
  /// null leaves the pipeline exactly as instrumented as before.
  obs::Watchdog* watchdog = nullptr;
};

class ParallelEngine {
 public:
  /// Starts the ingest thread and the S shard miner threads. `params` must
  /// validate OK.
  ParallelEngine(MinerKind kind, const MiningParams& params,
                 ParallelEngineOptions options = {});

  /// Joins all threads (calls Finish() if the caller has not).
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Queues one event for the ingest thread. Blocks (condition variable)
  /// while the event queue is full — ingestion is lossless, unlike the
  /// Fig. 8 saturation harness. Must not be called after Finish().
  void Push(const ObjectEvent& event);

  /// Queues a batch of events in order. Equivalent to Push per event, but
  /// the batch is handed to the event queue in one lock acquisition per
  /// admitted chunk (BoundedQueue::PushAll) and the ingestion counter takes
  /// one delta per batch. Must not be called after Finish().
  void PushBatch(std::span<const ObjectEvent> events);

  /// Blocks until the pipeline has caught up with every event pushed so
  /// far: the ingest thread has segmented and routed each one, every shard
  /// has mined every segment routed to it, and every routed trigger's FCPs
  /// have been released to the collector (SnapshotResults() holds them).
  /// Windows still open stay open (later events or Finish() close them).
  /// Polls atomics every millisecond. Call from the pushing thread, before
  /// Finish().
  void WaitUntilIdle() const;

  /// Flushes every open window, drains the pipeline and joins all threads;
  /// the last triggers are released on the way. Idempotent. After Finish(),
  /// results() is complete and stable.
  void Finish();

  /// All accepted discoveries, in acceptance order. Only safe to read after
  /// Finish(); while the pipeline runs use SnapshotResults().
  const std::vector<Fcp>& results() const {
    return front_.collector().results();
  }

  /// A copy of the discoveries accepted so far, in acceptance order: every
  /// released trigger's, none of a later one's. Thread-safe; callable while
  /// the pipeline runs. After WaitUntilIdle() it holds every alert of the
  /// events pushed so far.
  std::vector<Fcp> SnapshotResults() const;

  /// Collector access after Finish() (distinct pattern counts, etc.).
  const ResultCollector& collector() const { return front_.collector(); }

  /// Shard miner access after Finish() (stats, memory accounting).
  uint32_t num_miner_shards() const { return options_.num_miner_shards; }
  const FcpMiner& shard_miner(uint32_t shard) const {
    return *shard_miners_[shard];
  }
  const ShardRouterStats& router_stats() const { return router_->stats(); }

  /// The slab pool every in-flight segment lives in (stats: pool hit rate,
  /// live refs). Thread-safe.
  const SegmentPool& segment_pool() const { return front_.mux().pool(); }

  /// Rebalancer counters + last imbalance (null when S == 1). Only safe to
  /// read after Finish().
  const Rebalancer* rebalancer() const { return rebalancer_.get(); }

  uint64_t segments_completed() const { return segments_completed_; }
  uint64_t events_pushed() const { return events_pushed_; }
  /// Events the segmenters clamped to restore per-stream time order.
  /// Thread-safe.
  uint64_t events_reordered() const { return front_.mux().reordered_count(); }

  /// The registry this pipeline publishes into (engine-owned unless
  /// ParallelEngineOptions::metrics was set).
  const telemetry::MetricRegistry& metrics() const {
    return *front_.registry();
  }

  /// Refreshes the mirror gauges (pool, open windows, streams seen, uptime,
  /// queue occupancy, routing), then snapshots every metric. Thread-safe;
  /// callable while the pipeline runs.
  std::vector<telemetry::MetricSample> SnapshotMetrics();

  /// Pipeline topology for /statusz: shards, placement version, ingest and
  /// shard queue depth/high-watermark/capacity, pool occupancy, per-shard
  /// watermark lag, rebalancer activity. Thread-safe (built entirely from
  /// relaxed atomics and snapshot mutexes); callable while the pipeline
  /// runs. Counter-derived fields read the published metrics.
  std::string StatusJson() const;

  /// Max over shards of (router watermark - shard last-processed
  /// watermark), in stream-time ms: how far the slowest miner trails
  /// routing. 0 before any delivery. Thread-safe.
  int64_t WatermarkLagMs() const;

 private:
  // Online release (DESIGN.md §2.2). The ingest thread and the shard
  // threads stage what they route or mine, publish it under release_mu_ and
  // release every trigger the publish completes.
  /// One trigger and a count: on `routed_` the shards it was routed to, on
  /// a shard's `lists` the FCPs that shard mined for it.
  struct TriggerCount {
    SegmentId trigger = kInvalidSegmentId;
    uint32_t count = 0;
  };
  /// Mined, unreleased output. Both FIFOs are in trigger order: a shard
  /// mines its deliveries in route order.
  struct OutputFifo {
    RingBuffer<TriggerCount> lists;  ///< one per routed delivery, even empty
    RingBuffer<Fcp> fcps;            ///< the lists' FCPs, back to back
  };

  /// Shard `shard`'s lag behind the router watermark `routed`.
  int64_t ShardLagMs(uint32_t shard, Timestamp routed) const;
  /// Pops events in batches, segments them one by one through the front
  /// end's mux and routes every completed segment (plus the rebalancer's
  /// observe/migrate step); flushes every stream's open window once the
  /// event queue is closed and drained.
  void IngestLoop();
  /// Pops deliveries in batches and processes them one by one; publishes
  /// the shard's telemetry and mined lists after each batch.
  void ShardLoop(uint32_t shard_index);
  /// Applies the delivery's placement snapshot, advances the watermark and
  /// mines (or index-backfills) it with shard `shard_index`'s miner; a
  /// mined list is staged for ShardLoop's publish.
  void ProcessDelivery(uint32_t shard_index, ShardDelivery&& delivery);
  /// release_mu_, taken with a try-lock; a busy lock is waited for only if
  /// `wait`. The caller checks owns_lock().
  std::unique_lock<std::mutex> LockRelease(bool wait);
  /// Ingest side of the release: moves the staged (trigger, receivers)
  /// entries onto routed_ and releases every complete trigger, unless the
  /// lock is busy and not `wait`. True iff nothing is left staged.
  bool PublishRouted(RingBuffer<TriggerCount>* staged, bool wait);
  /// Shard side: the same for shard `shard_index`'s staged lists, onto its
  /// output FIFO; bumps its segments_mined by the lists published.
  void PublishMined(uint32_t shard_index, bool wait);
  /// Offers the FCPs of each complete trigger at the front of `routed_` to
  /// the collector's suppression decision, oldest first, moves the accepted
  /// ones onto accepted_, and stops at the first incomplete trigger. Caller
  /// holds release_mu_.
  void ReleaseCompleteLocked();
  /// Moves accepted_ into the collector's results(). Runs on the thread
  /// that pushes (Push, PushBatch, Finish): results() is one array that
  /// grows by doubling, and grown on a pipeline thread its freed buffers
  /// stay resident in that thread's malloc arena (EXPERIMENTS.md, "Online
  /// sharded output").
  void KeepAccepted();
  /// KeepAccepted() every 100 us until at most `threads_running` pipeline
  /// threads are still running.
  void KeepAcceptedUntil(uint32_t threads_running);
  void RegisterMetrics();
  void RegisterWatchdogStages();
  void RefreshGauges();

  MiningParams params_;
  ParallelEngineOptions options_;

  /// Mux (and its slab pool), collector and front-end telemetry. Declared
  /// before the router, miners and shard runtime so every SegmentRef (shard
  /// deliveries, the router's live set, the miners' indexes) is released
  /// before the pool is destroyed (checked in ~SegmentPool). The ingest
  /// thread alone touches the mux; the collector is touched only under
  /// release_mu_ until Finish() has joined the threads.
  EngineFront front_;
  /// Push/PushBatch fill it; the ingest thread drains it.
  BoundedQueue<ObjectEvent> events_;

  std::unique_ptr<ShardRouter> router_;
  /// Per-interval load measurement + migration decisions; owned by the
  /// ingest thread, created for S > 1.
  std::unique_ptr<Rebalancer> rebalancer_;
  std::vector<std::unique_ptr<FcpMiner>> shard_miners_;
  std::vector<std::thread> shard_threads_;
  /// Per-shard state of the owning shard thread, plus the atomics the
  /// observability plane and WaitUntilIdle() sample. unique_ptr for address
  /// stability (atomics are immovable).
  struct ShardRuntime {
    /// The snapshot the shard's miner currently filters by (keeps the
    /// shared_ptr alive between deliveries that carry the same snapshot).
    std::shared_ptr<const PlacementMap> active_placement;
    std::vector<Fcp> mined_scratch;
    /// Mined, not yet published to shard_output_ (its batch is still being
    /// mined, or the publish's try-lock was busy).
    OutputFifo staged;
    /// Watermark of the last delivery this shard processed; sampled by the
    /// observability plane against the router's to compute per-shard lag.
    std::atomic<Timestamp> last_watermark{kMinTimestamp};
    /// Routed (not backfill) deliveries this shard has mined and published
    /// to its output FIFO; compared with the router's routed_to() by
    /// WaitUntilIdle().
    std::atomic<uint64_t> segments_mined{0};
  };
  std::vector<std::unique_ptr<ShardRuntime>> shard_runtime_;

  /// Guards the collector while the pipeline runs, routed_, shard_output_,
  /// accepted_ and release_scratch_.
  mutable std::mutex release_mu_;
  /// Routed, unreleased triggers in route order (= segment-id order).
  RingBuffer<TriggerCount> routed_;
  std::vector<OutputFifo> shard_output_;
  /// Released and accepted, not yet in results() (see KeepAccepted()).
  RingBuffer<Fcp> accepted_;
  /// accepted_ may be non-empty: lets Push() skip the lock when it is not.
  std::atomic<bool> has_accepted_{false};
  /// The ingest and shard threads that have not returned yet.
  std::atomic<uint32_t> threads_running_{0};
  /// ReleaseCompleteLocked() scratch: per shard holding the front trigger,
  /// (shard, FCPs of it still to offer).
  std::vector<std::pair<uint32_t, uint32_t>> release_scratch_;

  uint64_t segments_completed_ = 0;
  uint64_t events_pushed_ = 0;
  /// Events the ingest thread has segmented and routed, their triggers
  /// published to routed_ (release-stored; read by WaitUntilIdle()).
  std::atomic<uint64_t> events_routed_{0};
  bool finished_ = false;
  std::vector<ObjectEvent> push_batch_scratch_;  ///< PushBatch staging

  // Telemetry. Registration happens in the constructor before any thread
  // starts; the record paths below are relaxed atomics only. Per-shard
  // mutable state (`published`) is touched only by the owning shard thread.
  struct ShardTelemetry {
    MinerMetrics miner;
    MinerStats published;
    MineSite mine;
    telemetry::LatencyHistogram* discovery_latency_us = nullptr;
    telemetry::Gauge* segments_routed = nullptr;
    telemetry::Gauge* queue_depth = nullptr;
    telemetry::Gauge* queue_high_watermark = nullptr;
    telemetry::Gauge* watermark_lag_ms = nullptr;
  };
  telemetry::Gauge* watermark_lag_ms_ = nullptr;
  telemetry::Gauge* event_queue_depth_ = nullptr;
  telemetry::Gauge* event_queue_high_watermark_ = nullptr;
  telemetry::Counter* rebalance_rounds_ = nullptr;
  telemetry::Counter* migrations_ = nullptr;
  telemetry::Counter* backfill_deliveries_ = nullptr;
  telemetry::Gauge* imbalance_permille_ = nullptr;
  telemetry::LatencyHistogram* migration_latency_us_ = nullptr;
  std::vector<ShardTelemetry> shard_telemetry_;

  // Watchdog heartbeats (null / empty when no watchdog was attached).
  obs::StageHeartbeat* ingest_heartbeat_ = nullptr;
  std::vector<obs::StageHeartbeat*> shard_heartbeats_;

  /// Declared after every member IngestLoop uses; Finish() joins it.
  std::thread ingest_thread_;
};

}  // namespace fcp

#endif  // FCP_CORE_PARALLEL_ENGINE_H_
