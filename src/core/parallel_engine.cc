#include "core/parallel_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "telemetry/thread_registry.h"
#include "telemetry/trace.h"
#include "util/stopwatch.h"

namespace fcp {

namespace {

/// Routed triggers or mined lists a thread keeps staged while release_mu_
/// is busy before it waits for the lock; it also waits before it blocks
/// for input. Bounds how long a busy thread holds back a release.
constexpr size_t kMaxStaged = 32;

/// Most events the ingest thread, and most deliveries a shard, pops per
/// lock round trip (BoundedQueue::PopBatch; DESIGN.md §2.4). A pop takes
/// what is queued and never waits for a batch to fill, so the caps bound
/// only the work between two looks at the queue: a shard publishes its
/// mined lists and telemetry once per popped batch.
constexpr size_t kIngestPopBatch = 256;
constexpr size_t kShardPopBatch = 64;

}  // namespace

ParallelEngine::ParallelEngine(MinerKind kind, const MiningParams& params,
                               ParallelEngineOptions options)
    : params_(params),
      options_(options),
      front_(params.xi, options.suppression_window, options.metrics),
      // Off-CPU wait tags: the consumer-side wait names the starved stage,
      // the producer-side wait the backpressure source.
      events_(options.event_queue_capacity, "ingest/events-empty",
              "ingest/events-full") {
  FCP_CHECK(params.Validate().ok());
  FCP_CHECK(options.num_workers == 1);
  FCP_CHECK(options.num_miner_shards >= 1);
  FCP_CHECK(options.num_miner_shards <= kMaxShards);
  const uint32_t num_shards = options_.num_miner_shards;
  router_ = std::make_unique<ShardRouter>(
      num_shards, options_.shard_queue_capacity, params.tau);
  if (num_shards > 1) {
    rebalancer_ = std::make_unique<Rebalancer>(num_shards, options_.rebalancer);
  }
  shard_output_.resize(num_shards);
  release_scratch_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    shard_miners_.push_back(MakeMiner(kind, params, router_->spec(s)));
    shard_runtime_.push_back(std::make_unique<ShardRuntime>());
  }
  RegisterMetrics();
  RegisterWatchdogStages();
  // Start the consumers before the producer so routing never blocks on a
  // full shard queue with nobody draining it.
  threads_running_.store(num_shards + 1, std::memory_order_relaxed);
  for (uint32_t s = 0; s < num_shards; ++s) {
    shard_threads_.emplace_back([this, s] { ShardLoop(s); });
  }
  ingest_thread_ = std::thread([this] { IngestLoop(); });
}

ParallelEngine::~ParallelEngine() { Finish(); }

void ParallelEngine::RegisterMetrics() {
  telemetry::MetricRegistry* registry = front_.registry();
  watermark_lag_ms_ = registry->GetGauge("fcp_watermark_lag_ms");
  event_queue_depth_ = registry->GetGauge("fcp_event_queue_depth");
  event_queue_high_watermark_ =
      registry->GetGauge("fcp_event_queue_high_watermark");
  rebalance_rounds_ = registry->GetCounter("fcp_rebalance_rounds_total");
  migrations_ = registry->GetCounter("fcp_migrations_total");
  backfill_deliveries_ = registry->GetCounter("fcp_backfill_deliveries_total");
  // max/mean per-shard modeled cost (Σ f² over the objects each shard owns)
  // over the last load interval, in permille (1000 = perfectly balanced).
  // One definition, shared by dashboards and the rebalancer's trigger —
  // both read the Rebalancer's computation.
  imbalance_permille_ = registry->GetGauge("fcp_shard_load_imbalance_permille");
  migration_latency_us_ = registry->GetHistogram("fcp_migration_latency_us");
  shard_telemetry_.resize(options_.num_miner_shards);
  for (uint32_t s = 0; s < options_.num_miner_shards; ++s) {
    const std::string label =
        telemetry::FormatLabel("shard", std::to_string(s));
    ShardTelemetry& t = shard_telemetry_[s];
    t.miner = MinerMetrics::Register(registry, label);
    t.mine = {"shard/mine", front_.MineLatency(label)};
    t.discovery_latency_us = registry->GetHistogram(
        "fcp_discovery_latency_us{" + label + "}");
    t.segments_routed =
        registry->GetGauge("fcp_segments_routed{" + label + "}");
    t.queue_depth = registry->GetGauge("fcp_shard_queue_depth{" + label + "}");
    t.queue_high_watermark =
        registry->GetGauge("fcp_shard_queue_high_watermark{" + label + "}");
    t.watermark_lag_ms =
        registry->GetGauge("fcp_shard_watermark_lag_ms{" + label + "}");
  }
}

void ParallelEngine::RegisterWatchdogStages() {
  obs::Watchdog* watchdog = options_.watchdog;
  if (watchdog == nullptr) return;
  // Stage names match the trace thread names, so a stalled row in /statusz
  // points straight at the matching Perfetto track. Probes capture `this`;
  // the watchdog contract (Stop() before the engine dies) makes that safe.
  // Unlike the serial engine's, this "ingest" stage has a queue, so it gets
  // a depth probe.
  ingest_heartbeat_ = front_.RegisterIngestStage(
      watchdog, [this] { return events_.depth(); },
      options_.event_queue_capacity);
  shard_heartbeats_.resize(options_.num_miner_shards, nullptr);
  for (uint32_t s = 0; s < options_.num_miner_shards; ++s) {
    shard_heartbeats_[s] = watchdog->RegisterStage(
        "shard-" + std::to_string(s),
        [this, s] { return router_->queue(s).depth(); },
        options_.shard_queue_capacity);
  }
}

int64_t ParallelEngine::ShardLagMs(uint32_t shard, Timestamp routed) const {
  const Timestamp seen =
      shard_runtime_[shard]->last_watermark.load(std::memory_order_relaxed);
  // No delivery yet on either side: 0 (queue depth covers a starved shard).
  return (routed == kMinTimestamp || seen == kMinTimestamp) ? 0 : routed - seen;
}

int64_t ParallelEngine::WatermarkLagMs() const {
  const Timestamp routed = router_->watermark();
  int64_t max_lag = 0;
  for (uint32_t s = 0; s < options_.num_miner_shards; ++s) {
    max_lag = std::max(max_lag, ShardLagMs(s, routed));
  }
  return max_lag;
}

void ParallelEngine::RefreshGauges() {
  const Timestamp routed = router_->watermark();
  for (uint32_t s = 0; s < options_.num_miner_shards; ++s) {
    ShardTelemetry& t = shard_telemetry_[s];
    t.segments_routed->Set(static_cast<int64_t>(router_->routed_to(s)));
    t.queue_depth->Set(static_cast<int64_t>(router_->queue(s).depth()));
    t.queue_high_watermark->Set(
        static_cast<int64_t>(router_->queue(s).high_watermark()));
    t.watermark_lag_ms->Set(ShardLagMs(s, routed));
  }
  event_queue_depth_->Set(static_cast<int64_t>(events_.depth()));
  event_queue_high_watermark_->Set(
      static_cast<int64_t>(events_.high_watermark()));
  front_.RefreshGauges();
}

std::vector<telemetry::MetricSample> ParallelEngine::SnapshotMetrics() {
  RefreshGauges();
  return front_.registry()->Snapshot();
}

void ParallelEngine::Push(const ObjectEvent& event) {
  FCP_CHECK(!finished_);
  // Lossless ingestion: block until the ingest thread makes room.
  events_.Push(event);
  ++events_pushed_;
  front_.CountIngested(1);
  KeepAccepted();
}

void ParallelEngine::PushBatch(std::span<const ObjectEvent> events) {
  FCP_CHECK(!finished_);
  // FIFO order is exactly what per-event Push produces, so segmentation is
  // unchanged; PushAll only takes fewer locks.
  push_batch_scratch_.assign(events.begin(), events.end());
  events_.PushAll(&push_batch_scratch_);
  events_pushed_ += events.size();
  if (!events.empty()) front_.CountIngested(events.size());
  KeepAccepted();
}

void ParallelEngine::WaitUntilIdle() const {
  FCP_CHECK(!finished_);
  const auto poll = std::chrono::milliseconds(1);
  while (events_routed_.load(std::memory_order_acquire) < events_pushed_) {
    std::this_thread::sleep_for(poll);
  }
  // The acquire above orders every routed_to() increment for those events
  // before these reads. Each side bumps its counter only for what it has
  // published (and released what that publish completed), so once both
  // counters are caught up every routed trigger has been released.
  for (uint32_t s = 0; s < options_.num_miner_shards; ++s) {
    const uint64_t routed = router_->routed_to(s);
    while (shard_runtime_[s]->segments_mined.load(std::memory_order_acquire) <
           routed) {
      std::this_thread::sleep_for(poll);
    }
  }
}

std::vector<Fcp> ParallelEngine::SnapshotResults() const {
  std::lock_guard<std::mutex> lock(release_mu_);
  std::vector<Fcp> out = front_.collector().results();
  out.reserve(out.size() + accepted_.size());
  for (size_t i = 0; i < accepted_.size(); ++i) out.push_back(accepted_.at(i));
  return out;
}

void ParallelEngine::KeepAccepted() {
  if (!has_accepted_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(release_mu_);
  ResultCollector& collector = front_.collector();
  while (!accepted_.empty()) {
    collector.Keep(std::move(accepted_.front()));
    accepted_.pop_front();
  }
  has_accepted_.store(false, std::memory_order_relaxed);
}

void ParallelEngine::KeepAcceptedUntil(uint32_t threads_running) {
  while (threads_running_.load(std::memory_order_acquire) > threads_running) {
    KeepAccepted();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void ParallelEngine::Finish() {
  if (finished_) return;
  finished_ = true;
  events_.Close();
  // The backlog still in the pipeline is released while it drains; keep it
  // on this thread meanwhile, as Push() does, instead of piling it up.
  KeepAcceptedUntil(options_.num_miner_shards);
  if (ingest_thread_.joinable()) ingest_thread_.join();
  // The ingest thread routed everything, trailing windows included; close
  // the shard queues and let the miners drain them.
  router_->Close();
  KeepAcceptedUntil(0);
  for (std::thread& thread : shard_threads_) {
    if (thread.joinable()) thread.join();
  }
  // Every routed trigger was mined by each of its receivers, and the last
  // publish for each released it.
  FCP_CHECK(routed_.empty());
  KeepAccepted();
}

std::unique_lock<std::mutex> ParallelEngine::LockRelease(bool wait) {
  std::unique_lock<std::mutex> lock(release_mu_, std::try_to_lock);
  if (!lock.owns_lock() && wait) lock.lock();
  return lock;
}

bool ParallelEngine::PublishRouted(RingBuffer<TriggerCount>* staged,
                                   bool wait) {
  if (staged->empty()) return true;
  std::unique_lock<std::mutex> lock = LockRelease(wait);
  if (!lock.owns_lock()) return false;
  while (!staged->empty()) {
    routed_.push_back(staged->front());
    staged->pop_front();
  }
  ReleaseCompleteLocked();
  return true;
}

void ParallelEngine::PublishMined(uint32_t shard_index, bool wait) {
  ShardRuntime& runtime = *shard_runtime_[shard_index];
  OutputFifo& staged = runtime.staged;
  const uint64_t count = staged.lists.size();
  if (count == 0) return;
  {
    std::unique_lock<std::mutex> lock = LockRelease(wait);
    if (!lock.owns_lock()) return;
    OutputFifo& output = shard_output_[shard_index];
    while (!staged.lists.empty()) {
      output.lists.push_back(staged.lists.front());
      staged.lists.pop_front();
    }
    while (!staged.fcps.empty()) {
      output.fcps.push_back(std::move(staged.fcps.front()));
      staged.fcps.pop_front();
    }
    ReleaseCompleteLocked();
  }
  runtime.segments_mined.fetch_add(count, std::memory_order_release);
}

void ParallelEngine::ReleaseCompleteLocked() {
  ResultCollector& collector = front_.collector();
  while (!routed_.empty()) {
    // Every earlier trigger is released, so a shard that received the front
    // trigger holds its list at the front of its FIFO once it has mined it.
    const TriggerCount front = routed_.front();
    release_scratch_.clear();
    for (uint32_t s = 0; s < shard_output_.size(); ++s) {
      const RingBuffer<TriggerCount>& lists = shard_output_[s].lists;
      if (!lists.empty() && lists.front().trigger == front.trigger) {
        release_scratch_.emplace_back(s, lists.front().count);
      }
    }
    if (release_scratch_.size() < front.count) return;
    // k-way merge of the shards' lists by (size, pattern). Each list is in
    // that order (EmitOrderLess, the miners' contract), and a pattern is
    // emitted by exactly one shard, the owner of its minimum object: this
    // is the serial offer order.
    uint64_t accepted = 0;
    while (true) {
      const Fcp* next = nullptr;
      OutputFifo* source = nullptr;
      uint32_t* remaining = nullptr;
      for (auto& [shard, left] : release_scratch_) {
        if (left == 0) continue;
        const Fcp& head = shard_output_[shard].fcps.front();
        if (next == nullptr || EmitOrderLess(head.objects, next->objects)) {
          next = &head;
          source = &shard_output_[shard];
          remaining = &left;
        }
      }
      if (next == nullptr) break;
      Fcp& fcp = source->fcps.front();
      if (collector.Admit(fcp)) {
        accepted_.push_back(std::move(fcp));
        ++accepted;
      }
      source->fcps.pop_front();
      --*remaining;
    }
    for (const auto& [shard, left] : release_scratch_) {
      shard_output_[shard].lists.pop_front();
    }
    routed_.pop_front();
    if (accepted > 0) {
      front_.CountAccepted(accepted);
      has_accepted_.store(true, std::memory_order_relaxed);
    }
  }
}

void ParallelEngine::IngestLoop() {
  telemetry::ThreadScope thread_scope("ingest");
  obs::StageHeartbeat* heartbeat = ingest_heartbeat_;
  std::vector<SegmentRef> completed;
  uint64_t moves_published = 0;
  uint64_t rounds_published = 0;
  uint64_t backfills_published = 0;
  RingBuffer<TriggerCount> staged;  // routed, not yet on routed_

  // Routes the segments the last mux call completed, in completion order —
  // the order MiningEngine mines them in.
  auto route_completed = [&] {
    for (const SegmentRef& segment : completed) {
      uint32_t receivers = 0;
      {
        // The mux began this segment's flow; the step ties the route slice
        // into the arrow that ends on every shard mining the segment.
        // Routing blocks on full shard queues, so shard backpressure shows
        // up as a stretched ingest/route slice.
        trace::Span route_span("ingest/route", segment->id(),
                               static_cast<uint32_t>(segment->length()));
        trace::Emit(trace::Phase::kFlowStep, "segment", segment->id());
        receivers = router_->Route(segment);
      }
      staged.push_back(TriggerCount{segment->id(), receivers});
      if (rebalancer_ != nullptr) {
        rebalancer_->ObserveSegment(*segment);
        if (auto next = rebalancer_->MaybeRebalance(*router_)) {
          // Migration: backfill the new owners' indexes through the delivery
          // path, then switch routing to the successor snapshot. The span's
          // duration is the routing-thread cost of the migration (backfill
          // enqueues, possibly blocking on full shard queues).
          trace::Span rebalance_span(
              "router/rebalance", next->version(),
              static_cast<uint32_t>(rebalancer_->stats().objects_moved));
          Stopwatch migrate_timer;
          router_->ApplyPlacement(std::move(next));
          migration_latency_us_->Record(
              static_cast<uint64_t>(migrate_timer.ElapsedNanos()) / 1000);
        }
        imbalance_permille_->Set(rebalancer_->imbalance_permille());
        // Counters are monotone; publish the deltas since the last segment.
        const RebalancerStats& rstats = rebalancer_->stats();
        if (rstats.objects_moved > moves_published) {
          migrations_->Increment(rstats.objects_moved - moves_published);
          moves_published = rstats.objects_moved;
        }
        if (rstats.rounds_triggered > rounds_published) {
          rebalance_rounds_->Increment(rstats.rounds_triggered -
                                       rounds_published);
          rounds_published = rstats.rounds_triggered;
        }
        const uint64_t backfills = router_->stats().backfill_deliveries;
        if (backfills > backfills_published) {
          backfill_deliveries_->Increment(backfills - backfills_published);
          backfills_published = backfills;
        }
      }
      ++segments_completed_;
      // How far the just-routed segment trails the stream-time watermark:
      // nonzero when it ends before a segment of another stream that
      // completed earlier (the same skew a serial run sees).
      watermark_lag_ms_->Set(router_->watermark() - segment->end_time());
    }
    if (!completed.empty()) front_.CountSegments(completed.size());
    completed.clear();
  };

  // An event counts as routed once its triggers are on routed_: they are
  // published with a try-lock after each event, kept staged while the lock
  // is busy, and published with a wait before this thread blocks for
  // events or once kMaxStaged are staged.
  std::vector<ObjectEvent> batch;
  batch.reserve(kIngestPopBatch);
  uint64_t routed_events = 0;
  while (true) {
    if (heartbeat != nullptr) heartbeat->MarkIdle(true);
    if (events_.PopBatch(&batch, kIngestPopBatch, /*wait=*/false) == 0) {
      PublishRouted(&staged, /*wait=*/true);
      events_routed_.store(routed_events, std::memory_order_release);
      if (events_.PopBatch(&batch, kIngestPopBatch, /*wait=*/true) == 0) {
        break;
      }
    }
    if (heartbeat != nullptr) heartbeat->MarkIdle(false);
    for (const ObjectEvent& event : batch) {
      front_.mux().Push(event, &completed);
      front_.PublishReordered();
      route_completed();
      ++routed_events;
      if (PublishRouted(&staged, /*wait=*/staged.size() >= kMaxStaged)) {
        events_routed_.store(routed_events, std::memory_order_release);
      }
      if (heartbeat != nullptr) heartbeat->Beat();
    }
  }
  // Queue closed and drained: flush every stream's trailing window.
  front_.mux().FlushAll(&completed);
  route_completed();
  PublishRouted(&staged, /*wait=*/true);
  threads_running_.fetch_sub(1, std::memory_order_release);
}

void ParallelEngine::ProcessDelivery(uint32_t shard_index,
                                     ShardDelivery&& delivery) {
  FcpMiner& miner = *shard_miners_[shard_index];
  ShardRuntime& runtime = *shard_runtime_[shard_index];
  // The migration fence, consumer side: adopt the snapshot this delivery was
  // routed under before any ownership decision. Placement flips strictly
  // between deliveries, so one segment is never mined under two placements.
  if (delivery.placement.get() != runtime.active_placement.get()) {
    miner.SetPlacement(delivery.placement.get());
    runtime.active_placement = delivery.placement;
  }
  // Adopt the router's global watermark before mining: a shard only sees
  // the segments containing its objects, so its own max-end-time anchor
  // can lag the router's and would expire supporters later than a serial
  // run (breaking shard-count invariance of the output).
  miner.AdvanceWatermark(delivery.watermark);
  // Per-shard lag mirror + heartbeat.
  runtime.last_watermark.store(delivery.watermark, std::memory_order_relaxed);
  if (!shard_heartbeats_.empty() &&
      shard_heartbeats_[shard_index] != nullptr) {
    shard_heartbeats_[shard_index]->Beat();
  }
  if (delivery.index_only) {
    // Migration backfill: this shard just became an owner of one of the
    // segment's objects; index it so upcoming triggers see every valid
    // supporter, but do not mine (its route-time owners already did).
    trace::Span backfill_span("shard/index_backfill", delivery.trace_flow,
                              shard_index);
    miner.AddSegmentIndexOnly(*delivery.segment);
    return;
  }
  ShardTelemetry& telemetry = shard_telemetry_[shard_index];
  std::vector<Fcp>& mined = runtime.mined_scratch;
  mined.clear();
  // The flow-end closes the arrow the ingest thread began under the same id
  // (the router-stamped trace_flow), tying this mine slice to the segment's
  // route slice across the thread boundary.
  MineTimed(telemetry.mine, delivery.trace_flow, miner, *delivery.segment,
            &mined);
  FCP_DCHECK(std::is_sorted(mined.begin(), mined.end(),
                            [](const Fcp& a, const Fcp& b) {
                              return EmitOrderLess(a.objects, b.objects);
                            }));
  OutputFifo& staged = runtime.staged;
  staged.lists.push_back(TriggerCount{delivery.segment->id(),
                                      static_cast<uint32_t>(mined.size())});
  for (Fcp& fcp : mined) staged.fcps.push_back(std::move(fcp));
  // Segment->discovery latency: shard-queue wait + mining, measured
  // from the router's enqueue stamp.
  telemetry.discovery_latency_us->Record(
      static_cast<uint64_t>(
          std::max<int64_t>(0, MonotonicNowNs() - delivery.routed_at_ns)) /
      1000);
}

void ParallelEngine::ShardLoop(uint32_t shard_index) {
  char thread_name[32];
  std::snprintf(thread_name, sizeof(thread_name), "shard-%u", shard_index);
  telemetry::ThreadScope thread_scope(thread_name);
  BoundedQueue<ShardDelivery>& queue = router_->queue(shard_index);
  obs::StageHeartbeat* heartbeat =
      shard_heartbeats_.empty() ? nullptr : shard_heartbeats_[shard_index];
  const FcpMiner& miner = *shard_miners_[shard_index];
  ShardTelemetry& telemetry = shard_telemetry_[shard_index];
  const OutputFifo& staged = shard_runtime_[shard_index]->staged;
  std::vector<ShardDelivery> batch;
  batch.reserve(kShardPopBatch);

  while (true) {
    if (heartbeat != nullptr) heartbeat->MarkIdle(true);
    if (queue.PopBatch(&batch, kShardPopBatch, /*wait=*/false) == 0) {
      // Nothing to mine: publish what is staged before waiting, so no
      // trigger waits on an idle shard.
      PublishMined(shard_index, /*wait=*/true);
      if (queue.PopBatch(&batch, kShardPopBatch, /*wait=*/true) == 0) break;
    }
    if (heartbeat != nullptr) heartbeat->MarkIdle(false);
    for (ShardDelivery& delivery : batch) {
      ProcessDelivery(shard_index, std::move(delivery));
    }
    // Once per batch, mined or backfilled: only this shard's thread touches
    // its miner, so delta-publishing the miner's plain-counter stats is
    // race-free; readers only read the atomics. Published before the mined
    // lists, so a caller that sees them mined (WaitUntilIdle) sees their
    // telemetry too.
    telemetry.miner.PublishDelta(miner.stats(), &telemetry.published);
    telemetry.miner.PublishIntrospection(miner.Introspect());
    PublishMined(shard_index, /*wait=*/staged.lists.size() >= kMaxStaged);
  }
  threads_running_.fetch_sub(1, std::memory_order_release);
}

namespace {

void AppendQueueJson(std::string* out, const char* key, size_t depth,
                     size_t high_watermark, size_t capacity) {
  out->append("\"");
  out->append(key);
  out->append("\":{\"depth\":" + std::to_string(depth) +
              ",\"high_watermark\":" + std::to_string(high_watermark) +
              ",\"capacity\":" + std::to_string(capacity) + "}");
}

}  // namespace

std::string ParallelEngine::StatusJson() const {
  // Every field below comes from a relaxed atomic, a mutex-guarded queue
  // accessor, or the pool's locked stats snapshot — never from the plain
  // routing-thread state (stats(), placement()). Rows are racy relative to
  // one another; each is individually coherent.
  const Timestamp watermark = router_->watermark();
  std::string out = "{\"engine\":\"parallel\"";
  out += ",\"shards\":" + std::to_string(options_.num_miner_shards);
  out += ",\"watermark\":" +
         std::to_string(watermark == kMinTimestamp ? 0 : watermark);
  out += ",\"watermark_lag_ms\":" + std::to_string(WatermarkLagMs());
  out += ",\"placement_version\":" +
         std::to_string(router_->placement_version());
  front_.AppendStatus(&out);
  if (rebalancer_ != nullptr) {
    const Rebalancer::LiveStats rstats = rebalancer_->SnapshotStats();
    out += ",\"rebalancer\":{\"rounds\":" + std::to_string(rstats.rounds) +
           ",\"rounds_triggered\":" +
           std::to_string(rstats.rounds_triggered) +
           ",\"objects_moved\":" + std::to_string(rstats.objects_moved) +
           ",\"imbalance_permille\":" +
           std::to_string(rstats.imbalance_permille) + "}";
  }
  out += ",";
  AppendQueueJson(&out, "ingest_queue", events_.depth(),
                  events_.high_watermark(), options_.event_queue_capacity);
  out += ",\"shard_queues\":[";
  for (uint32_t s = 0; s < options_.num_miner_shards; ++s) {
    if (s > 0) out += ",";
    out += "{\"shard\":" + std::to_string(s) +
           ",\"routed\":" + std::to_string(router_->routed_to(s)) + ",";
    AppendQueueJson(&out, "deliveries", router_->queue(s).depth(),
                    router_->queue(s).high_watermark(),
                    options_.shard_queue_capacity);
    out += ",\"watermark_lag_ms\":" + std::to_string(ShardLagMs(s, watermark));
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace fcp
