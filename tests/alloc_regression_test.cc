// Allocation-count regression tests for the zero-allocation hot path.
//
// The workload is a closed-universe cyclic replay: a fixed pool of segment
// shapes repeated with fresh ids and time-shifted so each cycle expires the
// previous one. After the warm cycles every arena, free list, flat map, ring
// buffer and scratch vector has converged to its steady-state capacity, and
// from then on CooMine::AddSegment (and the bare Seg-tree insert/expire
// cycle) must perform ZERO heap allocations. The counter sees every
// `operator new` in the process, so a single regression anywhere on the path
// — an emplace into a node-based container, a vector that outgrew its
// scratch, a std::function capture — fails the test deterministically.

#include "util/alloc_counter.h"  // must be first: defines operator new/delete

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/shard.h"
#include "core/engine_metrics.h"
#include "core/miner.h"
#include "index/seg_tree.h"
#include "io/trace_io.h"
#include "obs/endpoints.h"
#include "obs/obs_server.h"
#include "obs/watchdog.h"
#include "stream/segment.h"
#include "telemetry/registry.h"
#include "telemetry/thread_registry.h"
#include "telemetry/trace.h"
#include "util/rng.h"

namespace fcp {
namespace {

// Deterministic segment pool over a small closed object universe: every
// object appears in cycle one, so later cycles present no structural novelty
// — only churn.
std::vector<Segment> BuildSegmentPool(size_t count, Rng& rng) {
  constexpr ObjectId kVocab = 200;
  constexpr StreamId kStreams = 12;
  std::vector<Segment> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t length = 2 + rng.Below(5);
    std::vector<SegmentEntry> entries;
    const Timestamp time = static_cast<Timestamp>(i * 50);
    for (size_t j = 0; j < length; ++j) {
      entries.push_back(
          SegmentEntry{static_cast<ObjectId>(rng.Below(kVocab)), time});
    }
    pool.emplace_back(static_cast<SegmentId>(i),
                      static_cast<StreamId>(i % kStreams), std::move(entries));
  }
  return pool;
}

// Appends `groups` groups of five untied sequences that drive every
// mechanic of the Seg-tree's run layout. Per group, over fresh objects
// a..f, in insertion (and so expiry) order:
//   (a b) (b c d) (d e) (a b) (b c f)
// (b c d) and (d e) extend the (a b) run in place; the second (a b) ends
// mid-run; (b c f) leaves the run at c and splits it. On expiry, (a b)
// kills a, a front trim that re-roots the rest, and (b c d) then kills c
// between live b and d, a split that re-roots (d e).
void AppendRunChurn(std::vector<Segment>* pool, size_t groups) {
  constexpr ObjectId kFirstObject = 1000;  // above BuildSegmentPool's ids
  const std::vector<std::vector<int>> shapes = {
      {0, 1}, {1, 2, 3}, {3, 4}, {0, 1}, {1, 2, 5}};
  Timestamp time = pool->empty() ? 0 : pool->back().end_time() + 50;
  for (size_t g = 0; g < groups; ++g) {
    const ObjectId base = kFirstObject + static_cast<ObjectId>(6 * g);
    for (const std::vector<int>& shape : shapes) {
      std::vector<SegmentEntry> entries;
      for (int offset : shape) {
        entries.push_back(
            SegmentEntry{base + static_cast<ObjectId>(offset), time++});
      }
      pool->emplace_back(static_cast<SegmentId>(pool->size()),
                         static_cast<StreamId>(g % 12), std::move(entries));
      time += 50;
    }
  }
}

// `cycles` repetitions of the pool, each shifted by one full validity window
// so the previous cycle is expired, with globally fresh segment ids.
std::vector<Segment> BuildCyclicTrace(const std::vector<Segment>& pool,
                                      int cycles, const MiningParams& params) {
  Timestamp t_min = kMaxTimestamp;
  Timestamp t_max = kMinTimestamp;
  for (const Segment& s : pool) {
    t_min = std::min(t_min, s.start_time());
    t_max = std::max(t_max, s.end_time());
  }
  const Timestamp period = (t_max - t_min) + params.tau + params.xi;
  std::vector<Segment> out;
  out.reserve(pool.size() * static_cast<size_t>(cycles));
  SegmentId next_id = 1;
  for (int c = 0; c < cycles; ++c) {
    const Timestamp shift = period * c;
    for (const Segment& s : pool) {
      std::vector<SegmentEntry> entries = s.entries();
      for (SegmentEntry& e : entries) e.time += shift;
      out.emplace_back(next_id++, s.stream(), std::move(entries));
    }
  }
  return out;
}

MiningParams SteadyParams() {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(5);
  params.theta = 1u << 20;  // unreachable: the mining path runs, emits nothing
  params.min_pattern_size = 1;
  params.max_pattern_size = 5;
  params.max_segment_objects = 24;
  return params;
}

// Replays the cyclic trace through `kind` and returns the number of heap
// allocations performed by the steady-state (post-warmup) half. If
// `expired` is given, it receives the segments the miner expired in that
// half.
uint64_t SteadyStateAllocations(MinerKind kind,
                                uint32_t min_pattern_size = 1,
                                uint64_t* expired = nullptr) {
  MiningParams params = SteadyParams();
  params.min_pattern_size = min_pattern_size;
  Rng rng(42);
  const std::vector<Segment> trace =
      BuildCyclicTrace(BuildSegmentPool(400, rng), /*cycles=*/6, params);

  auto miner = MakeMiner(kind, params);
  std::vector<Fcp> sink;
  sink.reserve(64);

  // Warm: first 3 of 6 cycles.
  const size_t warm = trace.size() / 2;
  for (size_t i = 0; i < warm; ++i) {
    sink.clear();
    miner->AddSegment(trace[i], &sink);
  }

  const uint64_t expired_before = miner->stats().segments_expired;
  const uint64_t before = alloc_counter::allocations();
  for (size_t i = warm; i < trace.size(); ++i) {
    sink.clear();
    miner->AddSegment(trace[i], &sink);
  }
  const uint64_t allocations = alloc_counter::allocations() - before;
  if (expired != nullptr) {
    *expired = miner->stats().segments_expired - expired_before;
  }
  return allocations;
}

// CooMine sweeps its start-ordered Tlist heap before every trigger: the
// measured half expires segments, and the heap's vector keeps its capacity.
TEST(AllocRegressionTest, CooMineSteadyStateAddSegmentIsAllocationFree) {
  uint64_t expired = 0;
  EXPECT_EQ(SteadyStateAllocations(MinerKind::kCooMine, 1, &expired), 0u);
  EXPECT_GT(expired, 0u);
}

TEST(AllocRegressionTest, DiMineSteadyStateAddSegmentIsAllocationFree) {
  EXPECT_EQ(SteadyStateAllocations(MinerKind::kDiMine), 0u);
}

TEST(AllocRegressionTest, MatrixMineSteadyStateAddSegmentIsAllocationFree) {
  EXPECT_EQ(SteadyStateAllocations(MinerKind::kMatrixMine), 0u);
}

// A size floor of 2 takes other paths: SLCP parks first hits instead of
// opening rows, and the posting miners count each supporter's mined objects
// in a scratch map. They must converge as well.
TEST(AllocRegressionTest, MinSizeTwoSteadyStateIsAllocationFree) {
  for (MinerKind kind :
       {MinerKind::kCooMine, MinerKind::kDiMine, MinerKind::kMatrixMine}) {
    EXPECT_EQ(SteadyStateAllocations(kind, /*min_pattern_size=*/2), 0u)
        << MinerKindToString(kind);
  }
}

// Sliding-window pool: each of 12 streams keeps a window of five objects
// and swaps one per segment, so a stream's consecutive segments overlap and
// serial CooMine mines most triggers under its new-object rule (DESIGN.md
// §2.1). A 40-object universe makes cross-stream patterns recur.
std::vector<Segment> BuildSlidingPool(size_t count, Rng& rng) {
  constexpr StreamId kStreams = 12;
  std::vector<std::vector<ObjectId>> window(kStreams);
  std::vector<Segment> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<ObjectId>& objects = window[i % kStreams];
    while (objects.size() < 5) {
      objects.push_back(static_cast<ObjectId>(rng.Below(40)));
    }
    objects[rng.Below(objects.size())] = static_cast<ObjectId>(rng.Below(40));
    std::vector<SegmentEntry> entries;
    const Timestamp time = static_cast<Timestamp>(i * 50);
    for (ObjectId object : objects) entries.push_back(SegmentEntry{object, time});
    pool.emplace_back(static_cast<SegmentId>(i),
                      static_cast<StreamId>(i % kStreams), std::move(entries));
  }
  return pool;
}

// The new-object rule's state — the per-stream record of the last trigger,
// the flags and the emission log — converges like every other buffer: with
// theta unreachable the steady-state half mines under the rule and
// allocates nothing. With theta = 2 it also emits and re-certifies logged
// patterns; every emitted FCP allocates its two lists (objects, streams),
// and nothing else does.
TEST(AllocRegressionTest, NewObjectRuleSteadyStateIsAllocationFree) {
  for (const uint32_t theta : {1u << 20, 2u}) {
    SCOPED_TRACE("theta " + std::to_string(theta));
    MiningParams params = SteadyParams();
    params.theta = theta;
    params.min_pattern_size = 2;
    Rng rng(7);
    const std::vector<Segment> trace =
        BuildCyclicTrace(BuildSlidingPool(400, rng), /*cycles=*/6, params);
    auto miner = MakeMiner(MinerKind::kCooMine, params);
    std::vector<Fcp> sink;
    sink.reserve(64);
    const size_t warm = trace.size() / 2;
    for (size_t i = 0; i < warm; ++i) {
      sink.clear();
      miner->AddSegment(trace[i], &sink);
    }
    const MinerStats before_stats = miner->stats();
    const uint64_t before = alloc_counter::allocations();
    for (size_t i = warm; i < trace.size(); ++i) {
      sink.clear();
      miner->AddSegment(trace[i], &sink);
    }
    const uint64_t allocations = alloc_counter::allocations() - before;
    const MinerStats& stats = miner->stats();
    const uint64_t emitted = stats.fcps_emitted - before_stats.fcps_emitted;
    EXPECT_GT(stats.new_object_triggers - before_stats.new_object_triggers,
              (trace.size() - warm) / 2);
    EXPECT_EQ(allocations, 2 * emitted);
    if (theta == 2) {
      EXPECT_GT(emitted, 0u);
      EXPECT_GT(stats.reemissions - before_stats.reemissions, 0u);
    }
  }
}

// The sharded deployment must not scale allocations with the shard count:
// S replicas each index the full closed universe, so any per-posting heap
// growth (the doubling chain a plain std::vector pays per object) is paid S
// times over. With arena-pooled postings every replica converges during the
// warm cycles, so over the steady-state half each miner at each S allocates
// exactly what the serial miner does: nothing with theta unreachable, and
// with theta = 2 the two lists (objects, streams) of each emitted FCP.
TEST(AllocRegressionTest, ShardedDiMineSteadyStateIsAllocationFree) {
  for (const MinerKind kind :
       {MinerKind::kCooMine, MinerKind::kDiMine, MinerKind::kMatrixMine}) {
    for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
      for (const uint32_t theta : {1u << 20, 2u}) {
        SCOPED_TRACE(std::string(MinerKindToString(kind)) + " S=" +
                     std::to_string(shards) + " theta " +
                     std::to_string(theta));
        MiningParams params = SteadyParams();
        params.theta = theta;
        Rng rng(42);
        const std::vector<Segment> trace =
            BuildCyclicTrace(BuildSegmentPool(400, rng), /*cycles=*/6, params);

        std::vector<std::unique_ptr<FcpMiner>> miners;
        for (uint32_t s = 0; s < shards; ++s) {
          miners.push_back(MakeMiner(kind, params, ShardSpec{s, shards}));
        }
        std::vector<Fcp> sink;
        sink.reserve(64);
        std::vector<uint32_t> targets;
        targets.reserve(shards);
        auto deliver = [&](const Segment& segment) {
          targets.clear();
          // Route off the raw entries (DistinctObjects() allocates a fresh
          // vector, which would charge the harness's own routing to the
          // miners).
          for (const SegmentEntry& entry : segment.entries()) {
            const uint32_t shard = ShardOf(entry.object, shards);
            if (std::find(targets.begin(), targets.end(), shard) ==
                targets.end()) {
              targets.push_back(shard);
            }
          }
          for (uint32_t target : targets) {
            miners[target]->AdvanceWatermark(segment.end_time());
            sink.clear();
            miners[target]->AddSegment(segment, &sink);
          }
        };
        auto emitted_so_far = [&] {
          uint64_t total = 0;
          for (const auto& miner : miners) total += miner->stats().fcps_emitted;
          return total;
        };

        const size_t warm = trace.size() / 2;
        for (size_t i = 0; i < warm; ++i) deliver(trace[i]);

        const uint64_t emitted_before = emitted_so_far();
        const uint64_t before = alloc_counter::allocations();
        for (size_t i = warm; i < trace.size(); ++i) deliver(trace[i]);
        const uint64_t allocations = alloc_counter::allocations() - before;
        const uint64_t emitted = emitted_so_far() - emitted_before;
        EXPECT_EQ(allocations, 2 * emitted);
        if (theta == 2) {
          EXPECT_GT(emitted, 0u);
        } else {
          EXPECT_EQ(emitted, 0u);
        }
      }
    }
  }
}

// The flight recorder must preserve the invariant with recording ON
// (DESIGN.md §2.5): ring slots are pre-allocated and the only allocation is
// the per-thread ring registration, which the warm cycles absorb. From then
// on every span/flow emitted inside AddSegment is plain stores into the
// ring — the steady-state half must still count zero allocations even while
// the ring wraps continuously.
TEST(AllocRegressionTest, TracingEnabledSteadyStateIsAllocationFree) {
  trace::Reset();
  trace::Start(/*ring_kb=*/64);  // small ring: wrap path exercised constantly
  for (MinerKind kind : {MinerKind::kCooMine, MinerKind::kDiMine,
                         MinerKind::kMatrixMine}) {
    EXPECT_EQ(SteadyStateAllocations(kind), 0u)
        << "tracing-enabled steady state allocated, miner "
        << MinerKindToString(kind);
  }
  trace::Stop();
  trace::Reset();
}

// The telemetry record path must not reintroduce allocations: the same
// steady-state replay, but with the full per-segment publish sequence the
// engines run — a histogram Record, a PublishDelta of the miner stats and a
// PublishIntrospection of the index view. Registration happens before the
// measured region (it is the one place telemetry may allocate). A
// `heartbeat`, if given, is marked busy before each AddSegment and beaten
// and marked idle after it, as the engines' stage loops do.
void MineWithTelemetry(MinerKind kind, telemetry::MetricRegistry* registry,
                       obs::StageHeartbeat* heartbeat = nullptr) {
  const MiningParams params = SteadyParams();
  Rng rng(42);
  const std::vector<Segment> trace =
      BuildCyclicTrace(BuildSegmentPool(400, rng), /*cycles=*/6, params);

  const MinerMetrics metrics = MinerMetrics::Register(registry, "");
  telemetry::LatencyHistogram* latency =
      registry->GetHistogram("fcp_segment_mine_latency_us");
  MinerStats published;

  auto miner = MakeMiner(kind, params);
  std::vector<Fcp> sink;
  sink.reserve(64);
  auto mine = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (heartbeat != nullptr) heartbeat->MarkIdle(false);
      sink.clear();
      miner->AddSegment(trace[i], &sink);
      latency->Record(static_cast<uint64_t>(i % 1000));
      metrics.PublishDelta(miner->stats(), &published);
      metrics.PublishIntrospection(miner->Introspect());
      if (heartbeat != nullptr) {
        heartbeat->Beat();
        heartbeat->MarkIdle(true);
      }
    }
  };

  const size_t warm = trace.size() / 2;
  mine(0, warm);
  const uint64_t before = alloc_counter::allocations();
  mine(warm, trace.size());
  const uint64_t allocations = alloc_counter::allocations() - before;
  EXPECT_EQ(allocations, 0u)
      << "telemetry-instrumented steady state performed " << allocations
      << " heap allocations";
  EXPECT_EQ(latency->TotalCount(), trace.size());
}

TEST(AllocRegressionTest, TelemetryPublishSteadyStateIsAllocationFree) {
  for (MinerKind kind :
       {MinerKind::kCooMine, MinerKind::kDiMine, MinerKind::kMatrixMine}) {
    SCOPED_TRACE(MinerKindToString(kind));
    telemetry::MetricRegistry registry;
    MineWithTelemetry(kind, &registry);
  }
}

// True once a live thread has opened a ThreadScope named `name`, so the
// scope's registration allocation is behind it.
bool ThreadScopeOpen(const char* name) {
  telemetry::RegistryLock lock;
  for (const telemetry::ThreadRecord* record : lock.threads()) {
    if (record->profiled && !record->retired &&
        std::strcmp(record->name, name) == 0) {
      return true;
    }
  }
  return false;
}

// Polls `done` every millisecond for up to ten seconds.
bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 10000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// The introspection plane costs the mining thread nothing (DESIGN.md §2.8):
// with a live ObsServer serving the standard endpoints and a started
// watchdog evaluating the mining stage, the instrumented steady state still
// allocates nothing anywhere in the process while nobody scrapes. The
// server's poll thread and the watchdog's first evaluation, which leaves
// `starting` and so builds its log line, are waited out before mining.
TEST(AllocRegressionTest, ObsPlaneSteadyStateIsAllocationFree) {
  telemetry::MetricRegistry registry;
  obs::WatchdogOptions watchdog_options;
  watchdog_options.poll_interval_ms = 1;
  watchdog_options.metrics = &registry;
  obs::Watchdog watchdog(watchdog_options);
  obs::StageHeartbeat* heartbeat = watchdog.RegisterStage("mine");

  obs::ObsServerOptions server_options;
  server_options.metrics = &registry;
  obs::ObsServer server(server_options);
  obs::EndpointSources sources;
  sources.registry = &registry;
  sources.watchdog = &watchdog;
  obs::InstallStandardEndpoints(server, sources);
  ASSERT_TRUE(server.Start().ok());
  watchdog.SetReady();
  watchdog.Start();
  ASSERT_TRUE(WaitFor([&] { return ThreadScopeOpen("obs-server"); }));
  ASSERT_TRUE(WaitFor(
      [&] { return watchdog.state() != obs::HealthState::kStarting; }));

  MineWithTelemetry(MinerKind::kCooMine, &registry, heartbeat);
  EXPECT_EQ(watchdog.state(), obs::HealthState::kHealthy);
  EXPECT_EQ(server.requests_served(), 0u);

  server.Stop();
  watchdog.Stop();
}

TEST(AllocRegressionTest, SegTreeSteadyStateChurnIsAllocationFree) {
  const MiningParams params = SteadyParams();
  Rng rng(7);
  std::vector<Segment> pool = BuildSegmentPool(300, rng);
  AppendRunChurn(&pool, /*groups=*/20);
  const std::vector<Segment> trace =
      BuildCyclicTrace(pool, /*cycles=*/6, params);
  const size_t per_cycle = trace.size() / 6;

  // Insert one full cycle, then expire it while inserting the next: the
  // bare index insert/expire churn, no mining on top.
  SegTree tree;
  const size_t warm = trace.size() / 2;
  for (size_t i = 0; i < warm; ++i) {
    tree.Insert(trace[i]);
    tree.RemoveExpired(trace[i].end_time(), params.tau);
  }

  const SegTreeStats warm_stats = tree.stats();
  const uint64_t before = alloc_counter::allocations();
  for (size_t i = warm; i < trace.size(); ++i) {
    tree.Insert(trace[i]);
    tree.RemoveExpired(trace[i].end_time(), params.tau);
  }
  const uint64_t allocations = alloc_counter::allocations() - before;
  EXPECT_EQ(allocations, 0u)
      << "steady-state Seg-tree churn performed " << allocations
      << " heap allocations over " << (trace.size() - warm) << " cycles";
  EXPECT_EQ(tree.num_segments(), per_cycle);
  EXPECT_GT(tree.stats().runs_recycled, 0u);
  // The measured half split runs, trimmed run fronts and re-rooted pieces.
  const SegTreeStats& stats = tree.stats();
  EXPECT_GT(stats.appends_in_place, warm_stats.appends_in_place);
  EXPECT_GT(stats.runs_split, warm_stats.runs_split);
  EXPECT_GT(stats.front_trims, warm_stats.front_trims);
  EXPECT_GT(stats.subtrees_reattached, warm_stats.subtrees_reattached);
}

// Loading a trace allocates a fixed amount (the read buffer, the path, the
// header line's error text, and the event vector once, at the size the
// counting pass found), not a string per line nor a vector regrowth: a file
// ten times longer costs the same allocations.
uint64_t CsvLoadAllocations(size_t lines) {
  std::vector<ObjectEvent> events;
  for (size_t i = 0; i < lines; ++i) {
    // Out of time order every 7th event, so the sort runs too.
    const Timestamp time = static_cast<Timestamp>(i % 7 == 0 ? i / 2 : i);
    events.push_back(ObjectEvent{static_cast<StreamId>(i % 12),
                                 static_cast<ObjectId>(i * 31 % 5000), time});
  }
  const std::string path = std::filesystem::temp_directory_path() /
                           ("fcp_alloc_trace_" + std::to_string(::getpid()) +
                            "_" + std::to_string(lines) + ".csv");
  EXPECT_TRUE(SaveCsvTrace(path, events).ok());
  std::vector<ObjectEvent> loaded;
  const uint64_t before = alloc_counter::allocations();
  const Status status = LoadCsvTrace(path, CsvOptions{}, &loaded);
  const uint64_t allocations = alloc_counter::allocations() - before;
  std::filesystem::remove(path);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(loaded.size(), lines);
  // The slack is the one skipped line (the header) and the "+ 1" kept for a
  // last line without a '\n'; a vector grown by doubling holds up to twice
  // its events.
  EXPECT_LE(loaded.capacity() - loaded.size(), 2u);
  EXPECT_TRUE(std::is_sorted(loaded.begin(), loaded.end(),
                             [](const ObjectEvent& a, const ObjectEvent& b) {
                               return a.time < b.time;
                             }));
  return allocations;
}

TEST(AllocRegressionTest, CsvLoadAllocationsDoNotGrowWithTheTrace) {
  const uint64_t small = CsvLoadAllocations(10000);
  const uint64_t large = CsvLoadAllocations(100000);
  EXPECT_EQ(small, large);
  EXPECT_LT(large, 10u);
}

// Guards the counter itself: a build that silently drops the replaced
// operator new (e.g. a sanitizer interposing malloc) would make the two
// tests above pass vacuously.
TEST(AllocRegressionTest, CounterObservesAllocations) {
  const uint64_t before = alloc_counter::allocations();
  std::vector<int>* v = new std::vector<int>(1000);
  EXPECT_GT(alloc_counter::allocations(), before);
  delete v;
}

}  // namespace
}  // namespace fcp
