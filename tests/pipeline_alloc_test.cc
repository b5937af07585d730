// Full-pipeline allocation regression for the zero-copy segment fabric:
// events flow through the ParallelEngine's ingest thread (StreamMux ->
// pool-backed Segmenters) -> ShardRouter multicast (live set included) ->
// shard miner threads, on the default configuration, which rebalances live.
// After a warm-up half of a closed-universe cyclic trace, every layer has
// converged: queue slots are preallocated, segment slabs recycle through the
// SegmentPool, deliveries share one slab per segment, and the miners' arenas
// are warm — so the steady-state half must perform (essentially) zero heap
// allocations.
//
// "Essentially": slab-pool misses are scheduling-dependent — a miss happens
// only when the number of in-flight slabs exceeds the pool's all-time peak,
// e.g. when a shard thread gets descheduled and its queue backs up — so the
// measured half may still grow the pool toward its high-water mark. That
// growth is bounded by the feed chunk + the tau live window (the lifetime
// tests assert the pool never leaks), not by the event count, so the
// assertion charges exactly kAllocsPerSlabMiss heap allocations per observed
// miss and allows 1 per 100 events on top. Any per-event regression fails
// loudly: a per-delivery segment copy costs >= 1 allocation per delivery and
// a deque-backed FIFO costs 1 per ~32, both far over the per-event budget
// and neither accompanied by pool misses.

#include "util/alloc_counter.h"  // must be first: defines operator new/delete

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/params.h"
#include "common/types.h"
#include "core/parallel_engine.h"

namespace fcp {
namespace {

constexpr ObjectId kVocab = 64;
constexpr StreamId kStreams = 4;

// Closed-universe, near-uniform cyclic trace: every object appears early and
// with equal frequency, so the rebalancer observes balance (no placement
// churn inside the measured half) and the miners see churn without growth.
// 300ms spacing against xi = 1s closes a window every few events.
std::vector<ObjectEvent> BuildUniformTrace(size_t count) {
  std::vector<ObjectEvent> events;
  events.reserve(count);
  Timestamp now = 0;
  for (size_t i = 0; i < count; ++i) {
    now += 300;
    events.push_back(ObjectEvent{static_cast<StreamId>(i % kStreams),
                                 static_cast<ObjectId>(i % kVocab), now});
  }
  return events;
}

MiningParams PipelineParams() {
  MiningParams params;
  params.xi = Seconds(1);
  params.tau = Minutes(5);
  params.theta = 1u << 20;  // unreachable: mining runs, emits nothing
  params.min_pattern_size = 1;
  params.max_pattern_size = 5;
  params.max_segment_objects = 24;
  return params;
}

// Pushes `events` kFeedChunk at a time and waits after each chunk until the
// pipeline is idle: every event routed, every routed segment mined. The wait
// is a barrier on the engine's atomics, not a timed sleep, so neither half
// can bleed into the other however the threads are scheduled. The chunking
// bounds how far ingest runs ahead of starved shard threads: an unchunked
// half on a loaded host can back thousands of segments up in the shard
// queues and miss the pool on each one beyond the warm half's peak.
constexpr size_t kFeedChunk = 500;

void FeedAndDrain(ParallelEngine& engine, std::span<const ObjectEvent> events) {
  for (size_t i = 0; i < events.size(); i += kFeedChunk) {
    const size_t n = std::min(kFeedChunk, events.size() - i);
    engine.PushBatch(events.subspan(i, n));
    engine.WaitUntilIdle();
  }
}

// A pool miss performs one allocation each for the slab, its entry vector,
// and its distinct-object cache.
constexpr uint64_t kAllocsPerSlabMiss = 3;

struct SteadyState {
  uint64_t ops = 0;
  uint64_t allocations = 0;
  uint64_t pool_misses = 0;
};

SteadyState SteadyStatePipeline(uint32_t num_shards) {
  const MiningParams params = PipelineParams();
  const std::vector<ObjectEvent> events = BuildUniformTrace(40000);

  // The fcpmine --shards=S configuration.
  ParallelEngineOptions options;
  options.num_miner_shards = num_shards;

  ParallelEngine engine(MinerKind::kCooMine, params, options);
  const size_t warm = events.size() / 2;
  FeedAndDrain(engine, std::span(events.data(), warm));

  const SegmentPoolStats warm_pool = engine.segment_pool().stats();
  const uint64_t before = alloc_counter::allocations();
  FeedAndDrain(engine, std::span(events.data() + warm, events.size() - warm));
  const uint64_t steady = alloc_counter::allocations() - before;
  const SegmentPoolStats pool = engine.segment_pool().stats();

  engine.Finish();  // flush/join outside the measured window
  return SteadyState{events.size() - warm, steady,
                     pool.slab_allocs - warm_pool.slab_allocs};
}

class PipelineAllocTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PipelineAllocTest, SteadyStatePipelineIsAllocationFree) {
  const uint32_t num_shards = GetParam();
  const SteadyState steady = SteadyStatePipeline(num_shards);
  // Pool convergence is bounded by in-flight capacity (queue depths plus the
  // tau live window), never by the event count; a slab leaked per event
  // would blow through this immediately. The bound is deliberately loose —
  // sanitizer builds slow the shard threads enough that the warm half
  // converges less of the high-water mark.
  EXPECT_LE(steady.pool_misses, steady.ops / 10)
      << "the segment pool kept missing in steady state";
  EXPECT_LE(steady.allocations,
            steady.ops / 100 + kAllocsPerSlabMiss * steady.pool_misses)
      << "steady-state pipeline (S=" << num_shards << ") performed "
      << steady.allocations
      << " heap allocations over " << steady.ops << " events ("
      << steady.pool_misses << " pool misses)";
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, PipelineAllocTest,
                         ::testing::Values(4u, 8u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           std::string name = "S";
                           name += std::to_string(info.param);
                           return name;
                         });

// Guards the counter itself: a build whose operator new replacement is
// interposed away (e.g. by a sanitizer runtime) would pass the test above
// vacuously; this canary keeps that visible.
TEST(PipelineAllocTest, CounterObservesAllocations) {
  const uint64_t before = alloc_counter::allocations();
  std::vector<int>* v = new std::vector<int>(1000);
  EXPECT_GT(alloc_counter::allocations(), before);
  delete v;
}

}  // namespace
}  // namespace fcp
