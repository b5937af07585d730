// Profiler x pipeline interplay (DESIGN.md §2.9): arming the sampling
// profiler over a full sharded run — live rebalancing, per-thread SIGPROF
// timers firing into the mining hot loops — must not change a single
// emitted result, and the steady-state zero-allocation guarantee of the
// segment fabric must survive with sampling armed (the signal handler and
// the wait-point timers touch no allocator). The wait pseudo-stacks the run
// produces must map onto the pipeline's known block points and nothing else.

#include "util/alloc_counter.h"  // must be first: defines operator new/delete

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/params.h"
#include "common/types.h"
#include "core/parallel_engine.h"
#include "datagen/traffic_gen.h"
#include "prof/prof.h"
#include "test_util.h"

namespace fcp {
namespace {

MiningParams Params() {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(30);
  params.theta = 3;
  params.min_pattern_size = 2;
  params.max_pattern_size = 4;
  return params;
}

std::vector<ObjectEvent> Trace() {
  TrafficConfig config;
  config.num_cameras = 20;
  config.num_vehicles = 900;
  config.total_events = 20000;
  config.num_convoys = 3;
  config.seed = 99;
  return GenerateTraffic(config).events;
}

std::vector<testing::FcpSignature> RunSharded(
    const std::vector<ObjectEvent>& events, bool profiled,
    std::string* folded_out) {
  if (profiled) {
    prof::ResetProfile();
    const bool armed = prof::StartCpuProfiler(400);
    EXPECT_TRUE(armed) << "profiler already armed";
    if (!armed) return {};
  }
  ParallelEngineOptions options;
  options.num_miner_shards = 4;
  std::vector<testing::FcpSignature> signatures;
  {
    ParallelEngine engine(MinerKind::kCooMine, Params(), options);
    for (const ObjectEvent& event : events) engine.Push(event);
    engine.Finish();
    signatures = testing::FullSignatures(engine.results());
  }
  if (profiled) {
    if (folded_out != nullptr) *folded_out = prof::FoldedProfile();
    prof::StopCpuProfiler();
  }
  return signatures;
}

class ProfPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::StopCpuProfiler();
    prof::DisableHeapProfiler();
    prof::ResetProfile();
  }
  void TearDown() override {
    prof::StopCpuProfiler();
    prof::DisableHeapProfiler();
    prof::ResetProfile();
  }
};

TEST_F(ProfPipelineTest, ArmedSamplingLeavesShardedOutputByteIdentical) {
  const std::vector<ObjectEvent> events = Trace();
  std::string folded;
  const std::vector<testing::FcpSignature> plain =
      RunSharded(events, /*profiled=*/false, nullptr);
  const std::vector<testing::FcpSignature> profiled =
      RunSharded(events, /*profiled=*/true, &folded);

  ASSERT_FALSE(plain.empty()) << "workload mined nothing — test is vacuous";
  EXPECT_EQ(profiled, plain)
      << "arming the profiler changed the mined output";

  // The profiled run observed the pipeline: some on-CPU or wait evidence
  // exists (pipeline threads idle-wait heavily even on fast machines), and
  // every wait pseudo-stack names a known instrumented block point.
  EXPECT_FALSE(folded.empty()) << "armed run produced an empty profile";
  const std::set<std::string> known_tags = {
      "wait;ingest/events-empty",    "wait;ingest/events-full",
      "wait;shard/deliveries-empty", "wait;router/deliveries-full",
  };
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("wait;", 0) != 0) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_TRUE(known_tags.count(line.substr(0, space)))
        << "unknown wait tag: " << line;
  }
}

// The pipeline_alloc_test harness with sampling armed: converged
// steady-state processing must stay allocation-free while every thread
// takes SIGPROF samples and times its queue waits. See pipeline_alloc_test
// for the budget rationale (pool misses are scheduling-dependent).
constexpr ObjectId kVocab = 64;
constexpr StreamId kStreams = 4;
constexpr uint64_t kAllocsPerSlabMiss = 3;

// Pushes `events` in chunks, waiting after each until every event is routed
// and every routed segment mined (pipeline_alloc_test's barrier): a timed
// sleep lets starved shard threads fall behind on a loaded host, and every
// segment backed up past the warm half's peak misses the pool.
constexpr size_t kFeedChunk = 500;

void FeedAndDrain(ParallelEngine& engine, std::span<const ObjectEvent> events) {
  for (size_t i = 0; i < events.size(); i += kFeedChunk) {
    const size_t n = std::min(kFeedChunk, events.size() - i);
    engine.PushBatch(events.subspan(i, n));
    engine.WaitUntilIdle();
  }
}

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

TEST_F(ProfPipelineTest, ArmedSamplingAddsZeroSteadyStateAllocations) {
  MiningParams params;
  params.xi = Seconds(1);
  params.tau = Minutes(5);
  params.theta = 1u << 20;  // unreachable: mining runs, emits nothing
  params.min_pattern_size = 1;
  params.max_pattern_size = 5;
  params.max_segment_objects = 24;
  const std::vector<ObjectEvent> events = BuildUniformTrace(40000);

  ParallelEngineOptions options;
  options.num_miner_shards = 4;

  // Arm before construction: threads registering while armed allocate
  // their sample rings up front, inside the warm-up accounting. The heap
  // profiler stays OFF — its site table intentionally allocates.
  ASSERT_TRUE(prof::StartCpuProfiler(100));
  ParallelEngine engine(MinerKind::kCooMine, params, options);
  const size_t warm = events.size() / 2;
  FeedAndDrain(engine, std::span(events.data(), warm));

  const SegmentPoolStats warm_pool = engine.segment_pool().stats();
  const uint64_t before = alloc_counter::allocations();
  FeedAndDrain(engine, std::span(events.data() + warm, events.size() - warm));
  const uint64_t steady = alloc_counter::allocations() - before;
  const SegmentPoolStats pool = engine.segment_pool().stats();

  engine.Finish();  // flush/join outside the measured window
  prof::StopCpuProfiler();

  const uint64_t ops = events.size() - warm;
  const uint64_t pool_misses = pool.slab_allocs - warm_pool.slab_allocs;
  EXPECT_LE(pool_misses, ops / 10)
      << "the segment pool kept missing in steady state";
  EXPECT_LE(steady, ops / 100 + kAllocsPerSlabMiss * pool_misses)
      << "steady-state pipeline with sampling armed performed " << steady
      << " heap allocations over " << ops << " events (" << pool_misses
      << " pool misses)";
}

}  // namespace
}  // namespace fcp
