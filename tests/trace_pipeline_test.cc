// End-to-end flight-recorder coverage: a serial MiningEngine run and a
// sharded ParallelEngine run, both traced, must serialize to valid Chrome
// trace JSON whose flow events stitch each segment's journey together — in
// the sharded case across thread boundaries (ingest -> shard) — and whose
// mine spans name the segment they mined, so `fcptrace --slowest` can say
// which segment a slow mine call was.

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mining_engine.h"
#include "core/parallel_engine.h"
#include "datagen/traffic_gen.h"
#include "telemetry/trace.h"

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
  config.num_vehicles = 600;
  config.total_events = 4000;
  config.num_convoys = 3;
  config.seed = 99;
  return GenerateTraffic(config).events;
}

std::vector<trace::ParsedTraceEvent> StopAndParse() {
  trace::Stop();
  const std::string json = trace::SerializeChromeTrace(trace::Snapshot());
  std::string error;
  EXPECT_TRUE(trace::ValidateChromeTraceJson(json, &error)) << error;
  auto parsed = trace::ParseChromeTraceJson(json, &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return parsed.value_or(std::vector<trace::ParsedTraceEvent>{});
}

// Checks that every `span` B event carries its segment: args.arg is the
// segment's length (>= 1) and args.flow its id, and that the mine spans
// cover exactly the segments whose flows the mux began.
void ExpectMineSpansNameTheirSegments(
    const std::vector<trace::ParsedTraceEvent>& events, const char* span) {
  std::set<uint64_t> begun, mined;
  for (const trace::ParsedTraceEvent& e : events) {
    if (e.ph == 's') begun.insert(std::strtoull(e.id.c_str(), nullptr, 16));
    if (e.ph == 'B' && e.name == span) {
      EXPECT_GE(e.arg, 1u) << span << " on segment " << e.flow;
      mined.insert(e.flow);
    }
  }
  ASSERT_FALSE(mined.empty()) << "no " << span << " spans";
  EXPECT_EQ(mined, begun);
}

class TracePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { trace::Reset(); }
  void TearDown() override { trace::Reset(); }
};

TEST_F(TracePipelineTest, SerialRunEmitsSpansAndCompleteFlows) {
  trace::Start(1024);
  MiningEngine engine(MinerKind::kCooMine, Params());
  for (const ObjectEvent& event : Trace()) engine.PushEvent(event);
  engine.Flush();
  const uint64_t segments = engine.segments_completed();
  ASSERT_GT(segments, 0u);

  const std::vector<trace::ParsedTraceEvent> events = StopAndParse();
  std::set<std::string> span_names;
  std::set<std::string> flow_begins, flow_ends;
  for (const trace::ParsedTraceEvent& e : events) {
    if (e.ph == 'B') span_names.insert(e.name);
    if (e.ph == 's') flow_begins.insert(e.id);
    if (e.ph == 'f') flow_ends.insert(e.id);
  }
  // The instrumented layers all show up: segmentation, engine, miner.
  EXPECT_TRUE(span_names.count("mux/segment_complete"));
  EXPECT_TRUE(span_names.count("engine/mine"));
  EXPECT_TRUE(span_names.count("coomine/slcp"));
  EXPECT_TRUE(span_names.count("coomine/apriori"));

  // Every segment flow that begins also ends (ring is large enough that
  // nothing wrapped in this run).
  EXPECT_EQ(flow_begins.size(), segments);
  EXPECT_EQ(flow_begins, flow_ends);
  ExpectMineSpansNameTheirSegments(events, "engine/mine");
}

TEST_F(TracePipelineTest, ShardedRunConnectsFlowsAcrossThreads) {
  trace::Start(4096);
  ParallelEngineOptions options;
  options.num_miner_shards = 4;
  ParallelEngine engine(MinerKind::kCooMine, Params(), options);
  for (const ObjectEvent& event : Trace()) engine.Push(event);
  engine.Finish();
  ASSERT_GT(engine.segments_completed(), 0u);

  const std::vector<trace::ParsedTraceEvent> events = StopAndParse();

  // Thread metadata names the pipeline stages.
  std::set<std::string> thread_names;
  for (const trace::ParsedTraceEvent& e : events) {
    if (e.ph == 'M') thread_names.insert(e.arg_name);
  }
  EXPECT_TRUE(thread_names.count("ingest"));
  EXPECT_TRUE(thread_names.count("shard-0"));

  // Causality: at least one flow id spans two or more threads (the ingest
  // -> shard delivery crosses a track boundary).
  std::map<std::string, std::set<uint64_t>> flow_tids;
  std::set<std::string> flow_begins, flow_ends;
  for (const trace::ParsedTraceEvent& e : events) {
    if (e.ph == 's' || e.ph == 't' || e.ph == 'f') {
      flow_tids[e.id].insert(e.tid);
    }
    if (e.ph == 's') flow_begins.insert(e.id);
    if (e.ph == 'f') flow_ends.insert(e.id);
  }
  ASSERT_FALSE(flow_tids.empty());
  size_t cross_thread = 0;
  for (const auto& [id, tids] : flow_tids) {
    if (tids.size() >= 2) ++cross_thread;
  }
  EXPECT_GT(cross_thread, 0u)
      << "no flow connects events across thread boundaries";
  // Every segment flow the ingest thread begins ends on some shard (the
  // rings are large enough that nothing wrapped in this run).
  EXPECT_EQ(flow_begins.size(), engine.segments_completed());
  EXPECT_EQ(flow_begins, flow_ends);

  // Both stages show up as spans: segmentation and routing on the ingest
  // thread, mining (where the flow-ends land) on the shard threads.
  std::set<std::string> span_names;
  for (const trace::ParsedTraceEvent& e : events) {
    if (e.ph == 'B') span_names.insert(e.name);
  }
  EXPECT_TRUE(span_names.count("mux/segment_complete"));
  EXPECT_TRUE(span_names.count("ingest/route"));
  EXPECT_TRUE(span_names.count("shard/mine"));
  ExpectMineSpansNameTheirSegments(events, "shard/mine");
}

}  // namespace
}  // namespace fcp
