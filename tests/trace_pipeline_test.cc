// End-to-end flight-recorder coverage: a serial MiningEngine run and a
// sharded ParallelEngine run, both traced, must serialize to valid Chrome
// trace JSON whose flow events stitch each segment's journey together — in
// the sharded case across thread boundaries (ingest -> shard). The
// slow-op path is exercised with a 1 ns threshold so every mine call
// triggers a forensic dump.

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
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

class TracePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Reset();
    trace::ConfigureSlowOp(trace::SlowOpOptions{});
  }
  void TearDown() override {
    trace::ConfigureSlowOp(trace::SlowOpOptions{});
    trace::Reset();
  }
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
}

TEST_F(TracePipelineTest, SlowOpThresholdProducesForensicDump) {
  trace::Start(256);
  trace::SlowOpOptions slow;
  slow.threshold_ns = 1;  // every mine call is "slow"
  slow.dump_prefix = ::testing::TempDir() + "/pipeline_slowop";
  trace::ConfigureSlowOp(slow);

  MiningEngine engine(MinerKind::kCooMine, Params());
  for (const ObjectEvent& event : Trace()) engine.PushEvent(event);
  engine.Flush();
  trace::Stop();

  // More slow mine calls than the cap: the dumps stop at kMaxSlowOpDumps.
  ASSERT_GT(engine.segments_completed(), trace::kMaxSlowOpDumps);
  EXPECT_EQ(trace::SlowOpDumpCount(), trace::kMaxSlowOpDumps);

  const std::string path = slow.dump_prefix + ".slowop-0.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string dump = buf.str();

  // The dump ties together the op, the triggering segment, the miner's
  // introspection state and the flight-recorder tail.
  EXPECT_NE(dump.find("\"op\": \"engine/mine\""), std::string::npos);
  EXPECT_NE(dump.find("\"miner\": \"CooMine\""), std::string::npos);
  EXPECT_NE(dump.find("\"segment\""), std::string::npos);
  EXPECT_NE(dump.find("\"debug\""), std::string::npos);
  EXPECT_NE(dump.find("\"state\""), std::string::npos);
  EXPECT_NE(dump.find("\"live_segments\""), std::string::npos);
  EXPECT_NE(dump.find("\"index_bytes\""), std::string::npos);
  EXPECT_NE(dump.find("\"recorder_tail\""), std::string::npos);
  EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);

  for (uint64_t n = 0; n < trace::SlowOpDumpCount(); ++n) {
    std::remove(
        (slow.dump_prefix + ".slowop-" + std::to_string(n) + ".json").c_str());
  }
}

}  // namespace
}  // namespace fcp
