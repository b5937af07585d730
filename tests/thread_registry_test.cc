// The one per-thread record behind both recorders (telemetry/
// thread_registry.h): a pipeline thread named once by its ThreadScope shows
// up under that name as a Chrome-trace track and as a folded-profile root,
// and recording plus sampling leave the sharded output equal to serial.

#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/params.h"
#include "core/mining_engine.h"
#include "core/parallel_engine.h"
#include "datagen/traffic_gen.h"
#include "obs/watchdog.h"
#include "prof/prof.h"
#include "telemetry/trace.h"
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

/// The first frame of every folded line: the sampled thread's name.
std::set<std::string> FoldedRoots(const std::string& folded) {
  std::set<std::string> roots;
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t semi = line.find(';');
    if (semi != std::string::npos) roots.insert(line.substr(0, semi));
  }
  return roots;
}

TEST(ThreadRegistryTest, PipelineThreadsShareOneNameAcrossBothRecorders) {
  const std::vector<ObjectEvent> events = Trace();
  MiningEngine serial(MinerKind::kCooMine, Params());
  std::vector<Fcp> serial_all;
  for (const ObjectEvent& event : events) {
    for (Fcp& f : serial.PushEvent(event)) serial_all.push_back(std::move(f));
  }
  for (Fcp& f : serial.Flush()) serial_all.push_back(std::move(f));
  ASSERT_FALSE(serial_all.empty()) << "workload mined nothing";

  trace::Reset();
  prof::ResetProfile();
  trace::Start(1024);
  ASSERT_TRUE(prof::StartCpuProfiler(1000));
  obs::WatchdogOptions watchdog_options;
  watchdog_options.poll_interval_ms = 1;

  // CPU-clock timers expire on the scheduler tick that lands while their
  // thread runs, so a short-lived pipeline thread can finish without a
  // sample. Rerun the pipeline (each run's threads take the same names)
  // until every name has a profile root, or 30 s of wall time pass and the
  // check below fails.
  const std::vector<testing::FcpSignature> expected =
      testing::FullSignatures(serial_all);
  const char* const kNames[] = {"ingest", "shard-0", "shard-1", "watchdog"};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::string folded;
  std::set<std::string> roots;
  auto all_sampled = [&] {
    for (const char* name : kNames) {
      if (roots.count(name) == 0) return false;
    }
    return true;
  };
  int run = 0;
  do {
    obs::Watchdog watchdog(watchdog_options);
    watchdog.Start();
    ParallelEngineOptions options;
    options.num_miner_shards = 2;
    options.watchdog = &watchdog;
    ParallelEngine engine(MinerKind::kCooMine, Params(), options);
    for (const ObjectEvent& event : events) engine.Push(event);
    engine.Finish();
    EXPECT_EQ(testing::FullSignatures(engine.results()), expected)
        << "recording and sampling changed the sharded output (run " << run
        << ")";
    ++run;
    // The watchdog burns little CPU per evaluation; keep it evaluating
    // until its CPU-time timer has fired (the engine must outlive it).
    do {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      folded = prof::FoldedProfile();
      roots = FoldedRoots(folded);
    } while (roots.count("watchdog") == 0 &&
             std::chrono::steady_clock::now() < deadline);
    watchdog.Stop();
  } while (!all_sampled() && std::chrono::steady_clock::now() < deadline);
  prof::StopCpuProfiler();
  trace::Stop();

  std::string error;
  const auto parsed = trace::ParseChromeTraceJson(
      trace::SerializeChromeTrace(trace::Snapshot()), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  std::set<std::string> track_names;
  for (const trace::ParsedTraceEvent& e : *parsed) {
    if (e.ph == 'M' && e.name == "thread_name") track_names.insert(e.arg_name);
  }
  for (const char* name : kNames) {
    EXPECT_TRUE(track_names.count(name)) << name << " has no trace track";
    EXPECT_TRUE(roots.count(name)) << name << " has no profile root after "
                                   << run << " runs:\n"
                                   << folded;
  }

  trace::Reset();
  prof::ResetProfile();
}

}  // namespace
}  // namespace fcp
