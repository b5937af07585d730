// Unit tests for the fcp::prof sampling profiler (DESIGN.md §2.9): the
// arm/disarm lifecycle, SIGPROF sample capture and symbolization of a known
// function, wait-tag attribution, folded rendering, heap-site sampling,
// live-thread accounting and the crash dump's profiler state. The profiler
// is process-global, so every test starts from StopCpuProfiler() +
// ResetProfile() and leaves the profiler disarmed.

#include "util/alloc_counter.h"  // must be first: defines the counting
                                 // operator new the heap profiler hooks

#include "prof/prof.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/crash_dump.h"
#include "telemetry/thread_registry.h"
#include "telemetry/trace.h"

namespace fcp {

// Namespace-scope (not anonymous) so the demangled frame is a stable,
// greppable "fcp::prof_test_detail::..." in the folded profile. noinline
// keeps a real frame on the chain the SIGPROF handler walks.
namespace prof_test_detail {

__attribute__((noinline)) uint64_t BurnThreadCpuMs(int ms) {
  timespec start{}, now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  volatile uint64_t sink = 1;
  for (;;) {
    for (int i = 0; i < 4096; ++i) sink = sink * 2862933555777941757ULL + 3;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    const int64_t elapsed_ms =
        (now.tv_sec - start.tv_sec) * 1000 +
        (now.tv_nsec - start.tv_nsec) / 1000000;
    if (elapsed_ms >= ms) break;
  }
  return sink;
}

// CPU-clock timers expire on the scheduler tick that lands while their
// thread runs (250 Hz on a common kernel), not once per 1/hz of CPU time:
// under load a thread can burn tens of ms in slices that fall between ticks
// and take no sample at all. Tests that need a thread's samples burn until
// the thread has one (or 10 s of wall time pass, and the test then fails).
__attribute__((noinline)) void BurnUntilSampled(int min_ms) {
  BurnThreadCpuMs(min_ms);
  const telemetry::ThreadRecord* rec = telemetry::ThisThread();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rec != nullptr &&
         rec->sample_head.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    BurnThreadCpuMs(5);
  }
}

__attribute__((noinline)) std::vector<std::vector<char>> AllocateChunks(
    size_t chunks, size_t bytes_each) {
  std::vector<std::vector<char>> keep;
  keep.reserve(chunks);
  for (size_t i = 0; i < chunks; ++i) {
    keep.emplace_back(bytes_each, static_cast<char>(i));
  }
  return keep;
}

}  // namespace prof_test_detail

namespace {

class ProfTest : public ::testing::Test {
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

TEST_F(ProfTest, DisarmedByDefaultAndRejectsBadRates) {
  EXPECT_FALSE(prof::IsEnabled());
  EXPECT_FALSE(prof::IsSampling());
  EXPECT_EQ(prof::SamplingHz(), 0);
  EXPECT_FALSE(prof::StartCpuProfiler(0));
  EXPECT_FALSE(prof::StartCpuProfiler(-7));
  EXPECT_FALSE(prof::StartCpuProfiler(1001));
  EXPECT_FALSE(prof::IsSampling());
}

TEST_F(ProfTest, StartStopLifecycle) {
  ASSERT_TRUE(prof::StartCpuProfiler(100));
  EXPECT_TRUE(prof::IsEnabled());
  EXPECT_TRUE(prof::IsSampling());
  EXPECT_EQ(prof::SamplingHz(), 100);
  EXPECT_FALSE(prof::StartCpuProfiler(100)) << "double-arm must fail";
  prof::StopCpuProfiler();
  EXPECT_FALSE(prof::IsEnabled());
  EXPECT_FALSE(prof::IsSampling());
  EXPECT_EQ(prof::SamplingHz(), 0);
  prof::StopCpuProfiler();  // idempotent
}

TEST_F(ProfTest, SamplesSymbolizeKnownFunctionUnderThreadName) {
  ASSERT_TRUE(prof::StartCpuProfiler(1000));
  uint64_t live_threads = 0;  // read while the burner's scope is open
  std::thread burner([&live_threads] {
    telemetry::ThreadScope scope("burner");
    prof_test_detail::BurnThreadCpuMs(300);
    live_threads = prof::Stats().threads;
  });
  burner.join();
  prof::StopCpuProfiler();

  const prof::ProfStats stats = prof::Stats();
  EXPECT_GT(stats.samples, 10u) << "300ms of CPU at 1000 Hz sampled almost "
                                   "nothing";
  EXPECT_GE(live_threads, 1u);

  const std::string folded = prof::FoldedProfile();
  ASSERT_FALSE(folded.empty());
  // The burning thread's stacks are rooted at its registered name and the
  // hot leaf symbolizes to the named function (main-exe .symtab lookup).
  EXPECT_NE(folded.find("burner;"), std::string::npos) << folded;
  EXPECT_NE(folded.find("BurnThreadCpuMs"), std::string::npos) << folded;
  EXPECT_GT(prof::Stats().symbols_cached, 0u);
}

TEST_F(ProfTest, JoinedThreadsLeaveTheCountButKeepTheirProfile) {
  static const char* const kTag = "test/retired-wait";
  const uint64_t baseline = prof::Stats().threads;
  ASSERT_TRUE(prof::StartCpuProfiler(1000));
  std::vector<std::string> names;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      std::string name = "round";
      name += std::to_string(round);
      name += '-';
      name += std::to_string(t);
      names.push_back(name);
      threads.emplace_back([name] {
        telemetry::ThreadScope scope(name.c_str());
        prof_test_detail::BurnUntilSampled(40);
        prof::WaitTimer wait(kTag);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(prof::Stats().threads, baseline)
        << "joined threads still counted after round " << round;
  }
  prof::StopCpuProfiler();
  // Retired threads' samples and wait totals still render.
  const std::string folded = prof::FoldedProfile();
  for (const std::string& name : names) {
    EXPECT_NE(folded.find(name + ";"), std::string::npos) << name << folded;
  }
  EXPECT_NE(folded.find("wait;test/retired-wait "), std::string::npos)
      << folded;
}

TEST_F(ProfTest, WaitTimerAttributesBlockedWallTime) {
  static const char* const kTag = "test/block-point";
  ASSERT_TRUE(prof::StartCpuProfiler(1000));
  {
    telemetry::ThreadScope scope("waiter");
    prof::WaitTimer wait(kTag);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  prof::StopCpuProfiler();
  // 50ms at 1000 Hz renders ~50 wait units on the tag's pseudo stack.
  const std::string folded = prof::FoldedProfile();
  EXPECT_NE(folded.find("wait;test/block-point "), std::string::npos)
      << folded;
}

TEST_F(ProfTest, WaitTimerIsInertWhileDisarmed) {
  static const char* const kTag = "test/inert";
  {
    telemetry::ThreadScope scope("idle");
    prof::WaitTimer wait(kTag);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(prof::FoldedProfile().find("test/inert"), std::string::npos);
}

TEST_F(ProfTest, RecordWaitOnUnregisteredThreadIsANoOp) {
  // The gtest main thread holds no ThreadScope here; this must not crash
  // and must not surface in the profile.
  prof::RecordWaitNs("test/unregistered", 1000000000);
  EXPECT_EQ(prof::FoldedProfile().find("test/unregistered"),
            std::string::npos);
}

TEST_F(ProfTest, ResetProfileDropsStacksAndWaitTotals) {
  static const char* const kTag = "test/reset-me";
  ASSERT_TRUE(prof::StartCpuProfiler(1000));
  {
    telemetry::ThreadScope scope("resetter");
    prof_test_detail::BurnThreadCpuMs(60);
    prof::WaitTimer wait(kTag);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  prof::StopCpuProfiler();
  ASSERT_FALSE(prof::FoldedProfile().empty());
  prof::ResetProfile();
  EXPECT_TRUE(prof::FoldedProfile().empty());
  EXPECT_EQ(prof::Stats().samples, 0u);
}

TEST_F(ProfTest, CaptureFoldedProfileReturnsTheWindowDelta) {
  std::thread burner([] {
    telemetry::ThreadScope scope("window-burner");
    prof_test_detail::BurnThreadCpuMs(1500);
  });
  // Not armed before the call: CaptureFoldedProfile arms for the window and
  // disarms after.
  const std::string folded = prof::CaptureFoldedProfile(1, 400);
  burner.join();
  EXPECT_FALSE(prof::IsSampling());
  EXPECT_NE(folded.find("window-burner;"), std::string::npos) << folded;
}

TEST_F(ProfTest, HeapProfilerSamplesAllocationSites) {
  EXPECT_FALSE(prof::HeapProfilerEnabled());
  prof::EnableHeapProfiler(/*sample_bytes=*/4096);
  EXPECT_TRUE(prof::HeapProfilerEnabled());
  {
    const auto keep = prof_test_detail::AllocateChunks(64, 16 * 1024);
    ASSERT_EQ(keep.size(), 64u);
  }
  prof::DisableHeapProfiler();
  EXPECT_FALSE(prof::HeapProfilerEnabled());

  const std::string heap = prof::HeapProfile();
  ASSERT_FALSE(heap.empty());
  // ~1 MiB allocated against a 4 KiB sampling interval: the allocating
  // frame must be present and credited with a plausible byte volume.
  EXPECT_NE(heap.find("AllocateChunks"), std::string::npos) << heap;
}

TEST_F(ProfTest, HeapHookUnhooksCleanly) {
  prof::EnableHeapProfiler(1);
  prof::DisableHeapProfiler();
  prof::ResetProfile();
  // Allocations after disable must not accumulate sites.
  const auto keep = prof_test_detail::AllocateChunks(8, 4096);
  EXPECT_TRUE(prof::HeapProfile().empty());
}

TEST_F(ProfTest, HeapProfileReturnsWhenASampleComesDueDuringItsCopy) {
  // A 1-byte interval makes every allocation a sample, including the ones
  // HeapProfile() makes while it copies the site table under its lock. The
  // read runs on a worker so a self-deadlock fails the test instead of
  // hanging it.
  prof::EnableHeapProfiler(1);
  const auto keep = prof_test_detail::AllocateChunks(8, 4096);
  std::atomic<bool> done{false};
  std::string heap;
  std::thread reader([&] {
    heap = prof::HeapProfile();
    done.store(true, std::memory_order_release);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!done.load(std::memory_order_acquire)) {
    // The reader holds the heap lock for good, so neither joining it nor
    // TearDown's DisableHeapProfiler() could return.
    std::fprintf(stderr, "HeapProfile() did not return within 10 s\n");
    std::_Exit(1);
  }
  reader.join();
  prof::DisableHeapProfiler();
  EXPECT_NE(heap.find("AllocateChunks"), std::string::npos) << heap;
}

TEST_F(ProfTest, CrashJsonIsSelfContainedState) {
  ASSERT_TRUE(prof::StartCpuProfiler(500));
  std::thread burner([] {
    telemetry::ThreadScope scope("crashy");
    prof_test_detail::BurnThreadCpuMs(50);
  });
  burner.join();
  const std::string json = prof::CrashJson();
  prof::StopCpuProfiler();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"sampling\"", "\"hz\"", "\"collected\"", "\"drops\"",
        "\"threads\"", "\"tail\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  EXPECT_NE(json.find("\"crashy\""), std::string::npos) << json;
}

// Named without "Prof" or "Trace" so the TSan suite filter (which cannot
// run death tests) does not pick it up.
TEST(CpuSamplerCrashDeathTest, FatalDumpCarriesProfilerAuxState) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "/prof_crash_aux.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        trace::Start(64);
        telemetry::ThreadScope scope("doomed");
        trace::Emit(trace::Phase::kInstant, "about-to-die");
        // Arming starts SIGPROF delivery; the fatal path must mask SIGPROF
        // and still produce a parseable dump with the profiler state
        // spliced in.
        prof::StartCpuProfiler(1000);
        prof_test_detail::BurnThreadCpuMs(80);
        obs::InstallCrashHandler(path);
        std::raise(SIGABRT);
      },
      "fatal signal");

  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string dump = buf.str();
  ASSERT_FALSE(dump.empty());
  // The spliced aux keeps the document valid JSON with traceEvents intact.
  std::string error;
  EXPECT_TRUE(trace::ValidateChromeTraceJson(dump, &error)) << error;
  EXPECT_NE(dump.find("about-to-die"), std::string::npos);
  EXPECT_NE(dump.find("\"profiler\""), std::string::npos);
  EXPECT_NE(dump.find("\"sampling\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fcp
