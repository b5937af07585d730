// Unit tests for the fcp::trace flight recorder (DESIGN.md §2.5): ring
// recording and drop-oldest wrap, span balancing, Chrome trace-event
// serialization round-trips and the fatal-signal black box. The recorder
// is process-global, so every test starts from Reset() and leaves the
// recorder disabled.

#include "telemetry/trace.h"

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/crash_dump.h"
#include "telemetry/thread_registry.h"

namespace fcp {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class TraceRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { trace::Reset(); }
  void TearDown() override { trace::Reset(); }
};

TEST_F(TraceRecorderTest, DisabledByDefaultRecordsNothing) {
  EXPECT_FALSE(trace::IsEnabled());
  trace::Emit(trace::Phase::kInstant, "ignored");
  EXPECT_TRUE(trace::Snapshot().empty());
}

TEST_F(TraceRecorderTest, RecordsEventsInOrderWithThreadName) {
  trace::Start(64);
  EXPECT_TRUE(trace::IsEnabled());
  telemetry::ThreadScope scope("recorder-test");
  trace::Emit(trace::Phase::kBegin, "op", /*flow=*/7, /*arg=*/3);
  trace::Emit(trace::Phase::kInstant, "tick");
  trace::Emit(trace::Phase::kEnd, "op");
  trace::Stop();
  EXPECT_FALSE(trace::IsEnabled());

  const std::vector<trace::ThreadTrace> threads = trace::Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  const trace::ThreadTrace& t = threads[0];
  EXPECT_EQ(t.name, "recorder-test");
  EXPECT_EQ(t.dropped, 0u);
  ASSERT_EQ(t.events.size(), 3u);
  EXPECT_EQ(t.events[0].phase, trace::Phase::kBegin);
  EXPECT_STREQ(t.events[0].name, "op");
  EXPECT_EQ(t.events[0].flow, 7u);
  EXPECT_EQ(t.events[0].arg, 3u);
  EXPECT_EQ(t.events[1].phase, trace::Phase::kInstant);
  EXPECT_EQ(t.events[2].phase, trace::Phase::kEnd);
  EXPECT_LE(t.events[0].ts_ns, t.events[1].ts_ns);
  EXPECT_LE(t.events[1].ts_ns, t.events[2].ts_ns);
}

TEST_F(TraceRecorderTest, RingWrapKeepsNewestAndCountsDropped) {
  // 1 KiB / 32-byte events = 32 slots, clamped up to the 64-slot minimum.
  trace::Start(1);
  constexpr uint32_t kEmitted = 200;
  for (uint32_t i = 0; i < kEmitted; ++i) {
    trace::Emit(trace::Phase::kInstant, "wrap", 0, i);
  }
  trace::Stop();

  const std::vector<trace::ThreadTrace> threads = trace::Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  const trace::ThreadTrace& t = threads[0];
  ASSERT_EQ(t.events.size(), 64u);
  EXPECT_EQ(t.dropped, kEmitted - 64u);
  // Drop-oldest: the tail is the most recent 64 events, oldest first.
  for (size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(t.events[i].arg, kEmitted - 64u + i);
  }
}

TEST_F(TraceRecorderTest, SpanEmitsBalancedBeginEnd) {
  trace::Start(64);
  {
    trace::Span span("scoped", /*flow=*/11, /*arg=*/2);
    trace::Emit(trace::Phase::kInstant, "inside");
  }
  trace::Stop();
  const std::vector<trace::ThreadTrace> threads = trace::Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), 3u);
  EXPECT_EQ(threads[0].events[0].phase, trace::Phase::kBegin);
  EXPECT_EQ(threads[0].events[0].flow, 11u);
  EXPECT_EQ(threads[0].events[2].phase, trace::Phase::kEnd);
  EXPECT_STREQ(threads[0].events[2].name, "scoped");
}

TEST_F(TraceRecorderTest, SpanConstructedWhileDisabledStaysSilent) {
  {
    trace::Span span("never");
    // Enabling mid-scope must not make the destructor emit a dangling End.
    trace::Start(64);
  }
  trace::Stop();
  for (const trace::ThreadTrace& t : trace::Snapshot()) {
    EXPECT_TRUE(t.events.empty());
  }
}

TEST_F(TraceRecorderTest, EachThreadGetsItsOwnRing) {
  trace::Start(64);
  telemetry::ThreadScope scope("main");
  trace::Emit(trace::Phase::kInstant, "from-main");
  std::thread helper([] {
    telemetry::ThreadScope helper_scope("helper");
    trace::Emit(trace::Phase::kInstant, "from-helper");
    trace::Emit(trace::Phase::kInstant, "from-helper");
  });
  helper.join();
  trace::Stop();

  const std::vector<trace::ThreadTrace> threads = trace::Snapshot();
  ASSERT_EQ(threads.size(), 2u);
  std::map<std::string, size_t> events_by_name;
  for (const trace::ThreadTrace& t : threads) {
    events_by_name[t.name] = t.events.size();
  }
  EXPECT_EQ(events_by_name["main"], 1u);
  EXPECT_EQ(events_by_name["helper"], 2u);
}

TEST_F(TraceRecorderTest, ResetDropsRecordedEvents) {
  trace::Start(64);
  trace::Emit(trace::Phase::kInstant, "kept-until-reset");
  trace::Stop();
  EXPECT_FALSE(trace::Snapshot().empty());  // Stop() preserves the rings
  trace::Reset();
  EXPECT_TRUE(trace::Snapshot().empty());

  // The thread re-registers after Reset: a fresh Start records again.
  trace::Start(64);
  trace::Emit(trace::Phase::kInstant, "after-reset");
  trace::Stop();
  const std::vector<trace::ThreadTrace> threads = trace::Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), 1u);
  EXPECT_STREQ(threads[0].events[0].name, "after-reset");
}

TEST_F(TraceRecorderTest, NextFlowIdIsUniqueAndNonZero) {
  const uint64_t a = trace::NextFlowId();
  const uint64_t b = trace::NextFlowId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

class TraceSerializerTest : public TraceRecorderTest {};

TEST_F(TraceSerializerTest, SerializeParseRoundTrip) {
  trace::Start(64);
  telemetry::ThreadScope scope("serializer");
  {
    trace::Span span("mine", /*flow=*/0, /*arg=*/5);
    trace::Emit(trace::Phase::kFlowEnd, "segment", 255);
  }
  { trace::Span span("route", /*flow=*/255, /*arg=*/3); }
  trace::Emit(trace::Phase::kFlowBegin, "segment", 255);
  trace::Emit(trace::Phase::kInstant, "mark", 0, 9);
  trace::Stop();

  const std::string json = trace::SerializeChromeTrace(trace::Snapshot());
  std::string error;
  EXPECT_TRUE(trace::ValidateChromeTraceJson(json, &error)) << error;
  const auto parsed = trace::ParseChromeTraceJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  size_t begins = 0, ends = 0;
  std::set<std::string> metadata_names;
  bool saw_flow_begin = false, saw_flow_end = false, saw_instant = false;
  for (const trace::ParsedTraceEvent& e : *parsed) {
    switch (e.ph) {
      case 'B':
        ++begins;
        // A span's flow and arg survive as args.flow / args.arg.
        if (e.name == "mine") {
          EXPECT_EQ(e.arg, 5u);
          EXPECT_EQ(e.flow, 0u);
        } else {
          EXPECT_EQ(e.name, "route");
          EXPECT_EQ(e.arg, 3u);
          EXPECT_EQ(e.flow, 255u);
        }
        break;
      case 'E': ++ends; break;
      case 'M': metadata_names.insert(e.arg_name); break;
      case 'i': saw_instant = true; EXPECT_EQ(e.name, "mark"); break;
      case 's':
        saw_flow_begin = true;
        EXPECT_EQ(e.cat, "flow");
        EXPECT_EQ(e.id, "0xff");  // flow ids serialize as hex strings
        break;
      case 'f':
        saw_flow_end = true;
        EXPECT_EQ(e.id, "0xff");
        break;
      default: break;
    }
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_TRUE(metadata_names.count("serializer"));  // thread_name metadata
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_flow_begin);
  EXPECT_TRUE(saw_flow_end);
}

TEST_F(TraceSerializerTest, UnbalancedBeginIsClosedAtSnapshotEnd) {
  trace::Start(64);
  trace::Emit(trace::Phase::kBegin, "left-open");
  trace::Emit(trace::Phase::kInstant, "tick");
  trace::Stop();

  std::string error;
  const auto parsed = trace::ParseChromeTraceJson(
      trace::SerializeChromeTrace(trace::Snapshot()), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  size_t begins = 0, ends = 0;
  for (const trace::ParsedTraceEvent& e : *parsed) {
    if (e.ph == 'B') ++begins;
    if (e.ph == 'E') ++ends;
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, begins) << "serializer must close unbalanced spans";
}

TEST_F(TraceSerializerTest, ValidateRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(trace::ValidateChromeTraceJson("not json at all", &error));
  EXPECT_FALSE(error.empty());

  error.clear();
  EXPECT_FALSE(trace::ValidateChromeTraceJson("{\"traceEvents\": 3}", &error));
  EXPECT_FALSE(error.empty());

  // An event missing required fields (ts/pid/tid) must be rejected.
  error.clear();
  EXPECT_FALSE(trace::ValidateChromeTraceJson(
      "{\"traceEvents\": [{\"ph\": \"B\", \"name\": \"x\"}]}", &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(TraceSerializerTest, WriteChromeTraceProducesValidFile) {
  trace::Start(64);
  trace::Emit(trace::Phase::kInstant, "persisted");
  trace::Stop();
  const std::string path = ::testing::TempDir() + "/trace_write_test.json";
  ASSERT_TRUE(trace::WriteChromeTrace(path));
  std::string error;
  EXPECT_TRUE(trace::ValidateChromeTraceJson(ReadFile(path), &error)) << error;
  std::remove(path.c_str());
}

// Named without "Trace" so the TSan job's suite filter (which cannot run
// death tests) does not pick it up.
TEST(CrashDumpDeathTest, FatalSignalWritesFlightRecorderBlackBox) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "/crash_black_box.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        trace::Start(64);
        telemetry::ThreadScope scope("doomed");
        trace::Emit(trace::Phase::kInstant, "crash-imminent");
        obs::InstallCrashHandler(path);
        std::raise(SIGABRT);
      },
      "fatal signal");

  // The dying child wrote its flight recorder before re-raising.
  const std::string dump = ReadFile(path);
  ASSERT_FALSE(dump.empty());
  std::string error;
  EXPECT_TRUE(trace::ValidateChromeTraceJson(dump, &error)) << error;
  EXPECT_NE(dump.find("crash-imminent"), std::string::npos);
  // The one crash writer always adds the profiler's state.
  EXPECT_NE(dump.find("\"profiler\""), std::string::npos);
  std::remove(path.c_str());
}

// A thread whose ring allocation fails dies with std::bad_alloc outside any
// handler, so std::terminate aborts without unwinding. The black box must
// still be written: the ring is allocated before the registry lock is taken,
// so the crash handler's Snapshot() does not wait on a lock the dead thread
// holds. The limit on the address space makes the 256 MiB ring fail.
TEST(CrashDumpDeathTest, FailedRingAllocationStillWritesBlackBox) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "an address-space limit starves the sanitizer's allocator";
#endif
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "/ring_alloc_black_box.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        trace::Start(/*ring_kb=*/256 * 1024);
        obs::InstallCrashHandler(path);
        std::thread doomed([] {
          // Registers the thread (and its malloc arena) under no limit.
          telemetry::ThreadScope scope("doomed");
          size_t vm_pages = 0;
          std::ifstream("/proc/self/statm") >> vm_pages;
          const rlim_t vm_bytes =
              static_cast<rlim_t>(vm_pages) * sysconf(_SC_PAGESIZE);
          const rlimit limit{vm_bytes + (64 << 20), RLIM_INFINITY};
          setrlimit(RLIMIT_AS, &limit);
          trace::Emit(trace::Phase::kInstant, "ring-attach");
        });
        doomed.join();
      },
      "bad_alloc.*fatal signal");

  const std::string dump = ReadFile(path);
  ASSERT_FALSE(dump.empty());
  std::string error;
  EXPECT_TRUE(trace::ValidateChromeTraceJson(dump, &error)) << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fcp
