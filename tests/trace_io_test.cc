#include "io/trace_io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

namespace fcp {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fcp_trace_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  void WriteFile(const std::string& name, const std::string& contents) {
    std::ofstream out(Path(name), std::ios::binary);
    out << contents;
  }

  std::filesystem::path dir_;
};

std::vector<ObjectEvent> SampleEvents() {
  return {
      {0, 7, 100},
      {1, 8, 150},
      {0, 9, 200},
      {2, 7, -50},  // negative timestamps are legal (epoch-relative)
  };
}

TEST_F(TraceIoTest, ParseCsvEventBasics) {
  ObjectEvent event;
  ASSERT_TRUE(ParseCsvEvent("3,42,1000", ',', &event).ok());
  EXPECT_EQ(event, (ObjectEvent{3, 42, 1000}));
  ASSERT_TRUE(ParseCsvEvent(" 3 , 42 , -7 ", ',', &event).ok());
  EXPECT_EQ(event.time, -7);
  ASSERT_TRUE(ParseCsvEvent("3;42;5", ';', &event).ok());
  EXPECT_EQ(event.object, 42u);
}

TEST_F(TraceIoTest, ParseCsvEventRejectsGarbage) {
  ObjectEvent event;
  EXPECT_FALSE(ParseCsvEvent("1,2", ',', &event).ok());          // arity
  EXPECT_FALSE(ParseCsvEvent("1,2,3,4", ',', &event).ok());      // arity
  EXPECT_FALSE(ParseCsvEvent("a,2,3", ',', &event).ok());        // stream
  EXPECT_FALSE(ParseCsvEvent("1,-2,3", ',', &event).ok());       // object
  EXPECT_FALSE(ParseCsvEvent("1,2,3.5", ',', &event).ok());      // time
  EXPECT_FALSE(ParseCsvEvent("1,2,", ',', &event).ok());         // empty
  EXPECT_FALSE(ParseCsvEvent("99999999999,2,3", ',', &event).ok());  // ovfl
}

// Empty fields count toward the arity, a trailing one included, and an
// empty field in place is rejected by name.
TEST_F(TraceIoTest, ParseCsvEventCountsEmptyFields) {
  ObjectEvent event;
  EXPECT_EQ(ParseCsvEvent("1,2,3,", ',', &event).message(),
            "expected 3 fields, got 4 in '1,2,3,'");
  EXPECT_EQ(ParseCsvEvent("1,2,3,,", ',', &event).message(),
            "expected 3 fields, got 5 in '1,2,3,,'");
  EXPECT_EQ(ParseCsvEvent(",1,2", ',', &event).message(),
            "bad stream id ''");
  EXPECT_EQ(ParseCsvEvent("1,2,", ',', &event).message(),
            "bad timestamp ''");
  EXPECT_EQ(ParseCsvEvent("1;2;3;", ';', &event).message(),
            "expected 3 fields, got 4 in '1;2;3;'");
}

// A timestamp past INT64_MAX is an error, never a wrapped value: 2.5e19
// times ten-and-add wraps to a number that still looks in range.
TEST_F(TraceIoTest, ParseCsvEventRejectsTimestampOverflow) {
  ObjectEvent event;
  EXPECT_FALSE(ParseCsvEvent("1,2,25000000000000000000", ',', &event).ok());
  EXPECT_FALSE(ParseCsvEvent("1,2,18446744073709551616", ',', &event).ok());
  EXPECT_FALSE(ParseCsvEvent("1,2,9223372036854775808", ',', &event).ok());
  EXPECT_FALSE(ParseCsvEvent("1,2,-25000000000000000000", ',', &event).ok());
  // INT64_MIN is kMinTimestamp, the "no time yet" sentinel.
  EXPECT_FALSE(ParseCsvEvent("1,2,-9223372036854775808", ',', &event).ok());
  ASSERT_TRUE(ParseCsvEvent("1,2,9223372036854775807", ',', &event).ok());
  EXPECT_EQ(event.time, std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(ParseCsvEvent("1,2,-9223372036854775807", ',', &event).ok());
  EXPECT_EQ(event.time, -std::numeric_limits<int64_t>::max());
}

TEST_F(TraceIoTest, CsvRoundTrip) {
  const auto events = SampleEvents();
  ASSERT_TRUE(SaveCsvTrace(Path("t.csv"), events).ok());
  std::vector<ObjectEvent> loaded;
  ASSERT_TRUE(LoadCsvTrace(Path("t.csv"), CsvOptions{}, &loaded).ok());
  // Loader sorts by time.
  ASSERT_EQ(loaded.size(), events.size());
  EXPECT_EQ(loaded.front().time, -50);
  EXPECT_EQ(loaded.back().time, 200);
}

TEST_F(TraceIoTest, CsvSkipsCommentsAndBlanks) {
  WriteFile("c.csv",
            "# a comment\n"
            "\n"
            "0,1,10\n"
            "   \n"
            "# another\n"
            "1,2,20\n");
  std::vector<ObjectEvent> loaded;
  ASSERT_TRUE(LoadCsvTrace(Path("c.csv"), CsvOptions{}, &loaded).ok());
  EXPECT_EQ(loaded.size(), 2u);
}

TEST_F(TraceIoTest, CsvHeaderHandling) {
  WriteFile("h.csv", "stream,object,time_ms\n0,1,10\n");
  std::vector<ObjectEvent> loaded;
  ASSERT_TRUE(LoadCsvTrace(Path("h.csv"), CsvOptions{}, &loaded).ok());
  EXPECT_EQ(loaded.size(), 1u);

  CsvOptions strict;
  strict.allow_header = false;
  const Status status = LoadCsvTrace(Path("h.csv"), strict, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 1"), std::string::npos);
}

TEST_F(TraceIoTest, CsvErrorsNameTheLine) {
  WriteFile("bad.csv", "0,1,10\n0,1\n");
  std::vector<ObjectEvent> loaded;
  const Status status = LoadCsvTrace(Path("bad.csv"), CsvOptions{}, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos)
      << status.message();
}

TEST_F(TraceIoTest, CsvMissingFile) {
  std::vector<ObjectEvent> loaded;
  EXPECT_EQ(LoadCsvTrace(Path("nope.csv"), CsvOptions{}, &loaded).code(),
            StatusCode::kNotFound);
}

TEST_F(TraceIoTest, CsvUnsortedOptional) {
  WriteFile("u.csv", "0,1,300\n0,2,100\n");
  CsvOptions unsorted;
  unsorted.sort_events = false;
  std::vector<ObjectEvent> loaded;
  ASSERT_TRUE(LoadCsvTrace(Path("u.csv"), unsorted, &loaded).ok());
  EXPECT_EQ(loaded[0].time, 300);  // original order preserved
}

TEST_F(TraceIoTest, BinaryRoundTrip) {
  const auto events = SampleEvents();
  ASSERT_TRUE(SaveBinaryTrace(Path("t.fcpt"), events).ok());
  std::vector<ObjectEvent> loaded;
  ASSERT_TRUE(LoadBinaryTrace(Path("t.fcpt"), &loaded).ok());
  EXPECT_EQ(loaded, events);  // binary preserves exact order
}

TEST_F(TraceIoTest, BinaryEmptyTrace) {
  ASSERT_TRUE(SaveBinaryTrace(Path("e.fcpt"), {}).ok());
  std::vector<ObjectEvent> loaded = SampleEvents();
  ASSERT_TRUE(LoadBinaryTrace(Path("e.fcpt"), &loaded).ok());
  EXPECT_TRUE(loaded.empty());
}

TEST_F(TraceIoTest, BinaryRejectsBadMagic) {
  WriteFile("junk.fcpt", "NOPE0000000000000000");
  std::vector<ObjectEvent> loaded;
  EXPECT_EQ(LoadBinaryTrace(Path("junk.fcpt"), &loaded).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TraceIoTest, BinaryRejectsTruncation) {
  const auto events = SampleEvents();
  ASSERT_TRUE(SaveBinaryTrace(Path("t.fcpt"), events).ok());
  // Truncate the file mid-record.
  std::ifstream in(Path("t.fcpt"), std::ios::binary);
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  in.close();
  WriteFile("trunc.fcpt", buffer.substr(0, buffer.size() - 5));
  std::vector<ObjectEvent> loaded;
  EXPECT_EQ(LoadBinaryTrace(Path("trunc.fcpt"), &loaded).code(),
            StatusCode::kOutOfRange);
}

// A header whose count makes 16 + count * 20 wrap to the file size must be
// rejected as an error, not handed to reserve(): count = 2^62 + 1 wraps to
// exactly 36 bytes, the size of this file.
TEST_F(TraceIoTest, BinaryRejectsWrappingRecordCount) {
  const auto events = SampleEvents();
  ASSERT_TRUE(SaveBinaryTrace(Path("t.fcpt"), {events[0]}).ok());
  std::ifstream in(Path("t.fcpt"), std::ios::binary);
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(buffer.size(), 36u);
  const uint64_t count = (uint64_t{1} << 62) + 1;
  for (int i = 0; i < 8; ++i) {
    buffer[8 + i] = static_cast<char>(count >> (8 * i));
  }
  WriteFile("wrap.fcpt", buffer);
  std::vector<ObjectEvent> loaded;
  EXPECT_EQ(LoadBinaryTrace(Path("wrap.fcpt"), &loaded).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(loaded.empty());
}

TEST_F(TraceIoTest, BinaryRejectsWrongVersion) {
  const auto events = SampleEvents();
  ASSERT_TRUE(SaveBinaryTrace(Path("t.fcpt"), events).ok());
  std::ifstream in(Path("t.fcpt"), std::ios::binary);
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  in.close();
  buffer[4] = 99;  // bump version byte
  WriteFile("v.fcpt", buffer);
  std::vector<ObjectEvent> loaded;
  const Status status = LoadBinaryTrace(Path("v.fcpt"), &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST_F(TraceIoTest, DispatcherByExtension) {
  const auto events = SampleEvents();
  ASSERT_TRUE(SaveCsvTrace(Path("d.csv"), events).ok());
  ASSERT_TRUE(SaveBinaryTrace(Path("d.fcpt"), events).ok());
  std::vector<ObjectEvent> a, b;
  EXPECT_TRUE(LoadTrace(Path("d.csv"), &a).ok());
  EXPECT_TRUE(LoadTrace(Path("d.fcpt"), &b).ok());
  EXPECT_EQ(a.size(), events.size());
  EXPECT_EQ(b.size(), events.size());
  EXPECT_EQ(LoadTrace(Path("d.txt"), &a).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TraceIoTest, LargeRoundTripPreservesEverything) {
  std::vector<ObjectEvent> events;
  for (uint32_t i = 0; i < 10000; ++i) {
    events.push_back(ObjectEvent{i % 37, i * 7919u,
                                 static_cast<Timestamp>(i) * 13 - 5000});
  }
  ASSERT_TRUE(SaveBinaryTrace(Path("big.fcpt"), events).ok());
  std::vector<ObjectEvent> loaded;
  ASSERT_TRUE(LoadBinaryTrace(Path("big.fcpt"), &loaded).ok());
  EXPECT_EQ(loaded, events);
}

}  // namespace
}  // namespace fcp
