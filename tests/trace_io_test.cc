#include "io/trace_io.h"

#include <sys/stat.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>
#include <thread>

#include <gtest/gtest.h>

#include "io/chunk_reader.h"
#include "util/rng.h"

namespace fcp {
namespace {

// The getline-based loaders that the chunked reader replaced, kept verbatim
// as the oracle the mutation tests below compare against: every input must
// give the same events, or the same Status code and message.
namespace oracle {

void SortEvents(std::vector<ObjectEvent>* events) {
  std::sort(events->begin(), events->end(),
            [](const ObjectEvent& a, const ObjectEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.stream != b.stream) return a.stream < b.stream;
              return a.object < b.object;
            });
}

bool ParseU32(const std::string& field, uint32_t* out) {
  if (field.empty()) return false;
  uint64_t value = 0;
  for (char ch : field) {
    if (ch < '0' || ch > '9') return false;
    value = value * 10 + static_cast<uint64_t>(ch - '0');
    if (value > std::numeric_limits<uint32_t>::max()) return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

bool ParseI64(const std::string& field, int64_t* out) {
  if (field.empty()) return false;
  size_t i = 0;
  bool negative = false;
  if (field[0] == '-') {
    negative = true;
    i = 1;
    if (field.size() == 1) return false;
  }
  constexpr uint64_t kMax = std::numeric_limits<int64_t>::max();
  uint64_t value = 0;
  for (; i < field.size(); ++i) {
    const char ch = field[i];
    if (ch < '0' || ch > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(ch - '0');
    if (value > (kMax - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = negative ? -static_cast<int64_t>(value) : static_cast<int64_t>(value);
  return true;
}

std::string Trimmed(std::string s) {
  while (!s.empty() && (s.back() == '\r' || s.back() == ' ' ||
                        s.back() == '\t')) {
    s.pop_back();
  }
  size_t start = 0;
  while (start < s.size() && (s[start] == ' ' || s[start] == '\t')) ++start;
  return s.substr(start);
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

int64_t GetI64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return static_cast<int64_t>(v);
}

Status ParseCsvEvent(const std::string& line, char delimiter,
                     ObjectEvent* event) {
  std::vector<std::string> fields;
  for (size_t from = 0;;) {
    const size_t at = line.find(delimiter, from);
    fields.push_back(Trimmed(line.substr(from, at - from)));
    if (at == std::string::npos) break;
    from = at + 1;
  }
  if (fields.size() != 3) {
    return Status::InvalidArgument("expected 3 fields, got " +
                                   std::to_string(fields.size()) + " in '" +
                                   line + "'");
  }
  uint32_t stream_id = 0, object_id = 0;
  int64_t time = 0;
  if (!ParseU32(fields[0], &stream_id)) {
    return Status::InvalidArgument("bad stream id '" + fields[0] + "'");
  }
  if (!ParseU32(fields[1], &object_id)) {
    return Status::InvalidArgument("bad object id '" + fields[1] + "'");
  }
  if (!ParseI64(fields[2], &time)) {
    return Status::InvalidArgument("bad timestamp '" + fields[2] + "'");
  }
  *event = ObjectEvent{stream_id, object_id, time};
  return Status::OK();
}

Status LoadCsvTrace(const std::string& path, const CsvOptions& options,
                    std::vector<ObjectEvent>* events) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  events->clear();
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = Trimmed(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    ObjectEvent event;
    const Status status = ParseCsvEvent(trimmed, options.delimiter, &event);
    if (!status.ok()) {
      if (line_number == 1 && options.allow_header) continue;  // header
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + status.message());
    }
    events->push_back(event);
  }
  if (options.sort_events) SortEvents(events);
  return Status::OK();
}

Status LoadBinaryTrace(const std::string& path,
                       std::vector<ObjectEvent>* events) {
  constexpr size_t kRecordBytes = 20;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  if (buffer.size() < 16) {
    return Status::InvalidArgument("'" + path + "' too short for FCPT header");
  }
  if (std::memcmp(buffer.data(), "FCPT", 4) != 0) {
    return Status::InvalidArgument("'" + path + "' is not an FCPT trace");
  }
  const uint32_t version = GetU32(buffer.data() + 4);
  if (version != 1) {
    return Status::InvalidArgument("unsupported FCPT version " +
                                   std::to_string(version));
  }
  const int64_t count = GetI64(buffer.data() + 8);
  if (count < 0) {
    return Status::InvalidArgument("negative record count");
  }
  if (static_cast<uint64_t>(count) > (buffer.size() - 16) / kRecordBytes) {
    return Status::OutOfRange("'" + path + "': header claims " +
                              std::to_string(count) + " records, " +
                              std::to_string(buffer.size()) + " bytes present");
  }
  const size_t expected = 16 + static_cast<size_t>(count) * kRecordBytes;
  if (buffer.size() != expected) {
    return Status::OutOfRange("'" + path + "': expected " +
                              std::to_string(expected) + " bytes, got " +
                              std::to_string(buffer.size()));
  }
  events->clear();
  events->reserve(static_cast<size_t>(count));
  const char* p = buffer.data() + 16;
  for (int64_t i = 0; i < count; ++i, p += kRecordBytes) {
    events->push_back(ObjectEvent{GetU32(p), GetU32(p + 4), GetI64(p + 8)});
  }
  return Status::OK();
}

}  // namespace oracle

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

// --- ChunkReader -----------------------------------------------------------

// getline's split: '\n' ends a line, and text after the last '\n' is one
// more line.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t from = 0;
  for (size_t at; (at = text.find('\n', from)) != std::string::npos;) {
    lines.push_back(text.substr(from, at - from));
    from = at + 1;
  }
  if (from < text.size()) lines.push_back(text.substr(from));
  return lines;
}

std::vector<std::string> ReadLines(const std::string& path,
                                   size_t buffer_bytes) {
  ChunkReader reader(buffer_bytes);
  EXPECT_TRUE(reader.Open(path).ok());
  std::vector<std::string> lines;
  std::string_view line;
  while (reader.NextLine(&line)) lines.emplace_back(line);
  EXPECT_TRUE(reader.status().ok()) << reader.status();
  return lines;
}

TEST_F(TraceIoTest, ChunkReaderSplitsLinesAcrossRefills) {
  const std::string text =
      "a\nbb\n\n" + std::string(37, 'x') + "\r\nccc\n\n\ndddd";
  WriteFile("lines.txt", text);
  for (size_t buffer = 1; buffer <= 48; ++buffer) {
    EXPECT_EQ(ReadLines(Path("lines.txt"), buffer), SplitLines(text))
        << "buffer " << buffer;
  }
}

// A line longer than the buffer grows it to fit; nothing else does.
TEST_F(TraceIoTest, ChunkReaderGrowsOnlyForALineLongerThanTheBuffer) {
  std::string text;
  for (int i = 0; i < 200; ++i) text += "0,1,2\n";
  WriteFile("short.txt", text);
  {
    ChunkReader reader(16);
    ASSERT_TRUE(reader.Open(Path("short.txt")).ok());
    std::string_view line;
    while (reader.NextLine(&line)) EXPECT_EQ(line, "0,1,2");
    EXPECT_EQ(reader.buffer_bytes(), 16u);
  }
  WriteFile("long.txt", "1\n" + std::string(100, 'y') + "\n2\n");
  ChunkReader reader(16);
  ASSERT_TRUE(reader.Open(Path("long.txt")).ok());
  std::string_view line;
  ASSERT_TRUE(reader.NextLine(&line));
  EXPECT_EQ(line, "1");
  ASSERT_TRUE(reader.NextLine(&line));
  EXPECT_EQ(line, std::string(100, 'y'));
  ASSERT_TRUE(reader.NextLine(&line));
  EXPECT_EQ(line, "2");
  EXPECT_FALSE(reader.NextLine(&line));
  EXPECT_EQ(reader.buffer_bytes(), 128u);
}

TEST_F(TraceIoTest, ChunkReaderPeekRefillsToTheRequestedSize) {
  std::string bytes;
  for (int i = 0; i < 100; ++i) bytes.push_back(static_cast<char>(i));
  WriteFile("bytes.bin", bytes);
  ChunkReader reader(8);
  ASSERT_TRUE(reader.Open(Path("bytes.bin")).ok());
  EXPECT_EQ(reader.file_size(), 100u);
  std::string seen;
  for (;;) {
    const std::string_view window = reader.Peek(3);
    if (window.size() < 3) {
      seen.append(window);
      break;
    }
    seen.append(window.substr(0, 3));
    reader.Consume(3);
  }
  EXPECT_EQ(seen, bytes);
  EXPECT_TRUE(reader.status().ok());
}

TEST_F(TraceIoTest, ChunkReaderReportsOpenAndReadErrors) {
  ChunkReader missing;
  EXPECT_EQ(missing.Open(Path("nope.txt")),
            Status::NotFound("cannot open '" + Path("nope.txt") + "'"));
  // A directory opens but cannot be read; the loader must not mistake that
  // for an empty trace.
  std::vector<ObjectEvent> loaded;
  const Status status = LoadCsvTrace(dir_.string(), CsvOptions{}, &loaded);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
}

// --- Seeded mutation driver ------------------------------------------------
//
// Each mutant starts from a small valid trace and takes one to four seeded
// edits of the kinds real feeds and hand-edited files produce. The new
// loaders must agree with the oracle on every mutant: the same events, or
// the same Status code and message.

constexpr int kMutantsPerFormat = 10000;

// Shows a mutant in a failure message: escaped, and cut if long.
std::string Shown(const std::string& text) {
  std::string out;
  for (size_t i = 0; i < text.size() && i < 400; ++i) {
    const unsigned char ch = static_cast<unsigned char>(text[i]);
    if (ch == '\n') {
      out += "\\n";
    } else if (ch < 0x20 || ch >= 0x7f) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", ch);
      out += hex;
    } else {
      out.push_back(static_cast<char>(ch));
    }
  }
  if (text.size() > 400) out += "...(" + std::to_string(text.size()) + " B)";
  return out;
}

std::string Digits(Rng& rng, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out.push_back(static_cast<char>('0' + rng.Below(10)));
  return out;
}

// Half the traces are in (time, stream) order with objects unordered
// within a (time, stream) run, as a trace written segment by segment is;
// the loader sorts those runs only.
std::string BaseCsv(Rng& rng, char delimiter) {
  std::vector<ObjectEvent> events(rng.Below(24));
  for (ObjectEvent& event : events) {
    event = ObjectEvent{static_cast<StreamId>(rng.Below(3)),
                        static_cast<ObjectId>(rng.Below(1000)),
                        rng.Range(-5, 5)};
  }
  if (rng.Chance(0.5)) {
    std::stable_sort(events.begin(), events.end(),
                     [](const ObjectEvent& a, const ObjectEvent& b) {
                       return a.time != b.time ? a.time < b.time
                                               : a.stream < b.stream;
                     });
  }
  std::string out;
  if (rng.Chance(0.5)) {
    char header[32];
    std::snprintf(header, sizeof(header), "stream%cobject%ctime_ms\n",
                  delimiter, delimiter);
    out += header;
  }
  for (const ObjectEvent& event : events) {
    switch (rng.Below(10)) {
      case 0:
        out += "# comment\n";
        break;
      case 1:
        out += "\n";
        break;
      default:
        break;
    }
    char row[64];
    const long long time = event.time;
    if (rng.Below(8) == 0) {  // padded fields and a CRLF ending
      std::snprintf(row, sizeof(row), " %u %c\t%u%c %lld \r\n", event.stream,
                    delimiter, event.object, delimiter, time);
    } else {
      std::snprintf(row, sizeof(row), "%u%c%u%c%lld\n", event.stream,
                    delimiter, event.object, delimiter, time);
    }
    out += row;
  }
  return out;
}

size_t LineStart(const std::string& text, size_t at) {
  if (at == 0) return 0;
  const size_t newline = text.rfind('\n', at - 1);
  return newline == std::string::npos ? 0 : newline + 1;
}

void MutateCsv(std::string* text, char delimiter, Rng& rng) {
  const size_t at = rng.Below(text->size() + 1);
  if (rng.Below(64) == 0) {  // a line longer than the reader's buffer
    const char fill = " 0\tx"[rng.Below(4)];
    text->insert(at, ChunkReader::kDefaultBufferBytes + rng.Below(70000),
                 fill);
    return;
  }
  switch (rng.Below(12)) {
    case 0:  // byte flip
      if (!text->empty()) {
        (*text)[rng.Below(text->size())] = static_cast<char>(rng.Below(256));
      }
      break;
    case 1:
      text->resize(rng.Below(text->size() + 1));
      break;
    case 2:
      text->insert(at, 1, '\r');
      break;
    case 3:
      text->insert(at, 1, '\0');
      break;
    case 4:
      text->insert(at, 1, delimiter);
      break;
    case 5:
      text->insert(at, 1, rng.Chance(0.5) ? '-' : '+');
      break;
    case 6:
      text->insert(at, Digits(rng, 20));
      break;
    case 7:
      text->insert(LineStart(*text, at), "stream,object,time_ms\n");
      break;
    case 8:
      text->insert(LineStart(*text, at), "# note, 1,2,3\n");
      break;
    case 9:
      if (!text->empty() && text->back() == '\n') text->pop_back();
      break;
    case 10:
      text->insert(at, 1, rng.Chance(0.5) ? ' ' : '\t');
      break;
    default:
      text->insert(at, 1, '\n');
      break;
  }
}

TEST_F(TraceIoTest, CsvMutantsMatchTheGetlineLoader) {
  Rng rng(0x5eed'c5f1);
  const std::string path = Path("mutant.csv");
  int failures = 0, long_lines = 0;
  for (int m = 0; m < kMutantsPerFormat; ++m) {
    const char delimiter = ",,,,,,,; \t"[rng.Below(10)];
    std::string text = BaseCsv(rng, delimiter);
    for (uint64_t k = 1 + rng.Below(4); k > 0; --k) {
      MutateCsv(&text, delimiter, rng);
    }
    WriteFile("mutant.csv", text);
    CsvOptions options;
    options.delimiter = delimiter;
    options.allow_header = rng.Below(4) != 0;
    options.sort_events = rng.Below(4) != 0;
    std::vector<ObjectEvent> want = {{9, 9, 9}}, got = want;
    const Status want_status = oracle::LoadCsvTrace(path, options, &want);
    const Status got_status = LoadCsvTrace(path, options, &got);
    ASSERT_EQ(got_status, want_status) << "mutant " << m << ": " << Shown(text);
    ASSERT_EQ(got, want) << "mutant " << m << ": " << Shown(text);
    // Sized once by the counting pass, whatever the parse then made of it.
    const size_t newlines =
        static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
    ASSERT_EQ(got.capacity(), newlines + 1)
        << "mutant " << m << ": " << Shown(text);
    failures += !want_status.ok();

    const std::vector<std::string> lines = SplitLines(text);
    for (const std::string& line : lines) {
      long_lines += line.size() > ChunkReader::kDefaultBufferBytes;
      ObjectEvent want_event{7, 7, 7}, got_event = want_event;
      ASSERT_EQ(ParseCsvEvent(line, delimiter, &got_event),
                oracle::ParseCsvEvent(line, delimiter, &want_event))
          << Shown(line);
      ASSERT_EQ(got_event, want_event) << Shown(line);
    }
    // Refill boundaries land everywhere with a small buffer.
    ASSERT_EQ(ReadLines(path, 1 + rng.Below(32)), lines)
        << "mutant " << m << ": " << Shown(text);
    // Each mutant goes to a new file: a file truncated and written again is
    // flushed to disk on close by some file systems (ext4's auto_da_alloc),
    // which would make the driver wait on the disk.
    std::filesystem::remove(path);
  }
  // The mix exercises both outcomes and the overlong lines.
  EXPECT_GT(failures, kMutantsPerFormat / 10);
  EXPECT_LT(failures, kMutantsPerFormat * 9 / 10);
  EXPECT_GT(long_lines, 50);
}

void PutLe(std::string* out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(value >> (8 * i)));
  }
}

std::string BaseFcpt(Rng& rng) {
  const uint64_t count = rng.Below(12);
  std::string out = "FCPT";
  PutLe(&out, 1, 4);
  PutLe(&out, count, 8);
  for (uint64_t i = 0; i < count; ++i) {
    PutLe(&out, rng.Below(5), 4);
    PutLe(&out, rng.Next(), 4);
    PutLe(&out, rng.Next(), 8);
    PutLe(&out, 0, 4);
  }
  return out;
}

void SetCount(std::string* bytes, uint64_t count) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[8 + i] = static_cast<char>(count >> (8 * i));
  }
}

void MutateFcpt(std::string* bytes, Rng& rng) {
  const bool framed = bytes->size() >= 16 && (bytes->size() - 16) % 20 == 0;
  switch (rng.Below(10)) {
    case 0:  // byte flip anywhere
      if (!bytes->empty()) {
        (*bytes)[rng.Below(bytes->size())] = static_cast<char>(rng.Below(256));
      }
      break;
    case 1:  // byte flip in the header
      if (!bytes->empty()) {
        (*bytes)[rng.Below(std::min<size_t>(bytes->size(), 16))] =
            static_cast<char>(rng.Below(256));
      }
      break;
    case 2:
      bytes->resize(rng.Below(bytes->size() + 1));
      break;
    case 3:
      bytes->insert(rng.Below(bytes->size() + 1), 1 + rng.Below(25),
                    static_cast<char>(rng.Below(256)));
      break;
    case 4:
      bytes->append(1 + rng.Below(45), '\0');
      break;
    case 5:
      if (bytes->size() >= 16) {  // a count that lies
        const int64_t counts[] = {-1,
                                  std::numeric_limits<int64_t>::min(),
                                  std::numeric_limits<int64_t>::max(),
                                  (int64_t{1} << 62) + 1,
                                  static_cast<int64_t>(rng.Below(16)),
                                  static_cast<int64_t>(rng.Next())};
        SetCount(bytes, static_cast<uint64_t>(counts[rng.Below(6)]));
      }
      break;
    case 6:
      if (bytes->size() >= 8) (*bytes)[4 + rng.Below(4)] ^= 1;  // version
      break;
    case 7:  // payload flip: still a valid trace
      if (bytes->size() > 16) {
        (*bytes)[16 + rng.Below(bytes->size() - 16)] =
            static_cast<char>(rng.Below(256));
      }
      break;
    case 8:  // one more record, count kept in step
      if (framed) {
        bytes->append(20, static_cast<char>(rng.Below(256)));
        SetCount(bytes, (bytes->size() - 16) / 20);
      }
      break;
    default:  // one record fewer, count kept in step
      if (framed && bytes->size() > 16) {
        bytes->resize(bytes->size() - 20);
        SetCount(bytes, (bytes->size() - 16) / 20);
      }
      break;
  }
}

TEST_F(TraceIoTest, FcptMutantsMatchTheWholeFileLoader) {
  Rng rng(0x5eed'fc97);
  const std::string path = Path("mutant.fcpt");
  int failures = 0;
  for (int m = 0; m < kMutantsPerFormat; ++m) {
    std::string bytes = BaseFcpt(rng);
    for (uint64_t k = 1 + rng.Below(3); k > 0; --k) MutateFcpt(&bytes, rng);
    WriteFile("mutant.fcpt", bytes);
    std::vector<ObjectEvent> want = {{9, 9, 9}}, got = want;
    const Status want_status = oracle::LoadBinaryTrace(path, &want);
    const Status got_status = LoadBinaryTrace(path, &got);
    ASSERT_EQ(got_status, want_status) << "mutant " << m << ": "
                                       << Shown(bytes);
    ASSERT_EQ(got, want) << "mutant " << m << ": " << Shown(bytes);
    failures += !want_status.ok();
    std::filesystem::remove(path);  // a new file per mutant, as above
  }
  EXPECT_GT(failures, kMutantsPerFormat / 10);
  EXPECT_LT(failures, kMutantsPerFormat * 9 / 10);
}

// Records straddle the reader's refills: 64 KiB is no multiple of 20 B.
TEST_F(TraceIoTest, FcptRecordsAcrossRefillsMatchTheOracle) {
  std::vector<ObjectEvent> events;
  for (uint32_t i = 0; i < 20000; ++i) {
    events.push_back(ObjectEvent{i % 5, i * 2654435761u,
                                 static_cast<Timestamp>(i) * -7});
  }
  ASSERT_TRUE(SaveBinaryTrace(Path("big.fcpt"), events).ok());
  std::vector<ObjectEvent> want, got;
  ASSERT_TRUE(oracle::LoadBinaryTrace(Path("big.fcpt"), &want).ok());
  ASSERT_TRUE(LoadBinaryTrace(Path("big.fcpt"), &got).ok());
  EXPECT_EQ(got, want);
  EXPECT_EQ(got, events);
  EXPECT_EQ(got.capacity(), events.size());  // reserved from the header
}

// CountRemaining reads the rest of the file through the same buffer, and
// Rewind starts it over without reopening or regrowing.
TEST_F(TraceIoTest, ChunkReaderCountsThenRewinds) {
  const std::string text = "a\nbb\n\n" + std::string(37, 'x') + "\r\nccc\n\nd";
  WriteFile("count.txt", text);
  for (size_t buffer = 1; buffer <= 48; ++buffer) {
    ChunkReader reader(buffer);
    ASSERT_TRUE(reader.Open(Path("count.txt")).ok());
    EXPECT_TRUE(reader.seekable());
    std::string_view line;
    ASSERT_TRUE(reader.NextLine(&line));  // counting starts mid-file too
    const size_t held = reader.buffer_bytes();
    EXPECT_EQ(reader.CountRemaining('\n'), 5u) << "buffer " << buffer;
    EXPECT_FALSE(reader.NextLine(&line));
    ASSERT_TRUE(reader.Rewind().ok());
    EXPECT_EQ(reader.buffer_bytes(), held);  // counting never grows it
    std::vector<std::string> lines;
    while (reader.NextLine(&line)) lines.emplace_back(line);
    EXPECT_TRUE(reader.status().ok());
    EXPECT_EQ(lines, SplitLines(text)) << "buffer " << buffer;
  }
}

// A regular CSV file is counted first and the vector allocated once: the
// capacity is the file's '\n' count plus one, so the slack is at most the
// skipped lines plus one. `skipped` counts header, comment and blank lines.
void ExpectOneAllocation(const std::string& text,
                         const std::vector<ObjectEvent>& loaded,
                         size_t skipped) {
  const size_t newlines =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(loaded.capacity(), newlines + 1) << Shown(text);
  EXPECT_LE(loaded.capacity() - loaded.size(), skipped + 1) << Shown(text);
}

TEST_F(TraceIoTest, CsvLoadSizesTheVectorOnce) {
  struct Case {
    const char* name;
    std::string text;
    size_t events;
    size_t skipped;
  };
  const Case cases[] = {
      {"no_final_newline.csv", "0,1,10\n1,2,20\n2,3,30", 3, 0},
      {"header_comments.csv",
       "stream,object,time_ms\n# a comment\n\n0,1,10\n   \n1,2,20\n# end\n",
       2, 5},
      {"crlf.csv", "stream,object,time_ms\r\n0,1,10\r\n1,2,20\r\n", 2, 1},
      {"empty.csv", "", 0, 0},
  };
  for (const Case& c : cases) {
    WriteFile(c.name, c.text);
    std::vector<ObjectEvent> loaded;
    ASSERT_TRUE(LoadCsvTrace(Path(c.name), CsvOptions{}, &loaded).ok())
        << c.name;
    EXPECT_EQ(loaded.size(), c.events) << c.name;
    ExpectOneAllocation(c.text, loaded, c.skipped);
  }
}

// A caller's vector that already holds more keeps its buffer: the load
// reserves, it never shrinks.
TEST_F(TraceIoTest, CsvLoadKeepsALargerCallerCapacity) {
  WriteFile("small.csv", "0,1,10\n1,2,20\n");
  std::vector<ObjectEvent> loaded(5, ObjectEvent{9, 9, 9});
  loaded.reserve(1000);
  const ObjectEvent* data = loaded.data();
  ASSERT_TRUE(LoadCsvTrace(Path("small.csv"), CsvOptions{}, &loaded).ok());
  EXPECT_EQ(loaded, (std::vector<ObjectEvent>{{0, 1, 10}, {1, 2, 20}}));
  EXPECT_EQ(loaded.capacity(), 1000u);
  EXPECT_EQ(loaded.data(), data);
}

// A FIFO cannot be read twice: a counting pass would consume the events the
// parse needs. The loader reads it once, growing the vector, and must give
// what the plain file gives. The writer is a thread, so the trace (larger
// than a pipe's buffer) streams through while the loader reads.
TEST_F(TraceIoTest, CsvFromAFifoLoadsTheSameEventsAsTheFile) {
  std::string text = "stream,object,time_ms\r\n# fed through a pipe\n";
  for (uint32_t i = 0; i < 20000; ++i) {
    text += std::to_string(i % 13) + "," + std::to_string(i * 7919 % 3001) +
            "," + std::to_string(i / 3) + (i % 5 == 0 ? "\r\n" : "\n");
  }
  text += "13,1,99999";  // no final newline
  WriteFile("plain.csv", text);
  std::vector<ObjectEvent> want;
  ASSERT_TRUE(LoadTrace(Path("plain.csv"), &want).ok());
  ASSERT_EQ(want.size(), 20001u);

  const std::string fifo = Path("pipe.csv");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  // A loader that stopped reading early must fail the comparison below,
  // not kill the test with SIGPIPE.
  const auto old_handler = std::signal(SIGPIPE, SIG_IGN);
  const auto feed = [&] {
    return std::thread([&] {
      std::ofstream out(fifo, std::ios::binary);
      out << text;
    });
  };

  // No ASSERT while a writer runs: returning early would leave it unjoined.
  std::thread writer = feed();
  {
    ChunkReader reader;
    EXPECT_TRUE(reader.Open(fifo).ok());
    EXPECT_FALSE(reader.seekable());
    std::vector<std::string> lines;
    std::string_view line;
    while (reader.NextLine(&line)) lines.emplace_back(line);
    EXPECT_EQ(lines, SplitLines(text));
  }
  writer.join();

  writer = feed();
  std::vector<ObjectEvent> got;
  const Status status = LoadTrace(fifo, &got);
  writer.join();
  std::signal(SIGPIPE, old_handler);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace fcp
