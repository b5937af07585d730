#include "io/trace_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>

#include "io/chunk_reader.h"

namespace fcp {

namespace {

constexpr char kMagic[4] = {'F', 'C', 'P', 'T'};
constexpr uint32_t kVersion = 1;
// 20 bytes per packed event: u32 stream, u32 object, i64 time, with 4 bytes
// of explicit padding reserved (kept zero) for forward compatibility.
constexpr size_t kRecordBytes = 20;

// Sorts by (time, stream, object). A trace written segment by segment is
// already in (time, stream) order and only needs each (time, stream) run
// put in object order; one linear check finds out, and a fully sorted file
// costs just that check and one pass over its runs.
void SortEvents(std::vector<ObjectEvent>* events) {
  const auto same_run = [](const ObjectEvent& a, const ObjectEvent& b) {
    return a.time == b.time && a.stream == b.stream;
  };
  const auto before = [](const ObjectEvent& a, const ObjectEvent& b) {
    return a.time != b.time ? a.time < b.time : a.stream < b.stream;
  };
  const auto by_object = [](const ObjectEvent& a, const ObjectEvent& b) {
    return a.object < b.object;
  };
  if (!std::is_sorted(events->begin(), events->end(), before)) {
    std::sort(events->begin(), events->end(),
              [&](const ObjectEvent& a, const ObjectEvent& b) {
                return same_run(a, b) ? by_object(a, b) : before(a, b);
              });
    return;
  }
  for (auto run = events->begin(); run != events->end();) {
    auto end = run + 1;
    while (end != events->end() && same_run(*run, *end)) ++end;
    if (!std::is_sorted(run, end, by_object)) std::sort(run, end, by_object);
    run = end;
  }
}

// Parses a non-negative integer field; rejects garbage and overflow.
bool ParseU32(std::string_view field, uint32_t* out) {
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

bool ParseI64(std::string_view field, int64_t* out) {
  if (field.empty()) return false;
  bool negative = false;
  if (field[0] == '-') {
    negative = true;
    field.remove_prefix(1);
    if (field.empty()) return false;
  }
  // The magnitude is capped at INT64_MAX for both signs, so INT64_MIN
  // (kMinTimestamp, the "no time yet" sentinel) is rejected too.
  constexpr uint64_t kMax = std::numeric_limits<int64_t>::max();
  uint64_t value = 0;
  for (char ch : field) {
    if (ch < '0' || ch > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(ch - '0');
    // Tested before multiplying: value * 10 + digit > kMax.
    if (value > (kMax - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = negative ? -static_cast<int64_t>(value) : static_cast<int64_t>(value);
  return true;
}

// Strips trailing '\r', ' ' and '\t', then leading ' ' and '\t'.
std::string_view Trimmed(std::string_view s) {
  while (!s.empty() && (s.back() == '\r' || s.back() == ' ' ||
                        s.back() == '\t')) {
    s.remove_suffix(1);
  }
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  return s;
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI64(std::string* out, int64_t v) {
  const uint64_t u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(u >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

int64_t GetI64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return static_cast<int64_t>(v);
}

}  // namespace

Status ParseCsvEvent(std::string_view line, char delimiter,
                     ObjectEvent* event) {
  // Every delimiter ends a field, so empty fields count too, a trailing one
  // included.
  std::string_view fields[3];
  size_t count = 0;
  for (size_t from = 0;;) {
    const size_t at = line.find(delimiter, from);
    if (count < 3) fields[count] = Trimmed(line.substr(from, at - from));
    ++count;
    if (at == std::string_view::npos) break;
    from = at + 1;
  }
  if (count != 3) {
    return Status::InvalidArgument("expected 3 fields, got " +
                                   std::to_string(count) + " in '" +
                                   std::string(line) + "'");
  }
  uint32_t stream_id = 0, object_id = 0;
  int64_t time = 0;
  if (!ParseU32(fields[0], &stream_id)) {
    return Status::InvalidArgument("bad stream id '" + std::string(fields[0]) +
                                   "'");
  }
  if (!ParseU32(fields[1], &object_id)) {
    return Status::InvalidArgument("bad object id '" + std::string(fields[1]) +
                                   "'");
  }
  if (!ParseI64(fields[2], &time)) {
    return Status::InvalidArgument("bad timestamp '" + std::string(fields[2]) +
                                   "'");
  }
  *event = ObjectEvent{stream_id, object_id, time};
  return Status::OK();
}

Status LoadCsvTrace(const std::string& path, const CsvOptions& options,
                    std::vector<ObjectEvent>* events) {
  ChunkReader reader;
  Status status = reader.Open(path);
  if (!status.ok()) return status;
  events->clear();
  // A regular file is counted first, so the vector is allocated once at its
  // final size: every event sits on its own line, and the last line may
  // lack a '\n'. A pipe cannot be read twice and grows the vector instead.
  if (reader.seekable()) {
    const uint64_t newlines = reader.CountRemaining('\n');
    if (!reader.status().ok()) return reader.status();
    status = reader.Rewind();
    if (!status.ok()) return status;
    events->reserve(static_cast<size_t>(newlines) + 1);
  }
  std::string_view line;
  size_t line_number = 0;
  while (reader.NextLine(&line)) {
    ++line_number;
    line = Trimmed(line);
    if (line.empty() || line[0] == '#') continue;
    ObjectEvent event;
    status = ParseCsvEvent(line, options.delimiter, &event);
    if (!status.ok()) {
      if (line_number == 1 && options.allow_header) continue;  // header
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + status.message());
    }
    events->push_back(event);
  }
  if (!reader.status().ok()) return reader.status();
  if (options.sort_events) SortEvents(events);
  return Status::OK();
}

Status SaveCsvTrace(const std::string& path,
                    const std::vector<ObjectEvent>& events) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot write '" + path + "'");
  }
  out << "stream,object,time_ms\n";
  for (const ObjectEvent& event : events) {
    out << event.stream << ',' << event.object << ',' << event.time << '\n';
  }
  out.flush();
  if (!out) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

Status SaveBinaryTrace(const std::string& path,
                       const std::vector<ObjectEvent>& events) {
  std::string buffer;
  buffer.reserve(16 + events.size() * kRecordBytes);
  buffer.append(kMagic, sizeof(kMagic));
  PutU32(&buffer, kVersion);
  PutI64(&buffer, static_cast<int64_t>(events.size()));
  for (const ObjectEvent& event : events) {
    PutU32(&buffer, event.stream);
    PutU32(&buffer, event.object);
    PutI64(&buffer, event.time);
    PutU32(&buffer, 0);  // reserved
  }
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    return Status::Internal("cannot write '" + path + "'");
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out.flush();
  if (!out) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

Status LoadBinaryTrace(const std::string& path,
                       std::vector<ObjectEvent>* events) {
  ChunkReader reader;
  const Status status = reader.Open(path);
  if (!status.ok()) return status;
  const uint64_t size = reader.file_size();
  const std::string_view header = reader.Peek(16);
  if (!reader.status().ok()) return reader.status();
  if (size < 16 || header.size() < 16) {
    return Status::InvalidArgument("'" + path + "' too short for FCPT header");
  }
  if (std::memcmp(header.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path + "' is not an FCPT trace");
  }
  const uint32_t version = GetU32(header.data() + 4);
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported FCPT version " +
                                   std::to_string(version));
  }
  const int64_t count = GetI64(header.data() + 8);
  if (count < 0) {
    return Status::InvalidArgument("negative record count");
  }
  // Bound the count by the bytes present before multiplying: a crafted
  // header could otherwise wrap 16 + count * kRecordBytes to the real size.
  if (static_cast<uint64_t>(count) > (size - 16) / kRecordBytes) {
    return Status::OutOfRange("'" + path + "': header claims " +
                              std::to_string(count) + " records, " +
                              std::to_string(size) + " bytes present");
  }
  const uint64_t expected = 16 + static_cast<uint64_t>(count) * kRecordBytes;
  if (size != expected) {
    return Status::OutOfRange("'" + path + "': expected " +
                              std::to_string(expected) + " bytes, got " +
                              std::to_string(size));
  }
  reader.Consume(16);
  events->clear();
  events->reserve(static_cast<size_t>(count));
  for (size_t left = static_cast<size_t>(count); left > 0;) {
    const std::string_view window = reader.Peek(kRecordBytes);
    if (window.size() < kRecordBytes) {
      if (!reader.status().ok()) return reader.status();
      return Status::OutOfRange("'" + path + "' ended after " +
                                std::to_string(events->size()) + " of " +
                                std::to_string(count) + " records");
    }
    const size_t records = std::min(left, window.size() / kRecordBytes);
    const char* p = window.data();
    for (size_t i = 0; i < records; ++i, p += kRecordBytes) {
      events->push_back(ObjectEvent{GetU32(p), GetU32(p + 4), GetI64(p + 8)});
    }
    reader.Consume(records * kRecordBytes);
    left -= records;
  }
  return Status::OK();
}

Status LoadTrace(const std::string& path, std::vector<ObjectEvent>* events) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    return LoadCsvTrace(path, CsvOptions{}, events);
  }
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".fcpt") == 0) {
    return LoadBinaryTrace(path, events);
  }
  return Status::InvalidArgument(
      "unknown trace extension (want .csv or .fcpt): '" + path + "'");
}

}  // namespace fcp
