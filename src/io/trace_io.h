// Reading and writing multi-stream event traces, so the miners can run on
// external data (the paper's VPR feeds are exactly "stream_id, object_id,
// timestamp" records).
//
// Two formats:
//
//  - CSV: one event per line, `stream,object,time_ms`, optional header line,
//    '#' comments. Events may be unsorted; LoadCsvTrace sorts by time.
//  - FCPT binary: little-endian, magic "FCPT", version, count, then packed
//    (u32 stream, u32 object, i64 time) triples, ~4x smaller than CSV.
//
// Both loaders read through one bounded ChunkReader buffer (io/chunk_reader.h)
// and parse in place: no allocation per line or record, and peak memory does
// not grow with the file beyond the events themselves (DESIGN.md §2.10).
// Each allocates the event vector once: FCPT from its header's count, CSV
// from a first pass that counts the file's lines.
//
// All functions report failures via Status; none throw.

#ifndef FCP_IO_TRACE_IO_H_
#define FCP_IO_TRACE_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace fcp {

/// Options for CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  /// If true (default), a first line that does not parse as an event is
  /// treated as a header and skipped; if false, it is an error.
  bool allow_header = true;
  /// Sort events by (time, stream, object) after loading (the miners expect
  /// per-stream time order; a global sort guarantees it). A file already in
  /// (time, stream) order is only sorted within each (time, stream) run.
  bool sort_events = true;
};

/// Parses one CSV line into an event. Returns InvalidArgument with the
/// offending text on malformed input; builds no string otherwise. Exposed
/// for tests.
Status ParseCsvEvent(std::string_view line, char delimiter,
                     ObjectEvent* event);

/// Loads a CSV trace from `path`. On success fills `events` (replacing its
/// contents). A regular file is read twice: the first pass counts its '\n'
/// bytes, and the vector is reserved once for that many lines plus one (a
/// larger capacity the caller gave it is kept). A pipe or FIFO is read once
/// and the vector grows as events arrive.
Status LoadCsvTrace(const std::string& path, const CsvOptions& options,
                    std::vector<ObjectEvent>* events);

/// Writes `events` as CSV with a `stream,object,time_ms` header.
Status SaveCsvTrace(const std::string& path,
                    const std::vector<ObjectEvent>& events);

/// Loads a binary FCPT trace. Validates magic, version and length; corrupt
/// or truncated files produce InvalidArgument/OutOfRange, never UB.
Status LoadBinaryTrace(const std::string& path,
                       std::vector<ObjectEvent>* events);

/// Writes `events` in FCPT binary format.
Status SaveBinaryTrace(const std::string& path,
                       const std::vector<ObjectEvent>& events);

/// Convenience dispatcher: ".csv" -> CSV, ".fcpt" -> binary, otherwise
/// InvalidArgument.
Status LoadTrace(const std::string& path, std::vector<ObjectEvent>* events);

}  // namespace fcp

#endif  // FCP_IO_TRACE_IO_H_
