// Reads a file front to back through one bounded buffer, for the trace
// loaders: CSV pulls lines from it, FCPT pulls packed records.
//
// The buffer is allocated once (64 KiB by default) and refilled in place, so
// loading a trace of any length holds one buffer, never the whole file, and
// makes no allocation per line or record. Lines and records come back as
// views into the buffer; a view stays valid until the next NextLine, Peek or
// Consume call. A line longer than the buffer is the one case that grows it:
// the buffer doubles until the line fits, so the bound is the larger of the
// initial size and the longest line.
//
// A regular file can be read twice: CountRemaining takes a first pass over
// it through the same buffer, and Rewind seeks back to its first byte. A
// pipe or FIFO cannot (a first pass would consume it), so seekable() tells
// the caller which it has.

#ifndef FCP_IO_CHUNK_READER_H_
#define FCP_IO_CHUNK_READER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace fcp {

class ChunkReader {
 public:
  static constexpr size_t kDefaultBufferBytes = 64 * 1024;

  explicit ChunkReader(size_t buffer_bytes = kDefaultBufferBytes);
  ~ChunkReader();

  ChunkReader(const ChunkReader&) = delete;
  ChunkReader& operator=(const ChunkReader&) = delete;

  /// Opens `path` for reading. NotFound("cannot open '<path>'") on failure.
  Status Open(const std::string& path);

  /// Size of the open file in bytes, as the file system reports it.
  uint64_t file_size() const { return file_size_; }

  /// True when the open file is a regular file, which Rewind can read again
  /// from the start; false for a pipe or FIFO.
  bool seekable() const { return seekable_; }

  /// Reads the rest of the file and returns how many of its bytes equal
  /// `byte`, leaving nothing unconsumed. A read error ends the count early
  /// (then status() says which).
  uint64_t CountRemaining(char byte);

  /// Seeks back to the first byte and empties the buffer, which keeps its
  /// size, so the next call reads the file again from the start. Internal
  /// when the seek fails; call it only on a seekable() file.
  Status Rewind();

  /// The next line, without its '\n'; the last line may lack one. Returns
  /// false at end of file or on a read error (then status() says which).
  bool NextLine(std::string_view* line);

  /// The unconsumed bytes, refilled first so that at least `n` of them are
  /// there; fewer only at end of file or on a read error.
  std::string_view Peek(size_t n);

  /// Drops the first `n` unconsumed bytes (n <= Peek's size).
  void Consume(size_t n) { begin_ += n; }

  /// OK, or the read error that ended NextLine or shortened Peek.
  const Status& status() const { return status_; }

  /// Bytes currently held by the buffer.
  size_t buffer_bytes() const { return capacity_; }

 private:
  size_t available() const { return end_ - begin_; }
  // Reads until at least `n` bytes are unconsumed, the file ends or a read
  // fails, moving the unconsumed bytes to the front (and growing the buffer
  // if `n` exceeds it) first when they would not fit.
  void Fill(size_t n);

  int fd_ = -1;
  std::string path_;
  uint64_t file_size_ = 0;
  bool seekable_ = false;
  std::unique_ptr<char[]> buffer_;
  size_t capacity_;
  size_t begin_ = 0;    // first unconsumed byte
  size_t end_ = 0;      // one past the last byte read
  size_t scanned_ = 0;  // NextLine: bytes past begin_ known to hold no '\n'
  bool eof_ = false;
  Status status_;
};

}  // namespace fcp

#endif  // FCP_IO_CHUNK_READER_H_
