#include "io/chunk_reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace fcp {

ChunkReader::ChunkReader(size_t buffer_bytes)
    : capacity_(std::max<size_t>(buffer_bytes, 1)) {}

ChunkReader::~ChunkReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status ChunkReader::Open(const std::string& path) {
  path_ = path;
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) return Status::NotFound("cannot open '" + path + "'");
  struct stat info {};
  if (::fstat(fd_, &info) == 0) {
    file_size_ = static_cast<uint64_t>(info.st_size);
    seekable_ = S_ISREG(info.st_mode);
  }
  buffer_ = std::make_unique<char[]>(capacity_);
  return Status::OK();
}

void ChunkReader::Fill(size_t n) {
  // Callers fill only to complete a line or record, so what moves is less
  // than one of them.
  if (n > capacity_) {
    size_t grown = capacity_;
    while (grown < n) grown *= 2;
    auto bigger = std::make_unique<char[]>(grown);
    std::memcpy(bigger.get(), buffer_.get() + begin_, available());
    buffer_ = std::move(bigger);
    capacity_ = grown;
  } else if (begin_ > 0) {
    std::memmove(buffer_.get(), buffer_.get() + begin_, available());
  }
  end_ -= begin_;
  begin_ = 0;
  while (available() < n && !eof_) {
    const ssize_t got = ::read(fd_, buffer_.get() + end_, capacity_ - end_);
    if (got > 0) {
      end_ += static_cast<size_t>(got);
    } else if (got == 0) {
      eof_ = true;
    } else if (errno != EINTR) {
      status_ = Status::Internal("cannot read '" + path_ +
                                 "': " + std::strerror(errno));
      eof_ = true;
    }
  }
}

bool ChunkReader::NextLine(std::string_view* line) {
  for (;;) {
    const char* start = buffer_.get() + begin_;
    const size_t held = available();
    if (scanned_ < held) {
      const void* newline =
          std::memchr(start + scanned_, '\n', held - scanned_);
      if (newline != nullptr) {
        const size_t length = static_cast<const char*>(newline) - start;
        *line = std::string_view(start, length);
        begin_ += length + 1;
        scanned_ = 0;
        return true;
      }
      scanned_ = held;
    }
    if (eof_) {
      if (!status_.ok() || held == 0) return false;
      *line = std::string_view(start, held);  // last line, no '\n'
      begin_ = end_;
      scanned_ = 0;
      return true;
    }
    Fill(held + 1);
  }
}

uint64_t ChunkReader::CountRemaining(char byte) {
  uint64_t count = 0;
  for (;;) {
    const char* start = buffer_.get() + begin_;
    count += static_cast<uint64_t>(
        std::count(start, start + available(), byte));
    begin_ = end_ = scanned_ = 0;
    if (eof_) return count;
    Fill(1);
  }
}

Status ChunkReader::Rewind() {
  if (::lseek(fd_, 0, SEEK_SET) != 0) {
    return Status::Internal("cannot rewind '" + path_ +
                            "': " + std::strerror(errno));
  }
  begin_ = end_ = scanned_ = 0;
  eof_ = false;
  return Status::OK();
}

std::string_view ChunkReader::Peek(size_t n) {
  if (available() < n) Fill(n);
  return std::string_view(buffer_.get() + begin_, available());
}

}  // namespace fcp
