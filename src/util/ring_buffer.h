// Growable ring buffer (FIFO) with power-of-two capacity.
//
// Replaces std::deque on the hot path: a deque allocates and frees 512-byte
// blocks as the FIFO advances, which shows up as steady-state heap traffic.
// The ring only allocates when the live element count outgrows its capacity;
// a size-stable FIFO (a segmenter's window) performs zero allocations.

#ifndef FCP_UTIL_RING_BUFFER_H_
#define FCP_UTIL_RING_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"

namespace fcp {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;

  void push_back(T value) {
    if (size_ == data_.size()) Grow();
    data_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    FCP_DCHECK(size_ > 0);
    data_[head_] = T{};  // drop payload resources eagerly
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  T& front() {
    FCP_DCHECK(size_ > 0);
    return data_[head_];
  }
  const T& front() const {
    FCP_DCHECK(size_ > 0);
    return data_[head_];
  }

  /// Element `i` positions behind the front (0 == front).
  const T& at(size_t i) const {
    FCP_DCHECK(i < size_);
    return data_[(head_ + i) & mask_];
  }
  T& at(size_t i) {
    FCP_DCHECK(i < size_);
    return data_[(head_ + i) & mask_];
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The contents as (up to) two contiguous spans: `first_span()` runs from
  /// the front to the end of the backing array, `second_span()` holds the
  /// wrapped remainder (empty when the live range is contiguous). Consumers
  /// that copy the whole FIFO (the Segmenter emitting a window) use these to
  /// bulk-copy instead of iterating element-wise.
  std::span<const T> first_span() const {
    const size_t first = std::min(size_, data_.size() - head_);
    return std::span<const T>(data_.data() + head_, first);
  }
  std::span<const T> second_span() const {
    const size_t first = std::min(size_, data_.size() - head_);
    return std::span<const T>(data_.data(), size_ - first);
  }

  /// Drops every element (capacity is kept).
  void clear() {
    for (size_t i = 0; i < size_; ++i) {
      data_[(head_ + i) & mask_] = T{};
    }
    head_ = 0;
    size_ = 0;
  }

  /// Bytes held by the backing array.
  size_t MemoryUsage() const {
    return data_.capacity() * sizeof(T) + sizeof(*this);
  }

 private:
  void Grow() {
    const size_t new_capacity = data_.empty() ? 16 : data_.size() * 2;
    std::vector<T> grown(new_capacity);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(data_[(head_ + i) & mask_]);
    }
    data_ = std::move(grown);
    head_ = 0;
    mask_ = new_capacity - 1;
  }

  std::vector<T> data_;
  size_t head_ = 0;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace fcp

#endif  // FCP_UTIL_RING_BUFFER_H_
