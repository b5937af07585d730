// Bounded producer/consumer buffer between stream ingestion and mining —
// the "buffer queue with 5000 storage units" of the paper's maximum
// sustainable workload experiment (Fig. 8).

#ifndef FCP_STREAM_BOUNDED_QUEUE_H_
#define FCP_STREAM_BOUNDED_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "prof/prof.h"

namespace fcp {

/// Thread-safe bounded FIFO.
///
/// Storage is a fixed ring of `capacity` slots allocated once at
/// construction — the queue never touches the heap again, so steady-state
/// traffic through every pipeline queue is allocation-free by construction
/// (a deque would allocate and free blocks as the FIFO advances). `T` must
/// be default-constructible and move-assignable.
///
/// `TryPush` fails (returns false) when the queue is full — the paper's
/// harness uses this to detect saturation: once the producer can no longer
/// enqueue at the offered arrival rate, the workload is unsustainable.
/// `Push` blocks on a condition variable until space frees up, so lossless
/// producers exert backpressure without burning a core. `PushAll` and
/// `PopBatch` are the chunked forms of `Push` and `Pop`: one lock round trip
/// per chunk, and one wake-up of the other side per chunk. `Close()` wakes
/// everyone; `Pop` returns nullopt, and `PopBatch` 0, once closed and
/// drained.
///
/// Off-CPU profiling: the optional wait tags name this queue's block points
/// to fcp::prof (`wait;<tag>` pseudo stacks). `pop_wait_tag` covers
/// consumer-side empty waits (Pop, PopBatch), `push_wait_tag`
/// covers producer-side full waits, i.e. backpressure (Push/PushAll). Tags
/// must have static storage duration. When the profiler is not armed the
/// instrumentation costs one relaxed load on paths that were about to
/// block anyway; non-blocking fast paths are untouched.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity, const char* pop_wait_tag = nullptr,
                        const char* push_wait_tag = nullptr)
      : capacity_(capacity),
        slots_(capacity),
        pop_wait_tag_(pop_wait_tag),
        push_wait_tag_(push_wait_tag) {
    FCP_CHECK(capacity > 0);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking push; returns false if the queue is full or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || count_ >= capacity_) return false;
      PlaceLocked(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocking push: waits (condition variable, no spinning) until the queue
  /// has space or is closed. Returns false iff the queue was closed before
  /// the item could be enqueued.
  bool Push(T item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!closed_ && count_ >= capacity_) {
        prof::WaitTimer wait(push_wait_tag_);
        space_cv_.wait(lock, [&] { return closed_ || count_ < capacity_; });
      }
      if (closed_) return false;
      PlaceLocked(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocking bulk push: enqueues `*items` in order, taking the lock once
  /// per admitted chunk instead of once per item (waits for space between
  /// chunks like Push). `*items` is left cleared — elements are moved out,
  /// its capacity is retained for the caller's next batch. Returns the
  /// number of items enqueued; less than items->size() only if the queue
  /// was closed mid-batch (the remainder is dropped with the clear,
  /// mirroring Push's false-on-closed contract).
  size_t PushAll(std::vector<T>* items) {
    size_t pushed = 0;
    const size_t n = items->size();
    while (pushed < n) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (!closed_ && count_ >= capacity_) {
          prof::WaitTimer wait(push_wait_tag_);
          space_cv_.wait(lock,
                         [&] { return closed_ || count_ < capacity_; });
        }
        if (closed_) break;
        while (pushed < n && count_ < capacity_) {
          PlaceLocked(std::move((*items)[pushed]));
          ++pushed;
        }
      }
      // A chunk can satisfy many waiting consumers; wake them all.
      cv_.notify_all();
    }
    items->clear();
    return pushed;
  }

  /// Blocking pop. Returns nullopt when the queue is closed and empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!closed_ && count_ == 0) {
      prof::WaitTimer wait(pop_wait_tag_);
      cv_.wait(lock, [&] { return closed_ || count_ > 0; });
    }
    return PopLockedOrNull(lock);
  }

  /// Non-blocking pop; nullopt if currently empty (even if not closed).
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mu_);
    return PopLockedOrNull(lock);
  }

  /// Bulk pop: replaces `*out` with up to `max` items from the front, in
  /// FIFO order, taken under one lock; `*out` keeps its capacity, so a
  /// caller that reserves `max` once pops without allocating. It never
  /// waits for a batch to fill: with `wait` it blocks (like Pop) only while
  /// the queue is empty and open, then takes whatever is queued. One
  /// notification per batch wakes the producers blocked on a full queue.
  /// Returns the number of items popped: 0 iff the queue was empty (and,
  /// with `wait`, closed).
  size_t PopBatch(std::vector<T>* out, size_t max, bool wait) {
    FCP_DCHECK(max > 0);
    out->clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (wait && !closed_ && count_ == 0) {
        prof::WaitTimer wait_timer(pop_wait_tag_);
        cv_.wait(lock, [&] { return closed_ || count_ > 0; });
      }
      const size_t n = std::min(count_, max);
      for (size_t i = 0; i < n; ++i) out->push_back(TakeFrontLocked());
    }
    // The batch may have freed room for every blocked producer.
    if (!out->empty()) space_cv_.notify_all();
    return out->size();
  }

  /// Marks the queue closed; producers fail, consumers drain then see eof.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    space_cv_.notify_all();
  }

  /// Current occupancy (racy snapshot; used for Fig. 8 sampling).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  /// Alias of size() under the telemetry vocabulary (queue *depth*).
  size_t depth() const { return size(); }

  /// Deepest occupancy ever reached — the paper's saturation signal: a
  /// high watermark pinned at capacity means the producer outran mining.
  /// Tracked under the push lock, so it costs nothing extra on the hot path.
  size_t high_watermark() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_watermark_;
  }

  size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  /// Writes `item` into the tail slot under the lock.
  void PlaceLocked(T item) {
    size_t tail = head_ + count_;
    if (tail >= capacity_) tail -= capacity_;
    slots_[tail] = std::move(item);
    ++count_;
    if (count_ > high_watermark_) high_watermark_ = count_;
  }

  /// Removes and returns the front item; the queue must be non-empty. The
  /// vacated slot is reset to T{} so resources (e.g. a SegmentRef's slab
  /// reference) are released at pop time, not when the slot is eventually
  /// overwritten.
  T TakeFrontLocked() {
    T item(std::move(slots_[head_]));
    slots_[head_] = T{};
    head_ = head_ + 1 < capacity_ ? head_ + 1 : 0;
    --count_;
    return item;
  }

  /// Pops the front under `lock` (empty -> nullopt), waking one blocked
  /// producer when an item was removed.
  std::optional<T> PopLockedOrNull(std::unique_lock<std::mutex>& lock) {
    if (count_ == 0) return std::nullopt;
    std::optional<T> item(TakeFrontLocked());
    lock.unlock();
    space_cv_.notify_one();
    return item;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< "item available or closed"
  std::condition_variable space_cv_;  ///< "space available or closed"
  std::vector<T> slots_;              ///< fixed ring, allocated once
  size_t head_ = 0;                   ///< index of the front element
  size_t count_ = 0;                  ///< live elements
  size_t high_watermark_ = 0;
  bool closed_ = false;
  const char* pop_wait_tag_ = nullptr;   ///< off-CPU tag: empty waits
  const char* push_wait_tag_ = nullptr;  ///< off-CPU tag: backpressure
};

}  // namespace fcp

#endif  // FCP_STREAM_BOUNDED_QUEUE_H_
