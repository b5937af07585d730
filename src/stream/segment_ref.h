// SegmentRef + SegmentPool: refcounted immutable segment storage, recycled
// through a size-classed pool.
//
// The sharded pipeline multicasts every completed segment to up to S shards,
// keeps it in the router's live set for migration backfill, and replays it
// index-only after each placement change. Holding `Segment` by value in
// ShardDelivery meant every one of those hops heap-copied the entry vector —
// at S=8 the router was the dominant allocator. A SegmentRef is an intrusive
// refcounted handle to a pool-owned slab: the Segmenter allocates (or
// recycles) the slab once, and every delivery, live-set entry and backfill
// just bumps a counter. When the last reference drops, the slab goes
// back to the pool's per-size-class freelist with its vector capacity intact,
// so a steady-state pipeline performs zero allocations per segment.
//
// Threading: SegmentRef copies/destructions are thread-safe (the refcount is
// atomic); the pool's freelists are mutex-guarded. The Segment payload is
// immutable once built.

#ifndef FCP_STREAM_SEGMENT_REF_H_
#define FCP_STREAM_SEGMENT_REF_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "stream/segment.h"

namespace fcp {

class SegmentPool;

namespace internal {

/// The pool's unit of storage: refcount + recycling metadata + the payload.
struct SegmentSlab {
  std::atomic<uint32_t> refs{1};
  uint32_t size_class = 0;       ///< freelist index (log2 of entry capacity)
  SegmentPool* pool = nullptr;   ///< null = plain heap slab (SegmentRef::Adopt)
  Segment segment;
};

}  // namespace internal

/// Shared, immutable handle to a pooled Segment. Copy = refcount increment;
/// destruction of the last handle returns the slab to its pool (or deletes
/// it for Adopt-ed slabs). A default-constructed ref is null.
class SegmentRef {
 public:
  SegmentRef() = default;

  SegmentRef(const SegmentRef& other) : slab_(other.slab_) {
    if (slab_ != nullptr) {
      slab_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  SegmentRef& operator=(const SegmentRef& other) {
    if (this != &other) {
      SegmentRef copy(other);
      std::swap(slab_, copy.slab_);
    }
    return *this;
  }

  SegmentRef(SegmentRef&& other) noexcept
      : slab_(std::exchange(other.slab_, nullptr)) {}

  SegmentRef& operator=(SegmentRef&& other) noexcept {
    if (this != &other) {
      reset();
      slab_ = std::exchange(other.slab_, nullptr);
    }
    return *this;
  }

  ~SegmentRef() { reset(); }

  /// Wraps a free-standing Segment in a heap-owned slab (no pool). For
  /// tests and drivers that build segments by hand.
  static SegmentRef Adopt(Segment segment);

  const Segment& operator*() const {
    FCP_DCHECK(slab_ != nullptr);
    return slab_->segment;
  }
  const Segment* operator->() const {
    FCP_DCHECK(slab_ != nullptr);
    return &slab_->segment;
  }
  const Segment* get() const {
    return slab_ != nullptr ? &slab_->segment : nullptr;
  }
  explicit operator bool() const { return slab_ != nullptr; }

  /// Drops this handle (releasing the slab if it was the last one).
  void reset();

  /// Number of live handles to this slab (racy unless externally quiesced).
  uint32_t use_count() const {
    return slab_ != nullptr ? slab_->refs.load(std::memory_order_relaxed) : 0;
  }
  bool unique() const { return use_count() == 1; }

 private:
  friend class SegmentPool;
  explicit SegmentRef(internal::SegmentSlab* slab) : slab_(slab) {}

  internal::SegmentSlab* slab_ = nullptr;
};

/// Pool activity counters (point-in-time snapshot under the pool mutex).
struct SegmentPoolStats {
  uint64_t slab_allocs = 0;     ///< Make() calls that had to heap-allocate
  uint64_t pool_hits = 0;       ///< Make() calls served from a freelist
  uint64_t recycled = 0;        ///< slabs returned to a freelist
  uint64_t recycled_bytes = 0;  ///< entry-capacity bytes kept warm by returns
  uint64_t live = 0;            ///< slabs currently out (>= 1 reference)
  uint64_t free = 0;            ///< slabs currently parked in freelists
};

/// Size-classed slab pool. Make() copies a window's entries into a recycled
/// (or fresh) slab and hands back the first reference. Thread-safe; slabs
/// may be released from any thread. The pool must outlive every reference it
/// produced (checked in the destructor).
class SegmentPool {
 public:
  /// `max_free_per_class` bounds each freelist; surplus slabs are deleted on
  /// release instead of parked.
  explicit SegmentPool(size_t max_free_per_class = 4096);
  ~SegmentPool();

  SegmentPool(const SegmentPool&) = delete;
  SegmentPool& operator=(const SegmentPool&) = delete;

  /// Builds a pooled segment from up to two contiguous entry spans (the two
  /// halves of a ring-buffered window; pass an empty `tail` for one span).
  SegmentRef Make(SegmentId id, StreamId stream,
                  std::span<const SegmentEntry> head,
                  std::span<const SegmentEntry> tail = {});

  SegmentPoolStats stats() const;

 private:
  friend class SegmentRef;

  /// Size class of a slab able to hold `n` entries: log2 of the (power of
  /// two) entry capacity, floored at 8 entries so tiny segments share one
  /// freelist.
  static uint32_t SizeClass(size_t n);

  /// Called by the last SegmentRef; parks or deletes the slab.
  void Release(internal::SegmentSlab* slab);

  const size_t max_free_per_class_;
  mutable std::mutex mu_;
  std::vector<std::vector<internal::SegmentSlab*>> free_;  ///< per size class
  SegmentPoolStats stats_;
};

inline void SegmentRef::reset() {
  internal::SegmentSlab* slab = std::exchange(slab_, nullptr);
  if (slab == nullptr) return;
  if (slab->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (slab->pool != nullptr) {
      slab->pool->Release(slab);
    } else {
      delete slab;
    }
  }
}

}  // namespace fcp

#endif  // FCP_STREAM_SEGMENT_REF_H_
