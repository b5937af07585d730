// Slab arena + free-list object pool for hot-path node recycling.
//
// The Seg-tree creates and frees runs (unary paths of the tree) on the
// steady-state path; going through the global allocator for each costs a
// malloc/free pair and scatters runs across the heap. ObjectPool<T> carves
// objects out of large slabs (cache-friendly, one allocation per slab) and
// recycles released objects through a free list WITHOUT destroying them:
// a recycled object keeps the heap capacity of its member vectors, so reusing
// it performs no allocation at all once the pool is warm. Callers reset the
// object's logical fields on acquire (see SegTree::NewRun).
//
// Slabs are never returned to the OS while the pool lives; MemoryUsage()
// reports the full slab footprint so the Fig. 5 memory accounting cannot
// silently undercount arena-backed structures.

#ifndef FCP_UTIL_ARENA_H_
#define FCP_UTIL_ARENA_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace fcp {

/// Pool counters (surfaced through SegTreeStats / benches).
struct ObjectPoolStats {
  uint64_t objects_constructed = 0;  ///< placement-new slots ever created
  uint64_t objects_recycled = 0;     ///< acquires served from the free list
  uint64_t slabs_allocated = 0;
};

/// A typed slab pool. T must be default-constructible; released objects stay
/// constructed (their destructor runs only when the pool is destroyed), which
/// is what lets vector members keep their capacity across recycling.
template <typename T>
class ObjectPool {
 public:
  explicit ObjectPool(size_t objects_per_slab = 256)
      : per_slab_(objects_per_slab > 0 ? objects_per_slab : 1) {}

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  ~ObjectPool() {
    // Every slot in [0, bump_) of the last slab and every slot of the
    // earlier slabs was placement-constructed exactly once; destroy them all
    // (free-listed objects included — they are still constructed).
    for (size_t s = 0; s < slabs_.size(); ++s) {
      const size_t constructed = s + 1 < slabs_.size() ? per_slab_ : bump_;
      for (size_t i = 0; i < constructed; ++i) Slot(s, i)->~T();
    }
  }

  /// Returns a constructed object: recycled from the free list when
  /// possible (no heap traffic), freshly placement-constructed in the
  /// current slab otherwise. The caller owns resetting its logical state.
  T* Acquire() {
    // T may be incomplete where ObjectPool<T> members are declared; check
    // here, where completeness is required anyway.
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned pool elements are not supported");
    if (!free_.empty()) {
      T* object = free_.back();
      free_.pop_back();
      ++stats_.objects_recycled;
      return object;
    }
    if (slabs_.empty() || bump_ == per_slab_) {
      slabs_.push_back(std::make_unique<std::byte[]>(per_slab_ * sizeof(T)));
      bump_ = 0;
      ++stats_.slabs_allocated;
    }
    T* object = new (Slot(slabs_.size() - 1, bump_)) T();
    ++bump_;
    ++stats_.objects_constructed;
    return object;
  }

  /// Returns an object to the free list. It must have come from Acquire()
  /// and must not be used again until re-acquired.
  void Release(T* object) { free_.push_back(object); }

  /// Objects currently handed out (constructed minus free-listed).
  size_t live() const {
    return static_cast<size_t>(stats_.objects_constructed) - free_.size();
  }

  /// Bytes held by the slabs (the pool's true footprint: recycled and
  /// never-used slots count too).
  size_t SlabBytes() const {
    return slabs_.size() * per_slab_ * sizeof(T);
  }

  /// Bytes of the free-list bookkeeping.
  size_t FreeListBytes() const { return free_.capacity() * sizeof(T*); }

  const ObjectPoolStats& stats() const { return stats_; }

 private:
  T* Slot(size_t slab, size_t index) {
    return reinterpret_cast<T*>(slabs_[slab].get() + index * sizeof(T));
  }

  size_t per_slab_;
  size_t bump_ = 0;  // next unconstructed slot in the last slab
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<T*> free_;
  ObjectPoolStats stats_;
};

/// Slab arena for power-of-two-capacity arrays of a trivially copyable T,
/// recycled through per-capacity-class free lists.
///
/// This is what makes steady-state churn allocation-free even though node
/// fan-out varies: a released array goes back to the free list of its size
/// class, so the NEXT node that needs that capacity — whichever node that is
/// — reuses it. Capacity lives in the pool keyed by size, not parked on
/// whichever object happened to grow first (vectors embedded in pooled
/// objects converge only per-object, which takes unboundedly long when
/// object roles shuffle).
template <typename T>
class ChunkArena {
  static_assert(std::is_trivially_copyable_v<T>,
                "chunks are moved with memcpy and never destroyed");
  static_assert(alignof(T) <= alignof(std::max_align_t));

 public:
  explicit ChunkArena(size_t slab_bytes = 64 * 1024)
      : slab_bytes_(slab_bytes > 0 ? slab_bytes : 1) {}

  ChunkArena(const ChunkArena&) = delete;
  ChunkArena& operator=(const ChunkArena&) = delete;

  /// Returns an uninitialized array of (1 << capacity_class) elements.
  T* Acquire(uint32_t capacity_class) {
    auto& free_list = free_[capacity_class];
    if (!free_list.empty()) {
      T* chunk = free_list.back();
      free_list.pop_back();
      return chunk;
    }
    const size_t bytes = (size_t{1} << capacity_class) * sizeof(T);
    if (slabs_.empty() || current_slab_bytes_ - bump_ < bytes) {
      // Oversized requests get a dedicated slab; offsets stay multiples of
      // sizeof(T) because every chunk is a power-of-two multiple of it.
      const size_t capacity = std::max(slab_bytes_, bytes);
      slabs_.push_back(std::make_unique<std::byte[]>(capacity));
      total_slab_bytes_ += capacity;
      current_slab_bytes_ = capacity;
      bump_ = 0;
    }
    T* chunk = reinterpret_cast<T*>(slabs_.back().get() + bump_);
    bump_ += bytes;
    return chunk;
  }

  /// Returns a chunk obtained from Acquire(capacity_class) to its free list.
  void Release(T* chunk, uint32_t capacity_class) {
    auto& free_list = free_[capacity_class];
    const size_t capacity = free_list.capacity();
    free_list.push_back(chunk);
    free_list_bytes_ += (free_list.capacity() - capacity) * sizeof(T*);
  }

  /// Bytes held by the slabs (live, free-listed and never-used space alike).
  size_t SlabBytes() const { return total_slab_bytes_; }

  /// Bytes of the free-list bookkeeping: a running total, so reading it is
  /// O(1) (the engines publish it after every batch).
  size_t FreeListBytes() const { return free_list_bytes_; }

  /// FreeListBytes() recounted from the lists themselves.
  size_t CountFreeListBytes() const {
    size_t bytes = 0;
    for (const auto& free_list : free_) {
      bytes += free_list.capacity() * sizeof(T*);
    }
    return bytes;
  }

 private:
  static constexpr size_t kNumClasses = 32;

  size_t slab_bytes_;
  size_t current_slab_bytes_ = 0;
  size_t bump_ = 0;  // next free byte in the last slab
  size_t total_slab_bytes_ = 0;
  size_t free_list_bytes_ = 0;  // sum of the free lists' capacities, in bytes
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::array<std::vector<T*>, kNumClasses> free_;
};

/// A vector whose backing array lives in a ChunkArena. Deliberately dumb:
/// trivially copyable/destructible (so it can sit inside ObjectPool-managed
/// nodes), no automatic cleanup — the owner calls Reset() to hand the chunk
/// back to the arena, and every growing operation takes the arena
/// explicitly. Capacity is always 0 or a power of two.
template <typename T>
struct PooledVec {
  T* data = nullptr;
  uint32_t count = 0;
  uint32_t capacity = 0;

  size_t size() const { return count; }
  bool empty() const { return count == 0; }

  T* begin() { return data; }
  T* end() { return data + count; }
  const T* begin() const { return data; }
  const T* end() const { return data + count; }

  T& operator[](size_t i) { return data[i]; }
  const T& operator[](size_t i) const { return data[i]; }
  T& back() { return data[count - 1]; }
  const T& back() const { return data[count - 1]; }

  void push_back(const T& value, ChunkArena<T>& arena) {
    if (count == capacity) Grow(arena);
    data[count++] = value;
  }

  void pop_back() { --count; }

  /// Inserts `value` before element `i`, preserving order.
  void insert_at(size_t i, const T& value, ChunkArena<T>& arena) {
    if (count == capacity) Grow(arena);
    std::copy_backward(data + i, data + count, data + count + 1);
    data[i] = value;
    ++count;
  }

  /// Removes element `i`, preserving order (the arrays are tiny).
  void erase_at(size_t i) {
    std::copy(data + i + 1, data + count, data + i);
    --count;
  }

  void clear() { count = 0; }

  /// Grows the capacity to at least `n` in one step.
  void reserve(size_t n, ChunkArena<T>& arena) {
    if (n > capacity) {
      MoveToClass(static_cast<uint32_t>(std::bit_width(n - 1)), arena);
    }
  }

  /// Drops every element from index `n` on (n <= size()).
  void truncate(size_t n) { count = static_cast<uint32_t>(n); }

  /// Returns the chunk to the arena; the vec is empty afterwards.
  void Reset(ChunkArena<T>& arena) {
    if (data != nullptr) {
      arena.Release(data, ClassOf(capacity));
      data = nullptr;
    }
    count = 0;
    capacity = 0;
  }

 private:
  static uint32_t ClassOf(uint32_t cap) {
    return static_cast<uint32_t>(std::countr_zero(cap));
  }

  void Grow(ChunkArena<T>& arena) {
    MoveToClass(capacity == 0 ? 0 : ClassOf(capacity) + 1, arena);
  }

  void MoveToClass(uint32_t new_class, ChunkArena<T>& arena) {
    T* fresh = arena.Acquire(new_class);
    std::copy(data, data + count, fresh);
    if (data != nullptr) arena.Release(data, ClassOf(capacity));
    data = fresh;
    capacity = uint32_t{1} << new_class;
  }
};

}  // namespace fcp

#endif  // FCP_UTIL_ARENA_H_
