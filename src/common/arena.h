// Monotonic bump allocator for per-cycle scratch. The simulated servers
// build a batch (IO spans, service order, drained writes) at the top of
// every IO cycle and throw it away at the end; vector churn there was the
// last steady-state allocation source in the cycle engine. A CycleArena
// hands out trivially-destructible scratch with a pointer bump and
// recycles the whole block with Reset() — after a one-cycle warmup the
// hot loop performs zero heap allocations (asserted by cycle_alloc_test).

#ifndef MEMSTREAM_COMMON_ARENA_H_
#define MEMSTREAM_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace memstream {

/// Bump allocator with cycle-granular reuse. Alloc() pointers stay valid
/// until the next Reset(); blocks are never returned to the heap, so the
/// arena converges on the high-water footprint and stops allocating.
class CycleArena {
 public:
  CycleArena() = default;
  CycleArena(const CycleArena&) = delete;
  CycleArena& operator=(const CycleArena&) = delete;
  CycleArena(CycleArena&&) = default;
  CycleArena& operator=(CycleArena&&) = default;

  /// Uninitialized scratch for `n` elements of a trivially destructible
  /// type (the arena never runs destructors). Never returns null for
  /// n == 0 — a zero-length request yields a valid one-past pointer.
  template <typename T>
  T* Alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "CycleArena scratch is reclaimed without destructors");
    const std::size_t bytes = n * sizeof(T);
    std::size_t offset = Align(used_, alignof(T));
    if (offset + bytes > block_size_) {
      Grow(offset + bytes);
      offset = Align(used_, alignof(T));
    }
    used_ = offset + bytes;
    high_water_ = used_ > high_water_ ? used_ : high_water_;
    return reinterpret_cast<T*>(block_.get() + offset);
  }

  /// Recycles every outstanding allocation; capacity is kept. Blocks a
  /// mid-cycle spill parked to keep old pointers alive are released here,
  /// outside the hot loop.
  void Reset() {
    if (!parked_.empty()) parked_.clear();
    used_ = 0;
  }

  /// Largest byte footprint any cycle has needed so far.
  std::size_t high_water() const { return high_water_; }
  /// Starts the high-water mark afresh (a reused server's next run).
  void ResetHighWater() { high_water_ = used_; }
  /// Current backing-block size in bytes.
  std::size_t capacity() const { return block_size_; }

 private:
  static std::size_t Align(std::size_t offset, std::size_t alignment) {
    return (offset + alignment - 1) & ~(alignment - 1);
  }

  void Grow(std::size_t need) {
    // Mid-cycle spill: move to a block that holds the whole cycle's
    // scratch. Earlier allocations of this cycle must stay valid, so the
    // old block is parked until Reset() (its live pointers die there).
    std::size_t size = block_size_ == 0 ? 256 : block_size_;
    while (size < need) size *= 2;
    // Scratch is handed out uninitialized, so the block is not zeroed.
    auto bigger = std::make_unique_for_overwrite<std::byte[]>(size);
    if (block_ != nullptr && used_ > 0) {
      // Keep this cycle's prefix addressable: copy is unnecessary (the
      // callers still point into the old block), just retain it.
      parked_.push_back(std::move(block_));
    }
    block_ = std::move(bigger);
    block_size_ = size;
    used_ = Align(used_, alignof(std::max_align_t));
    // Allocations continue at `used_` in the new block; the prefix
    // [0, used_) is dead space for the remainder of this cycle. The next
    // Reset() starts the bigger block from zero, so a steady-state cycle
    // fits without growing again.
  }

  std::unique_ptr<std::byte[]> block_;
  std::vector<std::unique_ptr<std::byte[]>> parked_;  ///< pre-spill blocks
  std::size_t block_size_ = 0;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace memstream

#endif  // MEMSTREAM_COMMON_ARENA_H_
