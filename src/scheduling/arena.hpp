// SolveArena — a monotonic bump allocator for solver scratch memory.
//
// The YDS hot path needs a handful of scratch arrays per solve (the event
// grid, deadline-rank prefix sums, the occupancy sweep, the SoA instance
// view). Allocating them from the heap per solve dominates small solves
// and fragments large ones; the arena instead hands out pointers from
// preallocated blocks and rewinds in O(1). Blocks are retained across
// reset(), so a steady-state workload (the service worker re-solving
// similar-sized instances, or a bench loop) performs ZERO heap
// allocations after warm-up — the `solver.alloc.{bytes,count}` counters
// tick only when the arena actually grows, which is exactly what the
// zero-allocation tier-1 test asserts on.
//
// Only trivially-destructible types may live in the arena (nothing runs
// destructors on reset). Alignment is per-allocation, derived from T.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace qbss::scheduling {

/// Monotonic per-solve allocator. Not thread-safe; use one per thread
/// (see `solve_arena()` for the shared thread-local instance the solver
/// hot path uses).
class SolveArena {
 public:
  SolveArena() = default;
  SolveArena(const SolveArena&) = delete;
  SolveArena& operator=(const SolveArena&) = delete;

  /// Uninitialized storage for `n` objects of T. Never returns null;
  /// n == 0 yields a valid unique non-null pointer (never dereferenced).
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is rewound, never destroyed");
    return static_cast<T*>(raw_alloc(n * sizeof(T), alignof(T)));
  }

  /// Rewinds the cursor to empty. Retained blocks are reused by later
  /// allocations, so a reset-allocate cycle of the same shape touches
  /// the heap zero times.
  void reset() noexcept {
    block_ = 0;
    offset_ = 0;
  }

  /// Total bytes of block storage owned (the high-water footprint).
  [[nodiscard]] std::size_t capacity() const noexcept {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  /// Heap allocations performed over the arena's lifetime (growth
  /// events, not alloc<T> calls).
  [[nodiscard]] std::uint64_t growths() const noexcept { return growths_; }

  /// Frees every block (the footprint drops to zero). Test support;
  /// steady-state code never calls this.
  void release() noexcept {
    blocks_.clear();
    reset();
  }

 private:
  struct Block {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
  };

  void* raw_alloc(std::size_t bytes, std::size_t align);
  void grow(std::size_t at_least);

  std::vector<Block> blocks_;
  std::size_t block_ = 0;   ///< index of the block currently bumping
  std::size_t offset_ = 0;  ///< bump cursor within blocks_[block_]
  std::uint64_t growths_ = 0;
};

/// The thread-local arena the solver hot path allocates from. One solve
/// resets and refills it; concurrent solves on different threads get
/// independent arenas. Consecutive solves on one thread reuse it, so a
/// service worker pays the warm-up once per process lifetime.
[[nodiscard]] SolveArena& solve_arena();

}  // namespace qbss::scheduling
