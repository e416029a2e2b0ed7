#include "scheduling/arena.hpp"

#include <algorithm>

#include "obs/registry.hpp"

namespace qbss::scheduling {

namespace {

/// First block size. Big enough that a burst of small solves never
/// grows more than once; small enough that idle worker threads don't
/// pin meaningful memory.
constexpr std::size_t kMinBlock = 64 * 1024;

}  // namespace

void* SolveArena::raw_alloc(std::size_t bytes, std::size_t align) {
  // Keep n == 0 allocations distinct and non-null by rounding them up
  // to one aligned unit; callers never dereference them.
  if (bytes == 0) bytes = align;
  for (;;) {
    while (block_ < blocks_.size()) {
      Block& b = blocks_[block_];
      const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
      if (aligned + bytes <= b.size) {
        offset_ = aligned + bytes;
        return b.data.get() + aligned;
      }
      // Exhausted: move on (later blocks are at least twice as large,
      // so a request that fit nowhere triggers exactly one growth).
      ++block_;
      offset_ = 0;
    }
    grow(bytes + align);
  }
}

void SolveArena::grow(std::size_t at_least) {
  std::size_t size = blocks_.empty() ? kMinBlock : blocks_.back().size * 2;
  size = std::max(size, at_least);
  Block b;
  // alloc() hands out uninitialized storage, so the block is not zeroed.
  b.data = std::make_unique_for_overwrite<unsigned char[]>(size);
  b.size = size;
  blocks_.push_back(std::move(b));
  ++growths_;
  QBSS_COUNT("solver.alloc.count");
  QBSS_COUNT_ADD("solver.alloc.bytes", size);
}

SolveArena& solve_arena() {
  thread_local SolveArena arena;
  return arena;
}

}  // namespace qbss::scheduling
