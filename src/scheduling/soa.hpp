// SoaInstance — a structure-of-arrays view of an Instance.
//
// `Instance` stores jobs as an array of structs, which is the right
// shape for building and mutating instances but the wrong shape for the
// solver's sweeps: the critical-interval search reads all releases, then
// all deadlines, then all works, and AoS strides waste two thirds of
// every cache line. SoaInstance copies the three fields once into
// contiguous arena-backed arrays; the solver then iterates each array
// linearly.
//
// The view borrows its storage from a SolveArena: it is valid until the
// arena is reset or released, costs one bulk copy to build, and frees
// nothing on destruction. Job order is preserved, so indices into the
// view are JobIds of the source instance.
#pragma once

#include <cstddef>
#include <span>

#include "scheduling/arena.hpp"
#include "scheduling/instance.hpp"

namespace qbss::scheduling {

class SoaInstance {
 public:
  SoaInstance() = default;

  /// Builds the three arrays in `arena`. O(n) copy, no heap traffic once
  /// the arena is warm.
  SoaInstance(std::span<const ClassicalJob> jobs, SolveArena& arena);
  SoaInstance(const Instance& instance, SolveArena& arena)
      : SoaInstance(instance.jobs(), arena) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Contiguous per-job fields, indexed by JobId. Valid until the
  /// backing arena resets.
  [[nodiscard]] const double* release() const noexcept { return release_; }
  [[nodiscard]] const double* deadline() const noexcept { return deadline_; }
  [[nodiscard]] const double* work() const noexcept { return work_; }

 private:
  std::size_t n_ = 0;
  double* release_ = nullptr;
  double* deadline_ = nullptr;
  double* work_ = nullptr;
};

}  // namespace qbss::scheduling
