// Piecewise-constant functions of time ("step functions").
//
// Speed profiles, densities and work rates in this library are all step
// functions: finitely many breakpoints, constant in between. Keeping them
// symbolic (rather than sampling on a grid) makes every energy integral
// closed-form, so validation tolerances can be tight.
//
// Convention: a StepFunction with breakpoints t_0 < t_1 < ... < t_n and
// values v_1..v_n equals v_i on the half-open piece (t_{i-1}, t_i], and 0
// outside (t_0, t_n]. This matches the paper's (r_j, d_j] windows.
#pragma once

#include <span>
#include <vector>

#include "common/interval.hpp"
#include "common/real.hpp"

namespace qbss {

/// One constant piece of a step function.
struct Segment {
  Interval span;
  double value = 0.0;

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// Immutable-value piecewise-constant function; see file comment for the
/// half-open convention. Value semantics; cheap to copy at the sizes this
/// library produces (breakpoints are O(#jobs)).
class StepFunction {
 public:
  /// The identically-zero function.
  StepFunction() = default;

  /// Function equal to `v` on `iv` and 0 elsewhere. `iv` must be non-empty.
  [[nodiscard]] static StepFunction constant(Interval iv, double v);

  /// Builds from arbitrary (possibly unsorted / overlapping) segments by
  /// summing overlaps.
  [[nodiscard]] static StepFunction sum_of(std::span<const Segment> pieces);

  /// f(t) with the (.,.] convention: the value of the piece whose half-open
  /// span contains t; 0 outside the support.
  [[nodiscard]] double value(Time t) const;

  /// Integral of f over the whole line.
  [[nodiscard]] double integral() const;

  /// Integral of f over (a, b].
  [[nodiscard]] double integral(Interval iv) const;

  /// Integral of f(t)^alpha over the support: the energy of a speed
  /// profile under power model P(s) = s^alpha. Pieces with value 0
  /// contribute nothing (machine idle).
  [[nodiscard]] double power_integral(double alpha) const;

  /// Maximum value attained (0 for the zero function).
  [[nodiscard]] double max_value() const;

  /// Smallest interval containing all nonzero pieces (empty for zero fn).
  [[nodiscard]] Interval support() const;

  /// Pointwise sum.
  [[nodiscard]] StepFunction plus(const StepFunction& other) const;

  /// Pointwise scaling by k >= 0.
  [[nodiscard]] StepFunction scaled(double k) const;

  /// This function restricted to `iv` (0 outside).
  [[nodiscard]] StepFunction restricted(Interval iv) const;

  /// Adds `v` on `iv` in place. A piece that starts at or after the last
  /// piece's end is appended in O(1) (the left-to-right build every
  /// profile in the library uses); any other piece rebuilds through
  /// plus(). Both give the same pieces, bit for bit.
  void add_constant(Interval iv, double v);

  /// The normalized pieces (sorted, disjoint, adjacent values distinct,
  /// zero-valued outer pieces trimmed).
  [[nodiscard]] const std::vector<Segment>& pieces() const noexcept {
    return pieces_;
  }

  /// All breakpoints (piece boundaries), sorted ascending.
  [[nodiscard]] std::vector<Time> breakpoints() const;

  /// True iff the two functions are pointwise equal up to `tol`.
  [[nodiscard]] bool approx_equals(const StepFunction& other,
                                   double tol = kEps) const;

  friend StepFunction operator+(const StepFunction& a, const StepFunction& b) {
    return a.plus(b);
  }

 private:
  void normalize();

  std::vector<Segment> pieces_;  // sorted, disjoint, contiguous-or-gapped
};

}  // namespace qbss
