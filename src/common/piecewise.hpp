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
//
// A StepView reads normalized pieces that someone else owns: a
// StepFunction's, or one job's rate inside a Schedule's piece buffer. The
// queries (value, integrals, support, breakpoints, approx_equals) are the
// view's; StepFunction forwards to them, so both share one implementation.
//
// sum_of sweeps +value/-value events in time order. Pieces whose event
// times are already sorted and distinct (non-empty, sorted, with a gap
// between each two) skip the event sort and its buffer; both paths run
// the same sweep and give the same bits.
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

class StepFunction;

/// Read-only view of normalized pieces (sorted, disjoint, adjacent values
/// distinct, no zero pieces); see file comment. Holds no storage: it is
/// valid while the pieces' owner lives and is not changed.
class StepView {
 public:
  /// The identically-zero function.
  StepView() = default;
  explicit StepView(std::span<const Segment> pieces) noexcept
      : pieces_(pieces) {}

  /// The normalized pieces.
  [[nodiscard]] std::span<const Segment> pieces() const noexcept {
    return pieces_;
  }

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

  /// All breakpoints (piece boundaries), sorted ascending.
  [[nodiscard]] std::vector<Time> breakpoints() const;

  /// True iff the two functions are pointwise equal up to `tol`: probes
  /// every distinct breakpoint of either but the smallest, merging the
  /// two breakpoint lists with one cursor each.
  [[nodiscard]] bool approx_equals(StepView other, double tol = kEps) const;

  /// Pointwise scaling by k >= 0.
  [[nodiscard]] StepFunction scaled(double k) const;

  /// This function restricted to `iv` (0 outside).
  [[nodiscard]] StepFunction restricted(Interval iv) const;

 private:
  std::span<const Segment> pieces_;
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

  /// sum_of(pieces)'s normalized pieces, appended to `out`.
  static void append_sum_of(std::span<const Segment> pieces,
                            std::vector<Segment>& out);

  /// The view the queries below forward to. Implicit, so any function
  /// that reads a StepView takes a StepFunction too.
  [[nodiscard]] StepView view() const noexcept { return StepView(pieces_); }
  operator StepView() const noexcept { return view(); }

  [[nodiscard]] double value(Time t) const { return view().value(t); }
  [[nodiscard]] double integral() const { return view().integral(); }
  [[nodiscard]] double integral(Interval iv) const {
    return view().integral(iv);
  }
  [[nodiscard]] double power_integral(double alpha) const {
    return view().power_integral(alpha);
  }
  [[nodiscard]] double max_value() const { return view().max_value(); }
  [[nodiscard]] Interval support() const { return view().support(); }

  /// Pointwise sum.
  [[nodiscard]] StepFunction plus(const StepFunction& other) const;

  [[nodiscard]] StepFunction scaled(double k) const {
    return view().scaled(k);
  }
  [[nodiscard]] StepFunction restricted(Interval iv) const {
    return view().restricted(iv);
  }

  /// Adds `v` on `iv` in place. A piece that starts at or after the last
  /// piece's end is appended in O(1) (the left-to-right build every
  /// profile in the library uses); any other piece rebuilds through
  /// plus(). Both give the same pieces, bit for bit.
  void add_constant(Interval iv, double v);

  /// Back to the zero function, keeping the piece buffer's capacity (for
  /// a profile rebuilt in a loop).
  void clear() noexcept { pieces_.clear(); }

  /// The normalized pieces (sorted, disjoint, adjacent values distinct,
  /// zero-valued outer pieces trimmed).
  [[nodiscard]] const std::vector<Segment>& pieces() const noexcept {
    return pieces_;
  }

  [[nodiscard]] std::vector<Time> breakpoints() const {
    return view().breakpoints();
  }
  [[nodiscard]] bool approx_equals(StepView other, double tol = kEps) const {
    return view().approx_equals(other, tol);
  }

  friend StepFunction operator+(const StepFunction& a, const StepFunction& b) {
    return a.plus(b);
  }

 private:
  friend class StepView;

  void normalize();

  std::vector<Segment> pieces_;  // sorted, disjoint, contiguous-or-gapped
};

}  // namespace qbss
