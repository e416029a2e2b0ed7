// Fluid single-machine schedules.
//
// A schedule assigns each job a *rate function* rho_j(t) >= 0 (a step
// function). The machine speed is s(t) = sum_j rho_j(t). On one machine
// with preemption, a fluid schedule is realizable iff the rates are
// non-negative (one job at a time, time-multiplexed within every
// infinitesimal slice in proportion to its rate), so this representation is
// exact for every algorithm in the paper while keeping energy closed-form.
//
// Storage: a Schedule keeps every job's normalized rate pieces in one
// buffer, job after job, with per-job offsets; rate(j) is a StepView into
// it. So a Schedule costs three heap blocks (pieces, offsets, speed)
// whatever its job count. ScheduleBuilder likewise collects pieces in one
// buffer in insertion order; build() groups them by job with a stable
// counting pass and sums each job's pieces with StepFunction::sum_of's
// sweep straight into the schedule's buffer. A job whose pieces arrive in
// time order with gaps between them (every YDS round's) skips sum_of's
// sort.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/piecewise.hpp"
#include "common/power.hpp"
#include "scheduling/instance.hpp"

namespace qbss::scheduling {

/// Immutable fluid schedule; build with ScheduleBuilder.
class Schedule {
 public:
  Schedule() = default;

  /// Machine speed profile s(t) = sum of all job rates.
  [[nodiscard]] const StepFunction& speed() const noexcept { return speed_; }

  /// Rate function of one job: a view into this schedule's piece buffer
  /// (deleted on a temporary Schedule, whose buffer dies with it).
  [[nodiscard]] StepView rate(JobId id) const& {
    QBSS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < job_count());
    const auto j = static_cast<std::size_t>(id);
    return StepView(std::span<const Segment>(pieces_).subspan(
        offsets_[j], offsets_[j + 1] - offsets_[j]));
  }
  StepView rate(JobId id) const&& = delete;

  /// Every job's rate pieces, rate(0)'s first, then rate(1)'s, ...
  [[nodiscard]] std::span<const Segment> pieces() const& noexcept {
    return pieces_;
  }
  std::span<const Segment> pieces() const&& = delete;

  [[nodiscard]] std::size_t job_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Total energy under P(s) = s^alpha.
  [[nodiscard]] Energy energy(double alpha) const {
    return speed_.power_integral(alpha);
  }
  [[nodiscard]] Energy energy(const PowerModel& pm) const {
    return energy(pm.alpha());
  }

  /// Maximum machine speed used.
  [[nodiscard]] Speed max_speed() const { return speed_.max_value(); }

  /// Total work this schedule executes for one job.
  [[nodiscard]] Work work_of(JobId id) const { return rate(id).integral(); }

  /// The time the job finishes (end of its last nonzero rate piece);
  /// 0 for a job that never runs.
  [[nodiscard]] Time completion_time(JobId id) const {
    return rate(id).support().end;
  }

  /// The time the job first runs (begin of its first nonzero rate
  /// piece); 0 for a job that never runs.
  [[nodiscard]] Time start_time(JobId id) const {
    const Interval s = rate(id).support();
    return s.empty() ? 0.0 : s.begin;
  }

 private:
  friend class ScheduleBuilder;

  StepFunction speed_;
  std::vector<Segment> pieces_;
  /// Job j's pieces are pieces_[offsets_[j], offsets_[j + 1]); empty for
  /// a schedule of no jobs.
  std::vector<std::size_t> offsets_;
};

/// Accumulates per-job rate pieces, then derives the speed profile.
class ScheduleBuilder {
 public:
  explicit ScheduleBuilder(std::size_t job_count) : job_count_(job_count) {}

  /// Adds `speed` units/s of job `id` during `span` (accumulative).
  void add_rate(JobId id, Interval span, Speed speed) {
    QBSS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < job_count_);
    QBSS_EXPECTS(speed >= 0.0);
    if (span.empty() || speed == 0.0) return;
    pieces_.push_back(Piece{Segment{span, speed}, id});
  }

  /// Adds a whole rate function for job `id` (accumulative).
  void add_rate(JobId id, StepView rate) {
    for (const Segment& s : rate.pieces()) add_rate(id, s.span, s.value);
  }

  /// Finalizes: per-job rates are summed, machine speed is their total
  /// (sum_of over every piece, grouped by job in insertion order).
  [[nodiscard]] Schedule build() &&;

 private:
  struct Piece {
    Segment segment;
    JobId job;
  };

  std::size_t job_count_;
  std::vector<Piece> pieces_;  ///< in insertion order
};

/// Result of checking a schedule against its instance.
struct ValidationReport {
  bool feasible = true;
  std::vector<std::string> errors;

  explicit operator bool() const noexcept { return feasible; }
};

/// Verifies the fluid-schedule invariants:
///  * every rate is non-negative and supported inside the job's window;
///  * every job receives exactly its workload;
///  * the speed profile equals the sum of rates.
/// `tol` absorbs closed-form rounding.
[[nodiscard]] ValidationReport validate(const Instance& instance,
                                        const Schedule& schedule,
                                        double tol = 1e-7);

}  // namespace qbss::scheduling
