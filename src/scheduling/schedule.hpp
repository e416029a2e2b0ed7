// Fluid single-machine schedules.
//
// A schedule assigns each job a *rate function* rho_j(t) >= 0 (a step
// function). The machine speed is s(t) = sum_j rho_j(t). On one machine
// with preemption, a fluid schedule is realizable iff the rates are
// non-negative (one job at a time, time-multiplexed within every
// infinitesimal slice in proportion to its rate), so this representation is
// exact for every algorithm in the paper while keeping energy closed-form.
#pragma once

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

  /// Rate function of one job.
  [[nodiscard]] const StepFunction& rate(JobId id) const {
    QBSS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < rates_.size());
    return rates_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] std::size_t job_count() const noexcept {
    return rates_.size();
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
  std::vector<StepFunction> rates_;
};

/// Accumulates per-job rate pieces, then derives the speed profile.
class ScheduleBuilder {
 public:
  explicit ScheduleBuilder(std::size_t job_count) : rates_(job_count) {}

  /// Adds `speed` units/s of job `id` during `span` (accumulative).
  void add_rate(JobId id, Interval span, Speed speed) {
    QBSS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < rates_.size());
    QBSS_EXPECTS(speed >= 0.0);
    if (span.empty() || speed == 0.0) return;
    rates_[static_cast<std::size_t>(id)].push_back(Segment{span, speed});
  }

  /// Adds a whole rate function for job `id` (accumulative).
  void add_rate(JobId id, const StepFunction& rate) {
    for (const Segment& s : rate.pieces()) add_rate(id, s.span, s.value);
  }

  /// Finalizes: per-job rates are summed, machine speed is their total.
  [[nodiscard]] Schedule build() && {
    Schedule out;
    out.rates_.reserve(rates_.size());
    std::size_t total = 0;
    for (const auto& pieces : rates_) total += pieces.size();
    std::vector<Segment> all;
    all.reserve(total);
    for (auto& pieces : rates_) {
      all.insert(all.end(), pieces.begin(), pieces.end());
      out.rates_.push_back(StepFunction::sum_of(pieces));
    }
    out.speed_ = StepFunction::sum_of(all);
    return out;
  }

 private:
  std::vector<std::vector<Segment>> rates_;
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
