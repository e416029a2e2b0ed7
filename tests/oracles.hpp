// Test oracles: solvers the library has replaced by faster code paths,
// kept verbatim so differential tests can compare the fast paths against
// them bit for bit (or, for yds_reference, to a stated tolerance). Only
// tests and bench_perf link this target; nothing in src/ calls it.
//
//  * yds_reference: the direct-scan YDS solver (O(n) containment recount
//    per candidate interval), with the fast solver's peeling loop and
//    tie-breaks.
//  * yds / yds_until: the fast solver as it was when each round's
//    edf_allocate built a Schedule of its own and the solve copied its
//    rates into one builder. The library's rounds write straight into
//    that builder; these must agree with them bit for bit.
//  * bkp_profile / bkp: BKP evaluating every (t1, t2) pair on every grid
//    piece, and the EDF simulation it ran against.
//  * edf_allocate: EDF before it allowed for forward-snap overrun in its
//    feasibility verdict and before its grid shared one buffer.
//  * optimal_available: OA solving each replan's full YDS schedule (with
//    oracle::yds) and asserting that no deadline passes with work left.
//
// The schedule primitives as they were before a Schedule kept one piece
// buffer (oracles_primitives.cpp):
//  * sum_of: StepFunction::sum_of with its event sort and normalize().
//  * approx_equals: probing the sorted, deduplicated merged boundaries
//    with one binary search per probe and function.
//  * interval_insert: IntervalSet::insert rebuilding and sorting.
//  * PerJobBuilder: ScheduleBuilder with one piece vector and one sum_of
//    per job.
//  * validate / core::oracle::validate_run: the validators on the oracle
//    sum_of and approx_equals, and check_expansion calling parts_of once
//    per QBSS job.
#pragma once

#include <span>
#include <vector>

#include "qbss/qinstance.hpp"
#include "qbss/run.hpp"
#include "qbss/transform.hpp"
#include "scheduling/bkp.hpp"
#include "scheduling/edf.hpp"
#include "scheduling/schedule.hpp"

namespace qbss::scheduling::oracle {

[[nodiscard]] Schedule yds_reference(const Instance& instance);

[[nodiscard]] Schedule yds(const Instance& instance);

[[nodiscard]] Schedule yds_until(const Instance& instance, Time horizon);

[[nodiscard]] StepFunction bkp_profile(const Instance& instance);

[[nodiscard]] EdfResult edf_allocate(const Instance& instance,
                                     const StepFunction& profile);

[[nodiscard]] OnlineRun bkp(const Instance& instance);

[[nodiscard]] Schedule optimal_available(const Instance& instance);

/// StepFunction::sum_of's normalized pieces.
[[nodiscard]] std::vector<Segment> sum_of(std::span<const Segment> pieces);

[[nodiscard]] bool approx_equals(StepView a, StepView b, double tol = kEps);

/// IntervalSet::insert on its sorted member list.
void interval_insert(std::vector<Interval>& members, Interval iv);

/// A Schedule as the per-job-vector builder made it.
struct BuiltSchedule {
  std::vector<std::vector<Segment>> rates;
  std::vector<Segment> speed;
};

/// ScheduleBuilder as it kept one piece vector per job.
class PerJobBuilder {
 public:
  explicit PerJobBuilder(std::size_t job_count) : rates_(job_count) {}

  /// Adds `speed` units/s of job `id` during `span` (accumulative).
  void add_rate(JobId id, Interval span, Speed speed) {
    QBSS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < rates_.size());
    QBSS_EXPECTS(speed >= 0.0);
    if (span.empty() || speed == 0.0) return;
    rates_[static_cast<std::size_t>(id)].push_back(Segment{span, speed});
  }

  /// Finalizes: per-job rates are summed, machine speed is their total.
  [[nodiscard]] BuiltSchedule build() &&;

 private:
  std::vector<std::vector<Segment>> rates_;
};

[[nodiscard]] ValidationReport validate(const Instance& instance,
                                        const Schedule& schedule,
                                        double tol = 1e-7);

}  // namespace qbss::scheduling::oracle

namespace qbss::core::oracle {

void check_expansion(const QInstance& instance, const Expansion& expansion,
                     scheduling::ValidationReport& report);

[[nodiscard]] scheduling::ValidationReport validate_run(
    const QInstance& instance, const QbssRun& run, double tol = 1e-7);

}  // namespace qbss::core::oracle
