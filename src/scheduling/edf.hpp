// Earliest-Deadline-First allocation against a given speed profile.
//
// EDF is the canonical job-picking rule of YDS/AVR/OA/BKP: the machine
// speed is dictated by the profile and, at every moment, the pending
// released job with the earliest deadline runs. EDF is optimal for
// feasibility among preemptive single-machine policies, so `feasible`
// answers "can this profile execute the instance at all?".
//
// A job whose finish lands within kEps of its cell's end is snapped onto
// that boundary, so breakpoints stay on the grid. The snap runs the job a
// little past its work, and that capacity is missing for the jobs after
// it: a job may end short by the total. The feasibility verdict therefore
// allows, on top of its rounding epsilon, the capacity all forward snaps
// ran past their jobs' work.
#pragma once

#include <vector>

#include "common/piecewise.hpp"
#include "scheduling/schedule.hpp"

namespace qbss::scheduling {

/// Outcome of an EDF simulation.
struct EdfResult {
  /// True iff every job finished by its deadline.
  bool feasible = false;
  /// The realized schedule. When feasible, its rates execute exactly the
  /// instance workloads and its speed is pointwise <= the given profile
  /// (the machine idles once all released work is done).
  Schedule schedule;
  /// Work left over per job (all ~0 when feasible).
  std::vector<Work> unfinished;
};

/// Runs EDF at the speeds prescribed by `profile`.
[[nodiscard]] EdfResult edf_allocate(const Instance& instance,
                                     const StepFunction& profile);

/// Convenience: true iff `profile` suffices to complete `instance`.
[[nodiscard]] bool edf_feasible(const Instance& instance,
                                const StepFunction& profile);

}  // namespace qbss::scheduling
