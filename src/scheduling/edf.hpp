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
//
// There is one EDF loop, edf_into. It writes each piece (job, span, speed)
// straight into a ScheduleBuilder the caller owns. edf_allocate wraps it
// with a builder of its own (BKP, yds_common_release). YDS's peeling loop
// passes its own builder, or OA's, so no per-round Schedule is built.
#pragma once

#include <cstdint>
#include <span>
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

/// Where edf_into puts its pieces. A piece of EDF job k is clipped to
/// `window`, and what is left goes to `builder` as job ids[k] (job k
/// itself when `ids` is empty).
struct EdfTarget {
  ScheduleBuilder& builder;
  std::span<const JobId> ids = {};
  Interval window{-kInf, kInf};
  /// When set, executed[ids[k]] grows by length x speed of every piece
  /// added for job k, in time order: the terms and order of
  /// StepFunction::integral() over the pieces added.
  Work* executed = nullptr;
};

/// EDF's scratch arrays. One kept across calls saves their allocations.
struct EdfScratch {
  std::vector<Time> grid;
  /// Work left per job after the last call (all ~0 when it was feasible).
  std::vector<Work> remaining;
  std::vector<std::uint32_t> by_release;
  std::vector<std::uint32_t> heap;
};

/// Runs EDF over `jobs` at the speeds prescribed by `profile`, adding each
/// piece to `target`. With `join`, a job's pieces that meet end to end at
/// one speed are joined before they are clipped and added. That is what
/// ScheduleBuilder::build() makes of a job whose pieces all have one speed
/// (a YDS round's), so the builder gets the pieces of that build(), bit
/// for bit. Returns true iff every job finished by its deadline.
[[nodiscard]] bool edf_into(std::span<const ClassicalJob> jobs,
                            const StepFunction& profile,
                            const EdfTarget& target, bool join,
                            EdfScratch& scratch);

/// Runs EDF at the speeds prescribed by `profile` into a Schedule of its
/// own.
[[nodiscard]] EdfResult edf_allocate(const Instance& instance,
                                     const StepFunction& profile);

/// Convenience: true iff `profile` suffices to complete `instance`.
[[nodiscard]] bool edf_feasible(const Instance& instance,
                                const StepFunction& profile);

}  // namespace qbss::scheduling
