// YDS — the optimal offline speed-scaling algorithm of Yao, Demers and
// Shenker (FOCS 1995).
//
// Repeatedly finds the *critical interval*: the interval I maximizing the
// intensity g(I) = (total work of jobs whose window lies inside I) /
// (available length of I), schedules those jobs inside I at speed g(I)
// (EDF), marks I as used, and recurses on the rest. The resulting schedule
// minimizes energy for every convex power function simultaneously, and its
// maximum speed is the minimum feasible maximum speed.
//
// Implementation note: instead of "collapsing" the timeline after each
// round (the textbook presentation), we stay in original time coordinates
// and treat already-scheduled critical intervals as unavailable when
// measuring candidate intensities. The two formulations select the same
// critical intervals; see tests/test_yds.cpp for cross-checks against
// brute-force optima. The direct-scan solver the fast path replaced,
// yds_reference, lives with the tests (tests/oracles.hpp) as the
// differential oracle; nothing in the library calls it.
//
// Each round's EDF (edf_into) writes its pieces straight into one
// ScheduleBuilder: yds() builds one Schedule per solve, and OA's replans
// build none (the pieces go into OA's own builder). The tests keep the
// solver that built a Schedule per round (oracle::yds) and compare every
// piece against it bit for bit.
#pragma once

#include "scheduling/edf.hpp"
#include "scheduling/schedule.hpp"

namespace qbss::scheduling {

/// Computes the energy-optimal preemptive single-machine schedule.
/// Fast path: the instance is mirrored into a structure-of-arrays view
/// (SoaInstance) backed by the thread-local SolveArena, and each
/// critical-interval round scans the event grid with prefix-summed
/// contained work and a cumulative occupancy sweep, so a round costs
/// O(n log n) setup plus one density-scan row per distinct release (the
/// direct-scan oracle pays another factor n per candidate). All scratch
/// comes from the arena: on a warm thread the solve performs zero heap
/// allocations outside the returned Schedule, the rounds' slots and
/// profiles and EDF's scratch (see docs/PERFORMANCE.md).
/// Precondition: instance jobs are valid (enforced by Instance).
[[nodiscard]] Schedule yds(const Instance& instance);

/// Always false: the explicit SIMD density-scan kernel is gone. Kept only
/// because the benchmark (qbench/src/main.cpp) prints it; drop it with
/// that field in the next change to the benchmark.
[[nodiscard]] bool yds_simd_compiled();

/// The optimal schedule's rounds up to `horizon`: the peeling loop stops
/// after the round whose critical interval reaches `horizon`, and jobs of
/// later rounds get no rate. With a common release the critical intervals
/// are prefixes (r, t2] of growing t2 whose free slots run left to right,
/// so every rate equals yds()'s on (r, horizon]; OA, which follows each
/// plan only until the next arrival, needs no more. Precondition: a
/// finite `horizon` needs all releases equal (checked); kInf is yds().
[[nodiscard]] Schedule yds_until(const Instance& instance, Time horizon);

/// yds_until's rounds on `jobs` (valid jobs, as an Instance holds) added
/// to `out` instead of a Schedule of their own: job j's pieces go to
/// out.builder as job out.ids[j], clipped to out.window, each the piece
/// yds_until's Schedule has (before clipping), bit for bit. EDF works in
/// `scratch`, which a caller solving many plans keeps across them. OA's
/// replans call it with the window up to the next arrival. Precondition:
/// `out.ids` is empty or has one id per job.
void yds_until(std::span<const ClassicalJob> jobs, Time horizon,
               const EdfTarget& out, EdfScratch& scratch);

/// Minimum energy for `instance` under exponent `alpha`.
[[nodiscard]] Energy optimal_energy(const Instance& instance, double alpha);

/// Minimum feasible maximum speed for `instance`.
[[nodiscard]] Speed optimal_max_speed(const Instance& instance);

}  // namespace qbss::scheduling
