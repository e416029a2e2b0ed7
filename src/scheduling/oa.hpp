// OA — the Optimal Available online heuristic (Yao, Demers, Shenker 1995;
// analyzed by Bansal, Kimbrel, Pruhs 2007: tight alpha^alpha competitive).
//
// Whenever a job arrives, OA recomputes the optimal (YDS) schedule for the
// *remaining* work of all released jobs, assuming nothing else arrives, and
// follows it until the next arrival. The paper's conclusion poses extending
// OA to the QBSS model as an open question — src/qbss/oaq.cpp does exactly
// that, on top of this implementation.
//
// Every replan is a common-release instance (all remaining work is
// released at `now`), whose critical intervals come out left to right, so
// each replan peels YDS rounds only until one reaches the next arrival
// (yds_until); the rest would be discarded. No plan Schedule is built:
// each round's EDF pieces on (now, next arrival] go straight into OA's
// own builder, and the work they carry comes off each job's remainder,
// summed as the plan rate's integral() over that window would sum it. A
// job whose deadline passes with only a sliver of work left (at most kEps
// times the instance's total work, the capacity EDF's forward snaps may
// take from it, see edf.hpp) has met its deadline and leaves the plan; a
// larger remainder aborts.
#pragma once

#include "scheduling/schedule.hpp"

namespace qbss::scheduling {

/// Runs OA online (replanning at every distinct release time).
[[nodiscard]] Schedule optimal_available(const Instance& instance);

}  // namespace qbss::scheduling
