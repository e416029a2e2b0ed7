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
#pragma once

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

}  // namespace qbss::scheduling::oracle
