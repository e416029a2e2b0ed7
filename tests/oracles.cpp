#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/constants.hpp"
#include "common/interval_set.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "scheduling/arena.hpp"
#include "scheduling/density_scan.hpp"
#include "scheduling/soa.hpp"
#include "scheduling/yds.hpp"

namespace qbss::scheduling::oracle {

namespace {

/// One critical-interval selection round. Candidate intervals run from a
/// release time to a deadline of the remaining jobs; intensity counts only
/// time not already claimed by earlier (denser) critical intervals.
struct Critical {
  Interval span;
  double intensity = -1.0;
  std::vector<JobId> contained;
};

Critical find_critical_reference(const Instance& instance,
                                 const std::vector<bool>& done,
                                 const IntervalSet& used) {
  std::vector<Time> starts;
  std::vector<Time> ends;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    if (done[i]) continue;
    starts.push_back(instance.jobs()[i].release);
    ends.push_back(instance.jobs()[i].deadline);
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());

  Critical best;
  for (const Time t1 : starts) {
    for (const Time t2 : ends) {
      if (t2 <= t1) continue;
      const Interval cand{t1, t2};
      Work inside = 0.0;
      std::vector<JobId> contained;
      for (std::size_t i = 0; i < instance.size(); ++i) {
        if (done[i]) continue;
        const ClassicalJob& j = instance.jobs()[i];
        if (cand.covers(j.window())) {
          inside += j.work;
          contained.push_back(static_cast<JobId>(i));
        }
      }
      if (contained.empty()) continue;
      const Time avail = cand.length() - used.measure_within(cand);
      // Windows of remaining jobs always retain free time (otherwise an
      // earlier round would not have been maximal); guard regardless.
      QBSS_ENSURES(avail > 0.0);
      const double intensity = inside / avail;
      if (intensity > best.intensity) {
        best.span = cand;
        best.intensity = intensity;
        best.contained = std::move(contained);
      }
    }
  }
  return best;
}

/// The reference peeling loop.
template <typename FindCritical>
Schedule yds_peel(const Instance& instance, FindCritical&& find) {
  const std::size_t n = instance.size();
  std::vector<bool> done(n, false);
  IntervalSet used;
  ScheduleBuilder builder(n);
  std::size_t left = n;

  // Zero-work jobs never influence intensities; mark them done upfront.
  for (std::size_t i = 0; i < n; ++i) {
    if (instance.jobs()[i].work == 0.0) {
      done[i] = true;
      --left;
    }
  }

  while (left > 0) {
    QBSS_COUNT("yds.rounds");
    const Critical crit = find(instance, done, used);
    QBSS_ENSURES(!crit.contained.empty());

    // Free slots of the critical interval, to run at the critical speed.
    const std::vector<Interval> slots = used.gaps_within(crit.span);
    StepFunction profile;
    for (const Interval& g : slots) {
      profile.add_constant(g, crit.intensity);
    }

    // Allocate the contained jobs inside those slots via EDF. Capacity
    // matches total work exactly, and the classical YDS argument shows the
    // packing is feasible.
    Instance sub;
    for (const JobId id : crit.contained) {
      const ClassicalJob& j = instance.job(id);
      sub.add(j.release, j.deadline, j.work);
    }
    const EdfResult packed = scheduling::edf_allocate(sub, profile);
    QBSS_ENSURES(packed.feasible);
    for (std::size_t k = 0; k < crit.contained.size(); ++k) {
      builder.add_rate(crit.contained[k],
                       packed.schedule.rate(static_cast<JobId>(k)));
    }

    used.insert(crit.span);
    for (const JobId id : crit.contained) {
      done[static_cast<std::size_t>(id)] = true;
      --left;
    }
  }

  return std::move(builder).build();
}

/// Work below which a job counts as finished, relative to the instance's
/// total work (absorbs rounding). An absolute threshold fails at scale:
/// the cursor accumulates one rounding error per allocation, so by
/// n ~ 1e5 the residual on the last job in a cell is orders of magnitude
/// above any fixed epsilon while still being pure noise.
constexpr double kEdfWorkEps = 1e-10;

/// OA's threshold for work already done.
constexpr double kWorkEps = 1e-10;

// --- The fast YDS path as it was before its rounds wrote into one builder

/// Arena-backed scratch for the event-grid critical search. Every array
/// is carved from the thread-local SolveArena in one shot when the solve
/// starts; nothing here touches the heap, so a warm arena makes the whole
/// solve allocation-free outside the Schedule it returns (and the
/// per-round EDF sub-allocation, which is bounded by the round's
/// contained set, not by n).
struct FastWorkspace {
  SoaInstance soa;
  unsigned char* done = nullptr;     ///< 0/1 per job
  double* starts = nullptr;          ///< distinct releases of remaining jobs
  double* ends = nullptr;            ///< distinct deadlines of remaining jobs
  std::uint32_t* by_release = nullptr;  ///< remaining jobs, release-descending
  std::uint32_t* rank = nullptr;     ///< deadline rank per by_release entry
  double* work_at_rank = nullptr;    ///< work keyed by deadline rank
  double* used_at_start = nullptr;   ///< used-measure of (-inf, t] per start
  double* used_at_end = nullptr;     ///< same per end
  std::uint32_t* contained = nullptr;  ///< the winning round's job set

  FastWorkspace(const Instance& instance, SolveArena& arena)
      : soa(instance, arena) {
    const std::size_t n = soa.size();
    done = arena.alloc<unsigned char>(n);
    starts = arena.alloc<double>(n);
    ends = arena.alloc<double>(n);
    by_release = arena.alloc<std::uint32_t>(n);
    rank = arena.alloc<std::uint32_t>(n);
    work_at_rank = arena.alloc<double>(n);
    used_at_start = arena.alloc<double>(n);
    used_at_end = arena.alloc<double>(n);
    contained = arena.alloc<std::uint32_t>(n);
  }
};

/// Cumulative occupancy sweep: out[k] = |used ∩ (-inf, times[k]]| for the
/// ascending `times`. One pass over the sorted disjoint members.
void cumulative_used(const IntervalSet& used, const double* times,
                     std::size_t count, double* out) {
  const auto& members = used.members();
  std::size_t m = 0;
  Time before = 0.0;  // total length of members fully left of times[k]
  for (std::size_t k = 0; k < count; ++k) {
    const Time t = times[k];
    while (m < members.size() && members[m].end <= t) {
      before += members[m].length();
      ++m;
    }
    Time partial = 0.0;
    if (m < members.size() && members[m].begin < t) {
      partial = t - members[m].begin;
    }
    out[k] = before + partial;
  }
}

/// One round's critical interval and intensity; the contained set lives in
/// the workspace (no heap).
struct FastCritical {
  Interval span;
  double intensity = -1.0;
  std::size_t contained_count = 0;
};

/// Event-grid critical search over the SoA view: O(n log n) setup plus
/// one density-scan row per distinct release. Containment work is a
/// prefix sum over deadline ranks of the jobs whose release clears the
/// candidate start; occupancy is a cumulative sweep of the disjoint
/// `used` members, so each candidate costs O(1). Rows scan only their
/// admissible suffix [min entered rank, E): everything below it has zero
/// contained work, and every end from there on lies right of t1 (an
/// entered job's deadline exceeds its release >= t1).
FastCritical find_critical_fast(FastWorkspace& ws, const IntervalSet& used) {
  const std::size_t n = ws.soa.size();
  const double* rel = ws.soa.release();
  const double* dl = ws.soa.deadline();
  const double* wk = ws.soa.work();

  std::size_t s_count = 0;
  std::size_t e_count = 0;
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ws.done[i]) continue;
    ws.starts[s_count++] = rel[i];
    ws.ends[e_count++] = dl[i];
    ws.by_release[m++] = static_cast<std::uint32_t>(i);
  }
  std::sort(ws.starts, ws.starts + s_count);
  s_count = static_cast<std::size_t>(
      std::unique(ws.starts, ws.starts + s_count) - ws.starts);
  std::sort(ws.ends, ws.ends + e_count);
  e_count = static_cast<std::size_t>(std::unique(ws.ends, ws.ends + e_count) -
                                     ws.ends);
  std::sort(ws.by_release, ws.by_release + m,
            [rel](std::uint32_t a, std::uint32_t b) { return rel[a] > rel[b]; });
  for (std::size_t k = 0; k < m; ++k) {
    ws.rank[k] = static_cast<std::uint32_t>(
        std::lower_bound(ws.ends, ws.ends + e_count, dl[ws.by_release[k]]) -
        ws.ends);
  }

  cumulative_used(used, ws.starts, s_count, ws.used_at_start);
  cumulative_used(used, ws.ends, e_count, ws.used_at_end);
  std::fill_n(ws.work_at_rank, e_count, 0.0);

  FastCritical best;
  std::size_t next = 0;  // cursor into by_release
  std::size_t min_rank = e_count;  // lowest deadline rank entered so far
  std::size_t scanned = 0;
  // Sweep candidate starts from the right: each remaining job enters the
  // deadline-rank histogram exactly once, when t1 drops to its release.
  for (std::size_t si = s_count; si-- > 0;) {
    const double t1 = ws.starts[si];
    while (next < m && rel[ws.by_release[next]] >= t1) {
      const std::size_t r = ws.rank[next];
      ws.work_at_rank[r] += wk[ws.by_release[next]];
      min_rank = r < min_rank ? r : min_rank;
      ++next;
    }
    scanned += e_count - min_rank;
    const RowScan row =
        density_row(0.0, t1, ws.used_at_start[si], ws.work_at_rank, ws.ends,
                    ws.used_at_end, min_rank, e_count);
    // Ties resolve to the lexicographically smallest (t1, t2), matching the
    // reference scan order: the kernel keeps the smallest t2 in-row, and t1
    // strictly decreases across rows, so >= prefers the later (smaller) t1.
    if (row.intensity >= best.intensity) {
      best.span = {t1, ws.ends[row.index]};
      best.intensity = row.intensity;
    }
  }

  // Counter adds happen once per round (outside the scan loops), so the
  // instrumented hot path costs a few relaxed fetch_adds per round.
  QBSS_COUNT_ADD("yds.candidates_scanned",
                 static_cast<std::uint64_t>(scanned));
  QBSS_COUNT_ADD("yds.rows_scanned", static_cast<std::uint64_t>(s_count));

  // Materialize the contained set only for the winner (job-index order,
  // like the reference, so the EDF sub-instance is identical).
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ws.done[i]) continue;
    if (best.span.covers(Interval{rel[i], dl[i]})) {
      ws.contained[c++] = static_cast<std::uint32_t>(i);
    }
  }
  best.contained_count = c;
  return best;
}

/// Fast peeling loop: SoA view + arena scratch + the density-scan kernel.
/// Selects the critical intervals of the direct-scan oracle
/// (tests/oracles.cpp) with the same tie-breaks; it sums contained work
/// in deadline-rank order rather than job order, so intensities can
/// differ in the last bit, and tests/test_perf_core.cpp checks the speed
/// profile and energy against the oracle across every generator family.
/// The loop stops after the round whose critical interval reaches
/// `horizon` (see yds_until). Each round's EDF builds a Schedule of its
/// own, whose rates are copied into the solve's builder.
Schedule yds_fast(const Instance& instance, Time horizon) {
  // The thread arena is rewound at entry: blocks persist across solves,
  // so a warm thread performs zero heap allocations here. yds() must not
  // be re-entered from inside a solve on the same thread (no caller does;
  // EDF and the step-function algebra never call back into yds).
  SolveArena& arena = solve_arena();
  arena.reset();
  FastWorkspace ws(instance, arena);

  const std::size_t n = ws.soa.size();
  const double* rel = ws.soa.release();
  const double* dl = ws.soa.deadline();
  const double* wk = ws.soa.work();

  IntervalSet used;
  ScheduleBuilder builder(n);
  std::size_t left = n;

  // Zero-work jobs never influence intensities; mark them done upfront.
  for (std::size_t i = 0; i < n; ++i) {
    ws.done[i] = wk[i] == 0.0 ? 1 : 0;
    if (ws.done[i]) --left;
  }

  while (left > 0) {
    QBSS_COUNT("yds.rounds");
    const FastCritical crit = find_critical_fast(ws, used);
    QBSS_ENSURES(crit.contained_count > 0);

    const std::vector<Interval> slots = used.gaps_within(crit.span);
    StepFunction profile;
    for (const Interval& g : slots) {
      profile.add_constant(g, crit.intensity);
    }

    Instance sub;
    for (std::size_t k = 0; k < crit.contained_count; ++k) {
      const std::size_t id = ws.contained[k];
      sub.add(rel[id], dl[id], wk[id]);
    }
    const EdfResult packed = scheduling::edf_allocate(sub, profile);
    QBSS_ENSURES(packed.feasible);
    for (std::size_t k = 0; k < crit.contained_count; ++k) {
      builder.add_rate(static_cast<JobId>(ws.contained[k]),
                       packed.schedule.rate(static_cast<JobId>(k)));
    }

    used.insert(crit.span);
    for (std::size_t k = 0; k < crit.contained_count; ++k) {
      ws.done[ws.contained[k]] = 1;
      --left;
    }
    if (crit.span.end >= horizon) break;
  }

  return std::move(builder).build();
}

}  // namespace

Schedule yds_reference(const Instance& instance) {
  return yds_peel(instance, find_critical_reference);
}

Schedule yds(const Instance& instance) {
  QBSS_SPAN("yds.solve");
  return yds_fast(instance, kInf);
}

Schedule yds_until(const Instance& instance, Time horizon) {
  QBSS_SPAN("yds.solve");
  if (horizon != kInf && !instance.empty()) {
    const Time release = instance.jobs()[0].release;
    for (const ClassicalJob& j : instance.jobs()) {
      QBSS_EXPECTS(j.release == release);
    }
  }
  return yds_fast(instance, horizon);
}

StepFunction bkp_profile(const Instance& instance) {
  if (instance.empty()) return {};

  std::vector<Time> releases;
  std::vector<Time> deadlines;
  for (const ClassicalJob& j : instance.jobs()) {
    releases.push_back(j.release);
    deadlines.push_back(j.deadline);
  }
  std::sort(releases.begin(), releases.end());
  releases.erase(std::unique(releases.begin(), releases.end()),
                 releases.end());
  std::sort(deadlines.begin(), deadlines.end());
  deadlines.erase(std::unique(deadlines.begin(), deadlines.end()),
                  deadlines.end());

  const std::vector<Time> grid = instance.event_times();

  // Jobs sorted by release for suffix-sum accumulation per t2 candidate.
  std::vector<std::size_t> by_release(instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) by_release[i] = i;
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t a, std::size_t b) {
              return instance.jobs()[a].release < instance.jobs()[b].release;
            });

  StepFunction profile;
  for (std::size_t g = 0; g + 1 < grid.size(); ++g) {
    const Time a = grid[g];
    const Time b = grid[g + 1];

    // On (a, b] the arrived set and the admissible candidates are fixed:
    // t1 must satisfy t1 < t for all t in the piece (t1 <= a), t2 must
    // satisfy t <= t2 (t2 >= b).
    double best = 0.0;
    for (const Time t2 : deadlines) {
      if (t2 < b) continue;
      // work[k] = total work of arrived jobs with release >= release of the
      // k-th by-release job and deadline <= t2, accumulated right-to-left.
      Work suffix = 0.0;
      // Walk releases descending; when passing a candidate t1 (a release
      // value <= a), evaluate the intensity.
      std::size_t r = by_release.size();
      std::size_t rel_idx = releases.size();
      while (rel_idx > 0) {
        const Time t1 = releases[rel_idx - 1];
        // Absorb all jobs with release >= t1 into the suffix.
        while (r > 0 &&
               instance.jobs()[by_release[r - 1]].release >= t1) {
          const ClassicalJob& j = instance.jobs()[by_release[r - 1]];
          if (j.release <= a && j.deadline <= t2) suffix += j.work;
          --r;
        }
        if (t1 <= a && t2 > t1) {
          best = std::max(best, suffix / (t2 - t1));
        }
        --rel_idx;
      }
    }
    if (best > 0.0) profile.add_constant({a, b}, kE * best);
  }
  return profile;
}

EdfResult edf_allocate(const Instance& instance, const StepFunction& profile) {
  const std::size_t n = instance.size();

  // Elementary grid: releases, deadlines and profile breakpoints. Within an
  // elementary interval the speed is constant and no job arrives/expires.
  std::vector<Time> grid = instance.event_times();
  for (Time t : profile.breakpoints()) grid.push_back(t);
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  std::vector<Work> remaining(n);
  Work total_work = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = instance.jobs()[i].work;
    total_work += remaining[i];
  }
  const double work_eps = kEdfWorkEps * std::max(1.0, total_work);

  // Jobs sorted by release feed a (deadline, index) min-heap of released
  // jobs, replacing the original O(n) scan per pick: O((n + cells) log n)
  // overall, same pick order (earliest deadline, lowest index on ties).
  std::vector<std::uint32_t> by_release(n);
  std::iota(by_release.begin(), by_release.end(), 0u);
  std::sort(by_release.begin(), by_release.end(),
            [&instance](std::uint32_t a, std::uint32_t b) {
              const double ra = instance.jobs()[a].release;
              const double rb = instance.jobs()[b].release;
              if (ra != rb) return ra < rb;
              return a < b;
            });
  const auto later = [&instance](std::uint32_t a, std::uint32_t b) {
    const double da = instance.jobs()[a].deadline;
    const double db = instance.jobs()[b].deadline;
    if (da != db) return da > db;
    return a > b;
  };
  std::vector<std::uint32_t> heap;
  heap.reserve(n);
  std::size_t next_release = 0;

  ScheduleBuilder builder(n);
  bool feasible = true;

  for (std::size_t g = 0; g + 1 < grid.size(); ++g) {
    const Time a = grid[g];
    const Time b = grid[g + 1];
    const Speed s = profile.value(b);  // constant on (a, b]

    while (next_release < n &&
           instance.jobs()[by_release[next_release]].release <= a) {
      heap.push_back(by_release[next_release++]);
      std::push_heap(heap.begin(), heap.end(), later);
    }
    // Expired jobs surface at the heap top (deadline order). One with
    // work pending can never finish.
    while (!heap.empty() &&
           instance.jobs()[heap.front()].deadline <= a) {
      if (remaining[heap.front()] > work_eps) feasible = false;
      std::pop_heap(heap.begin(), heap.end(), later);
      heap.pop_back();
    }
    if (s <= 0.0) continue;

    Time cursor = a;
    while (cursor < b && !heap.empty()) {
      // Earliest-deadline released pending job.
      const std::uint32_t pick = heap.front();
      auto& rem = remaining[pick];
      if (rem <= work_eps) {  // finished earlier; retire it
        std::pop_heap(heap.begin(), heap.end(), later);
        heap.pop_back();
        continue;
      }
      Time finish = cursor + rem / s;
      // Snap to the cell boundary when division noise lands within an
      // ulp-scale band of it, so profile breakpoints stay exactly on the
      // grid (downstream pointwise comparisons probe at grid times).
      if (std::fabs(finish - b) <= kEps * std::max(1.0, std::fabs(b))) {
        finish = b;
      }
      if (finish <= cursor) {  // below time resolution: cannot progress
        std::pop_heap(heap.begin(), heap.end(), later);
        heap.pop_back();
        continue;
      }
      const Time until = std::min(b, finish);
      builder.add_rate(static_cast<JobId>(pick), {cursor, until}, s);
      rem = std::max(0.0, rem - s * (until - cursor));
      cursor = until;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (remaining[i] > work_eps) feasible = false;
  }

  EdfResult out;
  out.feasible = feasible;
  out.schedule = std::move(builder).build();
  out.unfinished = std::move(remaining);
  return out;
}

OnlineRun bkp(const Instance& instance) {
  OnlineRun run;
  run.nominal = oracle::bkp_profile(instance);
  EdfResult edf = oracle::edf_allocate(instance, run.nominal);
  run.feasible = edf.feasible;
  run.schedule = std::move(edf.schedule);
  return run;
}

Schedule optimal_available(const Instance& instance) {
  const std::size_t n = instance.size();

  std::vector<Time> arrivals;
  arrivals.reserve(n);
  for (const ClassicalJob& j : instance.jobs()) arrivals.push_back(j.release);
  std::sort(arrivals.begin(), arrivals.end());
  arrivals.erase(std::unique(arrivals.begin(), arrivals.end()),
                 arrivals.end());

  std::vector<Work> remaining(n);
  for (std::size_t i = 0; i < n; ++i) remaining[i] = instance.jobs()[i].work;

  ScheduleBuilder builder(n);

  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const Time now = arrivals[k];
    const Time until = (k + 1 < arrivals.size()) ? arrivals[k + 1] : kInf;

    // Plan: YDS on the remaining work of everything released by `now`.
    Instance plan_instance;
    std::vector<JobId> plan_ids;
    for (std::size_t i = 0; i < n; ++i) {
      const ClassicalJob& j = instance.jobs()[i];
      if (j.release > now || remaining[i] <= kWorkEps) continue;
      QBSS_ENSURES(j.deadline > now);  // OA never misses a deadline
      plan_instance.add(now, j.deadline, remaining[i]);
      plan_ids.push_back(static_cast<JobId>(i));
    }
    if (plan_instance.empty()) continue;

    const Schedule plan = oracle::yds(plan_instance);

    // Follow the plan until the next arrival (or to completion).
    for (std::size_t p = 0; p < plan_ids.size(); ++p) {
      const StepFunction executed =
          plan.rate(static_cast<JobId>(p)).restricted({now, until});
      builder.add_rate(plan_ids[p], executed);
      auto& rem = remaining[static_cast<std::size_t>(plan_ids[p])];
      rem = std::max(0.0, rem - executed.integral());
    }
  }

  return std::move(builder).build();
}

}  // namespace qbss::scheduling::oracle
