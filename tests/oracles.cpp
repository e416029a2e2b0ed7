#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/constants.hpp"
#include "common/interval_set.hpp"
#include "obs/registry.hpp"
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

}  // namespace

Schedule yds_reference(const Instance& instance) {
  return yds_peel(instance, find_critical_reference);
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

    const Schedule plan = yds(plan_instance);

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
