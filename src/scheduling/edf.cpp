#include "scheduling/edf.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

namespace qbss::scheduling {

namespace {

/// Work below which a job counts as finished, relative to the instance's
/// total work (absorbs rounding). An absolute threshold fails at scale:
/// the cursor accumulates one rounding error per allocation, so by
/// n ~ 1e5 the residual on the last job in a cell is orders of magnitude
/// above any fixed epsilon while still being pure noise.
constexpr double kWorkEps = 1e-10;

}  // namespace

EdfResult edf_allocate(const Instance& instance, const StepFunction& profile) {
  const std::size_t n = instance.size();

  // Elementary grid: releases, deadlines and profile breakpoints. Within an
  // elementary interval the speed is constant and no job arrives/expires.
  // Built in one buffer with the sorts of instance.event_times() and
  // profile.breakpoints() kept: which of a -0.0/+0.0 tie survives a
  // unique depends on the order the sort leaves, and grid values become
  // the schedule's piece bounds.
  std::vector<Time> grid;
  grid.reserve(2 * n + 2 * profile.pieces().size());
  for (const ClassicalJob& j : instance.jobs()) {
    grid.push_back(j.release);
    grid.push_back(j.deadline);
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  const auto events = static_cast<std::ptrdiff_t>(grid.size());
  for (const Segment& p : profile.pieces()) {
    grid.push_back(p.span.begin);
    grid.push_back(p.span.end);
  }
  std::sort(grid.begin() + events, grid.end());
  grid.erase(std::unique(grid.begin() + events, grid.end()), grid.end());
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  std::vector<Work> remaining(n);
  Work total_work = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = instance.jobs()[i].work;
    total_work += remaining[i];
  }
  const double work_eps = kWorkEps * std::max(1.0, total_work);

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
  // Capacity that forward snaps (below) ran past a job's work. That job
  // took it from the jobs after it, so each may end short by the total,
  // and the feasibility checks allow it on top of work_eps.
  Work overrun = 0.0;

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
      if (remaining[heap.front()] > work_eps + overrun) feasible = false;
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
      const Work left = rem - s * (until - cursor);
      if (left < 0.0) overrun -= left;
      rem = std::max(0.0, left);
      cursor = until;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (remaining[i] > work_eps + overrun) feasible = false;
  }

  EdfResult out;
  out.feasible = feasible;
  out.schedule = std::move(builder).build();
  out.unfinished = std::move(remaining);
  return out;
}

bool edf_feasible(const Instance& instance, const StepFunction& profile) {
  return edf_allocate(instance, profile).feasible;
}

}  // namespace qbss::scheduling
