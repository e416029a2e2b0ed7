#include "scheduling/edf.hpp"

#include <algorithm>
#include <cmath>
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

/// Clips EDF job `job`'s piece to the target's window and adds what is
/// left, cut the way StepFunction::restricted cuts.
void add_piece(const EdfTarget& target, std::uint32_t job, Interval span,
               Speed s) {
  const Interval cut = span.intersect(target.window);
  if (cut.empty()) return;
  const JobId id =
      target.ids.empty() ? static_cast<JobId>(job) : target.ids[job];
  target.builder.add_rate(id, cut, s);
  if (target.executed != nullptr) {
    target.executed[static_cast<std::size_t>(id)] += cut.length() * s;
  }
}

}  // namespace

bool edf_into(std::span<const ClassicalJob> jobs, const StepFunction& profile,
              const EdfTarget& target, bool join, EdfScratch& scratch) {
  const std::size_t n = jobs.size();

  // Elementary grid: releases, deadlines and profile breakpoints. Within an
  // elementary interval the speed is constant and no job arrives/expires.
  // Built in one buffer with the sorts of instance.event_times() and
  // profile.breakpoints() kept: which of a -0.0/+0.0 tie survives a
  // unique depends on the order the sort leaves, and grid values become
  // the schedule's piece bounds.
  std::vector<Time>& grid = scratch.grid;
  grid.clear();
  grid.reserve(2 * n + 2 * profile.pieces().size());
  for (const ClassicalJob& j : jobs) {
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

  std::vector<Work>& remaining = scratch.remaining;
  remaining.resize(n);
  Work total_work = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = jobs[i].work;
    total_work += remaining[i];
  }
  const double work_eps = kWorkEps * std::max(1.0, total_work);

  // Jobs sorted by release feed a (deadline, index) min-heap of released
  // jobs, replacing the original O(n) scan per pick: O((n + cells) log n)
  // overall, same pick order (earliest deadline, lowest index on ties).
  std::vector<std::uint32_t>& by_release = scratch.by_release;
  by_release.resize(n);
  std::iota(by_release.begin(), by_release.end(), 0u);
  std::sort(by_release.begin(), by_release.end(),
            [jobs](std::uint32_t a, std::uint32_t b) {
              const double ra = jobs[a].release;
              const double rb = jobs[b].release;
              if (ra != rb) return ra < rb;
              return a < b;
            });
  const auto later = [jobs](std::uint32_t a, std::uint32_t b) {
    const double da = jobs[a].deadline;
    const double db = jobs[b].deadline;
    if (da != db) return da > db;
    return a > b;
  };
  std::vector<std::uint32_t>& heap = scratch.heap;
  heap.clear();
  heap.reserve(n);
  std::size_t next_release = 0;

  // With `join`, the piece still growing: job `open_job` at `open_speed`
  // on `open`. Pieces come in time order and each has positive length, so
  // a job's next piece meets its last one only if no other piece came
  // between them.
  bool has_open = false;
  std::uint32_t open_job = 0;
  Interval open;
  Speed open_speed = 0.0;
  const auto emit = [&](std::uint32_t job, Interval span, Speed s) {
    if (!join) {
      add_piece(target, job, span, s);
      return;
    }
    if (has_open && open_job == job && open.end == span.begin &&
        open_speed == s) {
      open.end = span.end;
      return;
    }
    if (has_open) add_piece(target, open_job, open, open_speed);
    has_open = true;
    open_job = job;
    open = span;
    open_speed = s;
  };

  bool feasible = true;
  // Capacity that forward snaps (below) ran past a job's work. That job
  // took it from the jobs after it, so each may end short by the total,
  // and the feasibility checks allow it on top of work_eps.
  Work overrun = 0.0;

  for (std::size_t g = 0; g + 1 < grid.size(); ++g) {
    const Time a = grid[g];
    const Time b = grid[g + 1];
    const Speed s = profile.value(b);  // constant on (a, b]

    while (next_release < n && jobs[by_release[next_release]].release <= a) {
      heap.push_back(by_release[next_release++]);
      std::push_heap(heap.begin(), heap.end(), later);
    }
    // Expired jobs surface at the heap top (deadline order). One with
    // work pending can never finish.
    while (!heap.empty() && jobs[heap.front()].deadline <= a) {
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
      emit(pick, {cursor, until}, s);
      const Work left = rem - s * (until - cursor);
      if (left < 0.0) overrun -= left;
      rem = std::max(0.0, left);
      cursor = until;
    }
  }
  if (has_open) add_piece(target, open_job, open, open_speed);

  for (std::size_t i = 0; i < n; ++i) {
    if (remaining[i] > work_eps + overrun) feasible = false;
  }
  return feasible;
}

EdfResult edf_allocate(const Instance& instance, const StepFunction& profile) {
  ScheduleBuilder builder(instance.size());
  EdfScratch scratch;
  EdfResult out;
  out.feasible =
      edf_into(instance.jobs(), profile, {builder}, /*join=*/false, scratch);
  out.schedule = std::move(builder).build();
  out.unfinished = std::move(scratch.remaining);
  return out;
}

bool edf_feasible(const Instance& instance, const StepFunction& profile) {
  return edf_allocate(instance, profile).feasible;
}

}  // namespace qbss::scheduling
