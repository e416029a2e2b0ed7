#include "scheduling/yds.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/interval_set.hpp"
#include "obs/span.hpp"
#include "scheduling/arena.hpp"
#include "scheduling/density_scan.hpp"
#include "scheduling/edf.hpp"
#include "scheduling/soa.hpp"

namespace qbss::scheduling {

namespace {

/// Arena-backed scratch for the event-grid critical search and each
/// round's EDF instance. Every array is carved from the thread-local
/// SolveArena in one shot when the solve starts; nothing here touches the
/// heap, so a warm arena leaves only the builder's pieces and the
/// caller's YdsScratch to the heap.
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
  ClassicalJob* round_jobs = nullptr;  ///< contained jobs, EDF's instance
  JobId* round_ids = nullptr;          ///< builder job of each round job

  FastWorkspace(std::span<const ClassicalJob> jobs, SolveArena& arena)
      : soa(jobs, arena) {
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
    round_jobs = arena.alloc<ClassicalJob>(n);
    round_ids = arena.alloc<JobId>(n);
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
/// `horizon` (see yds_until). Each round's EDF writes its pieces straight
/// into `out`, joined as the round's own build() would have merged them,
/// and works in `scratch`.
void yds_fast(std::span<const ClassicalJob> jobs, Time horizon,
              const EdfTarget& out, YdsScratch& scratch) {
  // The thread arena is rewound at entry: blocks persist across solves,
  // so a warm thread performs zero heap allocations here. yds() must not
  // be re-entered from inside a solve on the same thread (no caller does;
  // EDF and the step-function algebra never call back into yds).
  SolveArena& arena = solve_arena();
  arena.reset();
  FastWorkspace ws(jobs, arena);

  const std::size_t n = ws.soa.size();
  const double* rel = ws.soa.release();
  const double* dl = ws.soa.deadline();
  const double* wk = ws.soa.work();
  QBSS_EXPECTS(out.ids.empty() || out.ids.size() == n);

  IntervalSet& used = scratch.used;
  used.clear();
  std::size_t left = n;
  // Each round's free slots and speed profile, rebuilt in place.
  std::vector<Interval>& slots = scratch.slots;
  StepFunction& profile = scratch.profile;

  // Zero-work jobs never influence intensities; mark them done upfront.
  for (std::size_t i = 0; i < n; ++i) {
    ws.done[i] = wk[i] == 0.0 ? 1 : 0;
    if (ws.done[i]) --left;
  }

  while (left > 0) {
    QBSS_COUNT("yds.rounds");
    const FastCritical crit = find_critical_fast(ws, used);
    QBSS_ENSURES(crit.contained_count > 0);

    used.gaps_within(crit.span, slots);
    profile.clear();
    for (const Interval& g : slots) {
      profile.add_constant(g, crit.intensity);
    }

    const std::size_t c = crit.contained_count;
    for (std::size_t k = 0; k < c; ++k) {
      const std::size_t id = ws.contained[k];
      ws.round_jobs[k] = ClassicalJob{rel[id], dl[id], wk[id]};
      ws.round_ids[k] = out.ids.empty() ? static_cast<JobId>(id) : out.ids[id];
    }
    EdfTarget round = out;
    round.ids = {ws.round_ids, c};
    const bool packed =
        edf_into({ws.round_jobs, c}, profile, round, /*join=*/true,
                 scratch.edf);
    QBSS_ENSURES(packed);

    used.insert(crit.span);
    for (std::size_t k = 0; k < c; ++k) {
      ws.done[ws.contained[k]] = 1;
      --left;
    }
    if (crit.span.end >= horizon) break;
  }
}

/// yds_until's precondition: a finite horizon needs a common release.
void expect_common_release(std::span<const ClassicalJob> jobs, Time horizon) {
  if (horizon == kInf) return;
  for (const ClassicalJob& j : jobs) {
    QBSS_EXPECTS(j.release == jobs[0].release);
  }
}

}  // namespace

bool yds_simd_compiled() { return false; }

Schedule yds(const Instance& instance) { return yds_until(instance, kInf); }

Schedule yds_until(const Instance& instance, Time horizon) {
  QBSS_SPAN("yds.solve");
  expect_common_release(instance.jobs(), horizon);
  ScheduleBuilder builder(instance.size());
  YdsScratch scratch;
  yds_fast(instance.jobs(), horizon, {builder}, scratch);
  return std::move(builder).build();
}

void yds_until(std::span<const ClassicalJob> jobs, Time horizon,
               const EdfTarget& out, YdsScratch& scratch) {
  QBSS_SPAN("yds.solve");
  expect_common_release(jobs, horizon);
  yds_fast(jobs, horizon, out, scratch);
}

Energy optimal_energy(const Instance& instance, double alpha) {
  return yds(instance).energy(alpha);
}

Speed optimal_max_speed(const Instance& instance) {
  return yds(instance).max_speed();
}

}  // namespace qbss::scheduling
