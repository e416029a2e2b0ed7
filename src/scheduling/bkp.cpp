#include "scheduling/bkp.hpp"

#include <algorithm>
#include <vector>

#include "common/constants.hpp"
#include "scheduling/edf.hpp"

namespace qbss::scheduling {

StepFunction bkp_profile(const Instance& instance) {
  if (instance.empty()) return {};
  const auto jobs = instance.jobs();
  const std::size_t n = instance.size();

  std::vector<Time> releases;
  std::vector<Time> deadlines;
  releases.reserve(n);
  deadlines.reserve(n);
  for (const ClassicalJob& j : jobs) {
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
  std::vector<std::size_t> by_release(n);
  for (std::size_t i = 0; i < n; ++i) by_release[i] = i;
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t a, std::size_t b) {
              return jobs[a].release < jobs[b].release;
            });

  // On a grid piece (a, b] the candidates are t1 <= a (t1 < t for every t
  // in the piece) and t2 >= b, over the jobs arrived by a. Both the
  // arrived set and the t1 candidates change only at a release, so each
  // arrival epoch evaluates every deadline t2 once, and best_from[d] (the
  // suffix maximum over deadlines[d..]) answers each of its pieces.
  // std::max is exact, so a piece gets the value a direct scan of its
  // (t1, t2) pairs would give.
  std::vector<double> best_from(deadlines.size() + 1, 0.0);
  std::size_t epoch = 0;    // releases[0, epoch) are <= a
  std::size_t arrived = 0;  // by_release[0, arrived) have arrived
  std::size_t first_t2 = 0;  // deadlines[first_t2] is the first >= b

  StepFunction profile;
  for (std::size_t g = 0; g + 1 < grid.size(); ++g) {
    const Time a = grid[g];
    const Time b = grid[g + 1];

    if (epoch < releases.size() && releases[epoch] <= a) {
      while (epoch < releases.size() && releases[epoch] <= a) ++epoch;
      while (arrived < n && jobs[by_release[arrived]].release <= a) {
        ++arrived;
      }
      // Every piece of the epoch has b > releases[epoch - 1], so only
      // deadlines past it are ever read; each lies right of every t1.
      for (std::size_t d = deadlines.size(); d-- > 0;) {
        const Time t2 = deadlines[d];
        if (t2 <= releases[epoch - 1]) break;
        // suffix = total work of arrived jobs with release >= t1 and
        // deadline <= t2, accumulated over by_release right to left.
        Work suffix = 0.0;
        double best = 0.0;
        std::size_t r = arrived;
        for (std::size_t k = epoch; k-- > 0;) {
          const Time t1 = releases[k];
          while (r > 0 && jobs[by_release[r - 1]].release >= t1) {
            const ClassicalJob& j = jobs[by_release[r - 1]];
            if (j.deadline <= t2) suffix += j.work;
            --r;
          }
          best = std::max(best, suffix / (t2 - t1));
        }
        best_from[d] = std::max(best, best_from[d + 1]);
      }
    }

    while (first_t2 < deadlines.size() && deadlines[first_t2] < b) {
      ++first_t2;
    }
    const double best = best_from[first_t2];
    if (best > 0.0) profile.add_constant({a, b}, kE * best);
  }
  return profile;
}

OnlineRun bkp(const Instance& instance) {
  OnlineRun run;
  run.nominal = bkp_profile(instance);
  EdfResult edf = edf_allocate(instance, run.nominal);
  run.feasible = edf.feasible;
  run.schedule = std::move(edf.schedule);
  return run;
}

}  // namespace qbss::scheduling
