#include "scheduling/oa.hpp"

#include <algorithm>
#include <vector>

#include "scheduling/edf.hpp"
#include "scheduling/yds.hpp"

namespace qbss::scheduling {

namespace {

constexpr double kWorkEps = 1e-10;

}  // namespace

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
  // EDF may snap a finish onto a cell boundary and run that job a little
  // past its work (edf.hpp); the job it short-changes ends its window with
  // a sliver this size left, at most.
  const Work sliver = kEps * instance.total_work();

  ScheduleBuilder builder(n);
  std::vector<ClassicalJob> plan;
  plan.reserve(n);
  std::vector<JobId> plan_ids;
  plan_ids.reserve(n);
  // Work each job runs in the current replan's window.
  std::vector<Work> executed(n, 0.0);
  EdfScratch scratch;

  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const Time now = arrivals[k];
    const Time until = (k + 1 < arrivals.size()) ? arrivals[k + 1] : kInf;

    // Plan: YDS on the remaining work of everything released by `now`.
    // Every plan job is released at `now`, so the plan's rounds run left
    // to right and the ones past `until` need not be solved.
    plan.clear();
    plan_ids.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const ClassicalJob& j = instance.jobs()[i];
      if (j.release > now || remaining[i] <= kWorkEps) continue;
      if (j.deadline <= now) {
        QBSS_ENSURES(remaining[i] <= sliver);  // OA never misses a deadline
        continue;
      }
      plan.push_back({now, j.deadline, remaining[i]});
      plan_ids.push_back(static_cast<JobId>(i));
      executed[i] = 0.0;
    }
    if (plan.empty()) continue;

    // Follow the plan until the next arrival (or to completion): its
    // pieces on (now, until] go straight into the builder.
    yds_until(plan, until, {builder, plan_ids, {now, until}, executed.data()},
              scratch);
    for (const JobId id : plan_ids) {
      auto& rem = remaining[static_cast<std::size_t>(id)];
      rem = std::max(0.0, rem - executed[static_cast<std::size_t>(id)]);
    }
  }

  return std::move(builder).build();
}

}  // namespace qbss::scheduling
