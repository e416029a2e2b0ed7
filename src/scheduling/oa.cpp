#include "scheduling/oa.hpp"

#include <algorithm>
#include <vector>

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
  std::vector<JobId> plan_ids;
  plan_ids.reserve(n);

  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const Time now = arrivals[k];
    const Time until = (k + 1 < arrivals.size()) ? arrivals[k + 1] : kInf;

    // Plan: YDS on the remaining work of everything released by `now`.
    // Every plan job is released at `now`, so the plan's rounds run left
    // to right and the ones past `until` need not be solved.
    Instance plan_instance;
    plan_ids.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const ClassicalJob& j = instance.jobs()[i];
      if (j.release > now || remaining[i] <= kWorkEps) continue;
      if (j.deadline <= now) {
        QBSS_ENSURES(remaining[i] <= sliver);  // OA never misses a deadline
        continue;
      }
      plan_instance.add(now, j.deadline, remaining[i]);
      plan_ids.push_back(static_cast<JobId>(i));
    }
    if (plan_instance.empty()) continue;

    const Schedule plan = yds_until(plan_instance, until);

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

}  // namespace qbss::scheduling
