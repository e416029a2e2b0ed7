// A classical speed-scaling instance: an ordered set of jobs.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "scheduling/job.hpp"

namespace qbss::scheduling {

/// Instance = list of classical jobs. Job ids are indices into the list.
class Instance {
 public:
  Instance() = default;
  explicit Instance(std::vector<ClassicalJob> jobs) : jobs_(std::move(jobs)) {
    for (const ClassicalJob& j : jobs_) QBSS_EXPECTS(j.valid());
  }

  /// Appends a job and returns its id.
  JobId add(Time release, Time deadline, Work work) {
    const ClassicalJob j{release, deadline, work};
    QBSS_EXPECTS(j.valid());
    jobs_.push_back(j);
    return static_cast<JobId>(jobs_.size() - 1);
  }

  /// Makes room for `n` jobs, so the adds that follow allocate once.
  void reserve(std::size_t n) { jobs_.reserve(n); }

  [[nodiscard]] std::span<const ClassicalJob> jobs() const noexcept {
    return jobs_;
  }
  [[nodiscard]] const ClassicalJob& job(JobId id) const {
    QBSS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < jobs_.size());
    return jobs_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return jobs_.empty(); }

  /// Sum of all workloads.
  [[nodiscard]] Work total_work() const {
    Work w = 0.0;
    for (const auto& j : jobs_) w += j.work;
    return w;
  }

  /// Sorted distinct release times and deadlines — the breakpoints at which
  /// any density-driven speed profile can change.
  [[nodiscard]] std::vector<Time> event_times() const {
    std::vector<Time> ts;
    ts.reserve(2 * jobs_.size());
    for (const auto& j : jobs_) {
      ts.push_back(j.release);
      ts.push_back(j.deadline);
    }
    std::sort(ts.begin(), ts.end());
    ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
    return ts;
  }

  /// Latest deadline (0 for the empty instance).
  [[nodiscard]] Time horizon() const {
    Time h = 0.0;
    for (const auto& j : jobs_) h = std::max(h, j.deadline);
    return h;
  }

  /// True iff all jobs share release time 0.
  [[nodiscard]] bool common_release() const {
    return std::all_of(jobs_.begin(), jobs_.end(),
                       [](const ClassicalJob& j) { return j.release == 0.0; });
  }

 private:
  std::vector<ClassicalJob> jobs_;
};

}  // namespace qbss::scheduling
