// QBSS instances and the information gate.
#pragma once

#include <span>
#include <vector>

#include "qbss/qjob.hpp"

namespace qbss::core {

/// An instance of the QBSS model: a set of quintuple jobs.
class QInstance {
 public:
  QInstance() = default;
  explicit QInstance(std::vector<QJob> jobs) : jobs_(std::move(jobs)) {
    for (const QJob& j : jobs_) QBSS_EXPECTS(j.valid());
  }

  /// Appends a job and returns its id.
  JobId add(Time release, Time deadline, Work query_cost, Work upper_bound,
            Work exact_load) {
    const QJob j{release, deadline, query_cost, upper_bound, exact_load};
    QBSS_EXPECTS(j.valid());
    jobs_.push_back(j);
    return static_cast<JobId>(jobs_.size() - 1);
  }

  /// Makes room for `n` jobs, so a generator's adds allocate once.
  void reserve(std::size_t n) { jobs_.reserve(n); }

  [[nodiscard]] std::span<const QJob> jobs() const noexcept { return jobs_; }
  [[nodiscard]] const QJob& job(JobId id) const {
    QBSS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < jobs_.size());
    return jobs_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return jobs_.empty(); }

  /// True iff all jobs are released at time 0 (offline Sections 4.2-4.4).
  [[nodiscard]] bool common_release() const noexcept {
    for (const QJob& j : jobs_) {
      if (j.release != 0.0) return false;
    }
    return true;
  }

  /// True iff all jobs share one deadline (Section 4.2's setting).
  [[nodiscard]] bool common_deadline() const noexcept {
    for (const QJob& j : jobs_) {
      if (j.deadline != jobs_.front().deadline) return false;
    }
    return true;
  }

 private:
  std::vector<QJob> jobs_;
};

/// Runtime enforcement of the QBSS information model: w*_j may be read
/// only after the algorithm committed to (and finished) the query of j.
/// Algorithms thread all exact-load accesses through a gate so a coding
/// mistake that peeks at hidden data aborts instead of silently producing
/// a clairvoyant "online" algorithm.
class RevealGate {
 public:
  explicit RevealGate(const QInstance& instance)
      : instance_(&instance), revealed_(instance.size(), false) {}

  /// Marks j's query as completed (callable once the algorithm scheduled
  /// the full query load before this point in its timeline).
  void reveal(JobId id) {
    QBSS_EXPECTS(id >= 0 &&
                 static_cast<std::size_t>(id) < revealed_.size());
    revealed_[static_cast<std::size_t>(id)] = true;
  }

  /// The exact load — aborts if the query did not run.
  [[nodiscard]] Work exact_load(JobId id) const {
    QBSS_EXPECTS(id >= 0 &&
                 static_cast<std::size_t>(id) < revealed_.size());
    QBSS_EXPECTS(revealed_[static_cast<std::size_t>(id)]);
    return instance_->job(id).exact_load;
  }

  [[nodiscard]] bool is_revealed(JobId id) const {
    QBSS_EXPECTS(id >= 0 &&
                 static_cast<std::size_t>(id) < revealed_.size());
    return revealed_[static_cast<std::size_t>(id)];
  }

 private:
  const QInstance* instance_;
  std::vector<bool> revealed_;
};

}  // namespace qbss::core
