// Measuring competitive/approximation ratios against the clairvoyant
// optimum — the workhorse behind every Table 1 bench and the bound tests.
#pragma once

#include <cstdint>
#include <forward_list>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/piecewise.hpp"
#include "qbss/run.hpp"

namespace qbss::analysis {

/// A single-machine QBSS algorithm under measurement. A plain function
/// (a `core::QbssRun (*)(const core::QInstance&)` such as core::avrq) must
/// be a pure function of its instance: measure_cached runs it once per
/// instance and reuses that run for every alpha. Every such function in
/// src/qbss is. Any other callable (a capturing lambda, a bound object)
/// runs on every measurement.
using SingleAlgorithm = std::function<core::QbssRun(const core::QInstance&)>;

/// Ratios of one run against the clairvoyant optimum.
struct Measurement {
  /// Executed energy / optimal energy.
  double energy_ratio = 0.0;
  /// Nominal-profile energy / optimal energy (the analyzed quantity; for
  /// profile-driven algorithms like BKPQ this can exceed energy_ratio).
  double nominal_energy_ratio = 0.0;
  /// Max executed speed / optimal max speed.
  double speed_ratio = 0.0;
  /// Nominal max speed / optimal max speed.
  double nominal_speed_ratio = 0.0;
  /// validate_run verdict (model + schedule feasibility).
  bool feasible = false;
};

/// What a measurement reads of a speed profile: its busy (length, speed)
/// pieces in profile order and its maximum speed. energy(alpha) adds the
/// terms StepFunction::power_integral adds, in the same order, so it is
/// bit-identical to the profile's power_integral(alpha).
class SpeedProfile {
 public:
  explicit SpeedProfile(const StepFunction& speed);

  [[nodiscard]] Energy energy(double alpha) const;
  [[nodiscard]] Speed max_speed() const noexcept { return max_speed_; }

 private:
  struct Piece {
    Time length;
    Speed speed;
  };
  std::vector<Piece> pieces_;
  Speed max_speed_ = 0.0;
};

/// What a measurement reads of one algorithm's run: the executed profile,
/// the nominal one only where it differs (BKPQ), and the
/// `run.feasible && validate_run(...).feasible` verdict.
struct RunProfile {
  SpeedProfile executed;
  std::optional<SpeedProfile> nominal;
  bool feasible = false;
};

/// Runs `algorithm` on `instance` and measures it against the clairvoyant
/// YDS optimum at exponent `alpha`.
[[nodiscard]] Measurement measure(const core::QInstance& instance,
                                  const SingleAlgorithm& algorithm,
                                  double alpha);

/// Content-addressed memo of what measurements read, none of it
/// alpha-specific: one entry per distinct instance (collision-checked on
/// the full job vector) holding the clairvoyant optimum's SpeedProfile
/// and the RunProfile of every plain-function algorithm measured on it.
/// Sweeping a family at several alphas, or against several algorithms,
/// solves YDS once per instance and runs and validates each algorithm
/// once per instance. Thread-safe; solves and runs happen outside the
/// lock, so concurrent misses on *different* work don't serialize. A
/// measurement looks up the optimum and the run under one lock
/// acquisition.
class ClairvoyantCache {
 public:
  /// The clairvoyant optimum's profile for `instance` (YDS is solved on
  /// the first request). Valid for the cache's lifetime.
  [[nodiscard]] const SpeedProfile& optimum(const core::QInstance& instance);

  /// Distinct instances solved so far.
  [[nodiscard]] std::size_t size() const;
  /// Optimum requests answered without re-solving.
  [[nodiscard]] std::size_t hits() const;

 private:
  using Policy = core::QbssRun (*)(const core::QInstance&);

  struct Run {
    Policy policy;
    RunProfile profile;
  };
  // Entries and runs sit in list nodes, which never move, so references
  // handed out stay valid while other threads insert.
  struct Entry {
    std::vector<core::QJob> jobs;  // collision check: full job content
    SpeedProfile optimum;
    std::forward_list<Run> runs;  // one per policy measured; guarded by mu_

    /// `policy`'s run, or null; needs mu_ held.
    [[nodiscard]] const RunProfile* run(Policy policy) const;
  };

  /// What the memo held for one measurement: its entry (null on a miss)
  /// and, for a plain function, the run (null when not memoized yet).
  struct Lookup {
    std::uint64_t key = 0;
    Entry* entry = nullptr;
    const RunProfile* run = nullptr;
  };

  /// Looks up `instance`'s entry and, when `policy` is set, its run under
  /// one lock acquisition, counting hits and misses.
  Lookup lookup(const core::QInstance& instance, Policy policy);
  /// Solves the optimum `found` missed and installs it (the first insert
  /// wins), then looks up the run as lookup() does.
  void solve(const core::QInstance& instance, Policy policy, Lookup& found);
  /// Measures `instance` from `found`, first solving the optimum and
  /// running `algorithm` where the memo did not hold them.
  Measurement complete(const core::QInstance& instance,
                       const SingleAlgorithm& algorithm, Policy policy,
                       double alpha, Lookup found);
  // Both need mu_ held.
  Entry* find(std::uint64_t key, const core::QInstance& instance);
  void find_run(Lookup& found, Policy policy);

  friend Measurement measure_cached(const core::QInstance& instance,
                                    const SingleAlgorithm& algorithm,
                                    double alpha, ClairvoyantCache& cache);
  friend std::vector<Measurement> measure_seeds(
      const std::function<core::QInstance(std::uint64_t)>& make, int seeds,
      const SingleAlgorithm& algorithm, double alpha,
      ClairvoyantCache* cache);

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::forward_list<Entry>> buckets_;
  std::size_t hits_ = 0;
};

/// `measure`, but the clairvoyant optimum, and the run of a plain-function
/// algorithm, come from (and are installed into) `cache`. Bit-identical
/// to `measure`, just cheaper on repeat instances.
[[nodiscard]] Measurement measure_cached(const core::QInstance& instance,
                                         const SingleAlgorithm& algorithm,
                                         double alpha,
                                         ClairvoyantCache& cache);

/// Worst/average ratios across a family of instances.
struct Aggregate {
  int count = 0;
  int infeasible = 0;
  double max_energy_ratio = 0.0;
  double sum_energy_ratio = 0.0;
  double max_nominal_energy_ratio = 0.0;
  double max_speed_ratio = 0.0;
  double sum_speed_ratio = 0.0;

  void absorb(const Measurement& m);
  [[nodiscard]] double mean_energy_ratio() const {
    return count > 0 ? sum_energy_ratio / count : 0.0;
  }
};

/// Measures `algorithm` on make(seed) for every seed in [0, seeds).
/// Returns the measurements in seed order — bit-identical to a serial loop
/// for any thread count — for benches with custom reductions. `cache`
/// (optional) memoizes the clairvoyant optima and the runs (see
/// ClairvoyantCache). `make` runs on the calling thread, in seed order.
/// So does every measurement `cache` holds in full (optimum and run); only
/// the rest fan out across worker threads (common::parallel_for, honoring
/// QBSS_THREADS), and none start when nothing is left. The memo's hits,
/// size and counters come out as a serial loop of measure_cached's.
[[nodiscard]] std::vector<Measurement> measure_seeds(
    const std::function<core::QInstance(std::uint64_t)>& make, int seeds,
    const SingleAlgorithm& algorithm, double alpha,
    ClairvoyantCache* cache = nullptr);

/// measure_seeds absorbed into an Aggregate (in seed order).
[[nodiscard]] Aggregate sweep_family(
    const std::function<core::QInstance(std::uint64_t)>& make, int seeds,
    const SingleAlgorithm& algorithm, double alpha,
    ClairvoyantCache* cache = nullptr);

}  // namespace qbss::analysis
