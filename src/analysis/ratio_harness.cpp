#include "analysis/ratio_harness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

#include "common/parallel_for.hpp"
#include "obs/histogram.hpp"
#include "obs/span.hpp"
#include "qbss/clairvoyant.hpp"

namespace qbss::analysis {

namespace {

/// Every ratio of a measurement, from the profiles it reads.
Measurement ratios(const SpeedProfile& opt, const RunProfile& run,
                   double alpha) {
  const Energy opt_energy = opt.energy(alpha);
  const Speed opt_speed = opt.max_speed();
  QBSS_EXPECTS(opt_energy > 0.0 && opt_speed > 0.0);

  // A run without a nominal profile of its own is its executed profile.
  const Energy energy = run.executed.energy(alpha);
  const Energy nominal_energy =
      run.nominal ? run.nominal->energy(alpha) : energy;
  const Speed speed = run.executed.max_speed();
  const Speed nominal_speed = run.nominal ? run.nominal->max_speed() : speed;
  Measurement m;
  m.energy_ratio = energy / opt_energy;
  m.nominal_energy_ratio = nominal_energy / opt_energy;
  m.speed_ratio = speed / opt_speed;
  m.nominal_speed_ratio = nominal_speed / opt_speed;
  m.feasible = run.feasible;
  QBSS_HIST("harness.energy_ratio", m.energy_ratio);
  QBSS_HIST("harness.speed_ratio", m.speed_ratio);
  QBSS_HIST("harness.peak_speed", speed);
  return m;
}

/// Runs and validates `algorithm` once, keeping what measurements read.
RunProfile profile_run(const core::QInstance& instance,
                       const SingleAlgorithm& algorithm) {
  const core::QbssRun run = algorithm(instance);
  const StepFunction& executed = run.schedule.speed();
  RunProfile profile{
      SpeedProfile(executed), std::nullopt,
      run.feasible && core::validate_run(instance, run).feasible};
  if (run.nominal.pieces() != executed.pieces()) {
    profile.nominal.emplace(run.nominal);
  }
  return profile;
}

/// Content hash for the memo over the five doubles of every job, one
/// multiply-xorshift step per double's bit pattern. It only picks a
/// bucket; same_jobs decides equality.
std::uint64_t content_hash(const core::QInstance& instance) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](double v) {
    h = (h ^ std::bit_cast<std::uint64_t>(v)) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  };
  for (const core::QJob& j : instance.jobs()) {
    mix(j.release);
    mix(j.deadline);
    mix(j.query_cost);
    mix(j.upper_bound);
    mix(j.exact_load);
  }
  return h;
}

bool same_jobs(const std::vector<core::QJob>& a,
               std::span<const core::QJob> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

using PlainFunction = core::QbssRun (*)(const core::QInstance&);

/// The plain function `algorithm` holds, whose runs the memo keeps; null
/// for any other callable.
PlainFunction plain_function(const SingleAlgorithm& algorithm) {
  const PlainFunction* f = algorithm.target<PlainFunction>();
  return f != nullptr ? *f : nullptr;
}

}  // namespace

SpeedProfile::SpeedProfile(const StepFunction& speed)
    : max_speed_(speed.max_value()) {
  const auto busy = [](const Segment& p) { return p.value > 0.0; };
  pieces_.reserve(static_cast<std::size_t>(
      std::count_if(speed.pieces().begin(), speed.pieces().end(), busy)));
  for (const Segment& p : speed.pieces()) {
    if (busy(p)) pieces_.push_back({p.span.length(), p.value});
  }
}

Energy SpeedProfile::energy(double alpha) const {
  QBSS_EXPECTS(alpha > 0.0);
  double total = 0.0;
  for (const Piece& p : pieces_) total += p.length * std::pow(p.speed, alpha);
  return total;
}

Measurement measure(const core::QInstance& instance,
                    const SingleAlgorithm& algorithm, double alpha) {
  QBSS_SPAN("harness.measure");
  const SpeedProfile opt(core::clairvoyant_schedule(instance).speed());
  return ratios(opt, profile_run(instance, algorithm), alpha);
}

ClairvoyantCache::Entry* ClairvoyantCache::find(
    std::uint64_t key, const core::QInstance& instance) {
  if (const auto it = buckets_.find(key); it != buckets_.end()) {
    for (Entry& e : it->second) {
      if (same_jobs(e.jobs, instance.jobs())) return &e;
    }
  }
  return nullptr;
}

const RunProfile* ClairvoyantCache::Entry::run(Policy policy) const {
  for (const Run& r : runs) {
    if (r.policy == policy) return &r.profile;
  }
  return nullptr;
}

void ClairvoyantCache::find_run(Lookup& found, Policy policy) {
  if (policy == nullptr) return;
  found.run = found.entry->run(policy);
  if (found.run != nullptr) {
    QBSS_COUNT("cache.run.hit");
  } else {
    QBSS_COUNT("cache.run.miss");
  }
}

ClairvoyantCache::Lookup ClairvoyantCache::lookup(
    const core::QInstance& instance, Policy policy) {
  Lookup found;
  found.key = content_hash(instance);
  const std::lock_guard<std::mutex> lock(mu_);
  found.entry = find(found.key, instance);
  if (found.entry == nullptr) {
    QBSS_COUNT("cache.clairvoyant.miss");
    return found;
  }
  ++hits_;
  QBSS_COUNT("cache.clairvoyant.hit");
  find_run(found, policy);
  return found;
}

void ClairvoyantCache::solve(const core::QInstance& instance, Policy policy,
                             Lookup& found) {
  // Solve outside the lock; a racing thread may solve the same instance,
  // in which case the first insert wins (the solver is deterministic, so
  // both profiles are identical anyway).
  SpeedProfile solved(core::clairvoyant_schedule(instance).speed());

  const std::lock_guard<std::mutex> lock(mu_);
  found.entry = find(found.key, instance);
  if (found.entry != nullptr) {
    ++hits_;
  } else {
    found.entry = &buckets_[found.key].emplace_front(
        Entry{{instance.jobs().begin(), instance.jobs().end()},
              std::move(solved),
              {}});
  }
  find_run(found, policy);
}

Measurement ClairvoyantCache::complete(const core::QInstance& instance,
                                       const SingleAlgorithm& algorithm,
                                       Policy policy, double alpha,
                                       Lookup found) {
  if (found.entry == nullptr) solve(instance, policy, found);
  if (policy == nullptr) {
    return ratios(found.entry->optimum, profile_run(instance, algorithm),
                  alpha);
  }
  if (found.run == nullptr) {
    // Run outside the lock, as for the optimum: the first insert wins.
    RunProfile ran = profile_run(instance, policy);

    const std::lock_guard<std::mutex> lock(mu_);
    found.run = found.entry->run(policy);
    if (found.run == nullptr) {
      found.run =
          &found.entry->runs.emplace_front(Run{policy, std::move(ran)}).profile;
    }
  }
  return ratios(found.entry->optimum, *found.run, alpha);
}

const SpeedProfile& ClairvoyantCache::optimum(
    const core::QInstance& instance) {
  Lookup found = lookup(instance, nullptr);
  if (found.entry == nullptr) solve(instance, nullptr, found);
  return found.entry->optimum;
}

std::size_t ClairvoyantCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [key, bucket] : buckets_) {
    total += static_cast<std::size_t>(
        std::distance(bucket.begin(), bucket.end()));
  }
  return total;
}

std::size_t ClairvoyantCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

Measurement measure_cached(const core::QInstance& instance,
                           const SingleAlgorithm& algorithm, double alpha,
                           ClairvoyantCache& cache) {
  QBSS_SPAN("harness.measure");
  const ClairvoyantCache::Policy policy = plain_function(algorithm);
  return cache.complete(instance, algorithm, policy, alpha,
                        cache.lookup(instance, policy));
}

void Aggregate::absorb(const Measurement& m) {
  ++count;
  if (!m.feasible) ++infeasible;
  max_energy_ratio = std::max(max_energy_ratio, m.energy_ratio);
  sum_energy_ratio += m.energy_ratio;
  max_nominal_energy_ratio =
      std::max(max_nominal_energy_ratio, m.nominal_energy_ratio);
  max_speed_ratio = std::max(max_speed_ratio, m.speed_ratio);
  sum_speed_ratio += m.speed_ratio;
}

std::vector<Measurement> measure_seeds(
    const std::function<core::QInstance(std::uint64_t)>& make, int seeds,
    const SingleAlgorithm& algorithm, double alpha, ClairvoyantCache* cache) {
  QBSS_EXPECTS(seeds >= 0);
  QBSS_SPAN("harness.measure_seeds");
  QBSS_COUNT_ADD("sweep.instances", seeds);
  const ClairvoyantCache::Policy policy = plain_function(algorithm);

  // Every instance is made here, in seed order, and whatever the memo
  // holds in full is measured here: a pool of threads costs far more than
  // a memo hit. Only the seeds with work left fan out.
  struct Pending {
    std::size_t seed;
    core::QInstance instance;
    ClairvoyantCache::Lookup found;
  };
  std::vector<Measurement> results(static_cast<std::size_t>(seeds));
  std::vector<Pending> pending;
  for (std::size_t seed = 0; seed < results.size(); ++seed) {
    core::QInstance instance = make(static_cast<std::uint64_t>(seed));
    ClairvoyantCache::Lookup found;
    if (cache != nullptr) {
      found = cache->lookup(instance, policy);
      if (found.run != nullptr) {
        QBSS_SPAN("harness.measure");
        results[seed] = ratios(found.entry->optimum, *found.run, alpha);
        continue;
      }
    }
    pending.push_back({seed, std::move(instance), found});
  }
  if (pending.empty()) return results;

  common::parallel_for(pending.size(), [&](std::size_t i) {
    const Pending& p = pending[i];
    if (cache == nullptr) {
      results[p.seed] = measure(p.instance, algorithm, alpha);
      return;
    }
    QBSS_SPAN("harness.measure");
    results[p.seed] =
        cache->complete(p.instance, algorithm, policy, alpha, p.found);
  });
  return results;
}

Aggregate sweep_family(
    const std::function<core::QInstance(std::uint64_t)>& make, int seeds,
    const SingleAlgorithm& algorithm, double alpha, ClairvoyantCache* cache) {
  // Seed-order merge: identical to the serial loop for any thread count.
  Aggregate agg;
  for (const Measurement& m : measure_seeds(make, seeds, algorithm, alpha,
                                            cache)) {
    agg.absorb(m);
  }
  return agg;
}

}  // namespace qbss::analysis
