// The deterministic fan-out substrate: parallel_for index coverage and
// exception plumbing, the clairvoyant and run memo, and bit-identical
// parallel sweeps — the invariants every bench table's byte-stability
// rests on. measure_seeds answers memoized seeds on the calling thread:
// its results, memo statistics and counters must be those of a serial
// measure_cached loop however warm the memo is.
#include "common/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/ratio_harness.hpp"
#include "gen/compression.hpp"
#include "gen/random_instances.hpp"
#include "qbss/avrq.hpp"
#include "qbss/bkpq.hpp"
#include "qbss/clairvoyant.hpp"
#include "qbss/crad.hpp"
#include "qbss/crcd.hpp"
#include "qbss/crp2d.hpp"
#include "qbss/oaq.hpp"
#include "obs/registry.hpp"
#include "qbss/run.hpp"
#include "scheduling/schedule.hpp"

namespace qbss {
namespace {

/// Scoped QBSS_THREADS override (restores the prior state on exit).
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    const char* old = std::getenv("QBSS_THREADS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("QBSS_THREADS", value, 1);
    } else {
      ::unsetenv("QBSS_THREADS");
    }
  }
  ~ThreadsEnv() {
    if (had_old_) {
      ::setenv("QBSS_THREADS", old_.c_str(), 1);
    } else {
      ::unsetenv("QBSS_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h.store(0);
    common::parallel_for(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, threads);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  int calls = 0;
  common::parallel_for(0, [&](std::size_t) { ++calls; }, 8);
  EXPECT_EQ(calls, 0);
  // More threads than items: every item still runs exactly once.
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  common::parallel_for(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      common::parallel_for(
          32,
          [](std::size_t i) {
            if (i == 7) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, WorkerCountHonorsEnvOverride) {
  {
    ThreadsEnv env("3");
    EXPECT_EQ(common::worker_count(), 3u);
  }
  {
    ThreadsEnv env("0");  // non-positive: clamp to serial
    EXPECT_EQ(common::worker_count(), 1u);
  }
  {
    ThreadsEnv env(nullptr);
    EXPECT_GE(common::worker_count(), 1u);
  }
}

TEST(ClairvoyantCache, SolvesEachDistinctInstanceOnce) {
  analysis::ClairvoyantCache cache;
  const core::QInstance a = gen::random_online(10, 8.0, 0.5, 4.0, 1);
  const core::QInstance b = gen::random_online(10, 8.0, 0.5, 4.0, 2);

  const analysis::SpeedProfile& p1 = cache.optimum(a);
  const analysis::SpeedProfile& p2 = cache.optimum(a);
  EXPECT_EQ(&p1, &p2);  // same memo entry, not a re-solve
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  (void)cache.optimum(b);
  EXPECT_EQ(cache.size(), 2u);

  // The memoized profile is the clairvoyant optimum, bit for bit.
  EXPECT_EQ(p1.energy(3.0), core::clairvoyant_energy(a, 3.0));
  EXPECT_EQ(p1.max_speed(), core::clairvoyant_max_speed(a));
}

TEST(MeasureCached, MatchesUncachedMeasureExactly) {
  analysis::ClairvoyantCache cache;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const core::QInstance inst = gen::random_online(12, 8.0, 0.5, 4.0, seed);
    for (const double alpha : {2.0, 3.0}) {
      const analysis::Measurement plain =
          analysis::measure(inst, core::avrq, alpha);
      const analysis::Measurement cached =
          analysis::measure_cached(inst, core::avrq, alpha, cache);
      EXPECT_EQ(plain.energy_ratio, cached.energy_ratio);
      EXPECT_EQ(plain.nominal_energy_ratio, cached.nominal_energy_ratio);
      EXPECT_EQ(plain.speed_ratio, cached.speed_ratio);
      EXPECT_EQ(plain.nominal_speed_ratio, cached.nominal_speed_ratio);
      EXPECT_EQ(plain.feasible, cached.feasible);
    }
  }
  // Two alphas per instance: the second measure reuses the memo.
  EXPECT_EQ(cache.size(), 6u);
  EXPECT_GE(cache.hits(), 6u);
}

bool same_bits(const analysis::Measurement& a,
               const analysis::Measurement& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return same(a.energy_ratio, b.energy_ratio) &&
         same(a.nominal_energy_ratio, b.nominal_energy_ratio) &&
         same(a.speed_ratio, b.speed_ratio) &&
         same(a.nominal_speed_ratio, b.nominal_speed_ratio) &&
         a.feasible == b.feasible;
}

constexpr double kAlphas[] = {1.5, 2.0, 2.5, 3.0};

using Make = std::function<core::QInstance(std::uint64_t)>;

Make online_family() {
  return [](std::uint64_t s) {
    return gen::random_online(12, 8.0, 0.5, 4.0, s);
  };
}

/// The ratios straight from the full run and the optimum's Schedule,
/// through StepFunction::power_integral and max_value: what the
/// profiles must reproduce bit for bit.
analysis::Measurement from_schedules(
    const core::QInstance& instance,
    core::QbssRun (*algorithm)(const core::QInstance&), double alpha) {
  const scheduling::Schedule opt = core::clairvoyant_schedule(instance);
  const core::QbssRun run = algorithm(instance);
  analysis::Measurement m;
  m.energy_ratio = run.energy(alpha) / opt.energy(alpha);
  m.nominal_energy_ratio = run.nominal_energy(alpha) / opt.energy(alpha);
  m.speed_ratio = run.max_speed() / opt.max_speed();
  m.nominal_speed_ratio = run.nominal_max_speed() / opt.max_speed();
  m.feasible = run.feasible && core::validate_run(instance, run).feasible;
  return m;
}

TEST(MeasureCached, EveryTable1RowMatchesUncachedMeasureBitForBit) {
  // The rows and families of qbench's sweep_table1.
  gen::CompressionConfig stream;
  stream.files = 15;
  const Make compression = [stream](std::uint64_t s) {
    return gen::compression_stream(stream, 12.0, 3.0, s);
  };
  struct Row {
    const char* name;
    core::QbssRun (*run)(const core::QInstance&);
    Make family;
  };
  const std::vector<Row> rows = {
      {"crcd", core::crcd,
       [](std::uint64_t s) { return gen::random_common_deadline(15, 6.0, s); }},
      {"crp2d", core::crp2d,
       [](std::uint64_t s) { return gen::random_pow2_deadlines(15, 4, s); }},
      {"crad", core::crad,
       [](std::uint64_t s) {
         return gen::random_arbitrary_deadlines(15, 12.0, s);
       }},
      {"avrq", core::avrq, online_family()},
      {"avrq", core::avrq, compression},
      {"bkpq", core::bkpq, online_family()},
      {"bkpq", core::bkpq, compression},
      {"oaq", core::oaq, online_family()},
      {"oaq", core::oaq, compression},
  };
  constexpr int kSeeds = 6;
  analysis::ClairvoyantCache cache;  // one memo for every row and alpha
  for (const Row& row : rows) {
    for (const double alpha : kAlphas) {
      const std::vector<analysis::Measurement> cached =
          analysis::measure_seeds(row.family, kSeeds, row.run, alpha, &cache);
      for (int s = 0; s < kSeeds; ++s) {
        const core::QInstance instance =
            row.family(static_cast<std::uint64_t>(s));
        const analysis::Measurement plain =
            analysis::measure(instance, row.run, alpha);
        EXPECT_TRUE(same_bits(plain, cached[static_cast<std::size_t>(s)]))
            << row.name << " alpha " << alpha << " seed " << s;
        EXPECT_TRUE(
            same_bits(plain, from_schedules(instance, row.run, alpha)))
            << row.name << " alpha " << alpha << " seed " << s;
      }
    }
  }
}

std::atomic<int> counted_avrq_calls{0};

core::QbssRun counted_avrq(const core::QInstance& instance) {
  counted_avrq_calls.fetch_add(1);
  return core::avrq(instance);
}

TEST(MeasureCached, RunsAPlainFunctionOncePerInstanceAcrossAlphas) {
  constexpr int kSeeds = 8;
  for (const char* threads : {"1", "4"}) {
    ThreadsEnv env(threads);
    counted_avrq_calls.store(0);
    analysis::ClairvoyantCache cache;
    for (const double alpha : kAlphas) {
      const std::vector<analysis::Measurement> cached =
          analysis::measure_seeds(online_family(), kSeeds, counted_avrq,
                                  alpha, &cache);
      for (int s = 0; s < kSeeds; ++s) {
        EXPECT_TRUE(same_bits(
            analysis::measure(online_family()(static_cast<std::uint64_t>(s)),
                              core::avrq, alpha),
            cached[static_cast<std::size_t>(s)]))
            << threads << " threads, alpha " << alpha << " seed " << s;
      }
    }
    EXPECT_EQ(counted_avrq_calls.load(), kSeeds) << threads << " threads";
  }
}

TEST(MeasureCached, RunsACapturingLambdaEveryTime) {
  constexpr int kSeeds = 4;
  std::atomic<int> calls{0};
  const analysis::SingleAlgorithm captured =
      [&calls](const core::QInstance& instance) {
        calls.fetch_add(1);
        return core::avrq(instance);
      };
  analysis::ClairvoyantCache cache;
  for (const double alpha : kAlphas) {
    const std::vector<analysis::Measurement> cached =
        analysis::measure_seeds(online_family(), kSeeds, captured, alpha,
                                &cache);
    for (int s = 0; s < kSeeds; ++s) {
      EXPECT_TRUE(same_bits(
          analysis::measure(online_family()(static_cast<std::uint64_t>(s)),
                            core::avrq, alpha),
          cached[static_cast<std::size_t>(s)]))
          << "alpha " << alpha << " seed " << s;
    }
  }
  EXPECT_EQ(calls.load(), 4 * kSeeds);
}

TEST(MeasureCached, AlgorithmsOnOneInstanceKeepTheirOwnRuns) {
  const core::QInstance inst = online_family()(3);
  analysis::ClairvoyantCache cache;
  for (const double alpha : kAlphas) {
    const analysis::Measurement by_avrq =
        analysis::measure_cached(inst, core::avrq, alpha, cache);
    const analysis::Measurement by_bkpq =
        analysis::measure_cached(inst, core::bkpq, alpha, cache);
    EXPECT_TRUE(
        same_bits(by_avrq, analysis::measure(inst, core::avrq, alpha)));
    EXPECT_TRUE(
        same_bits(by_bkpq, analysis::measure(inst, core::bkpq, alpha)));
    EXPECT_FALSE(same_bits(by_avrq, by_bkpq)) << "alpha " << alpha;
  }
  EXPECT_EQ(cache.size(), 1u);  // one instance, one optimum
}

/// How warm the memo is before measure_seeds runs.
enum class Warmth { kCold, kWarm, kEvenSeeds, kOptimumOnly };

const char* name(Warmth w) {
  switch (w) {
    case Warmth::kCold: return "cold";
    case Warmth::kWarm: return "warm";
    case Warmth::kEvenSeeds: return "even seeds warm";
    case Warmth::kOptimumOnly: return "optimum only";
  }
  return "?";
}

constexpr int kWarmthSeeds = 12;
constexpr double kWarmthAlpha = 2.5;

/// Brings a fresh memo to `w` through measure_cached, at another alpha
/// (runs are alpha-free, so this warms them as well).
void warm_up(analysis::ClairvoyantCache& cache, Warmth w) {
  const Make make = online_family();
  for (int s = 0; s < kWarmthSeeds; ++s) {
    const core::QInstance inst = make(static_cast<std::uint64_t>(s));
    if (w == Warmth::kWarm || (w == Warmth::kEvenSeeds && s % 2 == 0)) {
      static_cast<void>(analysis::measure_cached(inst, core::avrq, 2.0, cache));
    } else if (w == Warmth::kOptimumOnly) {
      static_cast<void>(analysis::measure_cached(inst, core::bkpq, 2.0, cache));
    }
  }
}

/// What a measurement changes: the memo's statistics and, with
/// observability compiled in, its counters and the fan-out's.
struct MemoDelta {
  std::size_t size = 0;
  std::size_t hits = 0;
  std::vector<std::uint64_t> counters;
};

const char* const kDeltaCounters[] = {
    "cache.clairvoyant.hit", "cache.clairvoyant.miss", "cache.run.hit",
    "cache.run.miss",        "parallel_for.calls",     "parallel_for.tasks"};

std::vector<std::uint64_t> delta_counters() {
  std::vector<std::uint64_t> out;
  for (const char* c : kDeltaCounters) {
    out.push_back(obs::registry().counter(c).get());
  }
  return out;
}

template <typename Body>
MemoDelta measure_delta(const analysis::ClairvoyantCache& cache, Body body) {
  const std::vector<std::uint64_t> before = delta_counters();
  body();
  MemoDelta d{cache.size(), cache.hits(), delta_counters()};
  for (std::size_t k = 0; k < before.size(); ++k) d.counters[k] -= before[k];
  return d;
}

TEST(MeasureSeeds, AnyWarmthMatchesASerialMeasureCachedLoop) {
  const Make make = online_family();
  for (const Warmth w : {Warmth::kCold, Warmth::kWarm, Warmth::kEvenSeeds,
                         Warmth::kOptimumOnly}) {
    // The reference: a serial measure_cached loop on a fresh memo.
    analysis::ClairvoyantCache serial_cache;
    warm_up(serial_cache, w);
    std::vector<analysis::Measurement> serial;
    const MemoDelta want = measure_delta(serial_cache, [&] {
      for (int s = 0; s < kWarmthSeeds; ++s) {
        serial.push_back(analysis::measure_cached(
            make(static_cast<std::uint64_t>(s)), core::avrq, kWarmthAlpha,
            serial_cache));
      }
    });

    for (const char* threads : {"1", "4"}) {
      ThreadsEnv env(threads);
      analysis::ClairvoyantCache cache;
      warm_up(cache, w);
      std::vector<analysis::Measurement> swept;
      const MemoDelta got = measure_delta(cache, [&] {
        swept = analysis::measure_seeds(make, kWarmthSeeds, core::avrq,
                                        kWarmthAlpha, &cache);
      });
      const std::string what =
          std::string(name(w)) + ", " + threads + " threads";
      ASSERT_EQ(swept.size(), serial.size()) << what;
      for (std::size_t s = 0; s < serial.size(); ++s) {
        EXPECT_TRUE(same_bits(swept[s], serial[s])) << what << " seed " << s;
      }
      EXPECT_EQ(got.size, want.size) << what;
      EXPECT_EQ(got.hits, want.hits) << what;
#ifndef QBSS_OBS_OFF
      // The memo counters as the serial loop moved them; the fan-out
      // takes exactly the seeds whose run missed, and starts no pool
      // when there are none.
      for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(got.counters[k], want.counters[k])
            << what << ": " << kDeltaCounters[k];
      }
      const std::uint64_t misses = want.counters[3];
      EXPECT_EQ(got.counters[5], misses) << what << ": parallel_for.tasks";
      EXPECT_EQ(got.counters[4], misses > 0 ? 1u : 0u)
          << what << ": parallel_for.calls";
      if (w == Warmth::kWarm) {
        EXPECT_EQ(misses, 0u) << what;
      } else if (w == Warmth::kEvenSeeds) {
        EXPECT_EQ(misses, static_cast<std::uint64_t>(kWarmthSeeds / 2)) << what;
      }
#endif
    }
  }
}

TEST(MeasureSeeds, AnExceptionFromMakeReachesTheCaller) {
  const Make throwing = [](std::uint64_t s) {
    if (s == 5) throw std::runtime_error("make failed");
    return online_family()(s);
  };
  for (const char* threads : {"1", "4"}) {
    ThreadsEnv env(threads);
    for (const Warmth w : {Warmth::kCold, Warmth::kWarm}) {
      analysis::ClairvoyantCache cache;
      warm_up(cache, w);
      EXPECT_THROW(static_cast<void>(analysis::measure_seeds(
                       throwing, kWarmthSeeds, core::avrq, 2.0, &cache)),
                   std::runtime_error)
          << name(w) << ", " << threads << " threads";
    }
    EXPECT_THROW(static_cast<void>(analysis::measure_seeds(
                     throwing, kWarmthSeeds, core::avrq, 2.0, nullptr)),
                 std::runtime_error)
        << "no memo, " << threads << " threads";
  }
}

void expect_same_aggregate(const analysis::Aggregate& a,
                           const analysis::Aggregate& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_EQ(a.max_energy_ratio, b.max_energy_ratio);
  EXPECT_EQ(a.sum_energy_ratio, b.sum_energy_ratio);
  EXPECT_EQ(a.max_nominal_energy_ratio, b.max_nominal_energy_ratio);
  EXPECT_EQ(a.max_speed_ratio, b.max_speed_ratio);
  EXPECT_EQ(a.sum_speed_ratio, b.sum_speed_ratio);
}

TEST(SweepFamily, BitIdenticalAcrossThreadCounts) {
  const auto make = [](std::uint64_t s) {
    return gen::random_online(10, 8.0, 0.5, 4.0, s);
  };
  constexpr int kSeeds = 12;

  // Hand-rolled serial loop — the pre-parallelization semantics.
  analysis::Aggregate serial;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    serial.absorb(analysis::measure(make(seed), core::avrq, 3.0));
  }

  for (const char* threads : {"1", "4"}) {
    ThreadsEnv env(threads);
    analysis::ClairvoyantCache cache;
    const analysis::Aggregate swept =
        analysis::sweep_family(make, kSeeds, core::avrq, 3.0, &cache);
    expect_same_aggregate(serial, swept);
    // And without a cache.
    const analysis::Aggregate uncached =
        analysis::sweep_family(make, kSeeds, core::avrq, 3.0, nullptr);
    expect_same_aggregate(serial, uncached);
  }
}

}  // namespace
}  // namespace qbss
