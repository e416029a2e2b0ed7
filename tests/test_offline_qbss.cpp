// Tests for the offline QBSS algorithms CRCD, CRP2D and CRAD, including
// parameterized sweeps checking each theorem's approximation guarantee on
// random instance families, and the CRP2D analysis-instance inequalities
// (Lemmas 4.9 and 4.10).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/bounds.hpp"
#include "analysis/ratio_harness.hpp"
#include "analysis/rho.hpp"
#include "common/constants.hpp"
#include "gen/random_instances.hpp"
#include "qbss/clairvoyant.hpp"
#include "qbss/crad.hpp"
#include "qbss/crcd.hpp"
#include "qbss/crp2d.hpp"
#include "scheduling/yds.hpp"

namespace qbss::core {
namespace {

// ----- CRCD ------------------------------------------------------------

TEST(Crcd, TwoSpeedStructure) {
  QInstance inst;
  inst.add(0.0, 4.0, 0.2, 1.0, 0.5);  // queried (0.2 <= 1/phi)
  inst.add(0.0, 4.0, 0.9, 1.0, 0.5);  // skipped
  const QbssRun run = crcd(inst);
  ASSERT_TRUE(validate_run(inst, run).feasible);
  // First half: query density 0.2/2 + half-upper density 0.5/2.
  EXPECT_NEAR(run.schedule.speed().value(1.0), 0.1 + 0.25, 1e-12);
  // Second half: exact density 0.5/2 + half-upper density 0.5/2.
  EXPECT_NEAR(run.schedule.speed().value(3.0), 0.25 + 0.25, 1e-12);
}

TEST(Crcd, MatchesPaperSpeedFormulas) {
  // s1 = sum_A w/D + sum_B 2c/D ; s2 = sum_A w/D + sum_B 2w*/D.
  const gen::LoadProfile profile;
  const QInstance inst =
      gen::random_common_deadline(20, 8.0, /*seed=*/123, profile);
  const QbssRun run = crcd(inst);
  double s1 = 0.0;
  double s2 = 0.0;
  const QueryPolicy golden = QueryPolicy::golden();
  for (const QJob& j : inst.jobs()) {
    const double d = j.deadline;
    if (golden.should_query(j)) {
      s1 += 2.0 * j.query_cost / d;
      s2 += 2.0 * j.exact_load / d;
    } else {
      s1 += j.upper_bound / d;
      s2 += j.upper_bound / d;
    }
  }
  EXPECT_NEAR(run.schedule.speed().value(2.0), s1, 1e-9);
  EXPECT_NEAR(run.schedule.speed().value(6.0), s2, 1e-9);
}

class CrcdBounds : public ::testing::TestWithParam<double> {};

TEST_P(CrcdBounds, Theorem46RatiosHoldOnRandomFamilies) {
  const double alpha = GetParam();
  analysis::Aggregate agg;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const QInstance inst = gen::random_common_deadline(12, 5.0, seed);
    const analysis::Measurement m = analysis::measure(inst, crcd, alpha);
    ASSERT_TRUE(m.feasible);
    agg.absorb(m);
  }
  EXPECT_LE(agg.max_speed_ratio, analysis::crcd_speed_upper() + 1e-9);
  EXPECT_LE(agg.max_energy_ratio, analysis::crcd_energy_upper(alpha) + 1e-9);
  EXPECT_GE(agg.max_energy_ratio, 1.0 - 1e-9);
}

TEST_P(CrcdBounds, RefinedBoundHoldsForLargeAlpha) {
  const double alpha = GetParam();
  if (alpha < 2.0) GTEST_SKIP() << "Theorem 4.8 needs alpha >= 2";
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const QInstance inst = gen::random_common_deadline(10, 4.0, seed);
    const analysis::Measurement m = analysis::measure(inst, crcd, alpha);
    EXPECT_LE(m.energy_ratio,
              analysis::crcd_energy_upper_refined(alpha) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, CrcdBounds,
                         ::testing::Values(1.25, 1.5, 2.0, 2.5, 3.0));

// Theorem 4.8's inner inequality, per instance: with r the ratio of the
// two half-interval speeds, E/E* <= min{f1(r), f2(r)} for alpha >= 2.
TEST(Crcd, Theorem48PerInstanceInequality) {
  for (const double alpha : {2.0, 2.5, 3.0}) {
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
      const QInstance inst = gen::random_common_deadline(12, 5.0, seed);
      const QbssRun run = crcd(inst);
      const double d = inst.job(0).deadline;
      const double first = run.schedule.speed().value(d / 4.0);
      const double second = run.schedule.speed().value(3.0 * d / 4.0);
      const double r =
          std::max(first, second) / std::min(first, second);
      const double bound = std::min(analysis::rho3_f1(alpha, r),
                                    analysis::rho3_f2(alpha, r));
      const analysis::Measurement m = analysis::measure(inst, crcd, alpha);
      EXPECT_LE(m.energy_ratio, bound + 1e-9)
          << "alpha " << alpha << " seed " << seed << " r " << r;
    }
  }
}

TEST(Crcd, IncompressibleJobsStillWithinBound) {
  // All w* = w: queries are pure overhead — the hard case for querying.
  gen::LoadProfile profile;
  profile.compress_min = 1.0;
  profile.compress_max = 1.0;
  const QInstance inst = gen::random_common_deadline(15, 6.0, 9, profile);
  const double alpha = 3.0;
  const analysis::Measurement m = analysis::measure(inst, crcd, alpha);
  ASSERT_TRUE(m.feasible);
  EXPECT_LE(m.energy_ratio, analysis::crcd_energy_upper(alpha) + 1e-9);
}

TEST(Crcd, FullyCompressibleFavorsQueries) {
  // All w* = 0 and cheap queries: CRCD should be close to optimal.
  gen::LoadProfile profile;
  profile.compress_min = 0.0;
  profile.compress_max = 0.0;
  profile.query_frac_min = 0.05;
  profile.query_frac_max = 0.1;
  const QInstance inst = gen::random_common_deadline(15, 6.0, 10, profile);
  const analysis::Measurement m = analysis::measure(inst, crcd, 2.0);
  ASSERT_TRUE(m.feasible);
  // Queries cost ~7.5% of w on average; splitting halves the window, so
  // the ratio stays well under the worst-case bound.
  EXPECT_LE(m.energy_ratio, 3.0);
}

// ----- CRP2D -----------------------------------------------------------

TEST(Crp2d, PowerOfTwoPredicate) {
  EXPECT_TRUE(is_power_of_two(1.0));
  EXPECT_TRUE(is_power_of_two(0.5));
  EXPECT_TRUE(is_power_of_two(8.0));
  EXPECT_FALSE(is_power_of_two(3.0));
  EXPECT_FALSE(is_power_of_two(0.0));
  EXPECT_FALSE(is_power_of_two(-2.0));
}

TEST(Crp2d, FeasibleAndStructured) {
  QInstance inst;
  inst.add(0.0, 1.0, 0.2, 1.0, 0.5);
  inst.add(0.0, 2.0, 0.3, 1.5, 0.2);
  inst.add(0.0, 4.0, 3.5, 4.0, 1.0);  // c > w/phi: no query
  inst.add(0.0, 8.0, 0.5, 2.0, 0.0);
  const QbssRun run = crp2d(inst);
  const auto report = validate_run(inst, run);
  EXPECT_TRUE(report.feasible)
      << (report.errors.empty() ? "" : report.errors.front());
  EXPECT_TRUE(run.expansion.queried[0]);
  EXPECT_FALSE(run.expansion.queried[2]);
}

class Crp2dBounds : public ::testing::TestWithParam<double> {};

TEST_P(Crp2dBounds, Theorem413RatioHolds) {
  const double alpha = GetParam();
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const QInstance inst = gen::random_pow2_deadlines(12, 4, seed);
    const analysis::Measurement m = analysis::measure(inst, crp2d, alpha);
    ASSERT_TRUE(m.feasible) << "seed " << seed;
    EXPECT_GE(m.energy_ratio, 1.0 - 1e-9);
    EXPECT_LE(m.energy_ratio, analysis::crp2d_energy_upper(alpha) + 1e-9)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, Crp2dBounds,
                         ::testing::Values(1.5, 2.0, 2.5, 3.0));

// Lemma 4.9: E(I') <= phi^alpha E(I*).
// Lemma 4.10: E(I'_1/2) <= 2^alpha E(I').
TEST(Crp2dAnalysis, Lemma49And410Inequalities) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const QInstance inst = gen::random_pow2_deadlines(10, 3, seed);
    const AnalysisInstances ai = crp2d_analysis_instances(inst);
    for (const double alpha : {2.0, 3.0}) {
      const Energy e_star = scheduling::optimal_energy(ai.star, alpha);
      const Energy e_prime = scheduling::optimal_energy(ai.prime, alpha);
      const Energy e_half = scheduling::optimal_energy(ai.half, alpha);
      EXPECT_LE(e_prime, std::pow(kPhi, alpha) * e_star + 1e-9);
      EXPECT_LE(e_half, std::pow(2.0, alpha) * e_prime + 1e-9);
      // And the chain of Theorem 4.13's proof.
      EXPECT_LE(e_half,
                std::pow(2.0 * kPhi, alpha) * e_star + 1e-9);
    }
  }
}

// Lemma 4.11 / Corollary 4.12: the algorithm's speed never exceeds twice
// the optimal speed for I'_1/2 at any time.
TEST(Crp2dAnalysis, Lemma411PointwiseSpeedBound) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const QInstance inst = gen::random_pow2_deadlines(8, 3, seed);
    const QbssRun run = crp2d(inst);
    const AnalysisInstances ai = crp2d_analysis_instances(inst);
    const StepFunction opt_half = scheduling::yds(ai.half).speed();
    for (const Segment& p : run.schedule.speed().pieces()) {
      const Time probe = 0.5 * (p.span.begin + p.span.end);
      EXPECT_LE(p.value, 2.0 * opt_half.value(probe) + 1e-9)
          << "seed " << seed << " at t=" << probe;
    }
  }
}

// ----- CRAD ------------------------------------------------------------

TEST(Crad, RoundingDown) {
  EXPECT_DOUBLE_EQ(round_down_power_of_two(1.0), 1.0);
  EXPECT_DOUBLE_EQ(round_down_power_of_two(1.5), 1.0);
  EXPECT_DOUBLE_EQ(round_down_power_of_two(2.0), 2.0);
  EXPECT_DOUBLE_EQ(round_down_power_of_two(7.9), 4.0);
  EXPECT_DOUBLE_EQ(round_down_power_of_two(0.7), 0.5);
  EXPECT_DOUBLE_EQ(round_down_power_of_two(0.49), 0.25);
}

TEST(Crad, RoundedInstanceShrinksWindows) {
  QInstance inst;
  inst.add(0.0, 3.7, 0.5, 1.0, 0.2);
  const QInstance rounded = rounded_instance(inst);
  EXPECT_DOUBLE_EQ(rounded.job(0).deadline, 2.0);
  EXPECT_EQ(rounded.job(0).query_cost, inst.job(0).query_cost);
}

// Lemma 4.14: rounding deadlines down at most doubles the optimal energy.
TEST(Crad, Lemma414RoundingCost) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const QInstance inst = gen::random_arbitrary_deadlines(10, 10.0, seed);
    const QInstance rounded = rounded_instance(inst);
    for (const double alpha : {2.0, 3.0}) {
      const Energy e = clairvoyant_energy(inst, alpha);
      const Energy e_rounded = clairvoyant_energy(rounded, alpha);
      EXPECT_LE(e_rounded, std::pow(2.0, alpha) * e + 1e-9);
      EXPECT_GE(e_rounded, e - 1e-9);  // windows only shrank
    }
  }
}

class CradBounds : public ::testing::TestWithParam<double> {};

TEST_P(CradBounds, Corollary415RatioHolds) {
  const double alpha = GetParam();
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const QInstance inst = gen::random_arbitrary_deadlines(12, 12.0, seed);
    const analysis::Measurement m = analysis::measure(inst, crad, alpha);
    ASSERT_TRUE(m.feasible) << "seed " << seed;
    EXPECT_LE(m.energy_ratio, analysis::crad_energy_upper(alpha) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, CradBounds,
                         ::testing::Values(1.5, 2.0, 3.0));

}  // namespace
}  // namespace qbss::core
