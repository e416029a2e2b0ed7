// Correctness of the YDS optimal offline algorithm: hand-computable
// instances, structural optimality properties, and cross-checks against
// the independent fluid-relaxation solver.
#include "scheduling/yds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "analysis/fluid_opt.hpp"
#include "oracles.hpp"
#include "common/xoshiro.hpp"
#include "gen/random_instances.hpp"
#include "qbss/transform.hpp"
#include "scheduling/avr.hpp"
#include "scheduling/bkp.hpp"
#include "scheduling/edf.hpp"
#include "scheduling/oa.hpp"

namespace qbss::scheduling {
namespace {

TEST(Yds, SingleJobRunsAtDensity) {
  Instance inst;
  inst.add(0.0, 2.0, 4.0);
  const Schedule s = yds(inst);
  EXPECT_TRUE(validate(inst, s).feasible);
  EXPECT_DOUBLE_EQ(s.max_speed(), 2.0);
  EXPECT_DOUBLE_EQ(s.energy(3.0), 2.0 * 8.0);
}

TEST(Yds, CommonWindowJobsShareConstantSpeed) {
  Instance inst;
  inst.add(0.0, 4.0, 2.0);
  inst.add(0.0, 4.0, 6.0);
  const Schedule s = yds(inst);
  EXPECT_TRUE(validate(inst, s).feasible);
  EXPECT_DOUBLE_EQ(s.max_speed(), 2.0);  // (2+6)/4
  // Constant speed: energy equals D * s^alpha.
  EXPECT_DOUBLE_EQ(s.energy(2.0), 4.0 * 4.0);
}

TEST(Yds, DenseInnerJobCreatesCriticalInterval) {
  // Textbook example: a dense job nested in a loose one.
  Instance inst;
  inst.add(0.0, 4.0, 2.0);  // loose
  inst.add(1.0, 2.0, 3.0);  // dense: forces speed 3 on (1, 2]
  const Schedule s = yds(inst);
  EXPECT_TRUE(validate(inst, s).feasible);
  EXPECT_DOUBLE_EQ(s.speed().value(1.5), 3.0);
  // Outside the critical interval, the loose job spreads over 3 time
  // units at speed 2/3.
  EXPECT_NEAR(s.speed().value(0.5), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.speed().value(3.0), 2.0 / 3.0, 1e-12);
}

TEST(Yds, CommonReleaseStaircaseSpeeds) {
  // Common release, staggered deadlines -> non-increasing staircase.
  Instance inst;
  inst.add(0.0, 1.0, 3.0);
  inst.add(0.0, 2.0, 1.0);
  inst.add(0.0, 4.0, 1.0);
  const Schedule s = yds(inst);
  EXPECT_TRUE(validate(inst, s).feasible);
  const StepFunction& f = s.speed();
  // Intensities: (0,1]: 3; then 1 over (1,2]; then 0.5 over (2,4].
  EXPECT_DOUBLE_EQ(f.value(0.5), 3.0);
  EXPECT_DOUBLE_EQ(f.value(1.5), 1.0);
  EXPECT_DOUBLE_EQ(f.value(3.0), 0.5);
}

TEST(Yds, SpeedNonIncreasingForCommonRelease) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Instance inst;
    for (int j = 0; j < 8; ++j) {
      inst.add(0.0, rng.uniform(0.5, 8.0), rng.uniform(0.1, 4.0));
    }
    const Schedule s = yds(inst);
    ASSERT_TRUE(validate(inst, s).feasible);
    const auto& pieces = s.speed().pieces();
    for (std::size_t i = 0; i + 1 < pieces.size(); ++i) {
      EXPECT_GE(pieces[i].value, pieces[i + 1].value - 1e-9)
          << "YDS speed must be non-increasing under common release";
    }
  }
}

TEST(Yds, ZeroWorkJobsIgnored) {
  Instance inst;
  inst.add(0.0, 1.0, 0.0);
  inst.add(0.0, 2.0, 2.0);
  const Schedule s = yds(inst);
  EXPECT_TRUE(validate(inst, s).feasible);
  EXPECT_DOUBLE_EQ(s.max_speed(), 1.0);
}

TEST(Yds, MatchesFluidRelaxationOnRandomInstances) {
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 25; ++trial) {
    Instance inst;
    const int n = 2 + static_cast<int>(rng.below(6));
    for (int j = 0; j < n; ++j) {
      const Time r = rng.uniform(0.0, 6.0);
      inst.add(r, r + rng.uniform(0.5, 4.0), rng.uniform(0.1, 3.0));
    }
    for (const double alpha : {1.5, 2.0, 3.0}) {
      const Energy e_yds = optimal_energy(inst, alpha);
      const Energy e_ref = analysis::fluid_optimal_energy(inst, alpha, 600);
      EXPECT_NEAR(e_yds / e_ref, 1.0, 1e-4)
          << "trial " << trial << " alpha " << alpha;
    }
  }
}

TEST(Yds, NeverWorseThanAnyHeuristic) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    Instance inst;
    const int n = 3 + static_cast<int>(rng.below(5));
    for (int j = 0; j < n; ++j) {
      const Time r = rng.uniform(0.0, 5.0);
      inst.add(r, r + rng.uniform(0.5, 3.0), rng.uniform(0.1, 2.0));
    }
    for (const double alpha : {2.0, 3.0}) {
      const Energy opt = optimal_energy(inst, alpha);
      EXPECT_LE(opt, avr(inst).energy(alpha) + 1e-9);
      EXPECT_LE(opt, optimal_available(inst).energy(alpha) + 1e-9);
      EXPECT_LE(opt, bkp(inst).nominal_energy(alpha) + 1e-9);
    }
  }
}

TEST(Yds, MaxSpeedIsMinimalFeasible) {
  Xoshiro256 rng(13);
  for (int trial = 0; trial < 15; ++trial) {
    Instance inst;
    for (int j = 0; j < 5; ++j) {
      const Time r = rng.uniform(0.0, 4.0);
      inst.add(r, r + rng.uniform(0.5, 3.0), rng.uniform(0.1, 2.0));
    }
    const Speed s_star = optimal_max_speed(inst);
    // The whole instance is EDF-feasible at the YDS max speed...
    EXPECT_TRUE(edf_feasible(
        inst, StepFunction::constant({0.0, inst.horizon()}, s_star + 1e-9)));
    // ...but not below it.
    EXPECT_FALSE(edf_feasible(
        inst,
        StepFunction::constant({0.0, inst.horizon()}, s_star * 0.99)));
  }
}

TEST(Yds, OptimalityInvariantUnderTimeShift) {
  Instance a;
  a.add(0.0, 2.0, 1.0);
  a.add(1.0, 3.0, 2.0);
  Instance b;
  b.add(10.0, 12.0, 1.0);
  b.add(11.0, 13.0, 2.0);
  EXPECT_NEAR(optimal_energy(a, 2.5), optimal_energy(b, 2.5), 1e-9);
}

TEST(Yds, OptimalEnergyScalesAsWorkToTheAlpha) {
  Instance a;
  a.add(0.0, 2.0, 1.0);
  a.add(1.0, 3.0, 2.0);
  Instance b;
  b.add(0.0, 2.0, 3.0);
  b.add(1.0, 3.0, 6.0);
  const double alpha = 2.0;
  EXPECT_NEAR(optimal_energy(b, alpha),
              std::pow(3.0, alpha) * optimal_energy(a, alpha), 1e-9);
}

// --- Differential: the event-grid fast path vs the direct-scan oracle ---

/// Both solvers must produce feasible schedules of (essentially) equal
/// energy at every exponent; YDS optimality makes energy the right
/// invariant — tie-broken critical intervals may differ harmlessly.
void expect_same_optimum(const Instance& inst, const char* context) {
  const Schedule fast = yds(inst);
  const Schedule ref = oracle::yds_reference(inst);
  ASSERT_TRUE(validate(inst, fast).feasible) << context;
  ASSERT_TRUE(validate(inst, ref).feasible) << context;
  EXPECT_NEAR(fast.max_speed(), ref.max_speed(),
              1e-9 * std::max(1.0, ref.max_speed()))
      << context;
  for (const double alpha : {1.5, 2.0, 3.0}) {
    const Energy e_fast = fast.energy(alpha);
    const Energy e_ref = ref.energy(alpha);
    EXPECT_NEAR(e_fast, e_ref, 1e-9 * std::max(1.0, e_ref))
        << context << " alpha " << alpha;
  }
}

TEST(YdsDifferential, RandomOnlineInstances) {
  for (const int n : {2, 5, 9, 16, 31}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const core::QInstance q =
          gen::random_online(n, 10.0, 0.5, 4.0, 1000 * seed + 7);
      const Instance inst = core::clairvoyant_instance(q);
      expect_same_optimum(
          inst, ("random_online n=" + std::to_string(n)).c_str());
    }
  }
}

TEST(YdsDifferential, CommonDeadlineInstances) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const core::QInstance q = gen::random_common_deadline(12, 8.0, seed);
    expect_same_optimum(core::clairvoyant_instance(q), "common_deadline");
  }
}

TEST(YdsDifferential, LaminarInstances) {
  // Chain-nested windows (every pair nested or disjoint) with random
  // sibling splits — the shape that maximizes the number of peel rounds.
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst;
    Time lo = 0.0, hi = 64.0;
    while (hi - lo > 0.5) {
      inst.add(lo, hi, rng.uniform(0.1, 3.0));
      const Time mid = lo + (hi - lo) * rng.uniform(0.25, 0.75);
      if (rng.below(2) == 0) {
        inst.add(lo, mid, rng.uniform(0.1, 2.0));  // disjoint sibling
        lo = mid;
      } else {
        hi = mid;
      }
    }
    expect_same_optimum(inst, "laminar");
  }
}

TEST(YdsDifferential, ZeroWorkJobsMixedIn) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst;
    for (int j = 0; j < 12; ++j) {
      const Time r = rng.uniform(0.0, 6.0);
      const Work w = (j % 3 == 0) ? 0.0 : rng.uniform(0.1, 2.0);
      inst.add(r, r + rng.uniform(0.5, 4.0), w);
    }
    expect_same_optimum(inst, "zero_work");
  }
}

TEST(YdsDifferential, DuplicateWindowsAndEndpointTies) {
  // Repeated releases/deadlines stress the event-grid dedup and rank
  // lookups; ties in intensity must resolve like the reference.
  Instance inst;
  inst.add(0.0, 4.0, 1.0);
  inst.add(0.0, 4.0, 2.0);
  inst.add(2.0, 4.0, 1.0);
  inst.add(0.0, 2.0, 1.0);
  inst.add(2.0, 6.0, 0.5);
  inst.add(2.0, 6.0, 0.5);
  expect_same_optimum(inst, "duplicate_windows");
}

TEST(Yds, DisjointWindowsScheduleIndependently) {
  Instance inst;
  inst.add(0.0, 1.0, 2.0);
  inst.add(5.0, 7.0, 2.0);
  const Schedule s = yds(inst);
  EXPECT_TRUE(validate(inst, s).feasible);
  EXPECT_DOUBLE_EQ(s.speed().value(0.5), 2.0);
  EXPECT_DOUBLE_EQ(s.speed().value(3.0), 0.0);
  EXPECT_DOUBLE_EQ(s.speed().value(6.0), 1.0);
}

}  // namespace
}  // namespace qbss::scheduling
