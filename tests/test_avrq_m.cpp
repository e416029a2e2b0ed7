// Tests for AVRQ(m): feasibility on parallel machines, the per-machine
// pointwise domination of Theorem 6.3, the Corollary 6.4 energy bound,
// and the technical Lemmas 6.1/6.2.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/bounds.hpp"
#include "common/xoshiro.hpp"
#include "gen/random_instances.hpp"
#include "io/format.hpp"
#include "qbss/avrq_m.hpp"
#include "qbss/clairvoyant.hpp"
#include "qbss/transform.hpp"
#include "scheduling/multi/avr_m.hpp"
#include "scheduling/multi/opt_bound.hpp"

namespace qbss::core {
namespace {

QInstance online_family(std::uint64_t seed, int n = 12) {
  return gen::random_online(n, 8.0, 0.5, 4.0, seed);
}

TEST(AvrqM, FeasibleAcrossMachineCounts) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const QInstance inst = online_family(seed);
    for (const int m : {1, 2, 4, 8}) {
      const QbssMultiRun run = avrq_m(inst, m);
      const auto report = validate_multi_run(inst, run);
      EXPECT_TRUE(report.feasible)
          << "seed " << seed << " m=" << m << ": "
          << (report.errors.empty() ? "" : report.errors.front());
    }
  }
}

// `qbss gen --family mixed --n 64 --seed 191 | qbss run --algo avrq_m
// --machines 4` used to abort: after rounding filled the last machine,
// McNaughton's rule put a sub-tolerance demand on machine 4.
TEST(AvrqM, RoundingNeverPlacesPastTheLastMachine) {
  const QInstance generated = gen::random_online(64, 10.0, 0.5, 4.0, 191);
  std::ostringstream text;  // what `qbss gen` prints: 6 digits
  io::write_qinstance(text, generated);
  const io::Parsed<QInstance> printed = io::read_qinstance(text.str());
  ASSERT_TRUE(printed);
  for (const QInstance* inst : {&generated, &*printed.value}) {
    const QbssMultiRun run = avrq_m(*inst, 4);
    const auto report = validate_multi_run(*inst, run);
    EXPECT_TRUE(report.feasible)
        << (report.errors.empty() ? "" : report.errors.front());
  }
}

// Theorem 6.3: per machine i and time t,
// s_i^AVRQ(m)(t) <= 2 s_i^AVR*(m)(t).
TEST(AvrqM, Theorem63PointwisePerMachineDomination) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const QInstance inst = online_family(seed, 10);
    const int m = 3;
    const QbssMultiRun run = avrq_m(inst, m);
    const scheduling::MachineSchedule star =
        scheduling::avr_m(clairvoyant_instance(inst), m);
    for (int i = 0; i < m; ++i) {
      const StepFunction mine = run.schedule.machine_profile(i);
      const StepFunction theirs = star.machine_profile(i);
      for (const Segment& p : mine.pieces()) {
        // Probe strictly inside the piece: machine slot boundaries of the
        // two schedules differ (McNaughton cuts), so endpoints can land in
        // different slots.
        const Time probe = 0.5 * (p.span.begin + p.span.end);
        EXPECT_LE(mine.value(probe), 2.0 * theirs.value(probe) + 1e-9)
            << "seed " << seed << " machine " << i << " t=" << probe;
      }
    }
  }
}

class AvrqMBounds : public ::testing::TestWithParam<double> {};

TEST_P(AvrqMBounds, Corollary64EnergyBound) {
  const double alpha = GetParam();
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const QInstance inst = online_family(seed);
    for (const int m : {2, 4}) {
      const QbssMultiRun run = avrq_m(inst, m);
      const Energy opt_lb = scheduling::multi_opt_energy_lower_bound(
          clairvoyant_instance(inst), m, alpha);
      const double ratio = run.energy(alpha) / opt_lb;
      EXPECT_GE(ratio, 1.0 - 1e-9);
      EXPECT_LE(ratio, analysis::avrq_m_energy_upper(alpha) + 1e-9)
          << "seed " << seed << " m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, AvrqMBounds,
                         ::testing::Values(2.0, 2.5, 3.0));

TEST(AvrqM, MoreMachinesNeverIncreaseEnergy) {
  const QInstance inst = online_family(5);
  const double alpha = 3.0;
  double prev = kInf;
  for (const int m : {1, 2, 4, 8}) {
    const Energy e = avrq_m(inst, m).energy(alpha);
    EXPECT_LE(e, prev + 1e-9) << "m=" << m;
    prev = e;
  }
}

// Lemma 6.1: sorted non-increasing sequences preserve elementwise
// domination. (Tested directly as the statement is purely combinatorial.)
TEST(Lemma61, SortedDominationPreserved) {
  Xoshiro256 rng(97);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.below(10);
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform(0.0, 5.0);
      b[i] = rng.uniform(0.0, 2.0) * a[i];  // b_i <= 2 a_i
    }
    std::sort(a.rbegin(), a.rend());
    std::sort(b.rbegin(), b.rend());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(b[i], 2.0 * a[i] + 1e-12);
    }
  }
}

// Lemma 6.2: a_1 > avg  iff dropping it lowers the remaining average.
TEST(Lemma62, AverageDropCharacterization) {
  Xoshiro256 rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    const int m = 2 + static_cast<int>(rng.below(6));
    const std::size_t n = static_cast<std::size_t>(m) + rng.below(5);
    std::vector<double> v(n);
    for (double& x : v) x = rng.uniform(0.0, 3.0);
    double total = 0.0;
    for (const double x : v) total += x;
    const double avg_all = total / m;
    const double avg_rest = (total - v[0]) / (m - 1);
    if (v[0] > avg_all) {
      EXPECT_GT(avg_all, avg_rest);
    } else {
      EXPECT_LE(avg_all, avg_rest + 1e-12);
    }
  }
}

}  // namespace
}  // namespace qbss::core
