// Tests for the parallel-machine substrate: McNaughton packing, the
// AVR(m) algorithm, the multi-machine validator and the OPT(m) bounds.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/bounds.hpp"
#include "common/xoshiro.hpp"
#include "scheduling/multi/avr_m.hpp"
#include "scheduling/multi/mcnaughton.hpp"
#include "scheduling/multi/opt_bound.hpp"
#include "scheduling/yds.hpp"

namespace qbss::scheduling {
namespace {

Instance random_instance(Xoshiro256& rng, int n, double horizon) {
  Instance inst;
  for (int j = 0; j < n; ++j) {
    const Time r = rng.uniform(0.0, horizon);
    inst.add(r, r + rng.uniform(0.3, 3.0), rng.uniform(0.1, 2.0));
  }
  return inst;
}

// ----- McNaughton ------------------------------------------------------

TEST(McNaughton, SingleMachineSequential) {
  const std::vector<SlotDemand> demands = {{0, 0.3}, {1, 0.4}, {2, 0.3}};
  const auto placements = mcnaughton_pack({0.0, 1.0}, demands, 1);
  ASSERT_EQ(placements.size(), 3u);
  Time cursor = 0.0;
  for (const auto& p : placements) {
    EXPECT_EQ(p.machine, 0);
    EXPECT_DOUBLE_EQ(p.span.begin, cursor);
    cursor = p.span.end;
  }
  EXPECT_NEAR(cursor, 1.0, 1e-12);
}

TEST(McNaughton, WrapsWithoutSelfOverlap) {
  // Two jobs of 0.8 in a unit slot on two machines: the second wraps.
  const std::vector<SlotDemand> demands = {{0, 0.8}, {1, 0.8}};
  const auto placements = mcnaughton_pack({0.0, 1.0}, demands, 2);
  // Job 1 is split across machines 0 and 1.
  std::vector<Interval> job1;
  for (const auto& p : placements) {
    if (p.job == 1) job1.push_back(p.span);
  }
  ASSERT_EQ(job1.size(), 2u);
  // The two pieces of job 1 must not overlap in time.
  const Interval cut = job1[0].intersect(job1[1]);
  EXPECT_TRUE(cut.empty()) << "wrapped job runs on two machines at once";
}

TEST(McNaughton, FullLoadUsesAllMachines) {
  const std::vector<SlotDemand> demands = {{0, 1.0}, {1, 1.0}, {2, 1.0}};
  const auto placements = mcnaughton_pack({2.0, 3.0}, demands, 3);
  ASSERT_EQ(placements.size(), 3u);
  for (const auto& p : placements) {
    EXPECT_DOUBLE_EQ(p.span.length(), 1.0);
  }
}

/// Every placement lies on [0, machines) inside the slot, gives each job
/// its demand, and no two pieces overlap on one machine or for one job.
void expect_valid_packing(Interval slot, const std::vector<SlotDemand>& demands,
                          int machines) {
  const auto placements = mcnaughton_pack(slot, demands, machines);
  std::vector<Time> placed(demands.size(), 0.0);
  for (std::size_t a = 0; a < placements.size(); ++a) {
    const SlotPlacement& p = placements[a];
    ASSERT_GE(p.machine, 0);
    ASSERT_LT(p.machine, machines);
    EXPECT_TRUE(slot.covers(p.span));
    placed[static_cast<std::size_t>(p.job)] += p.span.length();
    for (std::size_t b = a + 1; b < placements.size(); ++b) {
      const SlotPlacement& q = placements[b];
      if (p.machine == q.machine || p.job == q.job) {
        EXPECT_TRUE(p.span.intersect(q.span).empty())
            << "jobs " << p.job << " and " << q.job;
      }
    }
  }
  for (std::size_t j = 0; j < demands.size(); ++j) {
    EXPECT_NEAR(placed[j], demands[j].duration, 1e-9) << "job " << j;
  }
}

TEST(McNaughton, RoundingResidueStaysOnTheLastMachine) {
  // The second demand fills the last machine to within the snap
  // tolerance and the third is the sub-tolerance rest; snapping the
  // second used to push the third onto machine 2 of 2.
  expect_valid_packing({0.0, 1e-5}, {{0, 1e-5}, {1, 1e-5 - 5e-10}, {2, 5e-10}},
                       2);
}

TEST(McNaughton, DemandsSummingToFullLoadPlusRoundingFit) {
  // A slot of AVR(m) on `qbss gen --family mixed --n 64 --seed 191` with
  // four machines: the demands sum to 3 * len plus 3.4e-21 of rounding.
  const std::vector<SlotDemand> demands = {
      {0, 8.5741490366826952e-06},  {1, 5.7858714052518842e-06},
      {2, 5.1667292912858894e-06},  {3, 4.2236202580871869e-06},
      {4, 2.3404154533355937e-06},  {5, 1.7517825654026353e-06},
      {6, 8.5382756197914871e-07},  {7, 6.5509850297382092e-07},
      {8, 3.5926029535919381e-07},  {9, 1.6677434464453165e-07},
      {10, 8.1452016102164018e-08}, {11, 4.0520372799870988e-08},
      {12, 4.9889495965572018e-10}};
  expect_valid_packing({6.6517800000000005, 6.6517900000000001}, demands, 3);
}

// ----- AVR(m) ----------------------------------------------------------

TEST(AvrM, SingleMachineReducesToAvr) {
  Xoshiro256 rng(41);
  const Instance inst = random_instance(rng, 6, 4.0);
  const MachineSchedule ms = avr_m(inst, 1);
  EXPECT_TRUE(validate_multi(inst, ms).feasible);
}

TEST(AvrM, ValidOnRandomInstances) {
  Xoshiro256 rng(43);
  for (int trial = 0; trial < 15; ++trial) {
    const Instance inst = random_instance(rng, 12, 6.0);
    for (const int m : {2, 3, 5}) {
      const MachineSchedule ms = avr_m(inst, m);
      const ValidationReport report = validate_multi(inst, ms);
      EXPECT_TRUE(report.feasible)
          << "m=" << m << ": "
          << (report.errors.empty() ? "" : report.errors.front());
    }
  }
}

TEST(AvrM, BigJobOccupiesOwnMachine) {
  Instance inst;
  inst.add(0.0, 1.0, 10.0);  // density 10: big
  inst.add(0.0, 1.0, 1.0);
  inst.add(0.0, 1.0, 1.0);
  const MachineSchedule ms = avr_m(inst, 2);
  ASSERT_TRUE(validate_multi(inst, ms).feasible);
  // Machine 0 runs the big job at its density for the whole slot.
  EXPECT_DOUBLE_EQ(ms.machine_profile(0).value(0.5), 10.0);
  // Machine 1 shares the two small jobs at speed 2.
  EXPECT_DOUBLE_EQ(ms.machine_profile(1).value(0.5), 2.0);
}

TEST(AvrM, MachineSpeedsNonIncreasingInIndex) {
  Xoshiro256 rng(47);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = random_instance(rng, 10, 5.0);
    const int m = 4;
    const MachineSchedule ms = avr_m(inst, m);
    ASSERT_TRUE(validate_multi(inst, ms).feasible);
    std::vector<StepFunction> profiles;
    for (int i = 0; i < m; ++i) profiles.push_back(ms.machine_profile(i));
    std::vector<Time> probes;
    for (int i = 0; i < m; ++i) {
      for (const Time t : profiles[static_cast<std::size_t>(i)].breakpoints())
        probes.push_back(t);
    }
    for (const Time t : probes) {
      for (int i = 0; i + 1 < m; ++i) {
        EXPECT_GE(profiles[static_cast<std::size_t>(i)].value(t) + 1e-9,
                  profiles[static_cast<std::size_t>(i + 1)].value(t))
            << "at t=" << t;
      }
    }
  }
}

TEST(AvrM, EnergyWithinProvenBoundOfRelaxationOpt) {
  Xoshiro256 rng(53);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = random_instance(rng, 10, 5.0);
    for (const int m : {2, 4}) {
      for (const double alpha : {2.0, 3.0}) {
        const double ratio =
            avr_m(inst, m).energy(alpha) /
            multi_opt_energy_lower_bound(inst, m, alpha);
        EXPECT_GE(ratio, 1.0 - 1e-9);
        EXPECT_LE(ratio, analysis::avr_m_energy_upper(alpha) + 1e-9);
      }
    }
  }
}

// ----- OPT(m) bounds ----------------------------------------------------

TEST(MultiOptBound, SingleMachineEqualsYds) {
  Xoshiro256 rng(59);
  const Instance inst = random_instance(rng, 6, 4.0);
  EXPECT_NEAR(multi_opt_energy_lower_bound(inst, 1, 2.5),
              optimal_energy(inst, 2.5), 1e-9);
}

TEST(MultiOptBound, DecreasesWithMachines) {
  Xoshiro256 rng(61);
  const Instance inst = random_instance(rng, 8, 4.0);
  const double alpha = 3.0;
  double prev = kInf;
  for (const int m : {1, 2, 4, 8}) {
    const double lb = multi_opt_energy_lower_bound(inst, m, alpha);
    EXPECT_LT(lb, prev);
    prev = lb;
  }
}

TEST(MultiOptBound, MaxSpeedBoundRespectsDensestJob) {
  Instance inst;
  inst.add(0.0, 1.0, 5.0);  // density 5 cannot be parallelized
  inst.add(0.0, 10.0, 1.0);
  EXPECT_GE(multi_opt_max_speed_lower_bound(inst, 8), 5.0);
}

TEST(MachineScheduleValidate, CatchesParallelSelfExecution) {
  Instance inst;
  inst.add(0.0, 1.0, 2.0);
  MachineSchedule ms(2);
  ms.add({0, 0, {0.0, 1.0}, 1.0});
  ms.add({0, 1, {0.0, 1.0}, 1.0});  // same job, same time, other machine
  EXPECT_FALSE(validate_multi(inst, ms).feasible);
}

TEST(MachineScheduleValidate, CatchesMachineOverlap) {
  Instance inst;
  inst.add(0.0, 1.0, 1.0);
  inst.add(0.0, 1.0, 1.0);
  MachineSchedule ms(1);
  ms.add({0, 0, {0.0, 1.0}, 1.0});
  ms.add({1, 0, {0.5, 1.0}, 2.0});  // overlaps job 0 on machine 0
  EXPECT_FALSE(validate_multi(inst, ms).feasible);
}

TEST(MachineScheduleValidate, CatchesWorkMismatch) {
  Instance inst;
  inst.add(0.0, 1.0, 2.0);
  MachineSchedule ms(1);
  ms.add({0, 0, {0.0, 1.0}, 1.0});  // only 1 of 2 units
  EXPECT_FALSE(validate_multi(inst, ms).feasible);
}

}  // namespace
}  // namespace qbss::scheduling
