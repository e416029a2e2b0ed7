// YDS, BKP, OA and their QBSS wrappers against the test oracles
// (oracles.hpp), bit for bit: every piece of speed(), every rate(j), the
// nominal profile and the feasibility verdict. YDS is checked through
// yds(), yds_until() on common-release plans and the clairvoyant optimum.
// The inputs are the ratio sweep's five families, the service benchmark's
// request families at n = 16, 32 and 64, and edge cases (one job, equal
// releases, equal deadlines, a -0.0 release, denormal work, zero-work
// jobs). Also: the step-function append against plus(), and the
// instances on which EDF's forward snaps used to abort YDS and OA.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/xoshiro.hpp"
#include "gen/compression.hpp"
#include "gen/optimizer.hpp"
#include "gen/random_instances.hpp"
#include "oracles.hpp"
#include "qbss/bkpq.hpp"
#include "qbss/clairvoyant.hpp"
#include "qbss/generic.hpp"
#include "qbss/oaq.hpp"
#include "qbss/transform.hpp"
#include "scheduling/oa.hpp"
#include "scheduling/yds.hpp"
#include "scheduling/yds_common.hpp"

namespace qbss {
namespace {

using scheduling::Instance;
using scheduling::JobId;
using scheduling::Schedule;

static_assert(sizeof(Segment) == 3 * sizeof(double),
              "pieces are compared with memcmp");

::testing::AssertionResult same_bits(StepView got, StepView want) {
  const std::span<const Segment> a = got.pieces();
  const std::span<const Segment> b = want.pieces();
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " pieces, want " << b.size();
  }
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::memcmp(&a[k], &b[k], sizeof(Segment)) != 0) {
      return ::testing::AssertionFailure()
             << "piece " << k << ": (" << a[k].span.begin << ", "
             << a[k].span.end << "] = " << a[k].value << ", want ("
             << b[k].span.begin << ", " << b[k].span.end
             << "] = " << b[k].value;
    }
  }
  return ::testing::AssertionSuccess();
}

void expect_same_schedule(const Schedule& got, const Schedule& want,
                          const std::string& what) {
  ASSERT_EQ(got.job_count(), want.job_count()) << what;
  EXPECT_TRUE(same_bits(got.speed(), want.speed())) << what << ": speed";
  for (std::size_t j = 0; j < want.job_count(); ++j) {
    const auto id = static_cast<JobId>(j);
    EXPECT_TRUE(same_bits(got.rate(id), want.rate(id)))
        << what << ": rate of job " << j;
  }
}

/// yds() on `inst`, and yds_until() on the common-release plans OA would
/// solve at each of its releases (every job still due, released then,
/// with its full work) up to the next release and without a horizon.
void expect_same_yds(const Instance& inst, const std::string& what) {
  expect_same_schedule(scheduling::yds(inst), scheduling::oracle::yds(inst),
                       what + " yds");
  std::vector<Time> releases;
  for (const scheduling::ClassicalJob& j : inst.jobs()) {
    releases.push_back(j.release);
  }
  std::sort(releases.begin(), releases.end());
  releases.erase(std::unique(releases.begin(), releases.end()),
                 releases.end());
  for (std::size_t k = 0; k < releases.size(); ++k) {
    Instance plan;
    for (const scheduling::ClassicalJob& j : inst.jobs()) {
      if (j.deadline > releases[k]) plan.add(releases[k], j.deadline, j.work);
    }
    const Time next = k + 1 < releases.size() ? releases[k + 1] : kInf;
    for (const Time horizon : {next, kInf}) {
      expect_same_schedule(
          scheduling::yds_until(plan, horizon),
          scheduling::oracle::yds_until(plan, horizon),
          what + " yds_until(plan at " + std::to_string(releases[k]) +
              ", " + std::to_string(horizon) + ")");
    }
  }
}

void expect_same_bkp(const Instance& inst, const std::string& what) {
  const scheduling::OnlineRun got = scheduling::bkp(inst);
  const scheduling::OnlineRun want = scheduling::oracle::bkp(inst);
  expect_same_schedule(got.schedule, want.schedule, what + " bkp");
  EXPECT_TRUE(same_bits(got.nominal, want.nominal)) << what << " bkp nominal";
  EXPECT_TRUE(same_bits(scheduling::bkp_profile(inst), want.nominal))
      << what << " bkp_profile";
  EXPECT_EQ(got.feasible, want.feasible) << what << " bkp feasible";
}

void expect_same_oa(const Instance& inst, const std::string& what) {
  expect_same_schedule(scheduling::optimal_available(inst),
                       scheduling::oracle::optimal_available(inst),
                       what + " optimal_available");
}

/// A QBSS run of BKP on `query`'s expansion against the oracle's.
void expect_same_bkp_run(const core::QbssRun& got, const core::QInstance& q,
                         core::QueryPolicy query, const std::string& what) {
  const core::Expansion e = core::expand(q, query, core::SplitPolicy::half());
  ASSERT_EQ(got.expansion.classical.jobs().size(), e.classical.size()) << what;
  const scheduling::OnlineRun want = scheduling::oracle::bkp(e.classical);
  expect_same_schedule(got.schedule, want.schedule, what);
  EXPECT_TRUE(same_bits(got.nominal, want.nominal)) << what << " nominal";
  EXPECT_EQ(got.feasible, want.feasible) << what << " feasible";
}

/// A QBSS run of OA on `query`'s expansion against the oracle's.
void expect_same_oa_run(const core::QbssRun& got, const core::QInstance& q,
                        core::QueryPolicy query, const std::string& what) {
  const core::Expansion e = core::expand(q, query, core::SplitPolicy::half());
  ASSERT_EQ(got.expansion.classical.jobs().size(), e.classical.size()) << what;
  const Schedule want = scheduling::oracle::optimal_available(e.classical);
  expect_same_schedule(got.schedule, want, what);
  EXPECT_TRUE(same_bits(got.nominal, want.speed())) << what << " nominal";
  EXPECT_TRUE(got.feasible) << what << " feasible";
}

void expect_same_everywhere(const core::QInstance& q, const std::string& what) {
  const Instance clairvoyant = core::clairvoyant_instance(q);
  expect_same_yds(clairvoyant, what + " clairvoyant");
  expect_same_schedule(core::clairvoyant_schedule(q),
                       scheduling::oracle::yds(clairvoyant),
                       what + " clairvoyant_schedule");
  expect_same_bkp(clairvoyant, what + " clairvoyant");
  expect_same_oa(clairvoyant, what + " clairvoyant");

  expect_same_bkp_run(core::bkpq(q), q, core::QueryPolicy::golden(),
                      what + " bkpq");
  expect_same_oa_run(core::oaq(q), q, core::QueryPolicy::golden(),
                     what + " oaq");
  const std::pair<const char*, core::QueryPolicy> policies[] = {
      {"golden", core::QueryPolicy::golden()},
      {"always", core::QueryPolicy::always()},
      {"never", core::QueryPolicy::never()}};
  for (const auto& [name, policy] : policies) {
    const core::SplitPolicy half = core::SplitPolicy::half();
    expect_same_bkp_run(core::bkp_with_policies(q, policy, half), q, policy,
                        what + " bkp_with_policies/" + name);
    expect_same_oa_run(core::oa_with_policies(q, policy, half), q, policy,
                       what + " oa_with_policies/" + name);
  }
}

constexpr std::uint64_t kSeed = 0x5eed2026;

TEST(OnlineOracles, SweepFamiliesMatchBitForBit) {
  gen::CompressionConfig stream;
  stream.files = 15;
  for (std::uint64_t s = 0; s < 12; ++s) {
    const std::uint64_t seed = kSeed + s;
    const std::string tag = " seed " + std::to_string(seed);
    expect_same_everywhere(gen::random_common_deadline(15, 6.0, seed),
                           "common-deadline" + tag);
    expect_same_everywhere(gen::random_pow2_deadlines(15, 4, seed),
                           "pow2-deadlines" + tag);
    expect_same_everywhere(gen::random_arbitrary_deadlines(15, 12.0, seed),
                           "arbitrary-deadlines" + tag);
    expect_same_everywhere(gen::random_online(12, 8.0, 0.5, 4.0, seed),
                           "online-mixed" + tag);
    expect_same_everywhere(gen::compression_stream(stream, 12.0, 3.0, seed),
                           "compression-stream" + tag);
  }
}

TEST(OnlineOracles, RequestFamiliesMatchBitForBit) {
  for (const int n : {16, 32, 64}) {
    gen::CompressionConfig stream;
    stream.files = n;
    gen::OptimizerConfig optimizer;
    optimizer.jobs = n;
    for (std::uint64_t s = 0; s < 4; ++s) {
      const std::uint64_t seed = kSeed + 100 + s;
      const std::string tag =
          " n " + std::to_string(n) + " seed " + std::to_string(seed);
      expect_same_everywhere(gen::random_online(n, 10.0, 0.5, 4.0, seed),
                             "mixed" + tag);
      expect_same_everywhere(gen::random_common_deadline(n, 8.0, seed),
                             "common" + tag);
      expect_same_everywhere(gen::random_pow2_deadlines(n, 4, seed),
                             "pow2" + tag);
      expect_same_everywhere(gen::compression_stream(stream, 12.0, 3.0, seed),
                             "compression" + tag);
      expect_same_everywhere(gen::optimizer_instance(optimizer, seed),
                             "optimizer" + tag);
    }
  }
}

TEST(OnlineOracles, EdgeCasesMatchBitForBit) {
  constexpr double kDenormal = 4.9406564584124654e-324;

  std::vector<std::pair<std::string, Instance>> classical;
  Instance one;
  one.add(0.0, 1.0, 1.0);
  classical.emplace_back("one job", one);
  Instance same_release;
  for (int k = 1; k <= 6; ++k) same_release.add(2.0, 2.0 + k, 0.5 * k);
  classical.emplace_back("equal releases", same_release);
  Instance same_deadline;
  for (int k = 0; k < 6; ++k) same_deadline.add(0.5 * k, 4.0, 1.0 + k);
  classical.emplace_back("equal deadlines", same_deadline);
  Instance negative_zero;
  negative_zero.add(-0.0, 2.0, 1.0);
  negative_zero.add(0.0, 3.0, 2.0);
  negative_zero.add(1.0, 4.0, 1.5);
  classical.emplace_back("-0.0 release", negative_zero);
  Instance denormal;
  denormal.add(0.0, 1.0, kDenormal);
  denormal.add(0.5, 2.0, 1.0);
  denormal.add(kDenormal, 3.0, kDenormal);
  denormal.add(1.0, 2.5, 0.0);
  classical.emplace_back("denormal work", denormal);
  Instance zero_work;
  zero_work.add(0.0, 2.0, 0.0);
  zero_work.add(0.0, 3.0, 1.0);
  zero_work.add(1.0, 3.0, 0.0);
  zero_work.add(1.0, 4.0, 2.0);
  zero_work.add(2.5, 3.5, 0.0);
  classical.emplace_back("zero-work jobs", zero_work);
  for (const auto& [what, inst] : classical) {
    expect_same_yds(inst, what);
    expect_same_bkp(inst, what);
    expect_same_oa(inst, what);
  }

  std::vector<std::pair<std::string, core::QInstance>> qbss;
  core::QInstance q_one;
  q_one.add(0.0, 2.0, 0.5, 2.0, 1.0);
  qbss.emplace_back("one job", q_one);
  core::QInstance q_release;
  for (int k = 1; k <= 5; ++k) q_release.add(1.0, 1.0 + k, 0.3, 2.0, 0.2 * k);
  qbss.emplace_back("equal releases", q_release);
  core::QInstance q_deadline;
  for (int k = 0; k < 5; ++k) q_deadline.add(0.5 * k, 5.0, 0.4, 1.5, 1.0);
  qbss.emplace_back("equal deadlines", q_deadline);
  core::QInstance q_zero;
  q_zero.add(-0.0, 3.0, 0.5, 2.0, 1.0);
  q_zero.add(0.0, 4.0, 0.25, 1.0, 0.5);
  q_zero.add(1.0, 2.0, 0.5, 3.0, 0.0);
  qbss.emplace_back("-0.0 release", q_zero);
  core::QInstance q_denormal;
  q_denormal.add(0.0, 1.0, kDenormal, 1.0, kDenormal);
  q_denormal.add(0.5, 3.0, 0.5, 2.0, kDenormal);
  qbss.emplace_back("denormal work", q_denormal);
  for (const auto& [what, q] : qbss) expect_same_everywhere(q, what);
}

TEST(StepFunctionAppend, MatchesPlusOfConstantBitForBit) {
  constexpr double kDenormal = 4.9406564584124654e-324;
  const double values[] = {1.0, 2.5, 0.0, -0.0, 1e-300, kDenormal, 3.75};
  Xoshiro256 rng(kSeed);
  for (int trial = 0; trial < 2000; ++trial) {
    StepFunction fast;
    StepFunction slow;
    Time t = rng.chance(0.2) ? -0.0 : rng.uniform(0.0, 2.0);
    double last = 1.0;
    for (int k = 0; k < 24; ++k) {
      // Mostly appends (adjacent or after a gap); sometimes a piece that
      // starts inside the function, which takes the rebuild path.
      Time begin = t;
      if (rng.chance(0.3)) begin = t + rng.uniform(0.0, 1.0);
      if (rng.chance(0.1)) begin = rng.uniform(0.0, t + 1.0);
      const Time end = rng.chance(0.05) ? begin : begin + rng.uniform(0.0, 2.0);
      const double v = rng.chance(0.3)
                           ? last
                           : values[rng() % (sizeof values / sizeof values[0])];
      fast.add_constant({begin, end}, v);
      if (end > begin) slow = slow.plus(StepFunction::constant({begin, end}, v));
      ASSERT_TRUE(same_bits(fast, slow)) << "trial " << trial << " step " << k;
      t = std::max(t, end);
      last = v;
    }
  }
}

TEST(YdsUntil, RatesMatchYdsUpToTheHorizon) {
  // A common release makes the critical intervals prefixes of growing
  // length, so the rounds a horizon cuts off run only past it.
  Xoshiro256 rng(kSeed + 7);
  for (int trial = 0; trial < 200; ++trial) {
    const Time release = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 5.0);
    Instance inst;
    const int n = 1 + static_cast<int>(rng() % 12);
    for (int k = 0; k < n; ++k) {
      inst.add(release, release + rng.uniform(0.1, 6.0), rng.uniform(0.0, 3.0));
    }
    const Schedule full = scheduling::yds(inst);
    for (const Time horizon :
         {release + rng.uniform(0.0, 6.0), inst.jobs()[0].deadline, kInf}) {
      const Schedule cut = scheduling::yds_until(inst, horizon);
      ASSERT_EQ(cut.job_count(), full.job_count());
      for (std::size_t j = 0; j < inst.size(); ++j) {
        const auto id = static_cast<JobId>(j);
        const Interval head{release, horizon};
        EXPECT_TRUE(same_bits(cut.rate(id).restricted(head),
                              full.rate(id).restricted(head)))
            << "trial " << trial << " job " << j << " horizon " << horizon;
      }
    }
  }
}

// --- EDF's forward snaps -------------------------------------------------
//
// One OA replan of gen::random_online(32, 10.0, 0.5, 4.0,
// 16599116542073688684): eight jobs released together. EDF snaps a finish
// onto a cell boundary it would have reached ~3.4e-10 earlier, so the job
// runs past its work and the critical interval's last job ends ~4.25e-9
// short, above EDF's work epsilon. Every YDS solver used to abort here.
Instance snap_plan() {
  constexpr Time kRelease = 7.637583868595204;
  const std::pair<Time, Work> jobs[] = {
      {8.6351996467171208, 2.0058129805416884},
      {8.20892349497894, 0.60817779698306185},
      {9.2423022347324917, 1.5822451573173437},
      {8.2440176187201804, 0.9734449703912238},
      {7.9770842358544449, 2.6887782092447492},
      {11.298493159346863, 0.58832232280017815},
      {8.3228457239715183, 4.3491564128998412},
      {8.8161832056597849, 4.0058515500757075}};
  Instance plan;
  for (const auto& [deadline, work] : jobs) plan.add(kRelease, deadline, work);
  return plan;
}

TEST(EdfForwardSnap, EveryYdsSolverPacksTheSnapPlan) {
  const Instance plan = snap_plan();
  EXPECT_TRUE(validate(plan, scheduling::yds(plan)).feasible);
  EXPECT_TRUE(validate(plan, scheduling::oracle::yds_reference(plan)).feasible);
  EXPECT_TRUE(validate(plan, scheduling::yds_common_release(plan)).feasible);
}

TEST(EdfForwardSnap, OaSkipsTheSliverAJobEndsItsWindowWith) {
  // The snap plan plus one later arrival: the short-changed job's deadline
  // passes before the replan, with a sliver of its work left.
  for (const Time late : {8.5, 9.0, 12.0}) {
    Instance inst = snap_plan();
    inst.add(late, late + 1.0, 1.0);
    const Schedule s = scheduling::optimal_available(inst);
    EXPECT_TRUE(validate(inst, s).feasible) << "late arrival at " << late;
  }
}

TEST(EdfForwardSnap, OaqRunsTheInstancesThatUsedToAbort) {
  gen::CompressionConfig files32;
  files32.files = 32;
  gen::OptimizerConfig jobs16;
  jobs16.jobs = 16;
  const std::pair<std::string, core::QInstance> cases[] = {
      {"online 32", gen::random_online(32, 10.0, 0.5, 4.0,
                                       16599116542073688684ULL)},
      {"online 16 a",
       gen::random_online(16, 10.0, 0.5, 4.0, 6216801594792126619ULL)},
      {"online 16 b",
       gen::random_online(16, 10.0, 0.5, 4.0, 15637384264577108021ULL)},
      {"compression a",
       gen::compression_stream(files32, 12.0, 3.0, 10722535158707007377ULL)},
      {"compression b",
       gen::compression_stream(files32, 12.0, 3.0, 14836690185610653955ULL)},
      {"optimizer", gen::optimizer_instance(jobs16, 10245194066941706469ULL)}};
  for (const auto& [what, q] : cases) {
    const core::QbssRun run = core::oaq(q);
    EXPECT_TRUE(core::validate_run(q, run).feasible) << what;
  }
}

}  // namespace
}  // namespace qbss
