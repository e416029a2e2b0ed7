// The schedule primitives against their verbatim predecessors
// (oracles_primitives.cpp), bit for bit: sum_of's sweep without its sort
// on pieces in event order, the flat ScheduleBuilder, the two-cursor
// approx_equals, IntervalSet::insert in place, and the validators'
// reports (verdict and every error string).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/interval_set.hpp"
#include "common/piecewise.hpp"
#include "common/xoshiro.hpp"
#include "gen/random_instances.hpp"
#include "oracles.hpp"
#include "qbss/avrq.hpp"
#include "qbss/bkpq.hpp"
#include "qbss/oaq.hpp"
#include "qbss/run.hpp"
#include "scheduling/avr.hpp"

namespace qbss {
namespace {

using scheduling::JobId;

static_assert(sizeof(Segment) == 3 * sizeof(double),
              "pieces are compared with memcmp");
static_assert(sizeof(Interval) == 2 * sizeof(double),
              "intervals are compared with memcmp");

::testing::AssertionResult same_bits(std::span<const Segment> got,
                                     std::span<const Segment> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " pieces, want " << want.size();
  }
  if (!got.empty() &&
      std::memcmp(got.data(), want.data(), got.size() * sizeof(Segment)) !=
          0) {
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (std::memcmp(&got[k], &want[k], sizeof(Segment)) != 0) {
        return ::testing::AssertionFailure()
               << "piece " << k << ": (" << got[k].span.begin << ", "
               << got[k].span.end << "] = " << got[k].value << ", want ("
               << want[k].span.begin << ", " << want[k].span.end
               << "] = " << want[k].value;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// A rate value: mostly ordinary, sometimes tiny (dust next to the
/// others), sometimes huge, sometimes a repeat of `prev`.
double draw_value(Xoshiro256& rng, double prev) {
  switch (rng.below(8)) {
    case 0:
      return prev > 0.0 ? prev : 1.0;
    case 1:
      return rng.uniform(1e-16, 1e-12);
    case 2:
      return rng.uniform(1e6, 1e9);
    case 3:
      return std::ldexp(1.0, static_cast<int>(rng.below(40)) - 20);
    default:
      return rng.uniform(0.01, 50.0);
  }
}

/// `k` pieces in time order from `start`, each touching the last with
/// probability `touch` (else a gap follows it).
std::vector<Segment> run_of(Xoshiro256& rng, std::size_t k, Time start,
                            double touch) {
  std::vector<Segment> out;
  Time t = start;
  double v = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (i > 0 && rng.uniform() >= touch) t += rng.uniform(1e-6, 3.0);
    const Time end = t + (rng.below(6) == 0 ? rng.uniform(1e-9, 1e-6)
                                            : rng.uniform(0.1, 5.0));
    v = draw_value(rng, v);
    out.push_back(Segment{{t, end}, v});
    t = end;
  }
  return out;
}

/// sum_of and append_sum_of (after a piece that meets the run's first at
/// its value, which must not join it) against the oracle.
::testing::AssertionResult sums_match(std::span<const Segment> pieces) {
  const std::vector<Segment> want = scheduling::oracle::sum_of(pieces);
  auto got = same_bits(StepFunction::sum_of(pieces).pieces(), want);
  if (!got) return got << " (sum_of)";
  std::vector<Segment> appended;
  if (!want.empty()) {
    const Segment& head = want.front();
    appended.push_back(Segment{{head.span.begin - 1.0, head.span.begin},
                               head.value});
  }
  const std::size_t before = appended.size();
  StepFunction::append_sum_of(pieces, appended);
  return same_bits(std::span<const Segment>(appended).subspan(before), want)
         << " (append_sum_of)";
}

TEST(SumOfOracle, TouchingRunsMatchOnBothSidesOfTheSortLimit) {
  // Touching pieces tie an end with the next begin, so they go through
  // the sort. Past 16 events libstdc++'s introsort may swap such ties: a
  // sweep that skipped the sort would differ on the longer runs.
  Xoshiro256 rng(2207);
  for (std::size_t k = 2; k <= 12; ++k) {
    for (int trial = 0; trial < 3000; ++trial) {
      const std::vector<Segment> pieces =
          run_of(rng, k, rng.uniform(-5.0, 5.0), 1.0);
      ASSERT_TRUE(sums_match(pieces)) << k << " pieces, trial " << trial;
    }
  }
}

TEST(SumOfOracle, MixedRunsMatch) {
  Xoshiro256 rng(2208);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t k = 1 + rng.below(24);
    const double touch = rng.uniform();
    const std::vector<Segment> pieces = run_of(rng, k, rng.uniform(0, 9), touch);
    ASSERT_TRUE(sums_match(pieces)) << "trial " << trial;
  }
}

TEST(SumOfOracle, DustPiecesTouchingLargeOnes) {
  Xoshiro256 rng(2209);
  for (int trial = 0; trial < 5000; ++trial) {
    const std::size_t k = 2 + rng.below(11);
    std::vector<Segment> pieces;
    Time t = rng.uniform(0.0, 3.0);
    const double big = rng.uniform(1.0, 1e6);
    for (std::size_t i = 0; i < k; ++i) {
      const Time end = t + rng.uniform(0.01, 2.0);
      const double v =
          rng.below(2) == 0 ? big * rng.uniform(1e-15, 2e-12) : big;
      pieces.push_back(Segment{{t, end}, v});
      t = rng.below(3) == 0 ? end + 0.5 : end;
    }
    ASSERT_TRUE(sums_match(pieces)) << "trial " << trial;
  }
}

TEST(SumOfOracle, SignedZeroAndDenormalBounds) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<Segment>> cases = {
      {{{-1.0, -0.0}, 2.0}, {{0.0, 1.0}, 3.0}},
      {{{-1.0, 0.0}, 2.0}, {{-0.0, 1.0}, 2.0}},
      {{{-0.0, denorm}, 1.0}, {{denorm, 2 * denorm}, 4.0}},
      {{{-0.0, denorm}, 1.0}, {{2 * denorm, 1.0}, 1.0}},
      {{{-2 * denorm, -denorm}, 5.0}, {{-denorm, -0.0}, 5.0},
       {{0.0, denorm}, 7.0}},
      {{{0.0, 1.0}, 1.0}, {{-0.0, 1.0}, -1.0}},
      {{{-0.0, 0.5}, 1e-300}, {{0.5, 1.0}, 1.0}, {{1.0, 2.0}, 1e-300}},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    EXPECT_TRUE(sums_match(cases[c])) << "case " << c;
  }
  // Touching runs whose bounds alternate -0.0 and 0.0 around denormals.
  Xoshiro256 rng(2210);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t k = 2 + rng.below(11);
    std::vector<Segment> pieces;
    Time t = rng.below(2) == 0 ? -0.0 : 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const Time end = t + denorm * static_cast<double>(1 + rng.below(4));
      pieces.push_back(Segment{{t, end}, draw_value(rng, 1.0)});
      t = end;
    }
    ASSERT_TRUE(sums_match(pieces)) << "trial " << trial;
  }
}

TEST(SumOfOracle, UnsortedOverlappingEmptyAndNegativeInput) {
  Xoshiro256 rng(2211);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t k = rng.below(20);
    std::vector<Segment> pieces;
    for (std::size_t i = 0; i < k; ++i) {
      const Time a = static_cast<double>(rng.below(12)) * 0.5;
      const Time len = static_cast<double>(rng.below(6)) * 0.25;
      double v = draw_value(rng, 1.0);
      if (rng.below(6) == 0) v = -v;
      pieces.push_back(Segment{{a, a + len}, v});
    }
    ASSERT_TRUE(sums_match(pieces)) << "trial " << trial;
  }
}

TEST(BuilderOracle, SchedulesMatchBitForBit) {
  Xoshiro256 rng(2212);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 1 + rng.below(12);
    scheduling::ScheduleBuilder got(n);
    scheduling::oracle::PerJobBuilder want(n);
    // Each job gets a run in time order or a scramble; the runs' pieces
    // are dealt out interleaved across jobs.
    std::vector<std::pair<JobId, Segment>> adds;
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<Segment> run =
          run_of(rng, rng.below(14), rng.uniform(0.0, 20.0), rng.uniform());
      if (rng.below(4) == 0) std::reverse(run.begin(), run.end());
      for (const Segment& s : run) adds.emplace_back(static_cast<JobId>(j), s);
    }
    for (std::size_t i = adds.size(); i > 1; --i) {
      if (rng.below(3) == 0) std::swap(adds[i - 1], adds[rng.below(i)]);
    }
    for (const auto& [id, s] : adds) {
      got.add_rate(id, s.span, s.value);
      want.add_rate(id, s.span, s.value);
    }
    const scheduling::Schedule schedule = std::move(got).build();
    const scheduling::oracle::BuiltSchedule oracle = std::move(want).build();
    ASSERT_EQ(schedule.job_count(), n);
    ASSERT_TRUE(same_bits(schedule.speed().pieces(), oracle.speed))
        << "trial " << trial << ": speed";
    std::size_t total = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const auto id = static_cast<JobId>(j);
      ASSERT_TRUE(same_bits(schedule.rate(id).pieces(), oracle.rates[j]))
          << "trial " << trial << ": rate of job " << j;
      total += oracle.rates[j].size();
    }
    ASSERT_EQ(schedule.pieces().size(), total);
  }
}

TEST(ApproxEqualsOracle, SameVerdict) {
  Xoshiro256 rng(2213);
  int equal = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::vector<Segment> a = scheduling::oracle::sum_of(
        run_of(rng, rng.below(10), rng.uniform(-1.0, 1.0), rng.uniform()));
    std::vector<Segment> raw(a.begin(), a.end());
    switch (rng.below(4)) {
      case 0:  // nudge one value
        if (!raw.empty()) {
          raw[rng.below(raw.size())].value *= 1.0 + rng.uniform(-2e-9, 2e-9);
        }
        break;
      case 1:  // split a piece at an interior point (same function)
        if (!raw.empty()) {
          const std::size_t k = rng.below(raw.size());
          const Segment s = raw[k];
          const Time mid = s.span.midpoint();
          raw[k].span.end = mid;
          raw.push_back(Segment{{mid, s.span.end}, s.value * (1.0 + 1e-12)});
        }
        break;
      case 2:  // an unrelated function
        raw = run_of(rng, rng.below(10), rng.uniform(-1.0, 1.0), 0.5);
        break;
      default:  // the same pieces with signed-zero bounds flipped
        for (Segment& s : raw) {
          if (s.span.begin == 0.0) s.span.begin = -s.span.begin;
          if (s.span.end == 0.0) s.span.end = -s.span.end;
        }
        break;
    }
    const std::vector<Segment> b = scheduling::oracle::sum_of(raw);
    const double tol = rng.below(2) == 0 ? kEps : 1e-7;
    const bool want =
        scheduling::oracle::approx_equals(StepView(a), StepView(b), tol);
    ASSERT_EQ(StepView(a).approx_equals(StepView(b), tol), want)
        << "trial " << trial;
    ASSERT_EQ(StepView(b).approx_equals(StepView(a), tol),
              scheduling::oracle::approx_equals(StepView(b), StepView(a), tol))
        << "trial " << trial;
    equal += want ? 1 : 0;
  }
  // Both verdicts occur.
  EXPECT_GT(equal, 2000);
  EXPECT_LT(equal, 18000);
}

TEST(IntervalSetOracle, InsertInPlaceMatches) {
  Xoshiro256 rng(2214);
  for (int trial = 0; trial < 5000; ++trial) {
    IntervalSet got;
    std::vector<Interval> want;
    const std::size_t k = rng.below(16);
    for (std::size_t i = 0; i < k; ++i) {
      Time a = static_cast<double>(rng.below(20)) * 0.5;
      const Time len = static_cast<double>(rng.below(5)) * 0.5;
      if (a == 0.0 && rng.below(2) == 0) a = -0.0;
      const Interval iv{a, a + len};
      got.insert(iv);
      scheduling::oracle::interval_insert(want, iv);
      ASSERT_EQ(got.members().size(), want.size()) << "trial " << trial;
      ASSERT_TRUE(want.empty() ||
                  std::memcmp(got.members().data(), want.data(),
                              want.size() * sizeof(Interval)) == 0)
          << "trial " << trial << ", insert " << i;
    }
  }
}

::testing::AssertionResult same_report(
    const scheduling::ValidationReport& got,
    const scheduling::ValidationReport& want) {
  if (got.feasible != want.feasible) {
    return ::testing::AssertionFailure()
           << "feasible " << got.feasible << ", want " << want.feasible;
  }
  if (got.errors != want.errors) {
    auto fail = ::testing::AssertionFailure();
    fail << got.errors.size() << " errors, want " << want.errors.size();
    for (const std::string& e : got.errors) fail << "\n  got:  " << e;
    for (const std::string& e : want.errors) fail << "\n  want: " << e;
    return fail;
  }
  return ::testing::AssertionSuccess();
}

using core::PartKind;
using core::QbssRun;
using core::QInstance;

/// The instance of test_validator_mutations.
QInstance small_instance() {
  QInstance inst;
  inst.add(0.0, 4.0, 0.5, 2.0, 1.0);
  inst.add(1.0, 5.0, 0.4, 1.5, 1.5);
  inst.add(0.5, 3.5, 1.4, 1.5, 0.2);
  return inst;
}

scheduling::Schedule scaled_rates(const QbssRun& run, double factor) {
  scheduling::ScheduleBuilder b(run.expansion.classical.size());
  for (std::size_t i = 0; i < run.expansion.classical.size(); ++i) {
    const auto id = static_cast<JobId>(i);
    b.add_rate(id, run.schedule.rate(id).scaled(factor));
  }
  return std::move(b).build();
}

/// The mutants of test_validator_mutations, and a few more, on `run`.
std::vector<QbssRun> mutants_of(const QInstance& inst, const QbssRun& run,
                                Xoshiro256& rng) {
  std::vector<QbssRun> out;
  out.push_back(run);
  for (const double f : {0.9, 1.1, 1.0 + 1e-8}) {
    QbssRun m = run;
    m.schedule = scaled_rates(run, f);
    out.push_back(std::move(m));
  }
  {  // dropped part
    QbssRun m = run;
    scheduling::ScheduleBuilder b(run.expansion.classical.size());
    for (std::size_t i = 1; i < run.expansion.classical.size(); ++i) {
      const auto id = static_cast<JobId>(i);
      b.add_rate(id, run.schedule.rate(id));
    }
    m.schedule = std::move(b).build();
    out.push_back(std::move(m));
  }
  {  // every piece shifted right: windows escape
    QbssRun m = run;
    scheduling::ScheduleBuilder b(run.expansion.classical.size());
    for (std::size_t i = 0; i < run.expansion.classical.size(); ++i) {
      const auto id = static_cast<JobId>(i);
      for (const Segment& s : run.schedule.rate(id).pieces()) {
        b.add_rate(id, {s.span.begin + 0.25, s.span.end + 0.25}, s.value);
      }
    }
    m.schedule = std::move(b).build();
    out.push_back(std::move(m));
  }
  {  // a part's kind, source or work forged
    for (int k = 0; k < 3 && !run.expansion.parts.empty(); ++k) {
      QbssRun m = run;
      auto& part = m.expansion.parts[rng.below(m.expansion.parts.size())];
      switch (k) {
        case 0:
          part.kind = static_cast<PartKind>(rng.below(3));
          break;
        case 1:
          part.source = static_cast<JobId>(rng.below(inst.size() + 2)) - 1;
          break;
        default:
          m.expansion.queried[rng.below(inst.size())].flip();
          break;
      }
      out.push_back(std::move(m));
    }
  }
  {  // one job count off
    QbssRun m = run;
    m.expansion.queried.push_back(false);
    out.push_back(std::move(m));
  }
  return out;
}

/// The forged runs of test_validator_mutations (exact part before its
/// query, half a query load, unqueried exact load, stretched window).
std::vector<QbssRun> forged_runs(const QInstance& inst) {
  std::vector<QbssRun> out;
  for (int bug = 0; bug < 4; ++bug) {
    QbssRun run;
    run.expansion.queried.assign(inst.size(), false);
    core::RevealGate gate(inst);
    for (std::size_t i = 0; i < inst.size(); ++i) {
      const auto q = static_cast<JobId>(i);
      const core::QJob& job = inst.job(q);
      const Time tau = job.release + 0.5 * job.window_length();
      if (bug < 2) {
        run.expansion.queried[i] = true;
        run.expansion.classical.add(job.release, tau,
                                    bug == 1 ? 0.5 * job.query_cost
                                             : job.query_cost);
        run.expansion.parts.push_back({q, PartKind::kQuery});
        gate.reveal(q);
        run.expansion.classical.add(bug == 0 ? job.release : tau,
                                    job.deadline, gate.exact_load(q));
        run.expansion.parts.push_back({q, PartKind::kExact});
      } else {
        run.expansion.classical.add(
            job.release, bug == 3 ? job.deadline + 1.0 : job.deadline,
            bug == 2 ? job.exact_load : job.upper_bound);
        run.expansion.parts.push_back({q, PartKind::kFull});
      }
    }
    run.schedule = scheduling::avr(run.expansion.classical);
    run.nominal = run.schedule.speed();
    out.push_back(std::move(run));
  }
  return out;
}

TEST(ValidateOracle, ReportsMatchOnTheMutationSuite) {
  const QInstance inst = small_instance();
  Xoshiro256 rng(2215);
  std::vector<QbssRun> runs = mutants_of(inst, core::avrq(inst), rng);
  for (QbssRun& r : forged_runs(inst)) runs.push_back(std::move(r));
  int rejected = 0;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const auto got = core::validate_run(inst, runs[k]);
    const auto want = core::oracle::validate_run(inst, runs[k]);
    EXPECT_TRUE(same_report(got, want)) << "run " << k;
    rejected += got.feasible ? 0 : 1;
    EXPECT_TRUE(same_report(
        scheduling::validate(runs[k].expansion.classical, runs[k].schedule),
        scheduling::oracle::validate(runs[k].expansion.classical,
                                     runs[k].schedule)))
        << "run " << k;
  }
  EXPECT_GE(rejected, 10);
}

TEST(ValidateOracle, ReportsMatchOnSeededRunsAndTheirMutants) {
  Xoshiro256 rng(2216);
  int rejected = 0;
  int runs = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const QInstance inst =
        seed % 2 == 0 ? gen::random_online(12, 10.0, 0.5, 4.0, 500 + seed)
                      : gen::random_arbitrary_deadlines(10, 6.0, 500 + seed);
    const QbssRun base = seed % 4 < 2   ? core::avrq(inst)
                         : seed % 4 == 2 ? core::bkpq(inst)
                                         : core::oaq(inst);
    for (const QbssRun& m : mutants_of(inst, base, rng)) {
      const auto got = core::validate_run(inst, m);
      ASSERT_TRUE(same_report(got, core::oracle::validate_run(inst, m)))
          << "seed " << seed << ", run " << runs;
      rejected += got.feasible ? 0 : 1;
      ++runs;
    }
  }
  EXPECT_GT(rejected, runs / 2);
}

}  // namespace
}  // namespace qbss
