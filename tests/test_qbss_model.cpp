// Tests of the QBSS model layer: job quintuples, policies, the reveal
// gate's information enforcement, expansions, and the Lemma 3.1 load
// guarantee.
#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/xoshiro.hpp"
#include "qbss/policy.hpp"
#include "qbss/transform.hpp"

namespace qbss::core {
namespace {

TEST(QJob, BestLoadIsMinOfOptions) {
  const QJob cheap_query{0.0, 1.0, 0.2, 2.0, 0.5};
  EXPECT_DOUBLE_EQ(cheap_query.best_load(), 0.7);
  EXPECT_TRUE(cheap_query.optimum_queries());

  const QJob useless_query{0.0, 1.0, 1.0, 2.0, 1.5};
  EXPECT_DOUBLE_EQ(useless_query.best_load(), 2.0);
  EXPECT_FALSE(useless_query.optimum_queries());
}

TEST(QJob, ValidityEnforcesModelRanges) {
  EXPECT_TRUE((QJob{0.0, 1.0, 0.5, 1.0, 0.3}).valid());
  EXPECT_FALSE((QJob{0.0, 1.0, 0.0, 1.0, 0.3}).valid());   // c = 0
  EXPECT_FALSE((QJob{0.0, 1.0, 1.5, 1.0, 0.3}).valid());   // c > w
  EXPECT_FALSE((QJob{0.0, 1.0, 0.5, 1.0, 1.2}).valid());   // w* > w
  EXPECT_FALSE((QJob{1.0, 1.0, 0.5, 1.0, 0.3}).valid());   // empty window
  EXPECT_FALSE((QJob{-1.0, 1.0, 0.5, 1.0, 0.3}).valid());  // r < 0
}

TEST(QueryPolicy, GoldenRuleThreshold) {
  const QueryPolicy golden = QueryPolicy::golden();
  // c <= w/phi: query. c slightly above: skip.
  EXPECT_TRUE(golden.should_query({0.0, 1.0, 1.0 / kPhi - 1e-9, 1.0, 0.5}));
  EXPECT_FALSE(golden.should_query({0.0, 1.0, 1.0 / kPhi + 1e-9, 1.0, 0.5}));
}

TEST(QueryPolicy, AlwaysAndNever) {
  const QJob j{0.0, 1.0, 1.0, 1.0, 0.0};  // c = w (max allowed)
  EXPECT_TRUE(QueryPolicy::always().should_query(j));
  EXPECT_FALSE(QueryPolicy::never().should_query(j));
}

TEST(SplitPolicy, HalfIsWindowMidpoint) {
  const QJob j{2.0, 6.0, 0.5, 1.0, 0.5};
  EXPECT_DOUBLE_EQ(SplitPolicy::half().split_point(j), 4.0);
  EXPECT_DOUBLE_EQ(SplitPolicy::fraction(0.25).split_point(j), 3.0);
}

// Lemma 3.1: with the golden rule, the load the algorithm executes is at
// most phi times the clairvoyant load. Property-tested over random jobs.
TEST(GoldenRule, Lemma31LoadGuarantee) {
  Xoshiro256 rng(71);
  const QueryPolicy golden = QueryPolicy::golden();
  for (int trial = 0; trial < 2000; ++trial) {
    const Work w = rng.uniform(0.1, 10.0);
    const Work c = rng.uniform(1e-6, w);
    const Work wstar = rng.uniform(0.0, w);
    const QJob j{0.0, 1.0, c, w, wstar};
    const Work executed =
        golden.should_query(j) ? c + wstar : w;
    EXPECT_LE(executed, kPhi * j.best_load() + 1e-9)
        << "c=" << c << " w=" << w << " w*=" << wstar;
  }
}

// The golden threshold is the best fixed threshold for the Lemma 3.1
// guarantee: thresholds away from 1/phi admit jobs violating phi.
TEST(GoldenRule, OtherThresholdsViolatePhi) {
  // Threshold too high (queries too eagerly): job with c just below the
  // threshold and w* = w executes c + w > phi * w when c/w > phi - 1.
  {
    const QueryPolicy eager = QueryPolicy::threshold(0.9);
    const QJob j{0.0, 1.0, 0.89, 1.0, 1.0};
    ASSERT_TRUE(eager.should_query(j));
    EXPECT_GT(j.query_cost + j.exact_load, kPhi * j.best_load());
  }
  // Threshold too low (queries too lazily): job with c just above the
  // threshold and w* = 0 executes w > phi * c when w/c > phi.
  {
    const QueryPolicy lazy = QueryPolicy::threshold(0.3);
    const QJob j{0.0, 1.0, 0.31, 1.0, 0.0};
    ASSERT_FALSE(lazy.should_query(j));
    EXPECT_GT(j.upper_bound, kPhi * j.best_load());
  }
}

// ----- RevealGate ------------------------------------------------------

TEST(RevealGate, AllowsAccessAfterReveal) {
  QInstance inst;
  inst.add(0.0, 1.0, 0.5, 1.0, 0.25);
  RevealGate gate(inst);
  EXPECT_FALSE(gate.is_revealed(0));
  gate.reveal(0);
  EXPECT_TRUE(gate.is_revealed(0));
  EXPECT_DOUBLE_EQ(gate.exact_load(0), 0.25);
}

TEST(RevealGateDeathTest, AbortsOnUnqueriedAccess) {
  QInstance inst;
  inst.add(0.0, 1.0, 0.5, 1.0, 0.25);
  const RevealGate gate(inst);
  EXPECT_DEATH((void)gate.exact_load(0), "precondition");
}

// ----- Expansions ------------------------------------------------------

TEST(Expand, AlwaysQueryProducesTwoPartsPerJob) {
  QInstance inst;
  inst.add(0.0, 2.0, 0.5, 1.0, 0.25);
  inst.add(1.0, 3.0, 1.0, 1.0, 0.0);
  const Expansion e =
      expand(inst, QueryPolicy::always(), SplitPolicy::half());
  ASSERT_EQ(e.classical.size(), 4u);
  EXPECT_TRUE(e.queried[0]);
  EXPECT_TRUE(e.queried[1]);
  // Job 0: query (0, 1, 0.5], exact (1, 2, 0.25].
  EXPECT_EQ(e.classical.job(0).deadline, 1.0);
  EXPECT_EQ(e.classical.job(0).work, 0.5);
  EXPECT_EQ(e.classical.job(1).release, 1.0);
  EXPECT_EQ(e.classical.job(1).work, 0.25);
  // Job 1: split point at 2.
  EXPECT_EQ(e.classical.job(2).deadline, 2.0);
  EXPECT_EQ(e.classical.job(3).release, 2.0);
}

TEST(Expand, NeverQueryKeepsUpperBounds) {
  QInstance inst;
  inst.add(0.0, 2.0, 0.5, 1.0, 0.0);
  const Expansion e = expand(inst, QueryPolicy::never(), SplitPolicy::half());
  ASSERT_EQ(e.classical.size(), 1u);
  EXPECT_FALSE(e.queried[0]);
  EXPECT_EQ(e.classical.job(0).work, 1.0);
  EXPECT_EQ(e.parts[0].kind, PartKind::kFull);
}

TEST(Expand, GoldenSplitsOnlyCheapQueries) {
  QInstance inst;
  inst.add(0.0, 2.0, 0.1, 1.0, 0.5);  // cheap query -> queried
  inst.add(0.0, 2.0, 0.9, 1.0, 0.5);  // expensive -> skipped
  const Expansion e =
      expand(inst, QueryPolicy::golden(), SplitPolicy::half());
  EXPECT_TRUE(e.queried[0]);
  EXPECT_FALSE(e.queried[1]);
  ASSERT_EQ(e.classical.size(), 3u);
}

TEST(Expand, PartsOfMapsBackToSource) {
  QInstance inst;
  inst.add(0.0, 2.0, 0.1, 1.0, 0.5);
  inst.add(0.0, 2.0, 0.9, 1.0, 0.5);
  const Expansion e =
      expand(inst, QueryPolicy::golden(), SplitPolicy::half());
  const Expansion::PartsBySource by_source = e.parts_by_source();
  EXPECT_EQ(by_source.of(0).size(), 2u);
  EXPECT_EQ(by_source.of(1).size(), 1u);
  for (const auto id : by_source.of(0)) {
    EXPECT_EQ(e.parts[static_cast<std::size_t>(id)].source, 0);
  }
}

TEST(ClairvoyantInstance, UsesBestLoads) {
  QInstance inst;
  inst.add(0.0, 2.0, 0.2, 2.0, 0.5);  // p* = 0.7
  inst.add(0.0, 2.0, 1.5, 2.0, 1.0);  // p* = 2.0
  const scheduling::Instance c = clairvoyant_instance(inst);
  EXPECT_DOUBLE_EQ(c.job(0).work, 0.7);
  EXPECT_DOUBLE_EQ(c.job(1).work, 2.0);
}

TEST(QInstance, CommonFlags) {
  QInstance common;
  common.add(0.0, 4.0, 0.5, 1.0, 0.5);
  common.add(0.0, 4.0, 0.5, 1.0, 0.5);
  EXPECT_TRUE(common.common_release());
  EXPECT_TRUE(common.common_deadline());

  QInstance staggered;
  staggered.add(0.0, 4.0, 0.5, 1.0, 0.5);
  staggered.add(1.0, 4.0, 0.5, 1.0, 0.5);
  EXPECT_FALSE(staggered.common_release());
}

}  // namespace
}  // namespace qbss::core
