// Perf-core invariants: the SolveArena allocator, the SoA instance view,
// and — most importantly — agreement of the rebuilt solver hot path with
// the reference. The SoA/arena/fused-scan solver must produce the
// reference scan's speed profile and energy across every generator
// family, including denormal and -0.0 job values; and a warm solve — one
// instance repeated, or a loop over many — must touch the heap zero
// times (asserted through the arena growth counters).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "gen/compression.hpp"
#include "gen/nested.hpp"
#include "gen/optimizer.hpp"
#include "gen/random_instances.hpp"
#include "obs/registry.hpp"
#include "oracles.hpp"
#include "qbss/transform.hpp"
#include "scheduling/arena.hpp"
#include "scheduling/soa.hpp"
#include "scheduling/yds.hpp"

namespace qbss::scheduling {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Equality of everything that is UNIQUE about a YDS solution, to a
/// tight tolerance. Used against the brute-force reference: its
/// per-candidate from-scratch sums (in job order) round differently
/// than the fast path's incremental prefix sums (in deadline-rank
/// order), which can split one critical round into two whose
/// intensities differ by 1 ULP. That changes the piece list and — via
/// the per-round EDF regrouping — which of several same-deadline jobs
/// absorbs which slice, but the optimal speed profile and the energy
/// are unique, so those are the meaningful contract here.
void expect_near_identical(const Schedule& a, const Schedule& b) {
  constexpr double kTol = 1e-9;
  ASSERT_EQ(a.job_count(), b.job_count());
  EXPECT_TRUE(a.speed().approx_equals(b.speed(), kTol)) << "speed profile";
  EXPECT_NEAR(a.speed().power_integral(3.0), b.speed().power_integral(3.0),
              1e-9 * (1.0 + b.speed().power_integral(3.0)))
      << "energy";
}

/// One classical instance per generator family in src/gen, via the
/// clairvoyant expansion (the same reduction the service and the bench
/// suite use).
std::vector<Instance> family_instances() {
  std::vector<Instance> out;
  out.push_back(
      core::clairvoyant_instance(gen::random_common_deadline(24, 8.0, 11)));
  out.push_back(
      core::clairvoyant_instance(gen::random_pow2_deadlines(24, 5, 12)));
  out.push_back(
      core::clairvoyant_instance(gen::random_arbitrary_deadlines(24, 12.0, 13)));
  out.push_back(core::clairvoyant_instance(
      gen::random_online(32, 10.0, 0.5, 4.0, 14)));
  out.push_back(core::clairvoyant_instance(
      gen::geometric_release_family(12, 0.5, 0.01)));
  out.push_back(core::clairvoyant_instance(gen::nested_family(8, 0.01)));
  out.push_back(core::clairvoyant_instance(
      gen::oa_adversarial_family(10, 0.6, 0.01)));
  out.push_back(core::clairvoyant_instance(
      gen::compression_instance(gen::CompressionConfig{}, 15)));
  out.push_back(core::clairvoyant_instance(gen::compression_stream(
      gen::CompressionConfig{}, 20.0, 5.0, 16)));
  out.push_back(core::clairvoyant_instance(
      gen::optimizer_instance(gen::OptimizerConfig{}, 17)));
  return out;
}

/// The cache-key edge cases from PR 4, as solver inputs: -0.0 works
/// (equal to 0.0, skipped upfront), denormal works and spans, and values
/// whose sums exercise rounding in the prefix accumulation.
Instance denormal_instance() {
  constexpr double kDenormal = 4.9406564584124654e-324;  // min subnormal
  Instance inst;
  inst.add(0.0, 1.0, -0.0);
  inst.add(0.0, 2.0, kDenormal);
  inst.add(0.5, 1.5, 1e-300);
  inst.add(0.25, 4.0, 3.0);
  inst.add(1.0, 3.0, 0.1 + 0.2);  // 0.30000000000000004
  inst.add(-0.0, 2.5, 1.0 / 3.0);
  return inst;
}

TEST(SolveArena, AlignsAndGrowsThenReusesWithoutGrowth) {
  SolveArena arena;
  EXPECT_EQ(arena.capacity(), 0u);
  unsigned char* c = arena.alloc<unsigned char>(3);
  double* d = arena.alloc<double>(100);
  std::uint32_t* u = arena.alloc<std::uint32_t>(7);
  ASSERT_NE(c, nullptr);
  ASSERT_NE(d, nullptr);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u) % alignof(std::uint32_t), 0u);
  d[99] = 1.0;  // the span must be writable end to end
  const std::uint64_t grown = arena.growths();
  EXPECT_GE(grown, 1u);

  // Same shape after reset: the retained block serves everything.
  arena.reset();
  static_cast<void>(arena.alloc<unsigned char>(3));
  static_cast<void>(arena.alloc<double>(100));
  static_cast<void>(arena.alloc<std::uint32_t>(7));
  EXPECT_EQ(arena.growths(), grown) << "warm reset-alloc cycle must not grow";

  // A request beyond every retained block grows exactly once more.
  arena.reset();
  double* big = arena.alloc<double>(1 << 16);
  ASSERT_NE(big, nullptr);
  big[(1 << 16) - 1] = 2.0;
  EXPECT_GT(arena.growths(), grown);

  arena.release();
  EXPECT_EQ(arena.capacity(), 0u);
}

TEST(SolveArena, ZeroSizeAllocationsAreDistinctAndNonNull) {
  SolveArena arena;
  double* a = arena.alloc<double>(0);
  double* b = arena.alloc<double>(0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
}

TEST(SoaInstance, MirrorsJobFieldsBitExactly) {
  const Instance inst = denormal_instance();
  SolveArena arena;
  const SoaInstance soa(inst, arena);
  ASSERT_EQ(soa.size(), inst.size());
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(bits(soa.release()[i]), bits(inst.jobs()[i].release));
    EXPECT_EQ(bits(soa.deadline()[i]), bits(inst.jobs()[i].deadline));
    EXPECT_EQ(bits(soa.work()[i]), bits(inst.jobs()[i].work));
  }
}

TEST(YdsDifferential, SoaPathMatchesReferenceAcrossAllFamilies) {
  const std::vector<Instance> instances = family_instances();
  for (std::size_t f = 0; f < instances.size(); ++f) {
    SCOPED_TRACE("family " + std::to_string(f));
    const Instance& inst = instances[f];
    const Schedule fast = yds(inst);
    expect_near_identical(fast, oracle::yds_reference(inst));
    EXPECT_TRUE(validate(inst, fast).feasible);
  }
}

TEST(YdsDifferential, DenormalAndNegativeZeroValues) {
  const Instance inst = denormal_instance();
  expect_near_identical(yds(inst), oracle::yds_reference(inst));
  EXPECT_TRUE(validate(inst, yds(inst)).feasible);
}

std::uint64_t counter_value(const char* name) {
  for (const auto& [key, value] : obs::registry().snapshot()) {
    if (key == name) return value;
  }
  return 0;
}

TEST(ZeroAlloc, SteadyStateSolveNeverGrowsTheArena) {
  const Instance inst = core::clairvoyant_instance(
      gen::random_online(64, 10.0, 0.5, 4.0, 99));
  // Warm-up: the first solve may grow the thread arena (and tick the
  // solver.alloc.* counters).
  static_cast<void>(yds(inst));
  static_cast<void>(yds(inst));

  const std::uint64_t growths = solve_arena().growths();
  const std::uint64_t count = counter_value("solver.alloc.count");
  const std::uint64_t bytes = counter_value("solver.alloc.bytes");
  for (int i = 0; i < 5; ++i) static_cast<void>(yds(inst));
  EXPECT_EQ(solve_arena().growths(), growths)
      << "steady-state solves must not grow the arena";
  EXPECT_EQ(counter_value("solver.alloc.count"), count);
  EXPECT_EQ(counter_value("solver.alloc.bytes"), bytes);
}

TEST(ZeroAlloc, LoopOfSolvesSharesOneWarmArena) {
  const std::vector<Instance> instances = family_instances();
  // The first pass warms the arena to the largest instance's footprint;
  // a second pass over the same instances must reuse it.
  for (const Instance& inst : instances) static_cast<void>(yds(inst));
  const std::uint64_t growths = solve_arena().growths();
  for (const Instance& inst : instances) static_cast<void>(yds(inst));
  EXPECT_EQ(solve_arena().growths(), growths);
}

}  // namespace
}  // namespace qbss::scheduling
