// Heap allocations of building and validating a schedule, counted by a
// replacement global operator new (which is why this is a binary of its
// own). A Schedule keeps every job's pieces in one buffer, so build()
// followed by validate() allocates the same number of blocks at any job
// count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "scheduling/schedule.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qbss::scheduling {
namespace {

/// Allocations made by build() and validate() on `n` jobs whose windows
/// overlap, each run as three gapped pieces in time order.
std::size_t build_and_validate_allocations(std::size_t n) {
  Instance instance;
  ScheduleBuilder builder(n);
  for (std::size_t j = 0; j < n; ++j) {
    const Time shift = 0.01 * static_cast<double>(j);
    instance.add(shift, shift + 6.0, 1.5);
    for (int k = 0; k < 3; ++k) {
      const Time begin = shift + 2.0 * k;
      builder.add_rate(static_cast<JobId>(j), {begin, begin + 0.5}, 1.0);
    }
  }
  const std::size_t before = g_allocations.load();
  const Schedule schedule = std::move(builder).build();
  const ValidationReport report = validate(instance, schedule);
  const std::size_t made = g_allocations.load() - before;
  EXPECT_TRUE(report.feasible) << n << " jobs";
  EXPECT_EQ(schedule.job_count(), n);
  return made;
}

TEST(AllocCount, BuildThenValidateDoesNotGrowWithJobCount) {
  // The first validate() registers its obs counters; count after that.
  (void)build_and_validate_allocations(8);
  const std::size_t small = build_and_validate_allocations(8);
  const std::size_t large = build_and_validate_allocations(64);
  EXPECT_EQ(small, large);
  EXPECT_GT(small, 0u);  // the counter sees the library's allocations
}

TEST(AllocCount, RateViewsAllocateNothing) {
  ScheduleBuilder builder(4);
  for (int j = 0; j < 4; ++j) builder.add_rate(j, {1.0 * j, 1.0 * j + 1}, 2.0);
  const Schedule schedule = std::move(builder).build();
  const std::size_t before = g_allocations.load();
  double work = 0.0;
  for (int j = 0; j < 4; ++j) {
    work += schedule.rate(j).integral() + schedule.work_of(j) +
            schedule.rate(j).value(0.5 + j);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_DOUBLE_EQ(work, 4 * (2.0 + 2.0 + 2.0));
}

}  // namespace
}  // namespace qbss::scheduling
