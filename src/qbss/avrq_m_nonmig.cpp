#include "qbss/avrq_m_nonmig.hpp"

#include "obs/histogram.hpp"
#include "obs/span.hpp"

namespace qbss::core {

QbssPartitionedRun avrq_m_nonmigratory(const QInstance& instance,
                                       int machines,
                                       scheduling::AssignmentRule rule,
                                       std::uint64_t seed) {
  QBSS_SPAN("policy.avrq_m_nonmig");
  Expansion expansion =
      expand(instance, QueryPolicy::always(), SplitPolicy::half());
  scheduling::PartitionedSchedule schedule = scheduling::nonmigratory_avr(
      expansion.classical, machines, rule, seed);
  QBSS_HIST("policy.avrq_m_nonmig.peak_speed", schedule.max_speed());
  return QbssPartitionedRun{std::move(expansion), std::move(schedule)};
}

scheduling::ValidationReport validate_partitioned_run(
    const QInstance& instance, const QbssPartitionedRun& run, double tol) {
  scheduling::ValidationReport report = scheduling::validate_partitioned(
      run.expansion.classical, run.schedule, tol);
  // Reuse the expansion checks of validate_run by validating the parts
  // against the QBSS jobs: build a no-op single-machine view is not
  // possible here, so re-check the structural side directly.
  if (run.expansion.queried.size() != instance.size()) {
    report.feasible = false;
    report.errors.push_back("expansion does not match the instance");
    return report;
  }
  const Expansion::PartsBySource by_source = run.expansion.parts_by_source();
  for (std::size_t q = 0; q < instance.size(); ++q) {
    const QJob& job = instance.job(static_cast<JobId>(q));
    for (const JobId part : by_source.of(static_cast<JobId>(q))) {
      const auto& cj = run.expansion.classical.job(part);
      if (!job.window().covers(cj.window())) {
        report.feasible = false;
        report.errors.push_back("part escapes the QBSS window");
      }
    }
  }
  if (report.feasible) {
    QBSS_COUNT("validator.run.pass");
  } else {
    QBSS_COUNT("validator.run.fail");
  }
  return report;
}

}  // namespace qbss::core
