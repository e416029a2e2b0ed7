#include "qbss/run.hpp"

#include <span>
#include <sstream>
#include <vector>

#include "obs/registry.hpp"

namespace qbss::core {

namespace {

void fail(scheduling::ValidationReport& report, std::string message) {
  report.feasible = false;
  report.errors.push_back(std::move(message));
}

/// Structural checks shared by single- and multi-machine runs: the
/// expansion must honour the QBSS information and window model.
void check_expansion(const QInstance& instance, const Expansion& expansion,
                     scheduling::ValidationReport& report) {
  if (expansion.queried.size() != instance.size()) {
    fail(report, "expansion job count does not match QBSS instance");
    return;
  }

  const Expansion::PartsBySource by_source = expansion.parts_by_source();
  for (std::size_t q = 0; q < instance.size(); ++q) {
    const QJob& job = instance.job(static_cast<JobId>(q));
    const std::span<const JobId> parts =
        by_source.of(static_cast<JobId>(q));

    if (expansion.queried[q]) {
      if (parts.size() != 2) {
        std::ostringstream msg;
        msg << "queried job " << q << " has " << parts.size()
            << " parts, expected 2";
        fail(report, msg.str());
        continue;
      }
      const auto& query = expansion.classical.job(parts[0]);
      const auto& exact = expansion.classical.job(parts[1]);
      if (expansion.parts[static_cast<std::size_t>(parts[0])].kind !=
              PartKind::kQuery ||
          expansion.parts[static_cast<std::size_t>(parts[1])].kind !=
              PartKind::kExact) {
        std::ostringstream msg;
        msg << "job " << q << ": unexpected part kinds";
        fail(report, msg.str());
      }
      if (!approx_eq(query.work, job.query_cost)) {
        std::ostringstream msg;
        msg << "job " << q << ": query work " << query.work << " != c_j "
            << job.query_cost;
        fail(report, msg.str());
      }
      if (!approx_eq(exact.work, job.exact_load)) {
        std::ostringstream msg;
        msg << "job " << q << ": exact work " << exact.work << " != w*_j "
            << job.exact_load;
        fail(report, msg.str());
      }
      if (query.deadline > exact.release + kEps) {
        std::ostringstream msg;
        msg << "job " << q
            << ": exact part may start before the query completes";
        fail(report, msg.str());
      }
      if (!job.window().covers(query.window()) ||
          !job.window().covers(exact.window())) {
        std::ostringstream msg;
        msg << "job " << q << ": part window escapes (r_j, d_j]";
        fail(report, msg.str());
      }
    } else {
      bool ok = !parts.empty();
      Work total = 0.0;
      for (const JobId p : parts) {
        const auto& part = expansion.classical.job(p);
        if (expansion.parts[static_cast<std::size_t>(p)].kind !=
            PartKind::kFull) {
          ok = false;
        }
        if (!job.window().covers(part.window())) ok = false;
        total += part.work;
      }
      if (!ok || !approx_eq(total, job.upper_bound)) {
        std::ostringstream msg;
        msg << "job " << q << ": unqueried parts must cover w_j inside the "
            << "window (got total " << total << ")";
        fail(report, msg.str());
      }
    }
  }
}

}  // namespace

scheduling::ValidationReport validate_run(const QInstance& instance,
                                          const QbssRun& run, double tol) {
  scheduling::ValidationReport report =
      scheduling::validate(run.expansion.classical, run.schedule, tol);
  check_expansion(instance, run.expansion, report);
  if (report.feasible) {
    QBSS_COUNT("validator.run.pass");
  } else {
    QBSS_COUNT("validator.run.fail");
  }
  return report;
}

scheduling::ValidationReport validate_multi_run(const QInstance& instance,
                                                const QbssMultiRun& run,
                                                double tol) {
  scheduling::ValidationReport report =
      scheduling::validate_multi(run.expansion.classical, run.schedule, tol);
  check_expansion(instance, run.expansion, report);
  if (report.feasible) {
    QBSS_COUNT("validator.run.pass");
  } else {
    QBSS_COUNT("validator.run.fail");
  }
  return report;
}

}  // namespace qbss::core
