#include "qbss/transform.hpp"

#include <algorithm>

#include "obs/registry.hpp"

namespace qbss::core {

Expansion::PartsBySource Expansion::parts_by_source() const {
  const std::size_t n = queried.size();
  const auto source_of = [n](const Part& part) {
    return part.source >= 0 ? static_cast<std::size_t>(part.source) : n;
  };
  PartsBySource out;
  out.first.assign(n + 1, 0);
  for (const Part& part : parts) {
    if (const std::size_t q = source_of(part); q < n) ++out.first[q + 1];
  }
  for (std::size_t q = 0; q < n; ++q) out.first[q + 1] += out.first[q];
  out.ids.resize(out.first[n]);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (const std::size_t q = source_of(parts[i]); q < n) {
      out.ids[out.first[q]++] = static_cast<JobId>(i);
    }
  }
  // The scatter left first[q] at the end of job q's run, which is where
  // job q + 1's begins.
  for (std::size_t q = n; q > 0; --q) out.first[q] = out.first[q - 1];
  out.first[0] = 0;
  return out;
}

Expansion expand_with_decisions(const QInstance& instance,
                                const std::vector<bool>& decisions,
                                SplitPolicy split) {
  QBSS_EXPECTS(decisions.size() == instance.size());
  Expansion out;
  // One part per job, and a second per queried job.
  const auto queries = std::count(decisions.begin(), decisions.end(), true);
  const std::size_t parts = instance.size() + static_cast<std::size_t>(queries);
  out.classical.reserve(parts);
  out.parts.reserve(parts);
  out.queried.resize(instance.size(), false);
  RevealGate gate(instance);
  std::size_t issued = 0;

  for (std::size_t i = 0; i < instance.size(); ++i) {
    const JobId q = static_cast<JobId>(i);
    const QJob& job = instance.job(q);
    if (decisions[i]) {
      ++issued;
      out.queried[i] = true;
      const Time tau = split.split_point(job);
      out.classical.add(job.release, tau, job.query_cost);
      out.parts.push_back({q, PartKind::kQuery});
      // The query occupies (r, tau]; w* becomes known at tau.
      gate.reveal(q);
      out.classical.add(tau, job.deadline, gate.exact_load(q));
      out.parts.push_back({q, PartKind::kExact});
    } else {
      out.classical.add(job.release, job.deadline, job.upper_bound);
      out.parts.push_back({q, PartKind::kFull});
    }
  }
  QBSS_COUNT_ADD("expand.queries.issued", issued);
  QBSS_COUNT_ADD("expand.queries.skipped", instance.size() - issued);
  return out;
}

Expansion expand(const QInstance& instance, QueryPolicy query,
                 SplitPolicy split) {
  std::vector<bool> decisions(instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    decisions[i] = query.should_query(instance.job(static_cast<JobId>(i)));
  }
  return expand_with_decisions(instance, decisions, split);
}

scheduling::Instance clairvoyant_instance(const QInstance& instance) {
  scheduling::Instance out;
  out.reserve(instance.size());
  for (const QJob& j : instance.jobs()) {
    out.add(j.release, j.deadline, j.best_load());
  }
  return out;
}

AnalysisInstances crp2d_analysis_instances(const QInstance& instance) {
  const QueryPolicy golden = QueryPolicy::golden();
  AnalysisInstances out;
  for (const QJob& j : instance.jobs()) {
    QBSS_EXPECTS(j.release == 0.0);
    out.star.add(0.0, j.deadline, j.best_load());
    if (golden.should_query(j)) {
      out.prime.add(0.0, j.deadline, j.query_cost);
      out.prime.add(0.0, j.deadline, j.exact_load);
      out.half.add(0.0, j.deadline / 2.0, j.query_cost);
      out.half.add(j.deadline / 2.0, j.deadline, j.exact_load);
    } else {
      out.prime.add(0.0, j.deadline, j.upper_bound);
      out.half.add(0.0, j.deadline, j.upper_bound);
    }
  }
  return out;
}

}  // namespace qbss::core
