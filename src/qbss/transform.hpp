// Reductions from QBSS instances to classical speed-scaling instances.
//
// Every algorithm in the paper works by expanding each quintuple job into
// one or two classical jobs and running a classical algorithm on the
// expansion. The expansion respects the information model: the exact load
// enters only through jobs whose release equals the split point, i.e. a
// time by which the query has provably completed.
#pragma once

#include <span>
#include <vector>

#include "qbss/policy.hpp"
#include "qbss/qinstance.hpp"
#include "scheduling/instance.hpp"

namespace qbss::core {

/// What one classical job of an expansion represents.
enum class PartKind {
  kQuery,  ///< (r_j, tau_j, c_j)
  kExact,  ///< (tau_j, d_j, w*_j) — released when the query completes
  kFull,   ///< (r_j, d_j, w_j) — no query, upper bound executed
};

/// A QBSS instance expanded into classical jobs, with provenance.
struct Expansion {
  scheduling::Instance classical;
  /// parts[i] describes classical job i.
  struct Part {
    JobId source = -1;  ///< originating QBSS job
    PartKind kind = PartKind::kFull;
  };
  std::vector<Part> parts;
  /// queried[q] — whether QBSS job q was queried under the policy.
  std::vector<bool> queried;

  /// The classical parts of every QBSS job, grouped by source.
  struct PartsBySource {
    /// QBSS job q's part ids are ids[first[q], first[q + 1]).
    std::vector<std::size_t> first;
    std::vector<JobId> ids;

    /// Ids of the classical parts of QBSS job `q` in index order (1 or 2
    /// entries).
    [[nodiscard]] std::span<const JobId> of(JobId q) const {
      const auto i = static_cast<std::size_t>(q);
      return std::span<const JobId>(ids).subspan(first[i],
                                                 first[i + 1] - first[i]);
    }
  };
  /// Every QBSS job's parts in one stable counting pass over `parts`.
  /// Parts whose source is not a QBSS job (outside [0, queried.size()))
  /// are left out.
  [[nodiscard]] PartsBySource parts_by_source() const;
};

/// Expands under a (query, split) policy pair — the J' construction of
/// AVRQ/BKPQ/AVRQ(m). Exact loads are read through `gate`, which is told
/// the query finishes at the split point; reading a load the policy never
/// queries aborts, keeping the reduction honest.
[[nodiscard]] Expansion expand(const QInstance& instance, QueryPolicy query,
                               SplitPolicy split);

/// Expands with an explicit per-job decision vector instead of a
/// threshold rule — the entry point for forecast-driven (learning-
/// augmented) and decision-oracle policies. decisions.size() must equal
/// instance.size().
[[nodiscard]] Expansion expand_with_decisions(
    const QInstance& instance, const std::vector<bool>& decisions,
    SplitPolicy split);

/// The clairvoyant reduction: job j becomes (r_j, d_j, p*_j). The offline
/// optimum of the QBSS instance equals the YDS optimum of this instance
/// (Section 3).
[[nodiscard]] scheduling::Instance clairvoyant_instance(
    const QInstance& instance);

/// The three auxiliary instances of the CRP2D analysis (Section 4.3,
/// Figure 1), for jobs partitioned by the golden-ratio rule into
/// A (no query) and B (query):
///   I*     : (0, d_j, p*_j)                          for all j
///   I'     : (0, d_j, c_j) + (0, d_j, w*_j) for B;  (0, d_j, w_j) for A
///   I'_1/2 : (0, d_j/2, c_j) + (d_j/2, d_j, w*_j) for B; (0, d_j, w_j) for A
struct AnalysisInstances {
  scheduling::Instance star;   ///< I*
  scheduling::Instance prime;  ///< I'
  scheduling::Instance half;   ///< I'_1/2
};
[[nodiscard]] AnalysisInstances crp2d_analysis_instances(
    const QInstance& instance);

}  // namespace qbss::core
