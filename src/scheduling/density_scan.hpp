// Density-scan kernel for the event-grid YDS critical-interval search.
//
// For one row of the event grid (a fixed candidate start t1 = starts[si]),
// the solver evaluates every candidate end t2 = ends[ej] with ej in
// [begin, count): the work released at or after t1 and due at or before
// t2 is a prefix sum over the deadline-rank histogram `work_at_rank`, the
// available time is the candidate span minus the already-scheduled
// occupancy, and the winner is the maximum of work/available. This
// kernel is the solver's innermost loop — everything else in a round is
// O(S log S) setup around it.
//
// One fused pass accumulates the prefix sum and compares intensities in
// the same loop. The prefix sum must stay sequential (FP addition is not
// reassociable), so only the divide and max could vectorize; an explicit
// AVX2/NEON kernel for them measured slower than this loop
// (docs/PERFORMANCE.md "Prove or remove").
//
// The kernel assumes the caller has arranged that every candidate in
// [begin, count) is admissible: ends[ej] > t1 and the prefix sum is
// strictly positive from `begin` on (the sweep in yds.cpp guarantees
// this by starting at max(first end > t1, lowest populated rank)).
#pragma once

#include <cstddef>

#include "common/check.hpp"

namespace qbss::scheduling {

/// Result of scanning one event-grid row: the best intensity found and
/// the index ej of the candidate end attaining it (first attaining index
/// — the tie-break keeps the smallest t2). `intensity < 0` means the row
/// had no candidates (begin >= count).
struct RowScan {
  double intensity = -1.0;
  std::size_t index = 0;
};

/// Fused kernel. `running` must be the sequential prefix sum of
/// work_at_rank[0, begin) — the kernel continues that accumulation, so
/// the prefix values match a from-zero rebuild bit for bit.
inline RowScan density_row(double running, double t1, double used_at_t1,
                           const double* work_at_rank, const double* ends,
                           const double* used_at_end, std::size_t begin,
                           std::size_t count) {
  RowScan best;
  for (std::size_t ej = begin; ej < count; ++ej) {
    running += work_at_rank[ej];
    const double avail = (ends[ej] - t1) - (used_at_end[ej] - used_at_t1);
    // A critical candidate with positive inside work must have positive
    // availability, or the instance would be infeasible.
    QBSS_ENSURES(avail > 0.0);
    const double intensity = running / avail;
    if (intensity > best.intensity) {
      best.intensity = intensity;
      best.index = ej;
    }
  }
  return best;
}

}  // namespace qbss::scheduling
