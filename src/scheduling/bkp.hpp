// BKP — the online algorithm of Bansal, Kimbrel and Pruhs (JACM 2007).
//
// At time t the machine runs at
//     s(t) = e * max_{t1 < t <= t2} w(t, t1, t2) / (t2 - t1)
// where w(t, t1, t2) is the total work of jobs that have arrived by t with
// window inside (t1, t2]. BKP is e-competitive for maximum speed (optimal
// for deterministic algorithms) and 2 (alpha/(alpha-1))^alpha e^alpha
// competitive for energy. This is the formulation the paper uses for BKPQ.
//
// Implementation note: candidate windows run from a release time to a
// *deadline* >= t. The literal formula also admits windows ending at t
// itself, whose work consists entirely of already-expired jobs; they keep
// the nominal speed positive after work completes (a vestige of the
// formula, not of the algorithm — the machine has nothing to run). We
// anchor t2 at deadlines, which only lowers the nominal profile on such
// tails; feasibility is validated explicitly, and the BKPQ/BKP* pointwise
// comparison (Theorem 5.4) uses the same family on both sides, so every
// measured check stays internally consistent.
//
// Cost: on a grid piece (a, b] the formula depends on a only through the
// jobs arrived by a and the candidate starts t1 <= a, and both change only
// at a release. bkp_profile therefore evaluates each deadline t2 once per
// arrival epoch (a max over the arrived releases t1, summing the arrived
// jobs in one fixed order) and answers every piece of the epoch from a
// suffix maximum over t2: O(#releases * #deadlines * (n + #releases)) in
// all, with each piece's value bit-identical to a direct scan of its
// (t1, t2) pairs (tests/test_online_oracles.cpp keeps that scan).
#pragma once

#include "common/piecewise.hpp"
#include "scheduling/schedule.hpp"

namespace qbss::scheduling {

/// A run of an online profile-driven algorithm.
struct OnlineRun {
  /// Work actually executed (EDF at the nominal profile; machine idles when
  /// no released work is pending, so speed() <= nominal pointwise).
  Schedule schedule;
  /// The speed the algorithm's formula prescribes — the quantity the
  /// competitive analysis bounds.
  StepFunction nominal;
  /// True iff every job met its deadline (guaranteed by the BKP analysis;
  /// validated, never assumed).
  bool feasible = false;

  /// Energy of the nominal profile — the analyzed measure.
  [[nodiscard]] Energy nominal_energy(double alpha) const {
    return nominal.power_integral(alpha);
  }
  [[nodiscard]] Speed nominal_max_speed() const {
    return nominal.max_value();
  }
};

/// Runs BKP online. The nominal profile is piecewise constant between
/// release/deadline events (the admissible (t1, t2) candidate set only
/// changes there).
[[nodiscard]] OnlineRun bkp(const Instance& instance);

/// Just the BKP nominal speed profile.
[[nodiscard]] StepFunction bkp_profile(const Instance& instance);

}  // namespace qbss::scheduling
