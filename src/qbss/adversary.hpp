// Executable adversaries realizing the lower-bound constructions of
// Section 4.1 (Lemmas 4.1 - 4.5). Each lemma's existential argument is a
// concrete single-job game here: the algorithm commits to a decision
// (query or not, split point, or a query probability), the adversary then
// picks the exact load maximizing the ratio. bench/bench_lower_bounds
// reports the resulting game values against the paper's stated bounds.
#pragma once

#include "qbss/qinstance.hpp"

namespace qbss::core {

/// (max-speed ratio, energy ratio) of one algorithm/adversary exchange.
struct RatioPair {
  double speed = 0.0;
  double energy = 0.0;
};

// ----- Lemma 4.1: never querying is unboundedly bad ------------------

/// Ratio of the never-query algorithm on the one job (r, d, c, w, w*) =
/// (0, 1, eps, 1, eps): speed 1/(2 eps), energy (1/(2 eps))^alpha —
/// diverges as eps -> 0.
[[nodiscard]] RatioPair lemma41_never_query_ratio(double eps, double alpha);

// ----- Lemma 4.2: phi / phi^alpha lower bound in the oracle model ----

/// Game value of the single-job oracle-model game with c = w / phi:
/// the algorithm picks query-or-not (the oracle supplies the split), the
/// adversary answers with w* = 0 or w* = w. Both decisions yield ratio
/// phi for speed and phi^alpha for energy.
[[nodiscard]] RatioPair lemma42_game_value(double alpha);

/// Adversary's best response ratios for each algorithm decision.
[[nodiscard]] RatioPair lemma42_ratio_if_query(double alpha);
[[nodiscard]] RatioPair lemma42_ratio_if_skip(double alpha);

// ----- Lemma 4.3: 2 / 2^(alpha-1) lower bound without the oracle -----

/// The instance has c = 1, w = 2. The algorithm commits to (query?, x);
/// the adversary sets w* = 0 (if x <= 1/2 or no query) or w* = w.
/// Returns the adversary's best response against the given commitment.
[[nodiscard]] RatioPair lemma43_adversary_response(bool queries, double x,
                                                   double alpha);

/// min over (query?, x on a fine grid) of the adversary's best response —
/// numerically >= (2, 2^(alpha-1)) as the lemma states.
[[nodiscard]] RatioPair lemma43_game_value(double alpha, int grid = 4096);

// ----- Lemma 4.4: randomized algorithms, oracle model ----------------

/// Expected-ratio of a randomized algorithm that queries with probability
/// rho, against the adversary's best response. The speed game uses the
/// instance c = w/2, the energy game c = w/phi (each is the equalizing
/// choice for its objective).
[[nodiscard]] double lemma44_speed_ratio(double rho);
[[nodiscard]] double lemma44_energy_ratio(double rho, double alpha);

/// min over rho (on a fine grid) of the adversary's best response:
/// 4/3 for speed, (1 + phi^alpha)/2 for energy.
[[nodiscard]] double lemma44_speed_game_value(int grid = 4096);
[[nodiscard]] double lemma44_energy_game_value(double alpha, int grid = 4096);

// ----- Lemma 4.5: equal-window algorithms lose a factor 3 ------------

/// The nested two-level family: job (0, 1] plus jobs nested at
/// (1 - 2^-i, 1], i = 1..levels, unit upper bounds, w* = w, c -> 0.
/// Equal-window algorithms (query in the first half of each window, exact
/// work in the second half) are forced to stack the exact loads in the
/// final sliver; level 1 already certifies the factor-3 speed bound.
[[nodiscard]] QInstance lemma45_nested_instance(int levels,
                                                double query_eps = 1e-6);

}  // namespace qbss::core
