// Every closed-form bound of Table 1 (and the classical bounds they build
// on), as functions of the power exponent alpha. Each function documents
// the theorem/lemma it encodes; bench/bench_table1_* print measured ratios
// next to these values.
#pragma once

namespace qbss::analysis {

// ----- Classical substrate bounds ------------------------------------

/// AVR upper bound, Yao-Demers-Shenker / Bansal et al.: 2^(a-1) a^a.
[[nodiscard]] double avr_energy_upper(double alpha);

/// BKP energy upper bound: 2 (a/(a-1))^a e^a.
[[nodiscard]] double bkp_energy_upper(double alpha);

/// BKP max-speed upper bound: e.
[[nodiscard]] double bkp_speed_upper();

/// OA tight bound (Bansal-Kimbrel-Pruhs): a^a.
[[nodiscard]] double oa_energy_upper(double alpha);

/// AVR(m) upper bound (Albers et al.): 2^(a-1) a^a + 1.
[[nodiscard]] double avr_m_energy_upper(double alpha);

// ----- Offline QBSS (Table 1, top half) ------------------------------

/// Oracle-model lower bound (Lemma 4.2): phi^a energy.
[[nodiscard]] double oracle_energy_lower(double alpha);
/// Oracle-model lower bound (Lemma 4.2): phi max speed.
[[nodiscard]] double oracle_speed_lower();

/// Deterministic offline lower bounds (Lemma 4.3 + Lemma 4.2):
/// max{phi^a, 2^(a-1)} energy, 2 max speed.
[[nodiscard]] double offline_energy_lower(double alpha);
[[nodiscard]] double offline_speed_lower();

/// Randomized oracle-model lower bounds (Lemma 4.4).
[[nodiscard]] double randomized_speed_lower();
[[nodiscard]] double randomized_energy_lower(double alpha);

/// Equal-window speed lower bound (Lemma 4.5): 3.
[[nodiscard]] double equal_window_speed_lower();

/// CRCD (Theorem 4.6): min{2^(a-1) phi^a, 2^a} energy, 2 max speed.
[[nodiscard]] double crcd_energy_upper(double alpha);
[[nodiscard]] double crcd_speed_upper();

/// CRCD refined (Theorem 4.8, alpha >= 2):
/// max_{r>=1} min{f1(r), f2(r)} — see rho.hpp's rho3.
[[nodiscard]] double crcd_energy_upper_refined(double alpha);

/// CRP2D (Theorem 4.13): (4 phi)^a energy.
[[nodiscard]] double crp2d_energy_upper(double alpha);

/// CRAD (Corollary 4.15): (8 phi)^a energy.
[[nodiscard]] double crad_energy_upper(double alpha);

// ----- Online QBSS (Table 1, bottom half) -----------------------------

/// AVRQ (Corollary 5.3): 2^a * 2^(a-1) a^a energy upper bound.
[[nodiscard]] double avrq_energy_upper(double alpha);
/// AVRQ (Lemma 5.1): (2a)^a energy lower bound.
[[nodiscard]] double avrq_energy_lower(double alpha);

/// BKPQ (Corollary 5.5): (2+phi)^a 2 (a/(a-1))^a e^a energy upper bound.
[[nodiscard]] double bkpq_energy_upper(double alpha);
/// BKPQ (Corollary 5.5): (2+phi) e max-speed upper bound.
[[nodiscard]] double bkpq_speed_upper();
/// BKPQ row's lower bound in Table 1: 3^(a-1) (from Lemma 4.5).
[[nodiscard]] double bkpq_energy_lower(double alpha);

/// AVRQ(m) (Corollary 6.4): 2^a (2^(a-1) a^a + 1) energy upper bound.
[[nodiscard]] double avrq_m_energy_upper(double alpha);
/// AVRQ(m) row's lower bound in Table 1: (2a)^a.
[[nodiscard]] double avrq_m_energy_lower(double alpha);

// ----- Lemma 3.1 -------------------------------------------------------

/// The golden-rule load guarantee: p_j <= phi p*_j.
[[nodiscard]] double golden_rule_load_factor();

}  // namespace qbss::analysis
