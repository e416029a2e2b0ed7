#include "analysis/bounds.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "analysis/rho.hpp"

namespace qbss::analysis {

namespace {

void expect_alpha(double alpha) { QBSS_EXPECTS(alpha > 1.0); }

}  // namespace

double avr_energy_upper(double alpha) {
  expect_alpha(alpha);
  return std::pow(2.0, alpha - 1.0) * std::pow(alpha, alpha);
}

double bkp_energy_upper(double alpha) {
  expect_alpha(alpha);
  return 2.0 * std::pow(alpha / (alpha - 1.0), alpha) * std::pow(kE, alpha);
}

double bkp_speed_upper() { return kE; }

double oa_energy_upper(double alpha) {
  expect_alpha(alpha);
  return std::pow(alpha, alpha);
}

double avr_m_energy_upper(double alpha) {
  expect_alpha(alpha);
  return avr_energy_upper(alpha) + 1.0;
}

double oracle_energy_lower(double alpha) {
  expect_alpha(alpha);
  return std::pow(kPhi, alpha);
}

double oracle_speed_lower() { return kPhi; }

double offline_energy_lower(double alpha) {
  expect_alpha(alpha);
  return std::max(std::pow(kPhi, alpha), std::pow(2.0, alpha - 1.0));
}

double offline_speed_lower() { return 2.0; }

double randomized_speed_lower() { return 4.0 / 3.0; }

double randomized_energy_lower(double alpha) {
  expect_alpha(alpha);
  return 0.5 * (1.0 + std::pow(kPhi, alpha));
}

double equal_window_speed_lower() { return 3.0; }

double crcd_energy_upper(double alpha) {
  expect_alpha(alpha);
  return std::min(std::pow(2.0, alpha - 1.0) * std::pow(kPhi, alpha),
                  std::pow(2.0, alpha));
}

double crcd_speed_upper() { return 2.0; }

double crcd_energy_upper_refined(double alpha) {
  expect_alpha(alpha);
  if (alpha < 2.0) return crcd_energy_upper(alpha);
  return std::min(crcd_energy_upper(alpha), rho3(alpha));
}

double crp2d_energy_upper(double alpha) {
  expect_alpha(alpha);
  return std::pow(4.0 * kPhi, alpha);
}

double crad_energy_upper(double alpha) {
  expect_alpha(alpha);
  return std::pow(8.0 * kPhi, alpha);
}

double avrq_energy_upper(double alpha) {
  expect_alpha(alpha);
  return std::pow(2.0, alpha) * avr_energy_upper(alpha);
}

double avrq_energy_lower(double alpha) {
  expect_alpha(alpha);
  return std::pow(2.0 * alpha, alpha);
}

double bkpq_energy_upper(double alpha) {
  expect_alpha(alpha);
  return std::pow(2.0 + kPhi, alpha) * bkp_energy_upper(alpha);
}

double bkpq_speed_upper() { return (2.0 + kPhi) * kE; }

double bkpq_energy_lower(double alpha) {
  expect_alpha(alpha);
  return std::pow(3.0, alpha - 1.0);
}

double avrq_m_energy_upper(double alpha) {
  expect_alpha(alpha);
  return std::pow(2.0, alpha) * avr_m_energy_upper(alpha);
}

double avrq_m_energy_lower(double alpha) {
  expect_alpha(alpha);
  return std::pow(2.0 * alpha, alpha);
}

double golden_rule_load_factor() { return kPhi; }

}  // namespace qbss::analysis
