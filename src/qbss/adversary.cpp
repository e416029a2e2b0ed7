#include "qbss/adversary.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "obs/registry.hpp"
#include "qbss/oracle.hpp"

namespace qbss::core {

namespace {

/// Builds the single-job instance (0, 1, c, w, wstar).
QJob single(Work c, Work w, Work wstar) {
  return QJob{0.0, 1.0, c, w, wstar};
}

}  // namespace

// ----- Lemma 4.1 ------------------------------------------------------

RatioPair lemma41_never_query_ratio(double eps, double alpha) {
  const QJob job = single(eps, 1.0, eps);
  const SingleJobOutcome alg = run_without_query(job, alpha);
  const SingleJobOutcome opt = single_job_optimum(job, alpha);
  return {alg.max_speed / opt.max_speed, alg.energy / opt.energy};
}

// ----- Lemma 4.2 ------------------------------------------------------

RatioPair lemma42_ratio_if_skip(double alpha) {
  // Adversary's best response to "no query" is w* = 0.
  const QJob job = single(1.0 / kPhi, 1.0, 0.0);
  const SingleJobOutcome alg = run_without_query(job, alpha);
  const SingleJobOutcome opt = single_job_optimum(job, alpha);
  return {alg.max_speed / opt.max_speed, alg.energy / opt.energy};
}

RatioPair lemma42_ratio_if_query(double alpha) {
  // Adversary's best response to "query" is w* = w.
  const QJob job = single(1.0 / kPhi, 1.0, 1.0);
  const SingleJobOutcome alg = run_with_oracle_split(job, alpha);
  const SingleJobOutcome opt = single_job_optimum(job, alpha);
  return {alg.max_speed / opt.max_speed, alg.energy / opt.energy};
}

RatioPair lemma42_game_value(double alpha) {
  QBSS_COUNT("adversary.game_evals");
  const RatioPair q = lemma42_ratio_if_query(alpha);
  const RatioPair s = lemma42_ratio_if_skip(alpha);
  return {std::min(q.speed, s.speed), std::min(q.energy, s.energy)};
}

// ----- Lemma 4.3 ------------------------------------------------------

RatioPair lemma43_adversary_response(bool queries, double x, double alpha) {
  QBSS_COUNT("adversary.responses");
  constexpr Work kC = 1.0;
  constexpr Work kW = 2.0;

  if (!queries) {
    const QJob job = single(kC, kW, 0.0);  // adversary: w* = 0
    const SingleJobOutcome alg = run_without_query(job, alpha);
    const SingleJobOutcome opt = single_job_optimum(job, alpha);
    return {alg.max_speed / opt.max_speed, alg.energy / opt.energy};
  }

  QBSS_EXPECTS(x > 0.0 && x < 1.0);
  RatioPair best{0.0, 0.0};
  for (const Work wstar : {0.0, kW}) {
    const QJob job = single(kC, kW, wstar);
    const SingleJobOutcome alg = run_with_query(job, x, alpha);
    const SingleJobOutcome opt = single_job_optimum(job, alpha);
    best.speed = std::max(best.speed, alg.max_speed / opt.max_speed);
    best.energy = std::max(best.energy, alg.energy / opt.energy);
  }
  return best;
}

RatioPair lemma43_game_value(double alpha, int grid) {
  QBSS_COUNT("adversary.game_evals");
  QBSS_EXPECTS(grid >= 2);
  RatioPair best = lemma43_adversary_response(false, 0.5, alpha);
  for (int i = 1; i < grid; ++i) {
    const double x = static_cast<double>(i) / grid;
    const RatioPair r = lemma43_adversary_response(true, x, alpha);
    best.speed = std::min(best.speed, r.speed);
    best.energy = std::min(best.energy, r.energy);
  }
  return best;
}

// ----- Lemma 4.4 ------------------------------------------------------

double lemma44_speed_ratio(double rho) {
  QBSS_EXPECTS(rho >= 0.0 && rho <= 1.0);
  constexpr double kC = 0.5;  // c = w/2, the speed-equalizing choice
  // w* = 0: E[speed] = rho*c + (1-rho)*w over OPT = c.
  const double if_zero = (rho * kC + (1.0 - rho)) / kC;
  // w* = w: E[speed] = rho*(c+w) + (1-rho)*w over OPT = w.
  const double if_full = rho * (kC + 1.0) + (1.0 - rho);
  return std::max(if_zero, if_full);
}

double lemma44_energy_ratio(double rho, double alpha) {
  QBSS_EXPECTS(rho >= 0.0 && rho <= 1.0);
  const double c = 1.0 / kPhi;  // the energy-equalizing choice
  const double if_zero =
      (rho * std::pow(c, alpha) + (1.0 - rho)) / std::pow(c, alpha);
  const double if_full = rho * std::pow(c + 1.0, alpha) + (1.0 - rho);
  return std::max(if_zero, if_full);
}

double lemma44_speed_game_value(int grid) {
  QBSS_COUNT("adversary.game_evals");
  QBSS_EXPECTS(grid >= 1);
  double best = kInf;
  for (int i = 0; i <= grid; ++i) {
    best = std::min(best, lemma44_speed_ratio(static_cast<double>(i) / grid));
  }
  return best;
}

double lemma44_energy_game_value(double alpha, int grid) {
  QBSS_COUNT("adversary.game_evals");
  QBSS_EXPECTS(grid >= 1);
  double best = kInf;
  for (int i = 0; i <= grid; ++i) {
    best = std::min(best,
                    lemma44_energy_ratio(static_cast<double>(i) / grid, alpha));
  }
  return best;
}

// ----- Lemma 4.5 ------------------------------------------------------

QInstance lemma45_nested_instance(int levels, double query_eps) {
  QBSS_EXPECTS(levels >= 1);
  QBSS_EXPECTS(query_eps > 0.0 && query_eps <= 1.0);
  QInstance out;
  out.add(0.0, 1.0, query_eps, 1.0, 1.0);
  for (int i = 1; i <= levels; ++i) {
    out.add(1.0 - std::ldexp(1.0, -i), 1.0, query_eps, 1.0, 1.0);
  }
  return out;
}

}  // namespace qbss::core
