#include "gen/nested.hpp"

#include <cmath>

#include "qbss/adversary.hpp"

namespace qbss::gen {

core::QInstance geometric_release_family(int n, double q, double query_eps) {
  QBSS_EXPECTS(n >= 1);
  QBSS_EXPECTS(q > 0.0 && q < 1.0);
  QBSS_EXPECTS(query_eps > 0.0 && query_eps <= 1.0);
  core::QInstance out;
  out.reserve(static_cast<std::size_t>(n));
  double prev = 1.0;  // q^(k-1)
  for (int k = 1; k <= n; ++k) {
    const double cur = prev * q;  // q^k
    const Work w = prev - cur;
    out.add(1.0 - cur, 1.0, query_eps * w, w, w);
    prev = cur;
  }
  return out;
}

core::QInstance nested_family(int levels, double query_eps) {
  return core::lemma45_nested_instance(levels, query_eps);
}

core::QInstance oa_adversarial_family(int n, double q, double query_eps) {
  QBSS_EXPECTS(n >= 1);
  QBSS_EXPECTS(q > 0.0 && q < 1.0);
  QBSS_EXPECTS(query_eps > 0.0 && query_eps <= 1.0);
  core::QInstance out;
  out.reserve(static_cast<std::size_t>(n));
  double remaining = 1.0;  // q^k
  for (int k = 1; k <= n; ++k) {
    const double next = remaining * q;
    // Wave k arrives when a fraction `remaining` of the horizon is left
    // and carries work proportional to what OA *thinks* it can spread.
    const Work w = remaining - next;
    out.add(1.0 - remaining, 1.0, query_eps * w, w, w);
    remaining = next;
  }
  return out;
}

}  // namespace qbss::gen
