#include "gen/random_instances.hpp"

#include <algorithm>

#include "common/xoshiro.hpp"

namespace qbss::gen {

namespace {

/// Draws (c, w, w*) under the profile.
struct Loads {
  Work c;
  Work w;
  Work wstar;
};

Loads draw_loads(Xoshiro256& rng, const LoadProfile& p) {
  const Work w = rng.uniform(p.w_min, p.w_max);
  const double qf =
      std::clamp(rng.uniform(p.query_frac_min, p.query_frac_max), 1e-9, 1.0);
  const double cf = std::clamp(rng.uniform(p.compress_min, p.compress_max),
                               0.0, 1.0);
  return {qf * w, w, cf * w};
}

}  // namespace

QInstance random_common_deadline(int n, double deadline, std::uint64_t seed,
                                 const LoadProfile& profile) {
  QBSS_EXPECTS(n >= 1 && deadline > 0.0);
  Xoshiro256 rng(seed);
  QInstance out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Loads l = draw_loads(rng, profile);
    out.add(0.0, deadline, l.c, l.w, l.wstar);
  }
  return out;
}

QInstance random_pow2_deadlines(int n, int max_exponent, std::uint64_t seed,
                                const LoadProfile& profile) {
  QBSS_EXPECTS(n >= 1 && max_exponent >= 0);
  Xoshiro256 rng(seed);
  QInstance out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Loads l = draw_loads(rng, profile);
    const int exp = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(max_exponent) + 1));
    out.add(0.0, std::ldexp(1.0, exp), l.c, l.w, l.wstar);
  }
  return out;
}

QInstance random_arbitrary_deadlines(int n, double horizon,
                                     std::uint64_t seed,
                                     const LoadProfile& profile) {
  QBSS_EXPECTS(n >= 1 && horizon > 0.5);
  Xoshiro256 rng(seed);
  QInstance out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Loads l = draw_loads(rng, profile);
    out.add(0.0, rng.uniform(0.5, horizon), l.c, l.w, l.wstar);
  }
  return out;
}

QInstance random_online(int n, double horizon, double min_window,
                        double max_window, std::uint64_t seed,
                        const LoadProfile& profile) {
  QBSS_EXPECTS(n >= 1 && horizon > 0.0);
  QBSS_EXPECTS(0.0 < min_window && min_window <= max_window);
  Xoshiro256 rng(seed);
  QInstance out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Loads l = draw_loads(rng, profile);
    const Time r = rng.uniform(0.0, horizon);
    const Time len = rng.uniform(min_window, max_window);
    out.add(r, r + len, l.c, l.w, l.wstar);
  }
  return out;
}

}  // namespace qbss::gen
