#include "gen/optimizer.hpp"

#include "common/xoshiro.hpp"

namespace qbss::gen {

core::QInstance optimizer_instance(const OptimizerConfig& config,
                                   std::uint64_t seed) {
  QBSS_EXPECTS(config.jobs >= 1);
  QBSS_EXPECTS(config.hit_probability >= 0.0 &&
               config.hit_probability <= 1.0);
  QBSS_EXPECTS(config.hit_factor >= 0.0 && config.hit_factor <= 1.0);
  QBSS_EXPECTS(config.pass_cost_fraction > 0.0 &&
               config.pass_cost_fraction <= 1.0);
  Xoshiro256 rng(seed);
  core::QInstance out;
  out.reserve(static_cast<std::size_t>(config.jobs));
  for (int i = 0; i < config.jobs; ++i) {
    const Work w = rng.uniform(config.w_min, config.w_max);
    const Work wstar =
        rng.chance(config.hit_probability) ? config.hit_factor * w : w;
    const Time r = rng.uniform(0.0, config.horizon);
    const Time len = rng.uniform(config.min_window, config.max_window);
    out.add(r, r + len, config.pass_cost_fraction * w, w, wstar);
  }
  return out;
}

}  // namespace qbss::gen
