#include "gen/compression.hpp"

#include <cmath>

#include "common/xoshiro.hpp"

namespace qbss::gen {

namespace {

/// Compression factor w*/w for one file of the corpus.
double draw_factor(Xoshiro256& rng, CorpusKind corpus) {
  switch (corpus) {
    case CorpusKind::kText:
      return rng.uniform(0.1, 0.4);
    case CorpusKind::kMedia:
      return rng.uniform(0.9, 1.0);
    case CorpusKind::kMixed:
      return rng.chance(0.6) ? rng.uniform(0.1, 0.4)
                             : rng.uniform(0.9, 1.0);
    case CorpusKind::kIncompressible:
      return 1.0;
  }
  return 1.0;
}

/// File size: 2^U[-s, s] — a heavy-ish tailed, strictly positive draw.
Work draw_size(Xoshiro256& rng, double spread) {
  return std::exp2(rng.uniform(-spread, spread));
}

}  // namespace

core::QInstance compression_instance(const CompressionConfig& config,
                                     std::uint64_t seed) {
  QBSS_EXPECTS(config.files >= 1);
  QBSS_EXPECTS(config.pass_cost_fraction > 0.0 &&
               config.pass_cost_fraction <= 1.0);
  Xoshiro256 rng(seed);
  core::QInstance out;
  out.reserve(static_cast<std::size_t>(config.files));
  for (int i = 0; i < config.files; ++i) {
    const Work w = draw_size(rng, config.size_spread);
    out.add(0.0, config.deadline, config.pass_cost_fraction * w, w,
            draw_factor(rng, config.corpus) * w);
  }
  return out;
}

core::QInstance compression_stream(const CompressionConfig& config,
                                   double horizon, double window,
                                   std::uint64_t seed) {
  QBSS_EXPECTS(config.files >= 1 && horizon > 0.0 && window > 0.0);
  Xoshiro256 rng(seed);
  core::QInstance out;
  out.reserve(static_cast<std::size_t>(config.files));
  for (int i = 0; i < config.files; ++i) {
    const Work w = draw_size(rng, config.size_spread);
    const Time r = rng.uniform(0.0, horizon);
    out.add(r, r + window, config.pass_cost_fraction * w, w,
            draw_factor(rng, config.corpus) * w);
  }
  return out;
}

}  // namespace qbss::gen
