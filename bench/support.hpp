// Shared support for the experiment benches: aligned table printing, the
// instance-family sweep driver every bench_table1_* uses, and the
// end-of-bench observability report (cache stats + counter snapshot on
// stderr, BENCH_<id>.json manifest on disk).
#pragma once

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ratio_harness.hpp"
#include "common/parallel_for.hpp"
#include "io/json.hpp"
#include "obs/manifest.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "qbss/qinstance.hpp"

namespace qbss::bench {

/// Prints a horizontal rule sized to `width`.
inline void rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// The experiment id of this binary ("E4", ...), recorded by banner()
/// and used to name the BENCH_<id>.json manifest.
inline std::string& bench_id() {
  static std::string id;
  return id;
}

/// What the sweeps of this binary covered — families with seed counts
/// and the alpha grid — folded into the manifest's extra block.
struct SweepLog {
  std::map<std::string, int> families;  // name -> seeds
  std::set<double> alphas;
};

inline SweepLog& sweep_log() {
  static SweepLog log;
  return log;
}

/// Prints a bench banner with the experiment id and paper artifact.
inline void banner(const std::string& id, const std::string& title) {
  bench_id() = id;
  std::printf("\n================================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================================\n");
}

/// A named family of instances for ratio sweeps.
struct Family {
  std::string name;
  std::function<core::QInstance(std::uint64_t seed)> make;
  int seeds = 20;
};

/// The process-wide clairvoyant memo: the alpha loops of every bench
/// revisit the same (family, seed) instances, so each YDS optimum is
/// solved, and each plain-function algorithm run and validated, exactly
/// once per instance per binary.
inline analysis::ClairvoyantCache& clairvoyant_cache() {
  static analysis::ClairvoyantCache cache;
  return cache;
}

/// Runs `algorithm` over every (family, seed) and aggregates ratios.
/// Seeds fan out across worker threads (QBSS_THREADS) and merge in seed
/// order, so the table is byte-identical for any thread count.
inline analysis::Aggregate sweep(const Family& family,
                                 const analysis::SingleAlgorithm& algorithm,
                                 double alpha) {
  QBSS_SPAN("bench.sweep");
  sweep_log().families[family.name] = family.seeds;
  sweep_log().alphas.insert(alpha);
  return analysis::sweep_family(family.make, family.seeds, algorithm, alpha,
                                &clairvoyant_cache());
}

/// Verdict glyph for "measured <= bound". Relative tolerance: the bounds
/// sit at O(1)-O(10^2) for alpha up to 3, where a 1e-9 absolute slack is
/// below one ulp; the tiny absolute term only covers bounds near zero.
inline const char* verdict(double measured, double bound) {
  return measured <= bound * (1 + 1e-9) + 1e-12 ? "ok" : "VIOLATED";
}

/// End-of-bench observability report. Cache statistics and the counter
/// snapshot go to stderr — counter values (cache hits under racy misses,
/// span nanoseconds) are not deterministic across thread counts, and
/// stdout tables must stay byte-identical for any QBSS_THREADS. The run
/// manifest (sha, compiler, threads, wall time, families, alphas,
/// counters) is written to BENCH_<id>.json, and any pending trace is
/// flushed.
inline void finish() {
  const analysis::ClairvoyantCache& cache = clairvoyant_cache();
  std::fprintf(stderr,
               "\n[obs] clairvoyant cache: %zu distinct instances, %zu hits\n",
               cache.size(), cache.hits());

  obs::Manifest manifest = obs::current_manifest();
  manifest.threads = common::worker_count();
  {
    std::string families;
    for (const auto& [name, seeds] : sweep_log().families) {
      if (!families.empty()) families += ' ';
      families += name + ":" + std::to_string(seeds);
    }
    std::ostringstream alphas;
    for (const double a : sweep_log().alphas) {
      if (alphas.tellp() > 0) alphas << ' ';
      alphas << a;
    }
    manifest.extra.emplace_back("bench", bench_id());
    manifest.extra.emplace_back("families", families);
    manifest.extra.emplace_back("alphas", alphas.str());
  }

  std::fprintf(stderr, "[obs] manifest: sha=%s compiler=\"%s\" threads=%zu wall=%.3fs\n",
               manifest.git_sha.c_str(), manifest.compiler.c_str(),
               manifest.threads, manifest.wall_seconds);
  for (const auto& [name, value] : manifest.counters) {
    std::fprintf(stderr, "[obs] counter %-36s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
  for (const auto& [name, h] : manifest.histograms) {
    std::fprintf(stderr,
                 "[obs] hist    %-36s n=%llu min=%g max=%g p50=%g p90=%g "
                 "p99=%g\n",
                 name.c_str(), static_cast<unsigned long long>(h.count),
                 h.min, h.max, h.p50, h.p90, h.p99);
  }

  const std::string path =
      "BENCH_" + (bench_id().empty() ? std::string("bench") : bench_id()) +
      ".json";
  if (std::ofstream out(path); out) {
    io::write_json_manifest(out, manifest);
    std::fprintf(stderr, "[obs] manifest written to %s\n", path.c_str());
  }
  obs::flush_trace();
}

}  // namespace qbss::bench
