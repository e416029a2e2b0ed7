// sweep_table1: the paper's single-machine Table 1 rows measured against
// the clairvoyant optimum through analysis::measure_seeds, in process.
// A request here is one Table 1 cell: one row, one family, one alpha,
// kSeeds instances; each pass takes another block of seeds.
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "analysis/bounds.hpp"
#include "analysis/ratio_harness.hpp"
#include "bench.hpp"
#include "common/parallel_for.hpp"
#include "gen/compression.hpp"
#include "gen/random_instances.hpp"
#include "measure.hpp"
#include "procs.hpp"
#include "qbss/avrq.hpp"
#include "qbss/bkpq.hpp"
#include "qbss/crad.hpp"
#include "qbss/crcd.hpp"
#include "qbss/crp2d.hpp"
#include "qbss/oaq.hpp"
#include "qbss/run.hpp"
#include "qbss/transform.hpp"
#include "replay.hpp"
#include "scheduling/yds.hpp"
#include "streams.hpp"

namespace qbench {

namespace {

namespace an = qbss::analysis;
using qbss::core::QInstance;

constexpr int kSeeds = 48;
constexpr double kAlphas[] = {1.5, 2.0, 2.5, 3.0};
constexpr int kWarmups = 7;
constexpr int kTracedPasses = 12;
// host_compute_us(nproc) on the reference VM (README.md), and how often a
// run samples it.
constexpr double kNominalComputeUs = 450.0;
constexpr std::uint64_t kComputeEveryNs = 500'000'000;
// Timed passes cycle over this many seed blocks. Each pass has its own
// ClairvoyantCache, so no pass reuses another's work.
constexpr int kBlocks = 32;

struct FamilyDef {
  const char* name;
  std::function<QInstance(std::uint64_t)> make;
};

struct Row {
  const char* algo;
  an::SingleAlgorithm run;
  double (*bound)(double);
  /// BKPQ's analysis bounds its nominal (profile) energy.
  bool nominal;
  std::size_t family;
};

const std::vector<FamilyDef>& families() {
  static const std::vector<FamilyDef> kFamilies = [] {
    qbss::gen::CompressionConfig stream;
    stream.files = 15;
    return std::vector<FamilyDef>{
        {"common-deadline",
         [](std::uint64_t s) {
           return qbss::gen::random_common_deadline(15, 6.0, s);
         }},
        {"pow2-deadlines",
         [](std::uint64_t s) {
           return qbss::gen::random_pow2_deadlines(15, 4, s);
         }},
        {"arbitrary-deadlines",
         [](std::uint64_t s) {
           return qbss::gen::random_arbitrary_deadlines(15, 12.0, s);
         }},
        {"online-mixed",
         [](std::uint64_t s) {
           return qbss::gen::random_online(12, 8.0, 0.5, 4.0, s);
         }},
        {"compression-stream", [stream](std::uint64_t s) {
           return qbss::gen::compression_stream(stream, 12.0, 3.0, s);
         }}};
  }();
  return kFamilies;
}

// Table 1's single-machine rows. OAQ has no proven bound; AVRQ's envelope
// is the regression guard the integration tests also apply to it.
const std::vector<Row>& rows() {
  namespace core = qbss::core;
  static const std::vector<Row> kRows = {
      {"crcd", core::crcd, an::crcd_energy_upper_refined, false, 0},
      {"crp2d", core::crp2d, an::crp2d_energy_upper, false, 1},
      {"crad", core::crad, an::crad_energy_upper, false, 2},
      {"avrq", core::avrq, an::avrq_energy_upper, false, 3},
      {"avrq", core::avrq, an::avrq_energy_upper, false, 4},
      {"bkpq", core::bkpq, an::bkpq_energy_upper, true, 3},
      {"bkpq", core::bkpq, an::bkpq_energy_upper, true, 4},
      {"oaq", core::oaq, an::avrq_energy_upper, false, 3},
      {"oaq", core::oaq, an::avrq_energy_upper, false, 4},
  };
  return kRows;
}

/// The seed blocks of the passes: kBlocks for the timed passes (pass p
/// uses block p % kBlocks) and kWarmups for set-up (passes -1, -2, ...).
/// Each block's pass first runs in a forked child; a block whose pass kills
/// the child (an instance that aborts the solver, see README.md) is
/// re-rolled before anything is timed.
class Blocks {
 public:
  Blocks(std::uint64_t seed, std::size_t workers);
  std::uint64_t base(std::int64_t pass) const {
    const std::size_t slot =
        pass >= 0 ? static_cast<std::size_t>(pass % kBlocks)
                  : static_cast<std::size_t>(kBlocks - 1 - pass);
    return mix(mix(seed_, slot + 0x7377), attempts_[slot]);
  }
  std::size_t rerolled() const { return rerolled_; }

 private:
  std::uint64_t seed_;
  std::vector<std::uint32_t> attempts_;
  std::size_t rerolled_ = 0;
};

/// One Table 1 cell's measurements, its wall time and how many of its
/// measurements broke the row's bound or were infeasible.
struct Cell {
  std::vector<an::Measurement> m;
  double us = 0.0;
  std::uint64_t violations = 0;
};

std::uint64_t violations(const Row& row, double alpha,
                         const std::vector<an::Measurement>& ms) {
  const double bound = row.bound(alpha);
  std::uint64_t bad = 0;
  for (const an::Measurement& m : ms) {
    const double ratio = row.nominal ? m.nominal_energy_ratio : m.energy_ratio;
    if (!m.feasible || ratio > bound * (1 + 1e-9) + 1e-12) ++bad;
  }
  return bad;
}

std::vector<Cell> run_pass(std::uint64_t base, an::ClairvoyantCache* cache) {
  std::vector<Cell> cells;
  for (const Row& row : rows()) {
    const std::uint64_t b = mix(base, row.family);
    const auto make = [&](std::uint64_t s) {
      return families()[row.family].make(mix(b, s));
    };
    for (const double alpha : kAlphas) {
      Cell cell;
      const std::uint64_t t0 = now_ns();
      cell.m = an::measure_seeds(make, kSeeds, row.run, alpha, cache);
      cell.us = static_cast<double>(now_ns() - t0) / 1e3;
      cell.violations = violations(row, alpha, cell.m);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

Blocks::Blocks(std::uint64_t seed, std::size_t workers)
    : seed_(seed), attempts_(kBlocks + kWarmups, 0) {
  std::vector<std::int64_t> todo;
  for (std::int64_t p = -kWarmups; p < kBlocks; ++p) todo.push_back(p);
  while (!todo.empty()) {
    std::vector<std::pair<pid_t, std::int64_t>> kids;
    for (std::size_t k = 0; k < workers && !todo.empty(); ++k) {
      const std::int64_t pass = todo.back();
      todo.pop_back();
      std::fflush(nullptr);
      const pid_t pid = fork();
      if (pid == 0) {
        if (std::freopen("/dev/null", "w", stderr) == nullptr) _exit(3);
        qbss::common::set_worker_count(1);
        an::ClairvoyantCache cache;
        static_cast<void>(run_pass(base(pass), &cache));
        _exit(0);
      }
      kids.emplace_back(pid, pass);
    }
    for (const auto& [pid, pass] : kids) {
      int status = 0;
      waitpid(pid, &status, 0);
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) continue;
      const std::size_t slot =
          pass >= 0 ? static_cast<std::size_t>(pass)
                    : static_cast<std::size_t>(kBlocks - 1 - pass);
      ++attempts_[slot];
      ++rerolled_;
      todo.push_back(pass);
    }
  }
}

bool same_bits(const an::Measurement& a, const an::Measurement& b) {
  return std::memcmp(&a.energy_ratio, &b.energy_ratio, sizeof(double)) == 0 &&
         std::memcmp(&a.nominal_energy_ratio, &b.nominal_energy_ratio,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.speed_ratio, &b.speed_ratio, sizeof(double)) == 0 &&
         std::memcmp(&a.nominal_speed_ratio, &b.nominal_speed_ratio,
                     sizeof(double)) == 0 &&
         a.feasible == b.feasible;
}

/// Span logs of the threads common::parallel_for starts; they outlive
/// those threads (a pool is started per call).
class ThreadLogs {
 public:
  SpanLog* get() {
    const std::lock_guard<std::mutex> lock(mu_);
    auto& log = logs_[std::this_thread::get_id()];
    if (!log) log = std::make_unique<SpanLog>(static_cast<std::uint32_t>(logs_.size()));
    return log.get();
  }
  std::vector<Span> spans() const {
    std::vector<Span> all;
    for (const auto& [id, log] : logs_) {
      all.insert(all.end(), log->spans().begin(), log->spans().end());
    }
    return all;
  }

 private:
  std::mutex mu_;
  std::map<std::thread::id, std::unique_ptr<SpanLog>> logs_;
};

// measure_seeds, composed from its public parts the way it composes them
// (parallel_for over measure_cached), with spans. With `decompose`, the
// policy, validation and YDS inside measure_cached are also re-run
// separately, as parts of it.
std::uint64_t traced_pass(std::uint64_t base, an::ClairvoyantCache& cache,
                          ThreadLogs& logs, bool decompose) {
  std::set<std::pair<std::size_t, std::uint64_t>> seen;
  std::uint64_t measured = 0;
  for (const Row& row : rows()) {
    const std::uint64_t b = mix(base, row.family);
    for (const double alpha : kAlphas) {
      std::vector<char> first(kSeeds, 0);
      for (int s = 0; s < kSeeds; ++s) {
        first[static_cast<std::size_t>(s)] = seen.insert({row.family, mix(b, static_cast<std::uint64_t>(s))}).second;
      }
      SpanLog* caller = logs.get();
      Scope fan(caller, "common.parallel_for", mix(b, 0xfa7));
      const std::uint64_t parent = fan.id();
      std::vector<an::Measurement> out(kSeeds);
      qbss::common::parallel_for(out.size(), [&](std::size_t s) {
        SpanLog* log = logs.get();
        const std::uint64_t trace_id = mix(b, s) | 1;
        QInstance inst;
        {
          Scope g(log, "bench.gen", trace_id, parent);
          inst = families()[row.family].make(mix(b, s));
        }
        std::uint64_t measure_id = 0;
        {
          Scope m(log, "analysis.measure", trace_id, parent);
          measure_id = m.id();
          out[s] = an::measure_cached(inst, row.run, alpha, cache);
        }
        if (!decompose) return;
        qbss::core::QbssRun run;
        {
          Scope p(log, policy_span(row.algo), trace_id, parent, measure_id);
          run = row.run(inst);
        }
        {
          Scope v(log, "scheduling.validate", trace_id, parent, measure_id);
          static_cast<void>(qbss::core::validate_run(inst, run));
        }
        if (first[s] != 0) {
          // The memo solved this instance inside measure_cached.
          Scope y(log, "scheduling.yds", trace_id, parent, measure_id);
          static_cast<void>(
              qbss::scheduling::yds(qbss::core::clairvoyant_instance(inst)));
        }
      });
      measured += out.size();
    }
  }
  return measured;
}

}  // namespace

Result run_sweep(const Options& opts) {
  Result r;
  const Blocks blocks(opts.seed, opts.nproc);
  // Set-up: the untimed warm-up pass, several times.
  std::vector<double> setup_s;
  for (int w = 0; w < kWarmups; ++w) {
    an::ClairvoyantCache cache;
    const std::uint64_t t0 = now_ns();
    for (const Cell& c : run_pass(blocks.base(-1 - w), &cache)) {
      r.attempted += c.m.size();
      r.failed += c.violations;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Timed passes. A stall of the shared host hits a few passes of a run
  // but drags a whole second's rate down, so both metrics come from the
  // median pass: p50_us is its time and max_rps its measurements per
  // second (a median over cells would jump between rows, whose cells
  // differ in cost). Each pass has one ClairvoyantCache shared by all its
  // rows, so no pass reuses another's memo work. The host's speed for
  // parallel computation is sampled every kComputeEveryNs between passes.
  const double seconds = opts.trace ? opts.seconds * 0.4 : opts.seconds;
  std::vector<double> cell_us;
  std::vector<double> pass_us;
  std::vector<Cell> first_pass;
  std::uint64_t measured = 0;
  std::uint64_t per_pass = 0;
  std::vector<double> compute_us;
  const std::uint64_t start = now_ns();
  std::uint64_t sampled = 0;
  std::int64_t passes = 0;
  while (now_ns() - start < static_cast<std::uint64_t>(seconds * 1e9)) {
    if (now_ns() - sampled > kComputeEveryNs) {
      compute_us.push_back(host_compute_us(opts.nproc));
      sampled = now_ns();
    }
    an::ClairvoyantCache cache;
    const std::uint64_t t0 = now_ns();
    std::vector<Cell> cells = run_pass(blocks.base(passes), &cache);
    pass_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    per_pass = 0;
    for (const Cell& c : cells) {
      cell_us.push_back(c.us);
      per_pass += c.m.size();
      r.failed += c.violations;
    }
    measured += per_pass;
    if (passes == 0) first_pass = std::move(cells);
    ++passes;
  }
  r.attempted += measured;

  // Determinism: the first pass again at one thread and without the
  // memo must give bit-identical measurements.
  qbss::common::set_worker_count(1);
  std::size_t k = 0;
  std::uint64_t differ = 0;
  for (const Row& row : rows()) {
    const std::uint64_t b = mix(blocks.base(0), row.family);
    for (const double alpha : kAlphas) {
      const std::vector<an::Measurement> again = an::measure_seeds(
          [&](std::uint64_t s) { return families()[row.family].make(mix(b, s)); },
          kSeeds, row.run, alpha);
      for (std::size_t i = 0; i < again.size(); ++i) {
        if (!same_bits(again[i], first_pass[k].m[i])) ++differ;
      }
      r.attempted += again.size();
      ++k;
    }
  }
  qbss::common::set_worker_count(0);
  r.failed += differ;

  std::vector<double> lat = cell_us;
  const double p99 = percentile(lat, 0.99);
  r.e2e("setup_s", median(setup_s), "s");
  // The shared host's speed for parallel computation swings from run to
  // run, and the sweep's passes swing with it: p50_us and max_rps are
  // scaled to the reference VM's speed by the run's host compute time; the
  // measured values are printed beside them.
  const double pass_p50 = median(pass_us);
  const double compute = median(compute_us);
  const double scale = compute > 0 ? kNominalComputeUs / compute : 1.0;
  const double mps = static_cast<double>(per_pass) * 1e6 / pass_p50;
  r.e2e("p50_us", pass_p50 * scale, "us");
  r.e2e("max_rps", mps / scale, "1/s");
  r.e2e("rss_mb", vm_hwm_mb(getpid()), "MiB");
  if (!tail_supported(lat.size(), 0.99)) r.fail("too few cells beyond p99");
  char line[320];
  std::snprintf(line, sizeof line,
                "sweep: %lld passes, %zu cells of %d seeds on %zu threads; "
                "bound violations or infeasible runs %llu; 1-thread vs "
                "%zu-thread mismatches %llu",
                static_cast<long long>(passes), cell_us.size(), kSeeds,
                qbss::common::worker_count(),
                static_cast<unsigned long long>(r.failed - differ),
                qbss::common::worker_count(),
                static_cast<unsigned long long>(differ));
  r.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "p50_us = median pass time over %zu passes of %llu "
                "measurements (max_rps = their rate); cell p99 %.1f us over "
                "%zu cells",
                pass_us.size(), static_cast<unsigned long long>(per_pass), p99,
                lat.size());
  r.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "host compute %.1f us over %zu samples (reference VM %.0f us): "
                "measured p50 %.1f us and max_rps %.0f/s, reported x%.4f",
                compute, compute_us.size(), kNominalComputeUs, pass_p50, mps,
                scale);
  r.notes.push_back(line);
  r.notes.push_back("probe.rerolled " + std::to_string(blocks.rerolled()) +
                    " (seed blocks replaced because a pass aborts the solver)");
  if (opts.trace) {
    r.layer("bench.host_compute_us", compute, "us");
    r.layer("bench.p99_us", p99, "us");
    r.layer("probe.rerolled", static_cast<double>(blocks.rerolled()), "count");
  }

  if (opts.trace) {
    // Traced passes with the same seed blocks, against the untraced rate
    // of the same number of passes.
    std::uint64_t t0 = now_ns();
    std::uint64_t plain_n = 0;
    for (std::int64_t p = 0; p < kTracedPasses; ++p) {
      an::ClairvoyantCache cache;
      for (const Cell& c : run_pass(blocks.base(p), &cache)) plain_n += c.m.size();
    }
    const double plain_mps =
        static_cast<double>(plain_n) / (static_cast<double>(now_ns() - t0) / 1e9);
    // Spans only, for the tracing overhead; then with the re-runs, for
    // the per-layer table.
    ThreadLogs timing_logs;
    std::uint64_t traced_n = 0;
    t0 = now_ns();
    for (std::int64_t p = 0; p < kTracedPasses; ++p) {
      an::ClairvoyantCache cache;
      traced_n += traced_pass(blocks.base(p), cache, timing_logs, false);
    }
    const double traced_mps =
        static_cast<double>(traced_n) / (static_cast<double>(now_ns() - t0) / 1e9);
    ThreadLogs logs;
    std::size_t hits = 0;
    std::size_t solved = 0;
    for (std::int64_t p = 0; p < kTracedPasses; ++p) {
      an::ClairvoyantCache cache;
      static_cast<void>(traced_pass(blocks.base(p), cache, logs, true));
      hits += cache.hits();
      solved += cache.size();
    }
    const std::vector<Span> spans = logs.spans();
    span_metrics(spans, &r);

    // Fan-out cost per parallel_for call: its wall time minus the busiest
    // worker's time in the bodies.
    std::map<std::uint64_t, std::map<std::uint32_t, double>> busy;
    std::map<std::uint64_t, double> wall;
    for (const Span& s : spans) {
      if (std::string(s.name) == "common.parallel_for") {
        wall[s.id] = static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (const Span& s : spans) {
      if (wall.count(s.parent) != 0) {
        busy[s.parent][s.tid] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::vector<double> overhead;
    for (const auto& [id, ns] : wall) {
      double busiest = 0.0;
      for (const auto& [tid, b] : busy[id]) busiest = std::max(busiest, b);
      overhead.push_back((ns - busiest) / 1e3);
    }
    r.layer("analysis.memo_hit_ratio",
            hits + solved > 0
                ? static_cast<double>(hits) / static_cast<double>(hits + solved)
                : 0.0,
            "ratio");
    r.layer("common.fanout_calls",
            static_cast<double>(wall.size()) / kTracedPasses, "count");
    r.layer("common.fanout_overhead_us", mean(overhead), "us");
    r.layer("bench.trace_overhead",
            plain_mps > 0 ? (plain_mps - traced_mps) / plain_mps : 0.0,
            "ratio");
    write_trace(opts, spans, spans, &r);
  }
  return r;
}

}  // namespace qbench
