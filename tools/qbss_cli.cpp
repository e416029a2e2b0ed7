// qbss — command-line front end for the library.
//
//   qbss gen  --family mixed|compression|optimizer|common|pow2
//             [--n N] [--seed S]                  write an instance to stdout
//   qbss run  --algo crcd|crp2d|crad|avrq|bkpq|oaq|avrq_m
//             [--machines M] [--alpha A] [--schedule] [--plot] [--json]
//             [--input FILE]                      run an algorithm on an
//                                                 instance (stdin or file)
//   qbss opt  [--alpha A] [--input FILE]          clairvoyant optimum
//   qbss stats [--input FILE]                     instance statistics
//   qbss bounds [--alpha A]                       print Table 1 bounds
//   qbss serve --socket PATH [--tcp PORT] ...     resident scheduling
//                                                 service (docs/SERVICE.md)
//   qbss cache stats|verify|compact --dir DIR     inspect/check/compact a
//                                                 serve --cache-dir segment
//                                                 store (docs/DURABILITY.md)
//   qbss route --topology FILE --socket PATH ...  consistent-hash router
//                                                 fronting a backend fleet
//                                                 (docs/ROUTING.md)
//   qbss scrape --socket PATH|--tcp PORT          fetch one stats frame
//             [--format json|prometheus]          from a running server
//   qbss top  --socket PATH|--tcp PORT            live per-interval rate
//             [--interval-ms X] [--count N]       table from stats frames
//   qbss obs-diff BASELINE.json CANDIDATE.json... diff two run manifests
//                                                 (or scraped stats
//                                                 frames) and exit
//                                                 nonzero on regression
//   qbss logs --file FILE [--level L] [--event E]  tail/filter a
//             [--trace-id ID] [--follow]           structured event log
//   qbss logs --postmortem FILE                    pretty-print a flight
//                                                  recorder dump
//
// Global flags: --trace FILE (Chrome trace of instrumented spans),
// --log FILE / --log-level LVL (structured event log sink + severity;
// QBSS_LOG env also sets the level), --quiet (suppress the [obs]
// counter/manifest report on stderr), --manifest FILE (write this run's
// manifest as JSON), --threads N (sweep thread count, overrides
// QBSS_THREADS).
//
// Example:
//   qbss gen --family compression --n 20 --seed 7 | qbss run --algo bkpq
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/stats.hpp"
#include "faults/faults.hpp"
#include "gen/compression.hpp"
#include "gen/optimizer.hpp"
#include "gen/random_instances.hpp"
#include "common/parallel_for.hpp"
#include "io/format.hpp"
#include "io/json.hpp"
#include "io/render.hpp"
#include "obs/diff.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "qbss/avrq.hpp"
#include "qbss/avrq_m.hpp"
#include "qbss/bkpq.hpp"
#include "qbss/clairvoyant.hpp"
#include "qbss/crad.hpp"
#include "qbss/crcd.hpp"
#include "qbss/crp2d.hpp"
#include "qbss/oaq.hpp"
#include "route/router.hpp"
#include "route/topology.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/store/segment_store.hpp"

#include "options.hpp"

namespace {

using namespace qbss;
using tools::Options;
using tools::parse_options;

int usage() {
  std::fprintf(stderr,
               "usage: qbss "
               "<gen|run|opt|stats|bounds|serve|cache|route|scrape|top|"
               "obs-diff|logs> [--options]\n"
               "  gen    --family mixed|compression|optimizer|common|pow2 "
               "[--n N] [--seed S]\n"
               "  run    --algo crcd|crp2d|crad|avrq|bkpq|oaq|avrq_m "
               "[--machines M] [--alpha A]\n"
               "         [--schedule] [--plot] [--json] [--input F]\n"
               "           --schedule  dump the fluid schedule (text)\n"
               "           --plot      ASCII-render the schedule\n"
               "           --json      dump the full run as JSON\n"
               "  opt    [--alpha A] [--input F]\n"
               "  stats  [--input F]\n"
               "  bounds [--alpha A]\n"
               "  serve  --socket PATH [--tcp PORT] [--workers N] "
               "[--queue-depth D]\n"
               "         [--cache N] [--shards S] [--batch K] "
               "[--delay-ms X]\n"
               "         [--read-timeout-ms X] [--write-timeout-ms X] "
               "[--drain-ms X]\n"
               "         [--degraded-ms X] [--faults PLAN] "
               "[--flight FILE]\n"
               "         [--stats-interval-ms X] [--stats-ring N] "
               "[--trace-sample N]\n"
               "         [--cache-dir DIR] [--cache-disk-mb N] "
               "[--sync none|interval|always]\n"
               "         [--sync-interval-ms X]\n"
               "           --cache-dir  persist the result cache to a "
               "checksummed\n"
               "                       segment store in DIR and warm-restart "
               "from it\n"
               "                       (docs/DURABILITY.md; default: "
               "memory only)\n"
               "           --cache-disk-mb  disk-tier byte budget in MiB "
               "(default 256);\n"
               "                       the oldest segment is dropped whole "
               "past it\n"
               "           --sync      write-behind fsync cadence "
               "(default interval)\n"
               "           --sync-interval-ms  cadence for --sync interval "
               "(default 100)\n"
               "           --stats-interval-ms  snapshot-ring cadence "
               "backing the stats\n"
               "                       verb's recent-rates window "
               "(default 1000; 0 = off)\n"
               "           --stats-ring  snapshots retained (default 8)\n"
               "           --trace-sample  record a span chain for "
               "requests whose\n"
               "                       trace id %% N == 0 (default 16; "
               "1 = all, 0 = none)\n"
               "           --faults    seeded fault plan (or QBSS_FAULTS "
               "env), e.g.\n"
               "                       "
               "'read_short:p=0.05,delay:ms=50,seed=7' — see\n"
               "                       docs/SERVICE.md for the grammar\n"
               "           --flight FILE  dump the event-log flight "
               "recorder here\n"
               "                       whenever a fault clause fires or a "
               "connection\n"
               "                       dies abnormally (and once more at "
               "shutdown)\n"
               "         resident scheduling service over a framed "
               "Unix-domain/TCP\n"
               "         protocol with result caching, coalescing and "
               "backpressure\n"
               "         (see docs/SERVICE.md; drive it with "
               "qbss-loadgen); writes\n"
               "         BENCH_svc.json at shutdown (--manifest "
               "overrides the path)\n"
               "  cache  stats|verify|compact --dir DIR [--segment-mb N]\n"
               "         offline tooling for a serve --cache-dir segment "
               "store (run\n"
               "         it against a stopped server; opening recovers the "
               "store\n"
               "         exactly like serve does — docs/DURABILITY.md)\n"
               "           stats    recovery summary, totals and a "
               "per-segment table\n"
               "           verify   re-read and checksum every live "
               "record; exit 1 if\n"
               "                    any fails\n"
               "           compact  rewrite live records into fresh "
               "segments and drop\n"
               "                    superseded/corrupt garbage (atomic "
               "manifest swap)\n"
               "  route  --topology FILE --socket PATH [--tcp PORT]\n"
               "         [--replicas R] [--hot-threshold N] "
               "[--health-interval-ms X]\n"
               "         [--breaker-failures N] [--breaker-open-ms X]\n"
               "         [--backend-timeout-ms X] [--backend-retries N] "
               "[--pool N]\n"
               "         [--read-timeout-ms X] [--write-timeout-ms X]\n"
               "         [--stats-interval-ms X] [--stats-ring N] "
               "[--faults PLAN]\n"
               "         [--flight FILE]\n"
               "         consistent-hash router fronting a backend fleet "
               "(see\n"
               "         docs/ROUTING.md); the topology file lists one\n"
               "         \"name addr [weight]\" line per backend; writes\n"
               "         BENCH_route.json at shutdown (--manifest "
               "overrides)\n"
               "           --replicas R       ring successors hot keys "
               "replicate to\n"
               "           --hot-threshold N  hits at which a key turns "
               "hot (0 = off)\n"
               "  scrape --socket PATH | --tcp PORT [--format "
               "json|prometheus]\n"
               "         [--timeout-ms X] [--backends]\n"
               "         fetch one stats frame from a running server or "
               "router to\n"
               "         stdout (prometheus = text exposition ready for a "
               "scraper)\n"
               "           --backends  render the router's per-backend "
               "table instead\n"
               "                       of the raw frame\n"
               "  top    --socket PATH | --tcp PORT [--interval-ms X] "
               "[--count N]\n"
               "         [--timeout-ms X] [--frames-out FILE]\n"
               "         [--expect-monotone] [--expect-active]\n"
               "         poll stats frames and print a live rate table "
               "(req/s, hit%%,\n"
               "         shed/s, latency percentiles); ctrl-C to stop; "
               "against a\n"
               "         router target also reports per-backend state "
               "changes\n"
               "           --count N          stop after N polls "
               "(N-1 table rows)\n"
               "           --frames-out FILE  append each raw JSON frame "
               "(one per line)\n"
               "           --expect-monotone  exit 1 if any lifetime "
               "counter decreases\n"
               "           --expect-active    exit 1 unless solve traffic "
               "was observed\n"
               "  obs-diff BASELINE.json CANDIDATE.json [CANDIDATE2.json "
               "...]\n"
               "         compare run manifests (see docs/OBSERVABILITY.md); "
               "exits 1 on regression\n"
               "         scraped stats frames are accepted too (their "
               "lifetime block diffs)\n"
               "         multiple candidates are reduced to their "
               "metric-wise median first\n"
               "           --ratio-tol X  timer ns/call ratio tolerance "
               "(default 1.5; <=0 off)\n"
               "           --count-tol X  counter ratio tolerance "
               "(default 2; <=0 off)\n"
               "           --hist-tol X   histogram percentile tolerance "
               "(default 1.5; <=0 off)\n"
               "           --min-ns N     skip timers under N total ns "
               "(default 1e6)\n"
               "           --json         emit the report as JSON instead "
               "of markdown\n"
               "  logs   --file FILE [--level debug|info|warn|error] "
               "[--event NAME]\n"
               "         [--trace-id ID] [--follow]\n"
               "         print the event-log lines matching every given "
               "filter\n"
               "           --follow       keep polling FILE for new "
               "events (tail -f)\n"
               "  logs   --postmortem FILE\n"
               "         pretty-print a flight-recorder dump: relative "
               "timestamps,\n"
               "         per-level tallies, aligned events "
               "(docs/OBSERVABILITY.md)\n"
               "global flags (any subcommand):\n"
               "  --trace FILE     write a Chrome trace (chrome://tracing /"
               " Perfetto) of instrumented spans\n"
               "  --log FILE       write structured NDJSON events here "
               "(stderr or -\n"
               "                   for stderr; docs/OBSERVABILITY.md has "
               "the schema)\n"
               "  --log-level LVL  sink severity floor: debug|info|warn|"
               "error|off\n"
               "                   (default info; the QBSS_LOG env var "
               "also sets it)\n"
               "  --quiet          suppress the [obs] counter/manifest report"
               " on stderr\n"
               "  --manifest FILE  write this run's manifest as JSON\n"
               "  --threads N      worker threads for parallel sweeps "
               "(overrides the\n"
               "                   QBSS_THREADS environment variable)\n");
  return 2;
}

core::QInstance load_instance(const Options& opts, bool& ok) {
  const std::string path = opts.get("input", "");
  io::Parsed<core::QInstance> parsed = [&] {
    if (path.empty()) return io::read_qinstance(std::cin);
    std::ifstream file(path);
    if (!file) {
      return io::Parsed<core::QInstance>{std::nullopt, {0, "cannot open"}};
    }
    return io::read_qinstance(file);
  }();
  if (!parsed) {
    std::fprintf(stderr, "parse error (line %d): %s\n", parsed.error.line,
                 parsed.error.message.c_str());
    ok = false;
    return core::QInstance{};
  }
  ok = true;
  return std::move(*parsed.value);
}

int cmd_gen(const Options& opts) {
  const std::string family = opts.get("family", "mixed");
  const int n = static_cast<int>(opts.number("n", 20));
  const auto seed = static_cast<std::uint64_t>(opts.number("seed", 1));
  core::QInstance inst;
  if (family == "mixed") {
    inst = gen::random_online(n, 10.0, 0.5, 4.0, seed);
  } else if (family == "common") {
    inst = gen::random_common_deadline(n, 8.0, seed);
  } else if (family == "pow2") {
    inst = gen::random_pow2_deadlines(n, 4, seed);
  } else if (family == "compression") {
    gen::CompressionConfig cfg;
    cfg.files = n;
    inst = gen::compression_stream(cfg, 12.0, 3.0, seed);
  } else if (family == "optimizer") {
    gen::OptimizerConfig cfg;
    cfg.jobs = n;
    inst = gen::optimizer_instance(cfg, seed);
  } else {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return 2;
  }
  io::write_qinstance(std::cout, inst);
  return 0;
}

int cmd_run(const Options& opts) {
  QBSS_SPAN("cli.run");
  bool ok = false;
  const core::QInstance inst = load_instance(opts, ok);
  if (!ok) return 1;
  if (inst.empty()) {
    std::fprintf(stderr, "empty instance\n");
    return 1;
  }
  const double alpha = opts.number("alpha", 3.0);
  const std::string algo = opts.get("algo", "bkpq");

  if (algo == "avrq_m") {
    const int m = static_cast<int>(opts.number("machines", 4));
    const core::QbssMultiRun run = core::avrq_m(inst, m);
    const bool valid = core::validate_multi_run(inst, run).feasible;
    std::printf("algorithm: AVRQ(m), m = %d\n", m);
    std::printf("valid: %s\n", valid ? "yes" : "NO");
    std::printf("energy(alpha=%.2f): %.6g\n", alpha, run.energy(alpha));
    std::printf("max speed: %.6g\n", run.max_speed());
    if (opts.flag("plot")) {
      std::fputs(io::render_machine_schedule(run.schedule).c_str(), stdout);
    }
    return valid ? 0 : 1;
  }

  core::QbssRun run;
  if (algo == "crcd") {
    run = core::crcd(inst);
  } else if (algo == "crp2d") {
    run = core::crp2d(inst);
  } else if (algo == "crad") {
    run = core::crad(inst);
  } else if (algo == "avrq") {
    run = core::avrq(inst);
  } else if (algo == "bkpq") {
    run = core::bkpq(inst);
  } else if (algo == "oaq") {
    run = core::oaq(inst);
  } else {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algo.c_str());
    return 2;
  }

  const bool valid = core::validate_run(inst, run).feasible;
  const Energy opt = core::clairvoyant_energy(inst, alpha);
  std::printf("algorithm: %s\n", algo.c_str());
  std::printf("valid: %s\n", valid ? "yes" : "NO");
  int queried = 0;
  for (const bool q : run.expansion.queried) queried += q ? 1 : 0;
  std::printf("queried: %d of %zu jobs\n", queried, inst.size());
  std::printf("energy(alpha=%.2f): %.6g  (ratio vs optimum: %.4f)\n", alpha,
              run.energy(alpha), run.energy(alpha) / opt);
  std::printf("max speed: %.6g\n", run.max_speed());
  if (opts.flag("schedule")) {
    io::write_schedule(std::cout, run.schedule, alpha);
  }
  if (opts.flag("plot")) {
    std::fputs(io::render_schedule(run.schedule).c_str(), stdout);
  }
  if (opts.flag("json")) {
    io::write_json_run(std::cout, run, alpha);
  }
  return valid ? 0 : 1;
}

int cmd_opt(const Options& opts) {
  QBSS_SPAN("cli.opt");
  bool ok = false;
  const core::QInstance inst = load_instance(opts, ok);
  if (!ok) return 1;
  const double alpha = opts.number("alpha", 3.0);
  const scheduling::Schedule opt = core::clairvoyant_schedule(inst);
  std::printf("clairvoyant optimum\n");
  std::printf("energy(alpha=%.2f): %.6g\n", alpha, opt.energy(alpha));
  std::printf("max speed: %.6g\n", opt.max_speed());
  int queried = 0;
  for (const core::QJob& j : inst.jobs()) queried += j.optimum_queries();
  std::printf("optimum queries %d of %zu jobs\n", queried, inst.size());
  return 0;
}

int cmd_stats(const Options& opts) {
  bool ok = false;
  const core::QInstance inst = load_instance(opts, ok);
  if (!ok) return 1;
  analysis::print_stats(analysis::instance_stats(inst));
  return 0;
}

int cmd_bounds(const Options& opts) {
  const double a = opts.number("alpha", 3.0);
  std::printf("Table 1 bounds at alpha = %.2f\n", a);
  std::printf("  offline LB: energy %.4f, speed %.4f\n",
              analysis::offline_energy_lower(a),
              analysis::offline_speed_lower());
  std::printf("  CRCD:   energy %.4f (refined %.4f), speed %.4f\n",
              analysis::crcd_energy_upper(a),
              analysis::crcd_energy_upper_refined(a),
              analysis::crcd_speed_upper());
  std::printf("  CRP2D:  energy %.4f\n", analysis::crp2d_energy_upper(a));
  std::printf("  CRAD:   energy %.4f\n", analysis::crad_energy_upper(a));
  std::printf("  AVRQ:   energy %.4f (LB %.4f)\n",
              analysis::avrq_energy_upper(a),
              analysis::avrq_energy_lower(a));
  std::printf("  BKPQ:   energy %.4f, speed %.4f (LB %.4f)\n",
              analysis::bkpq_energy_upper(a), analysis::bkpq_speed_upper(),
              analysis::bkpq_energy_lower(a));
  std::printf("  AVRQ(m): energy %.4f (LB %.4f)\n",
              analysis::avrq_m_energy_upper(a),
              analysis::avrq_m_energy_lower(a));
  return 0;
}

/// SIGINT/SIGTERM set this; the host's accept loop polls it.
std::atomic<bool> g_stop_requested{false};

void handle_stop_signal(int) { g_stop_requested.store(true); }

/// The flags and process set-up `serve` and `route` share: endpoints,
/// client-facing timeouts, the stats ring, the manifest and flight
/// paths, the crash handler, the fault plan (--faults wins over
/// QBSS_FAULTS) and the stop signals. `tag` names the log prefix and the
/// default manifest (BENCH_<tag>.json). 0, or the exit code for a bad
/// command line.
int setup_host(const Options& opts, const char* command, const char* tag,
               svc::HostConfig* cfg) {
  cfg->socket_path = opts.get("socket", "");
  cfg->tcp_port = static_cast<int>(opts.number("tcp", 0));
  if (cfg->socket_path.empty() && cfg->tcp_port == 0) {
    std::fprintf(stderr, "%s needs --socket PATH and/or --tcp PORT\n",
                 command);
    return 2;
  }
  cfg->read_timeout_ms = opts.number("read-timeout-ms", 30000.0);
  cfg->write_timeout_ms = opts.number("write-timeout-ms", 10000.0);
  cfg->stats_interval_ms = opts.number("stats-interval-ms", 1000.0);
  cfg->stats_ring = static_cast<std::size_t>(opts.number("stats-ring", 8));
  cfg->manifest_path =
      opts.get("manifest", std::string("BENCH_") + tag + ".json");
  cfg->flight_path = opts.get("flight", "");
  cfg->external_stop = &g_stop_requested;

  // The crash handler dumps the flight recorder before re-raising; point
  // it at the same file the host's automatic triggers use so a crash
  // and a fault trip tell one story.
  if (!cfg->flight_path.empty()) obs::set_flight_path(cfg->flight_path);
  obs::install_crash_handler();

  std::string fault_plan = opts.get("faults", "");
  if (fault_plan.empty()) {
    if (const char* env = std::getenv("QBSS_FAULTS")) fault_plan = env;
  }
  if (!fault_plan.empty()) {
#ifdef QBSS_FAULTS_OFF
    std::fprintf(stderr,
                 "%s: fault plan \"%s\" requested but this binary was "
                 "built with -DQBSS_FAULTS=OFF\n",
                 command, fault_plan.c_str());
    return 2;
#else
    faults::FaultPlan plan;
    std::string plan_error;
    if (!faults::parse_plan(fault_plan, &plan, &plan_error)) {
      std::fprintf(stderr, "%s: bad fault plan: %s\n", command,
                   plan_error.c_str());
      return 2;
    }
    faults::injector().configure(plan);
    cfg->manifest_extra.emplace_back("fault_plan", fault_plan);
    std::fprintf(stderr, "[%s] fault injection active: %s\n", tag,
                 fault_plan.c_str());
#endif
  }

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  return 0;
}

void print_listening(const char* tag, const svc::HostConfig& cfg) {
  if (!cfg.socket_path.empty()) {
    std::fprintf(stderr, "[%s] listening on %s\n", tag,
                 cfg.socket_path.c_str());
  }
  if (cfg.tcp_port != 0) {
    std::fprintf(stderr, "[%s] listening on 127.0.0.1:%d\n", tag,
                 cfg.tcp_port);
  }
}

int cmd_serve(const Options& opts) {
  svc::ServerConfig cfg;
  cfg.workers = static_cast<std::size_t>(opts.number("workers", 2));
  cfg.queue_depth = static_cast<std::size_t>(opts.number("queue-depth", 64));
  cfg.cache_entries = static_cast<std::size_t>(opts.number("cache", 1024));
  cfg.cache_shards = static_cast<std::size_t>(opts.number("shards", 8));
  cfg.cache_dir = opts.get("cache-dir", "");
  cfg.cache_disk_mb = opts.number("cache-disk-mb", 256.0);
  cfg.cache_sync = opts.get("sync", "interval");
  cfg.cache_sync_interval_ms = opts.number("sync-interval-ms", 100.0);
  cfg.batch = static_cast<std::size_t>(opts.number("batch", 4));
  cfg.delay_ms = opts.number("delay-ms", 0.0);
  cfg.drain_ms = opts.number("drain-ms", 2000.0);
  cfg.degraded_window_ms = opts.number("degraded-ms", 0.0);
  cfg.trace_sample =
      static_cast<std::uint64_t>(opts.number("trace-sample", 16));
  if (const int rc = setup_host(opts, "serve", "svc", &cfg); rc != 0) {
    return rc;
  }

  svc::Server server(cfg);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  print_listening("svc", cfg);
  if (!cfg.cache_dir.empty()) {
    std::fprintf(stderr, "[svc] disk tier %s (budget %.0f MiB, sync %s)\n",
                 cfg.cache_dir.c_str(), cfg.cache_disk_mb,
                 cfg.cache_sync.c_str());
  }
  std::fprintf(stderr,
               "[svc] workers=%zu queue_depth=%zu cache=%zu ready\n",
               cfg.workers, cfg.queue_depth, cfg.cache_entries);
  server.wait();
  std::fprintf(stderr, "[svc] shut down after %llu responses\n",
               static_cast<unsigned long long>(server.responses()));
  return 0;
}

/// `qbss cache stats|verify|compact --dir DIR` — offline tooling over a
/// serve --cache-dir segment store. Opening runs the same recovery as
/// serve (torn-tail truncation, corrupt-record skipping, manifest
/// rebuild), so run it against a stopped server only. The byte budget is
/// unbounded here: tooling must never drop a segment the server would
/// have kept.
int cmd_cache(const Options& opts) {
  const std::string action =
      opts.positional.empty() ? std::string("stats") : opts.positional[0];
  if (action != "stats" && action != "verify" && action != "compact") {
    std::fprintf(stderr,
                 "cache: unknown action \"%s\" (want stats, verify or "
                 "compact)\n",
                 action.c_str());
    return 2;
  }
  const std::string dir = opts.get("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "cache needs --dir DIR\n");
    return 2;
  }

  svc::store::StoreConfig cfg;
  cfg.dir = dir;
  cfg.budget_bytes = ~0ull;  // offline: never budget-drop a segment
  cfg.segment_bytes = static_cast<std::uint64_t>(
      std::max(1.0, opts.number("segment-mb", 8.0)) * 1024.0 * 1024.0);
  svc::store::SegmentStore store;
  svc::store::RecoveryStats recovery;
  std::string error;
  if (!store.open(cfg, &recovery, &error)) {
    std::fprintf(stderr, "cache: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "recovery: %zu segment(s), %zu live record(s), %zu corrupt "
      "skipped, %llu torn byte(s) truncated%s\n",
      recovery.segments, recovery.records, recovery.corrupt_skipped,
      static_cast<unsigned long long>(recovery.torn_tail_bytes),
      recovery.manifest_rebuilt ? ", manifest rebuilt" : "");

  int rc = 0;
  if (action == "stats") {
    const svc::store::StoreStats stats = store.stats();
    std::printf("dir: %s\n", store.dir().c_str());
    std::printf("segments: %zu\n", stats.segments);
    std::printf("live records: %zu\n", stats.live_records);
    std::printf("bytes: %llu\n",
                static_cast<unsigned long long>(stats.bytes));
    std::printf("%-16s %12s %12s %s\n", "segment", "bytes", "records",
                "state");
    for (const svc::store::SegmentInfo& seg : store.segments()) {
      std::printf("%-16s %12llu %12zu %s\n", seg.name.c_str(),
                  static_cast<unsigned long long>(seg.bytes),
                  seg.live_records, seg.active ? "active" : "sealed");
    }
  } else if (action == "verify") {
    std::vector<std::string> report;
    const std::size_t failures = store.verify(&report);
    for (const std::string& line : report) {
      std::printf("FAIL %s\n", line.c_str());
    }
    const svc::store::StoreStats stats = store.stats();
    std::printf("verify: %zu live record(s), %zu failure(s)\n",
                stats.live_records, failures);
    rc = failures == 0 ? 0 : 1;
  } else {  // compact
    const svc::store::StoreStats before = store.stats();
    if (!store.compact(&error)) {
      std::fprintf(stderr, "cache: compact failed: %s\n", error.c_str());
      store.close();
      return 1;
    }
    const svc::store::StoreStats after = store.stats();
    std::printf(
        "compact: %llu -> %llu bytes, %zu -> %zu segment(s), %zu live "
        "record(s)\n",
        static_cast<unsigned long long>(before.bytes),
        static_cast<unsigned long long>(after.bytes), before.segments,
        after.segments, after.live_records);
  }
  store.close();
  return rc;
}

int cmd_route(const Options& opts) {
  route::RouterConfig cfg;
  if (const int rc = setup_host(opts, "route", "route", &cfg); rc != 0) {
    return rc;
  }
  const std::string topology_path = opts.get("topology", "");
  if (topology_path.empty()) {
    std::fprintf(stderr, "route needs --topology FILE\n");
    return 2;
  }
  std::string error;
  if (!route::load_topology_file(topology_path, &cfg.topology, &error)) {
    std::fprintf(stderr, "route: %s\n", error.c_str());
    return 2;
  }
  cfg.replicas = static_cast<std::size_t>(opts.number("replicas", 1));
  cfg.hot_threshold =
      static_cast<std::uint64_t>(opts.number("hot-threshold", 16));
  cfg.health_interval_ms = opts.number("health-interval-ms", 500.0);
  cfg.breaker_failures =
      static_cast<int>(opts.number("breaker-failures", 3));
  cfg.breaker_open_ms = opts.number("breaker-open-ms", 2000.0);
  cfg.backend_timeout_ms = opts.number("backend-timeout-ms", 5000.0);
  cfg.backend_retries = static_cast<int>(opts.number("backend-retries", 2));
  cfg.pool_capacity = static_cast<std::size_t>(opts.number("pool", 8));
  cfg.manifest_extra.emplace_back("topology", topology_path);

  route::Router router(cfg);
  if (!router.start(&error)) {
    std::fprintf(stderr, "route: %s\n", error.c_str());
    return 1;
  }
  print_listening("route", cfg);
  std::fprintf(stderr, "[route] fronting %zu backend(s) from %s\n",
               cfg.topology.backends.size(), topology_path.c_str());
  router.wait();
  std::fprintf(stderr, "[route] shut down after %llu responses\n",
               static_cast<unsigned long long>(router.responses()));
  return 0;
}

/// Parses the --socket/--tcp pair shared by scrape and top. False (with
/// a message) when neither is given.
bool stats_endpoint(const Options& opts, const char* command,
                    svc::Endpoint* endpoint) {
  endpoint->socket_path = opts.get("socket", "");
  endpoint->tcp_port = static_cast<int>(opts.number("tcp", 0));
  if (endpoint->socket_path.empty() && endpoint->tcp_port == 0) {
    std::fprintf(stderr, "%s needs --socket PATH or --tcp PORT\n", command);
    return false;
  }
  return true;
}

int cmd_scrape(const Options& opts) {
  svc::Endpoint endpoint;
  if (!stats_endpoint(opts, "scrape", &endpoint)) return 2;
  const std::string format = opts.get("format", "json");
  if (format != "json" && format != "prometheus") {
    std::fprintf(stderr, "scrape: --format must be json or prometheus\n");
    return 2;
  }
  svc::Client client;
  client.set_timeout_ms(opts.number("timeout-ms", 5000.0));
  std::string error;
  if (!client.connect(endpoint, &error)) {
    std::fprintf(stderr, "scrape: %s\n", error.c_str());
    return 1;
  }
  svc::Client::Reply reply;
  const bool backends = opts.flag("backends");
  if (!client.stats(backends ? "json" : format, &reply, &error)) {
    std::fprintf(stderr, "scrape: %s\n", error.c_str());
    return 1;
  }
  if (backends) {
    // Render the router's per-backend extras ("backend.<name>" keys) as
    // a table; a plain server frame has none.
    const std::optional<obs::StatsData> frame =
        obs::parse_stats_json(reply.payload, &error);
    if (!frame) {
      std::fprintf(stderr, "scrape: bad stats frame: %s\n", error.c_str());
      return 1;
    }
    std::size_t printed = 0;
    for (const auto& [key, value] : frame->extra) {
      if (key.rfind("backend.", 0) != 0) continue;
      std::printf("%-12s %s\n", key.c_str() + 8, value.c_str());
      ++printed;
    }
    if (printed == 0) {
      std::fprintf(stderr,
                   "scrape: no per-backend stats in the frame (not a "
                   "router target?)\n");
      return 1;
    }
    return 0;
  }
  std::fwrite(reply.payload.data(), 1, reply.payload.size(), stdout);
  return 0;
}

int cmd_top(const Options& opts) {
  svc::Endpoint endpoint;
  if (!stats_endpoint(opts, "top", &endpoint)) return 2;
  const double interval_ms = opts.number("interval-ms", 1000.0);
  const int count = static_cast<int>(opts.number("count", 0));
  const bool expect_monotone = opts.flag("expect-monotone");
  const bool expect_active = opts.flag("expect-active");

  std::ofstream frames;
  if (const std::string path = opts.get("frames-out", ""); !path.empty()) {
    frames.open(path);
    if (!frames) {
      std::fprintf(stderr, "top: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  svc::Client client;
  client.set_timeout_ms(opts.number("timeout-ms", 5000.0));
  std::string error;
  if (!client.connect(endpoint, &error)) {
    std::fprintf(stderr, "top: %s\n", error.c_str());
    return 1;
  }
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  const auto counter = [](const std::map<std::string, double>& table,
                          const char* name) {
    const auto it = table.find(name);
    return it == table.end() ? 0.0 : it->second;
  };
  const auto extra_or = [](const std::map<std::string, std::string>& table,
                           const char* name,
                           const char* fallback) -> const char* {
    const auto it = table.find(name);
    return it == table.end() ? fallback : it->second.c_str();
  };
  // Solve traffic excludes the frames top itself generates (stats) and
  // pings, so req/s here matches what the loadgen reports. A router
  // target counts under route.* instead of svc.*; summing both keeps
  // one code path (a process is either a server or a router, so one
  // family is always zero).
  const auto requests = [&](const std::map<std::string, double>& t) {
    return counter(t, "svc.requests") + counter(t, "route.requests");
  };
  const auto solve_traffic = [&](const std::map<std::string, double>& t) {
    return requests(t) - counter(t, "svc.pings") -
           counter(t, "route.pings") - counter(t, "svc.stats.requests") -
           counter(t, "route.stats.requests");
  };
  const auto hit_total = [&](const std::map<std::string, double>& t) {
    return counter(t, "svc.hit.zero_copy") + counter(t, "route.hit");
  };
  const auto shed_total = [](const std::map<std::string, double>& table) {
    double total = 0.0;
    for (const auto& [name, value] : table) {
      if (name.rfind("svc.shed.", 0) == 0 ||
          name.rfind("route.shed.", 0) == 0) {
        total += value;
      }
    }
    return total;
  };

  bool have_prev = false;
  obs::StatsData prev;
  bool monotone_ok = true;
  bool saw_active = false;
  int rows = 0;
  // Router targets carry per-backend extras; report each one on connect
  // and again whenever its rendered state changes (a kill/restart shows
  // up as two lines).
  std::map<std::string, std::string> backend_state;
  for (int poll = 0; count == 0 || poll < count; ++poll) {
    if (g_stop_requested.load()) break;
    if (poll > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          interval_ms));
      if (g_stop_requested.load()) break;
    }
    svc::Client::Reply reply;
    if (!client.stats("json", &reply, &error)) {
      // One reconnect: the server may have reaped an idle connection.
      if (!client.connect(endpoint, &error) ||
          !client.stats("json", &reply, &error)) {
        std::fprintf(stderr, "top: %s\n", error.c_str());
        return 1;
      }
    }
    if (frames.is_open()) frames << reply.payload << std::flush;
    const std::optional<obs::StatsData> frame =
        obs::parse_stats_json(reply.payload, &error);
    if (!frame) {
      std::fprintf(stderr, "top: bad stats frame: %s\n", error.c_str());
      return 1;
    }
    if (!have_prev) {
      if (std::string(extra_or(frame->extra, "role", "")) == "route") {
        std::fprintf(stderr,
                     "[top] connected to router: uptime=%.1fs backends=%s "
                     "replicas=%s hot_keys=%s\n",
                     frame->uptime_seconds,
                     extra_or(frame->extra, "backends", "?"),
                     extra_or(frame->extra, "replicas", "?"),
                     extra_or(frame->extra, "hot_keys", "?"));
      } else {
        std::fprintf(
            stderr,
            "[top] connected: uptime=%.1fs workers=%s queue_depth=%s\n",
            frame->uptime_seconds, extra_or(frame->extra, "workers", "?"),
            extra_or(frame->extra, "queue_depth", "?"));
      }
    } else {
      for (const auto& [name, value] : prev.lifetime.counters) {
        if (counter(frame->lifetime.counters, name.c_str()) < value) {
          std::fprintf(stderr, "[top] counter %s went backwards\n",
                       name.c_str());
          monotone_ok = false;
        }
      }
      const double dt = frame->uptime_seconds - prev.uptime_seconds;
      const double seconds = dt > 0.0 ? dt : 1.0;
      const double reqs = requests(frame->lifetime.counters) -
                          requests(prev.lifetime.counters);
      const double solves =
          solve_traffic(frame->lifetime.counters) -
          solve_traffic(prev.lifetime.counters);
      const double hits = hit_total(frame->lifetime.counters) -
                          hit_total(prev.lifetime.counters);
      const double sheds = shed_total(frame->lifetime.counters) -
                           shed_total(prev.lifetime.counters);
      if (solves > 0.0) saw_active = true;

      obs::HistogramSummary latency;
      auto it = frame->window.histograms.find("svc.latency_us");
      if (it == frame->window.histograms.end()) {
        it = frame->window.histograms.find("route.latency_us");
      }
      if (it != frame->window.histograms.end()) latency = it->second;
      if (rows % 20 == 0) {
        std::printf("%8s %9s %9s %6s %8s %9s %9s %6s %5s\n", "up(s)",
                    "req/s", "solve/s", "hit%", "shed/s", "p50(us)",
                    "p99(us)", "queued", "degr");
      }
      std::printf("%8.1f %9.1f %9.1f %5.1f%% %8.1f %9.1f %9.1f %6s %5s\n",
                  frame->uptime_seconds, reqs / seconds, solves / seconds,
                  solves > 0.0 ? 100.0 * hits / solves : 0.0,
                  sheds / seconds, latency.count != 0 ? latency.p50 : 0.0,
                  latency.count != 0 ? latency.p99 : 0.0,
                  extra_or(frame->extra, "queued_now", "?"),
                  extra_or(frame->extra, "degraded", "?"));
      std::fflush(stdout);
      ++rows;
    }
    // Per-backend lines: full detail on connect, then only breaker-state
    // edges (forwarded counts move every poll and would drown the table).
    for (const auto& [key, value] : frame->extra) {
      if (key.rfind("backend.", 0) != 0) continue;
      std::string state = value;
      if (const std::size_t pos = value.find("state=");
          pos != std::string::npos) {
        const std::size_t end = value.find(' ', pos);
        state = value.substr(pos, end == std::string::npos
                                      ? std::string::npos
                                      : end - pos);
      }
      auto [it_state, inserted] = backend_state.try_emplace(key, state);
      if (inserted) {
        std::fprintf(stderr, "[top] %s: %s\n", key.c_str(), value.c_str());
      } else if (it_state->second != state) {
        std::fprintf(stderr, "[top] %s: %s -> %s\n", key.c_str(),
                     it_state->second.c_str(), state.c_str());
        it_state->second = state;
      }
    }
    prev = *frame;
    have_prev = true;
  }

  if (have_prev) {
    std::fprintf(
        stderr,
        "[top] final: uptime=%.1fs requests=%.0f solves=%.0f hits=%.0f "
        "shed=%.0f errors=%.0f\n",
        prev.uptime_seconds, requests(prev.lifetime.counters),
        solve_traffic(prev.lifetime.counters),
        hit_total(prev.lifetime.counters),
        shed_total(prev.lifetime.counters),
        counter(prev.lifetime.counters, "svc.errors") +
            counter(prev.lifetime.counters, "route.errors"));
  }
  int rc = 0;
  if (expect_monotone && !monotone_ok) {
    std::fprintf(stderr, "top: a lifetime counter decreased\n");
    rc = 1;
  }
  if (expect_active && !saw_active) {
    std::fprintf(stderr, "top: no solve traffic observed\n");
    rc = 1;
  }
  return rc;
}

int cmd_obs_diff(const Options& opts) {
  if (opts.positional.size() < 2) {
    std::fprintf(stderr,
                 "obs-diff needs a baseline and at least one candidate "
                 "manifest\n");
    return usage();
  }

  std::string error;
  const std::optional<obs::ManifestData> baseline =
      obs::load_manifest_file(opts.positional[0], &error);
  if (!baseline) {
    std::fprintf(stderr, "obs-diff: %s\n", error.c_str());
    return 2;
  }
  std::vector<obs::ManifestData> candidates;
  for (std::size_t i = 1; i < opts.positional.size(); ++i) {
    std::optional<obs::ManifestData> candidate =
        obs::load_manifest_file(opts.positional[i], &error);
    if (!candidate) {
      std::fprintf(stderr, "obs-diff: %s\n", error.c_str());
      return 2;
    }
    candidates.push_back(std::move(*candidate));
  }

  obs::DiffOptions options;
  options.timer_ratio_tol = opts.number("ratio-tol", options.timer_ratio_tol);
  options.counter_ratio_tol =
      opts.number("count-tol", options.counter_ratio_tol);
  options.hist_ratio_tol = opts.number("hist-tol", options.hist_ratio_tol);
  options.min_total_ns = opts.number("min-ns", options.min_total_ns);

  const obs::DiffReport report =
      obs::diff_manifests(*baseline, obs::median_of(candidates), options);
  if (opts.flag("json")) {
    obs::write_json_report(std::cout, report);
  } else {
    obs::write_markdown_report(std::cout, report);
  }
  return report.ok() ? 0 : 1;
}

/// The `qbss logs` filter set: every given filter must match.
struct LogFilter {
  obs::LogLevel min_level = obs::LogLevel::kDebug;
  std::string event;
  bool have_trace = false;
  std::uint64_t trace = 0;

  [[nodiscard]] bool matches(const obs::ParsedLogLine& line) const {
    if (line.level < min_level) return false;
    if (!event.empty() && line.event != event) return false;
    if (have_trace &&
        std::strtoull(line.trace_id.c_str(), nullptr, 0) != trace) {
      return false;
    }
    return true;
  }
};

/// `qbss logs --postmortem`: renders a flight-recorder dump (or any
/// event-log file) for humans — relative milliseconds from the first
/// event, per-level tallies, aligned event names, args as key=value.
int render_postmortem(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "logs: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<obs::ParsedLogLine> events;
  std::string line;
  std::uint64_t skipped = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    obs::ParsedLogLine parsed;
    if (!obs::parse_log_line(line, &parsed)) {
      ++skipped;
      continue;
    }
    events.push_back(std::move(parsed));
  }
  if (events.empty()) {
    std::fprintf(stderr, "logs: no parsable events in %s\n", path.c_str());
    return 1;
  }
  // Dumps are merged timestamp-ordered already; re-sort anyway so a
  // hand-concatenated file still renders as one timeline.
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::ParsedLogLine& a,
                      const obs::ParsedLogLine& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  const std::uint64_t t0 = events.front().ts_ns;
  std::size_t by_level[4] = {0, 0, 0, 0};
  std::set<std::int64_t> threads;
  std::size_t event_width = 0;
  for (const obs::ParsedLogLine& e : events) {
    const auto index = static_cast<std::size_t>(e.level);
    if (index < 4) ++by_level[index];
    threads.insert(e.thread);
    event_width = std::max(event_width, e.event.size());
  }
  std::printf("postmortem: %s\n", path.c_str());
  std::printf(
      "  %zu events over %.3f ms on %zu threads "
      "(%zu debug, %zu info, %zu warn, %zu error)\n",
      events.size(),
      static_cast<double>(events.back().ts_ns - t0) / 1e6, threads.size(),
      by_level[0], by_level[1], by_level[2], by_level[3]);
  if (skipped != 0) {
    std::printf("  (%llu unparsable line(s) skipped)\n",
                static_cast<unsigned long long>(skipped));
  }
  for (const obs::ParsedLogLine& e : events) {
    std::printf("  +%10.3fms %-5s %-*s",
                static_cast<double>(e.ts_ns - t0) / 1e6,
                obs::level_name(e.level), static_cast<int>(event_width),
                e.event.c_str());
    if (!e.trace_id.empty() && e.trace_id != "0x0") {
      std::printf(" trace=%s", e.trace_id.c_str());
    }
    std::printf(" thr=%lld", static_cast<long long>(e.thread));
    for (const auto& [key, value] : e.args) {
      std::printf(" %s=%s", key.c_str(), value.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_logs(const Options& opts) {
  if (const std::string path = opts.get("postmortem", ""); !path.empty()) {
    return render_postmortem(path);
  }
  std::string path = opts.get("file", "");
  if (path.empty() && !opts.positional.empty()) path = opts.positional[0];
  if (path.empty()) {
    std::fprintf(stderr,
                 "logs needs --file FILE (or --postmortem FILE)\n");
    return 2;
  }

  LogFilter filter;
  if (const std::string text = opts.get("level", ""); !text.empty()) {
    if (!obs::parse_log_level(text, &filter.min_level)) {
      std::fprintf(stderr,
                   "logs: bad --level \"%s\" (want debug|info|warn|"
                   "error)\n",
                   text.c_str());
      return 2;
    }
  }
  filter.event = opts.get("event", "");
  if (const std::string id = opts.get("trace-id", ""); !id.empty()) {
    filter.have_trace = true;
    filter.trace = std::strtoull(id.c_str(), nullptr, 0);
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "logs: cannot open %s\n", path.c_str());
    return 1;
  }
  const bool follow = opts.flag("follow");
  if (follow) {
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
  }
  std::uint64_t skipped = 0;
  std::string line;
  for (;;) {
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      obs::ParsedLogLine parsed;
      if (!obs::parse_log_line(line, &parsed)) {
        ++skipped;
        continue;
      }
      if (!filter.matches(parsed)) continue;
      std::fputs(line.c_str(), stdout);
      std::fputc('\n', stdout);
    }
    if (!follow || g_stop_requested.load()) break;
    // tail -f: the writer appends whole lines, so clearing eof and
    // re-reading from the current offset picks them up.
    if (in.eof()) in.clear();
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  if (skipped != 0 && !opts.flag("quiet")) {
    std::fprintf(stderr, "[logs] skipped %llu unparsable line(s)\n",
                 static_cast<unsigned long long>(skipped));
  }
  return 0;
}

/// The [obs] report: a one-line manifest summary plus the final counter
/// and histogram snapshots, on stderr so piped stdout output stays clean.
/// With --manifest FILE the same manifest is also written as JSON —
/// except for `serve` and `route`, whose Server/Router already wrote a
/// richer one (config + response counts) to the same path at shutdown.
void report(const std::string& command, const Options& opts) {
  obs::Manifest manifest = obs::current_manifest();
  manifest.threads = common::worker_count();
  manifest.extra.emplace_back("command", command);
  if (!opts.flag("quiet")) {
    std::fprintf(stderr,
                 "[obs] manifest: sha=%s compiler=\"%s\" threads=%zu "
                 "wall=%.3fs obs=%s\n",
                 manifest.git_sha.c_str(), manifest.compiler.c_str(),
                 manifest.threads, manifest.wall_seconds,
                 manifest.obs_enabled ? "on" : "off");
    for (const auto& [name, value] : manifest.counters) {
      std::fprintf(stderr, "[obs] counter %-36s %llu\n", name.c_str(),
                   static_cast<unsigned long long>(value));
    }
    for (const auto& [name, h] : manifest.histograms) {
      std::fprintf(stderr,
                   "[obs] hist    %-36s n=%llu min=%.4g max=%.4g p50=%.4g "
                   "p90=%.4g p99=%.4g\n",
                   name.c_str(), static_cast<unsigned long long>(h.count),
                   h.min, h.max, h.p50, h.p90, h.p99);
    }
  }
  if (command == "serve" || command == "route") return;
  if (const std::string path = opts.get("manifest", ""); !path.empty()) {
    if (std::ofstream out(path); out) {
      io::write_json_manifest(out, manifest);
    } else {
      std::fprintf(stderr, "[obs] cannot write manifest to %s\n",
                   path.c_str());
    }
  }
}

int dispatch(const std::string& command, const Options& opts) {
  if (command == "gen") return cmd_gen(opts);
  if (command == "run") return cmd_run(opts);
  if (command == "opt") return cmd_opt(opts);
  if (command == "stats") return cmd_stats(opts);
  if (command == "bounds") return cmd_bounds(opts);
  if (command == "serve") return cmd_serve(opts);
  if (command == "cache") return cmd_cache(opts);
  if (command == "route") return cmd_route(opts);
  if (command == "scrape") return cmd_scrape(opts);
  if (command == "top") return cmd_top(opts);
  if (command == "obs-diff") return cmd_obs_diff(opts);
  if (command == "logs") return cmd_logs(opts);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Options opts = parse_options(argc, argv, 2);
  if (const std::string trace = opts.get("trace", ""); !trace.empty()) {
    obs::set_trace_path(trace);
  }
  if (const int rc = tools::apply_log_options(opts, "qbss"); rc != 0) {
    return rc;
  }
  tools::apply_thread_override(opts);
  const int rc = dispatch(command, opts);
  report(command, opts);
  obs::flush_trace();
  obs::flush_logs();
  return rc;
}
