// qbss-loadgen — open/closed-loop load generator for `qbss serve`.
//
//   qbss-loadgen --socket PATH [--connections C] [--requests N]
//                [--targets A,B,C] [--zipf S]
//                [--qps Q --duration S] [--family F] [--n J] [--seeds K]
//                [--algo A] [--alpha X] [--deadline-ms D] [--validate]
//                [--timeout-ms T] [--retries R] [--chaos]
//                [--expect-no-shed] [--expect-shed] [--expect-retries]
//                [--shutdown]
//
// Closed loop (default): C connections each issue N back-to-back
// requests drawn round-robin from a pool of K generated instances —
// K smaller than the request count makes repeats, which the server
// answers from its result cache. Paced (open) loop: --qps Q spreads
// sends across connections at an aggregate target rate for --duration
// seconds. Every ok response is compared byte-for-byte against the
// first response seen for the same canonical key (cached and uncached
// results must be identical); --validate additionally requests the
// schedule dump and re-validates it through io::read_schedule and the
// scheduling validator. Reports throughput and p50/p90/p99 latency from
// an obs::Histogram; exit status reflects failures and the --expect-*
// assertions (the CI soak job relies on both).
//
// Every connection drives a svc::RetryingClient, so --timeout-ms and
// --retries turn transport failures (a server running under a
// QBSS_FAULTS plan drops connections, corrupts headers and stalls) into
// retries instead of errors; --chaos flips the retry defaults to values
// that ride out an aggressive fault plan, and --expect-retries gates a
// chaos run on the faults actually having fired.
//
// --targets A,B,C spreads the connections round-robin across several
// endpoints (each in the `unix:PATH` / `host:port` grammar of
// svc::parse_endpoint) — servers or routers alike. --zipf S swaps the
// uniform round-robin key mix for a Zipf(S) draw over the pool, so a
// few keys dominate; behind a router, their ring owners then take most
// of the load (docs/ROUTING.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/real.hpp"
#include "gen/compression.hpp"
#include "gen/optimizer.hpp"
#include "gen/random_instances.hpp"
#include "io/format.hpp"
#include "io/json.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "scheduling/schedule.hpp"
#include "svc/client.hpp"
#include "svc/retry.hpp"

#include "options.hpp"

namespace {

using namespace qbss;
using tools::Options;
using Clock = std::chrono::steady_clock;

bool wait_for_server(const svc::Endpoint& endpoint, std::string* error) {
  // The server may still be binding when we start (CI launches it in the
  // background); retry for a few seconds before giving up.
  for (int attempt = 0; attempt < 50; ++attempt) {
    svc::Client probe;
    if (probe.connect(endpoint, error)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

core::QInstance make_instance(const std::string& family, int n,
                              std::uint64_t seed) {
  if (family == "common") return gen::random_common_deadline(n, 8.0, seed);
  if (family == "pow2") return gen::random_pow2_deadlines(n, 4, seed);
  if (family == "compression") {
    gen::CompressionConfig cfg;
    cfg.files = n;
    return gen::compression_stream(cfg, 12.0, 3.0, seed);
  }
  if (family == "optimizer") {
    gen::OptimizerConfig cfg;
    cfg.jobs = n;
    return gen::optimizer_instance(cfg, seed);
  }
  return gen::random_online(n, 10.0, 0.5, 4.0, seed);
}

/// Shared run state: the request pool, the expected-payload table and
/// the failure tallies every connection thread feeds.
struct RunState {
  std::vector<svc::Request> pool;
  std::vector<std::string> keys;  ///< cache key per pool entry
  double alpha = 3.0;
  bool validate = false;
  /// Non-empty under --zipf S: CDF over the pool, p(i) proportional to
  /// 1/(i+1)^S. Empty = uniform round-robin.
  std::vector<double> zipf_cdf;

  std::atomic<std::size_t> next_index{0};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> disk_hits{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> transport_failures{0};
  std::atomic<std::uint64_t> compared{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> validated{0};
  std::atomic<std::uint64_t> invalid{0};

  std::mutex expected_mu;
  std::map<std::string, std::string> expected;  ///< key -> first payload
};

/// Checks one ok-payload: byte-identity against the first payload seen
/// for this key, and (with --validate) schedule re-validation.
void check_response(RunState& state, std::size_t pool_index,
                    const svc::Client::Reply& reply) {
  const std::string& key = state.keys[pool_index];
  {
    const std::lock_guard<std::mutex> lock(state.expected_mu);
    const auto [it, inserted] = state.expected.emplace(key, reply.payload);
    if (!inserted) {
      state.compared.fetch_add(1);
      if (it->second != reply.payload) {
        state.mismatches.fetch_add(1);
        QBSS_COUNT("loadgen.mismatches");
      }
    }
  }
  if (!state.validate) return;

  svc::SolveResult result;
  std::string error;
  bool good = svc::parse_solve_result(reply.payload, &result, &error) &&
              result.valid && !result.classical_text.empty() &&
              !result.schedule_text.empty();
  if (good) {
    const io::Parsed<scheduling::Instance> classical =
        io::read_instance(result.classical_text);
    good = static_cast<bool>(classical);
    if (good) {
      const io::Parsed<scheduling::Schedule> schedule =
          io::read_schedule(result.schedule_text, classical.value->size());
      good = static_cast<bool>(schedule) &&
             scheduling::validate(*classical.value, *schedule.value)
                 .feasible &&
             approx_eq(schedule.value->energy(state.alpha), result.energy,
                       1e-6);
    }
  }
  state.validated.fetch_add(1);
  if (!good) {
    state.invalid.fetch_add(1);
    QBSS_COUNT("loadgen.invalid");
  }
}

std::uint64_t splitmix64(std::uint64_t* s) {
  *s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = *s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Picks the next pool index: global round-robin by default, a Zipf
/// draw from the per-thread RNG under --zipf.
std::size_t pick_index(RunState& state, std::uint64_t* rng) {
  if (state.zipf_cdf.empty()) {
    return state.next_index.fetch_add(1) % state.pool.size();
  }
  const double u =
      static_cast<double>(splitmix64(rng) >> 11) * 0x1.0p-53;
  const auto it =
      std::lower_bound(state.zipf_cdf.begin(), state.zipf_cdf.end(), u);
  return std::min(
      static_cast<std::size_t>(it - state.zipf_cdf.begin()),
      state.pool.size() - 1);
}

void issue_one(RunState& state, svc::RetryingClient& client,
               std::uint64_t* rng) {
  const std::size_t index = pick_index(state, rng);
  const Clock::time_point start = Clock::now();
  svc::Client::Reply reply;
  std::string error;
  state.sent.fetch_add(1);
  QBSS_COUNT("loadgen.sent");
  if (!client.call(state.pool[index], &reply, &error)) {
    state.transport_failures.fetch_add(1);
    QBSS_COUNT("loadgen.transport_failures");
    return;
  }
  const double latency_us =
      std::chrono::duration<double, std::micro>(Clock::now() - start)
          .count();
  QBSS_HIST("loadgen.latency_us", latency_us);
  switch (reply.status) {
    case svc::Status::kOk:
      state.ok.fetch_add(1);
      QBSS_COUNT("loadgen.ok");
      if (reply.cache_hit) {
        state.cache_hits.fetch_add(1);
        QBSS_COUNT("loadgen.cache_hits");
      }
      if (reply.disk_hit) {
        state.disk_hits.fetch_add(1);
        QBSS_COUNT("loadgen.disk_hits");
      }
      check_response(state, index, reply);
      break;
    case svc::Status::kShed:
      state.shed.fetch_add(1);
      QBSS_COUNT("loadgen.shed");
      break;
    case svc::Status::kError:
      state.errors.fetch_add(1);
      QBSS_COUNT("loadgen.errors");
      break;
  }
}

/// Closed loop: `requests` back-to-back calls.
void closed_loop(RunState& state, svc::RetryingClient& client,
                 std::size_t requests, std::uint64_t rng_seed) {
  std::uint64_t rng = rng_seed;
  for (std::size_t i = 0; i < requests; ++i) {
    issue_one(state, client, &rng);
  }
}

/// Paced loop: one call every `interval` (catching up if a response
/// arrived late), until `stop_at`.
void paced_loop(RunState& state, svc::RetryingClient& client,
                std::chrono::duration<double> interval,
                Clock::time_point stop_at, std::uint64_t rng_seed) {
  std::uint64_t rng = rng_seed;
  Clock::time_point next = Clock::now();
  while (Clock::now() < stop_at) {
    std::this_thread::sleep_until(next);
    if (Clock::now() >= stop_at) break;
    issue_one(state, client, &rng);
    next += std::chrono::duration_cast<Clock::duration>(interval);
    if (const Clock::time_point now = Clock::now(); next < now) next = now;
  }
}

int usage() {
  std::fprintf(
      stderr,
      "usage: qbss-loadgen (--socket PATH | --tcp PORT | --targets "
      "A,B,C) [--options]\n"
      "  --targets A,B,C   spread connections round-robin across several\n"
      "                    endpoints (unix:PATH or host:port each); "
      "overrides\n"
      "                    --socket/--tcp\n"
      "  --connections C   concurrent connections (default 4)\n"
      "  --requests N      closed loop: requests per connection "
      "(default 50)\n"
      "  --qps Q           paced loop: aggregate requests/second "
      "(default off)\n"
      "  --duration S      paced loop length in seconds (default 5)\n"
      "  --family F        mixed|common|pow2|compression|optimizer "
      "(default mixed)\n"
      "  --n J             jobs per generated instance (default 12)\n"
      "  --seeds K         distinct instances in the pool (default 8; "
      "repeats\n"
      "                    drive the server's result cache)\n"
      "  --zipf S          draw pool keys Zipf(S)-skewed instead of "
      "round-robin\n"
      "                    (0 = uniform; ~1 makes a few keys dominate, "
      "so behind a\n"
      "                    router their ring owners take most of the "
      "load)\n"
      "  --algo A          crcd|crp2d|crad|avrq|bkpq|oaq|avrq_m|opt "
      "(default bkpq)\n"
      "  --alpha X         power exponent (default 3)\n"
      "  --machines M      machines for avrq_m (default 4)\n"
      "  --deadline-ms D   per-request queue deadline\n"
      "  --validate        request schedule dumps and re-validate them\n"
      "  --timeout-ms T    per-attempt socket timeout (default 0 = none;\n"
      "                    2000 under --chaos)\n"
      "  --retries R       retries per request after the first attempt\n"
      "                    (default 0; 8 under --chaos)\n"
      "  --chaos           retry defaults for a server under QBSS_FAULTS\n"
      "  --log FILE        write structured NDJSON events (retry.* and\n"
      "                    loadgen decisions) to FILE; stderr or - for "
      "stderr\n"
      "  --log-level LVL   sink severity floor: debug|info|warn|error|off\n"
      "                    (default info; the QBSS_LOG env var also sets "
      "it)\n"
      "  --expect-no-shed  exit 1 if any request was shed\n"
      "  --expect-shed     exit 1 if no request was shed\n"
      "  --expect-cache-hits  exit 1 if no response came from the cache\n"
      "  --expect-disk-hits [N]  exit 1 unless >= N responses came from "
      "the\n"
      "                    server's on-disk cache tier (default 1; the "
      "warm-\n"
      "                    restart soak gates on this)\n"
      "  --expect-retries  exit 1 if no request needed a retry\n"
      "  --expect-qps Q    exit 1 if achieved throughput < Q req/s\n"
      "  --progress MS     print a one-line throughput/latency/retry\n"
      "                    summary to stderr every MS milliseconds\n"
      "  --shutdown        send a shutdown frame when done\n"
      "  --manifest FILE   write the loadgen manifest as JSON\n"
      "  --quiet           suppress the summary report\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts = tools::parse_options(argc, argv, 1);
  if (const int rc = tools::apply_log_options(opts, "qbss-loadgen");
      rc != 0) {
    return rc;
  }
  tools::apply_thread_override(opts);

  std::vector<svc::Endpoint> endpoints;
  if (const std::string targets = opts.get("targets", "");
      !targets.empty()) {
    std::stringstream list(targets);
    std::string item;
    while (std::getline(list, item, ',')) {
      if (item.empty()) continue;
      svc::Endpoint parsed;
      std::string error;
      if (!svc::parse_endpoint(item, &parsed, &error)) {
        std::fprintf(stderr, "qbss-loadgen: --targets: %s\n",
                     error.c_str());
        return 2;
      }
      endpoints.push_back(std::move(parsed));
    }
  }
  if (endpoints.empty()) {
    svc::Endpoint endpoint;
    endpoint.socket_path = opts.get("socket", "");
    endpoint.tcp_port = static_cast<int>(opts.number("tcp", 0));
    if (endpoint.socket_path.empty() && endpoint.tcp_port == 0) {
      return usage();
    }
    endpoints.push_back(std::move(endpoint));
  }
  const tools::RetryOptions retry = tools::parse_retry_options(opts);

  const std::size_t connections =
      static_cast<std::size_t>(opts.number("connections", 4));
  const std::size_t requests =
      static_cast<std::size_t>(opts.number("requests", 50));
  const double qps = opts.number("qps", 0.0);
  const double duration = opts.number("duration", 5.0);
  const std::string family = opts.get("family", "mixed");
  const int jobs = static_cast<int>(opts.number("n", 12));
  const std::size_t seeds =
      static_cast<std::size_t>(opts.number("seeds", 8));

  RunState state;
  state.alpha = opts.number("alpha", 3.0);
  state.validate = opts.flag("validate");
  for (std::size_t s = 0; s < std::max<std::size_t>(seeds, 1); ++s) {
    svc::Request request;
    request.algo = opts.get("algo", "bkpq");
    request.alpha = state.alpha;
    request.machines = static_cast<int>(opts.number("machines", 4));
    request.want_schedule = state.validate;
    request.deadline_ms = opts.number("deadline-ms", 0.0);
    request.instance = make_instance(family, jobs, s + 1);
    state.keys.push_back(svc::cache_key(request));
    state.pool.push_back(std::move(request));
  }
  const double zipf_s = opts.number("zipf", 0.0);
  // Read up front so a malformed value fails before any load is sent.
  const double expect_qps = opts.number("expect-qps", 0.0);
  if (zipf_s > 0.0) {
    double total = 0.0;
    state.zipf_cdf.reserve(state.pool.size());
    for (std::size_t i = 0; i < state.pool.size(); ++i) {
      total += std::pow(static_cast<double>(i + 1), -zipf_s);
      state.zipf_cdf.push_back(total);
    }
    for (double& p : state.zipf_cdf) p /= total;
  }

  for (const svc::Endpoint& endpoint : endpoints) {
    std::string error;
    if (!wait_for_server(endpoint, &error)) {
      std::fprintf(stderr, "qbss-loadgen: %s: %s\n",
                   svc::endpoint_to_string(endpoint).c_str(),
                   error.c_str());
      return 1;
    }
  }
  std::vector<std::unique_ptr<svc::RetryingClient>> clients;
  clients.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    svc::RetryPolicy policy;
    policy.max_retries = retry.retries;
    policy.attempt_timeout_ms = retry.timeout_ms;
    policy.jitter_seed = 0x10adULL + c;  // decorrelate across connections
    clients.push_back(std::make_unique<svc::RetryingClient>(
        endpoints[c % endpoints.size()], policy));
  }

  // --progress: a reporter thread prints one summary line per tick,
  // sourced from registry snapshot deltas — the same machinery behind
  // the server's stats verb, so rates and windowed percentiles here and
  // in `qbss top` agree by construction.
  std::atomic<bool> progress_stop{false};
  std::thread progress_thread;
  if (const double progress_ms = opts.number("progress", 0.0);
      progress_ms > 0.0) {
    progress_thread = std::thread([&progress_stop, progress_ms] {
      obs::Snapshot prev = obs::capture_snapshot(true);
      while (!progress_stop.load()) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(progress_ms));
        const obs::Snapshot now = obs::capture_snapshot(true);
        const obs::SnapshotDelta d = obs::delta(prev, now);
        obs::HistogramSummary lat;
        if (const obs::HistogramSummary* h =
                d.histogram("loadgen.latency_us")) {
          lat = *h;
        }
        std::fprintf(
            stderr,
            "[loadgen] t=%.1fs %.1f req/s ok %llu hit %llu shed %llu "
            "err %llu retry %llu p50=%.1fus p99=%.1fus\n",
            now.uptime_seconds, d.rate("loadgen.sent"),
            static_cast<unsigned long long>(d.counter("loadgen.ok")),
            static_cast<unsigned long long>(
                d.counter("loadgen.cache_hits")),
            static_cast<unsigned long long>(d.counter("loadgen.shed")),
            static_cast<unsigned long long>(
                d.counter("loadgen.errors") +
                d.counter("loadgen.transport_failures")),
            static_cast<unsigned long long>(
                d.counter("svc.retry.retries")),
            lat.count != 0 ? lat.p50 : 0.0, lat.count != 0 ? lat.p99 : 0.0);
        prev = now;
      }
    });
  }

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    if (qps > 0.0) {
      const std::chrono::duration<double> interval(
          static_cast<double>(connections) / qps);
      const Clock::time_point stop_at =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(duration));
      threads.emplace_back([&state, &clients, c, interval, stop_at] {
        paced_loop(state, *clients[c], interval, stop_at,
                   0x21f5ULL + c * 0x9e3779b9ULL);
      });
    } else {
      threads.emplace_back([&state, &clients, c, requests] {
        closed_loop(state, *clients[c], requests,
                    0x21f5ULL + c * 0x9e3779b9ULL);
      });
    }
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (progress_thread.joinable()) {
    progress_stop.store(true);
    progress_thread.join();
  }

  if (opts.flag("shutdown")) {
    // The shutdown frame rides the retry loop too: a fault plan that
    // eats it must not leave the server running (CI would hang on it).
    // With --targets every endpoint gets one (note a router forwards
    // nothing here — shutdown stops the router itself).
    for (std::size_t e = 0; e < endpoints.size(); ++e) {
      std::string error;
      std::unique_ptr<svc::RetryingClient> spare;
      svc::RetryingClient* client;
      if (e < connections) {
        client = clients[e].get();
      } else {
        svc::RetryPolicy policy;
        policy.max_retries = retry.retries;
        policy.attempt_timeout_ms = retry.timeout_ms;
        spare = std::make_unique<svc::RetryingClient>(endpoints[e], policy);
        client = spare.get();
      }
      if (!client->shutdown_server(&error)) {
        std::fprintf(stderr, "qbss-loadgen: shutdown %s: %s\n",
                     svc::endpoint_to_string(endpoints[e]).c_str(),
                     error.c_str());
      }
    }
  }

  std::uint64_t retried = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t exhausted = 0;
  std::string exhausted_error;
  for (const auto& client : clients) {
    retried += client->retries();
    reconnects += client->reconnects();
    exhausted += client->exhausted();
    // The connection-level summary keeps the *final* typed error of its
    // most recent exhausted call; surface one of them so a failed chaos
    // run names the fault that actually spent the budget.
    if (exhausted_error.empty() && !client->last_error().empty()) {
      exhausted_error = client->last_error();
    }
  }

  const obs::HistogramSummary latency =
      obs::registry().histogram("loadgen.latency_us").summary();
  const std::uint64_t sent = state.sent.load();
  const double achieved_qps =
      seconds > 0.0 ? static_cast<double>(sent) / seconds : 0.0;
  if (!opts.flag("quiet")) {
    std::printf("loadgen: %llu requests in %.3fs (achieved %.1f req/s), "
                "%zu connections, pool of %zu instances\n",
                static_cast<unsigned long long>(sent), seconds,
                achieved_qps, connections, state.pool.size());
    std::printf("  ok %llu (cache hits %llu, disk hits %llu), shed %llu, "
                "errors %llu, transport failures %llu\n",
                static_cast<unsigned long long>(state.ok.load()),
                static_cast<unsigned long long>(state.cache_hits.load()),
                static_cast<unsigned long long>(state.disk_hits.load()),
                static_cast<unsigned long long>(state.shed.load()),
                static_cast<unsigned long long>(state.errors.load()),
                static_cast<unsigned long long>(
                    state.transport_failures.load()));
    std::printf("  byte-identity: %llu comparisons, %llu mismatches\n",
                static_cast<unsigned long long>(state.compared.load()),
                static_cast<unsigned long long>(state.mismatches.load()));
    if (retry.retries > 0 || retried > 0) {
      std::printf("  retries %llu, reconnects %llu, exhausted %llu\n",
                  static_cast<unsigned long long>(retried),
                  static_cast<unsigned long long>(reconnects),
                  static_cast<unsigned long long>(exhausted));
      if (exhausted > 0 && !exhausted_error.empty()) {
        std::printf("  last exhausted call: %s\n", exhausted_error.c_str());
      }
    }
    if (state.validate) {
      std::printf("  validated %llu schedules, %llu invalid\n",
                  static_cast<unsigned long long>(state.validated.load()),
                  static_cast<unsigned long long>(state.invalid.load()));
    }
    std::printf("  latency_us: n=%llu min=%.1f p50=%.1f p90=%.1f p99=%.1f "
                "max=%.1f\n",
                static_cast<unsigned long long>(latency.count), latency.min,
                latency.p50, latency.p90, latency.p99, latency.max);
  }

  if (const std::string path = opts.get("manifest", ""); !path.empty()) {
    obs::Manifest manifest = obs::current_manifest();
    manifest.threads = connections;
    manifest.extra.emplace_back("command", "loadgen");
    manifest.extra.emplace_back("mode", qps > 0.0 ? "paced" : "closed");
    manifest.extra.emplace_back("connections", std::to_string(connections));
    manifest.extra.emplace_back("targets", std::to_string(endpoints.size()));
    manifest.extra.emplace_back("zipf_s", std::to_string(zipf_s));
    manifest.extra.emplace_back("family", family);
    manifest.extra.emplace_back("algo", opts.get("algo", "bkpq"));
    manifest.extra.emplace_back("timeout_ms",
                                std::to_string(retry.timeout_ms));
    manifest.extra.emplace_back("retry_budget",
                                std::to_string(retry.retries));
    manifest.extra.emplace_back("achieved_qps",
                                std::to_string(achieved_qps));
    manifest.extra.emplace_back("disk_hits",
                                std::to_string(state.disk_hits.load()));
    manifest.extra.emplace_back("retries", std::to_string(retried));
    manifest.extra.emplace_back("reconnects", std::to_string(reconnects));
    manifest.extra.emplace_back("exhausted", std::to_string(exhausted));
    if (std::ofstream out(path); out) {
      io::write_json_manifest(out, manifest);
    }
  }

  bool failed = state.errors.load() > 0 ||
                state.transport_failures.load() > 0 ||
                state.mismatches.load() > 0 || state.invalid.load() > 0;
  if (opts.flag("expect-no-shed") && state.shed.load() > 0) {
    std::fprintf(stderr, "qbss-loadgen: expected no shed responses, got "
                         "%llu\n",
                 static_cast<unsigned long long>(state.shed.load()));
    failed = true;
  }
  if (opts.flag("expect-shed") && state.shed.load() == 0) {
    std::fprintf(stderr,
                 "qbss-loadgen: expected shed responses, got none\n");
    failed = true;
  }
  if (opts.flag("expect-cache-hits") && state.cache_hits.load() == 0) {
    std::fprintf(stderr,
                 "qbss-loadgen: expected cache hits, got none\n");
    failed = true;
  }
  if (opts.flag("expect-disk-hits")) {
    // The flag's value is optional (`--expect-disk-hits` alone means 1),
    // so parse it by hand instead of through Options::number, which
    // rejects an empty value.
    const std::string text = opts.get("expect-disk-hits", "");
    std::uint64_t want = 1;
    if (!text.empty()) {
      want = std::strtoull(text.c_str(), nullptr, 10);
      if (want == 0) want = 1;
    }
    if (state.disk_hits.load() < want) {
      std::fprintf(stderr,
                   "qbss-loadgen: expected >= %llu disk hit(s) (is "
                   "--cache-dir set and warm?), got %llu\n",
                   static_cast<unsigned long long>(want),
                   static_cast<unsigned long long>(state.disk_hits.load()));
      failed = true;
    }
  }
  if (opts.flag("expect-retries") && retried == 0) {
    std::fprintf(stderr,
                 "qbss-loadgen: expected retries (is the fault plan "
                 "active?), got none\n");
    failed = true;
  }
  if (expect_qps > 0.0 && achieved_qps < expect_qps) {
    std::fprintf(stderr,
                 "qbss-loadgen: expected >= %.1f req/s, achieved %.1f\n",
                 expect_qps, achieved_qps);
    failed = true;
  }
  obs::flush_logs();
  return failed ? 1 : 0;
} catch (const tools::BadNumber& error) {
  std::fprintf(stderr, "qbss-loadgen: %s\n", error.what());
  return 2;
}
