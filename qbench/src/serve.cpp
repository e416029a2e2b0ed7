// serve_hot, serve_miss and fleet_disk: the shipped `qbss serve` /
// `qbss route` binaries under a closed loop (max_rps) and a fixed-rate
// open loop (latency from each request's due time), every reply checked
// byte for byte against a reference reply solved before the run.
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>

#include "bench.hpp"
#include "load.hpp"
#include "measure.hpp"
#include "oracle.hpp"
#include "procs.hpp"
#include "replay.hpp"
#include "streams.hpp"
#include "svc/client.hpp"

namespace qbench {

namespace {

namespace sv = qbss::svc;
namespace fs = std::filesystem;

enum class Kind { kHot, kMiss, kFleet };

// Fixed open-loop rates, 30-45% of each workload's max_rps when the
// benchmark was defined (README.md), so that p50 compares between
// commits. Lower rates made p50 higher and noisier (idle vCPUs wake
// slowly); higher ones queued up whenever the shared host slowed down.
constexpr double kHotRate = 12000.0;
constexpr double kMissRate = 1500.0;
constexpr double kFleetRate = 3000.0;

// Stream index bases: each phase draws from its own stretch of the
// stream, so serve_miss keys never repeat across phases.
constexpr std::uint64_t kClosedBase = 0;
constexpr std::uint64_t kOpenBase = 1ull << 40;
constexpr std::uint64_t kTracedBase = 2ull << 40;
constexpr std::uint64_t kWarmBase = 3ull << 40;
constexpr std::uint64_t kSampleBase = 4ull << 40;
constexpr std::uint64_t kReplayBase = 5ull << 40;

// Set-ups per untimed run; setup_s is their median. The fleet's set-up
// populates 4096 keys and restarts two backends, so it repeats less.
constexpr int kSetups = 9;
constexpr int kFleetSetups = 5;
constexpr std::uint64_t kMissWarm = 64;
constexpr std::size_t kReplayRequests = 2000;
constexpr std::size_t kHopSamples = 1000;
// serve_miss's and the fleet's closed loops send this many requests per
// second of their share of the run, about their max_rps on the reference
// VM, however long that takes: the expected replies of their fresh keys
// are solved in advance, and the fleet's disk footprint (so its RSS)
// follows how many fresh keys it writes.
constexpr double kClosedCap = 6000.0;
constexpr double kFleetClosedCap = 10000.0;
// Timed phases run in chunks of this length and report medians over
// them: a stall of the shared host then spoils a few chunks, not the run.
constexpr double kChunkS = 0.5;
// Timed chunks of a fixed count end on count alone; this only bounds a
// chunk if the processes under test hang (the watchdog ends the run).
constexpr double kChunkLimitS = 150.0;
// host_echo_us() on the reference VM (README.md). p50_us and max_rps are
// scaled by the run's echo time against it.
constexpr double kNominalEchoUs = 13.0;

struct Conn {
  sv::Client client;
  sv::Request slot;
  const sv::Request* next = nullptr;
  SpanLog* log = nullptr;
  std::uint64_t disk_flags = 0;
};

struct Proc {
  pid_t pid = -1;
  std::string socket;
  std::vector<std::string> argv;
};

// A timed phase, run in chunks of kChunkS. The phase reports medians over
// chunks: the median chunk's throughput, and the median of the chunks'
// p50s.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::vector<double> chunk_rps;  ///< closed loop
  std::vector<double> chunk_p50_us;  ///< open loop
  std::vector<double> latency_us;  ///< open loop, every request
  std::vector<double> late_us;
  std::vector<double> echo_us;  ///< host_echo_us() after each chunk
};

class ServeBench {
 public:
  ServeBench(const Options& opts, Kind kind, Result* result)
      : opts_(opts),
        kind_(kind),
        r_(*result),
        pool_oracle_([this](std::uint64_t k, std::uint32_t attempt) {
          return kind_ == Kind::kHot ? hot_key(opts_.seed, k, attempt)
                                     : fleet_key(opts_.seed, k, attempt);
        }),
        stream_oracle_([this](std::uint64_t i, std::uint32_t attempt) {
          return kind_ == Kind::kMiss ? miss_request(opts_.seed, i, attempt)
                                      : fleet_fresh(opts_.seed, i, attempt);
        }) {}

  void run();

 private:
  void prepare_inputs();
  const sv::Request& request(Conn& conn, std::uint64_t index) const;
  const std::string* expected(std::uint64_t index) const;
  // Shares of --seconds: closed loop, then open loop (the traced run
  // spends another 0.3 on the traced open loop).
  double closed_seconds() const { return opts_.seconds * (opts_.trace ? 0.2 : 0.4); }
  double open_seconds() const { return opts_.seconds * (opts_.trace ? 0.3 : 0.6); }
  std::uint64_t closed_cap() const {
    return kind_ == Kind::kHot
               ? std::numeric_limits<std::uint64_t>::max()
               : static_cast<std::uint64_t>(
                     (kind_ == Kind::kMiss ? kClosedCap : kFleetClosedCap) *
                     closed_seconds());
  }
  double rate() const {
    return kind_ == Kind::kHot ? kHotRate
           : kind_ == Kind::kMiss ? kMissRate
                                  : kFleetRate;
  }

  bool deploy(int setup);
  bool start(Proc& p);
  void teardown();
  bool connect_all();
  std::string entry() const {
    return kind_ == Kind::kFleet ? router_.socket : backends_[0].socket;
  }

  bool call(std::size_t c, std::uint64_t index);
  ClosedResult closed(double seconds, std::uint64_t first, std::uint64_t max);
  OpenResult open(double seconds, std::uint64_t first);
  Phase closed_phase(double seconds, std::uint64_t first, std::uint64_t max);
  Phase open_phase(double seconds, std::uint64_t first);
  void count(std::uint64_t attempted, std::uint64_t ok) {
    r_.attempted += attempted;
    r_.failed += attempted - ok;
  }

  void collect_server_side();
  void report(const std::vector<double>& setup_s, const Phase& cl,
              const Phase& op);
  void traced_metrics(const Phase& untraced, const Phase& traced);
  void measure_hop();
  void replay();

  const Options& opts_;
  Kind kind_;
  Result& r_;

  Oracle pool_oracle_;    ///< serve_hot's working set, the fleet's keys
  Oracle stream_oracle_;  ///< serve_miss's stream, the fleet's fresh keys
  std::vector<sv::Request> pool_;
  std::vector<std::string> pool_expected_;
  std::unique_ptr<ZipfTable> zipf_;

  std::vector<Proc> backends_;
  Proc router_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  /// While set, stream index k sends pool_[k] as a first solve.
  bool populating_ = false;
  /// Whether replies of the current phase must carry hit/miss flags.
  bool check_flags_ = false;
  std::atomic<std::uint64_t> mismatches_{0};
  std::vector<Stats> backend_stats_;
  Stats router_stats_;
  double rss_mb_ = 0.0;
  std::uint64_t disk_flags_ = 0;
  double server_self_us_ = 0.0;
};

const sv::Request& ServeBench::request(Conn& conn, std::uint64_t index) const {
  if (populating_) return pool_[index];
  switch (kind_) {
    case Kind::kHot:
      return pool_[hot_pick(opts_.seed, index, pool_.size())];
    case Kind::kMiss:
      conn.slot = stream_oracle_.request(index);
      return conn.slot;
    case Kind::kFleet: {
      const FleetPick pick = fleet_pick(*zipf_, opts_.seed, index);
      if (!pick.fresh) return pool_[pick.key];
      conn.slot = stream_oracle_.request(index);
      return conn.slot;
    }
  }
  return conn.slot;
}

const std::string* ServeBench::expected(std::uint64_t index) const {
  if (populating_) return &pool_expected_[index];
  switch (kind_) {
    case Kind::kHot:
      return &pool_expected_[hot_pick(opts_.seed, index, pool_.size())];
    case Kind::kMiss:
      return stream_oracle_.payload(index);
    case Kind::kFleet: {
      const FleetPick pick = fleet_pick(*zipf_, opts_.seed, index);
      return pick.fresh ? stream_oracle_.payload(index)
                        : &pool_expected_[pick.key];
    }
  }
  return nullptr;
}

// Every request a run can send, with its expected reply, before any
// process under test starts.
void ServeBench::prepare_inputs() {
  const auto open_n = static_cast<std::uint64_t>(rate() * open_seconds());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
      {kClosedBase, closed_cap()}, {kOpenBase, open_n}};
  if (opts_.trace) {
    ranges.emplace_back(kTracedBase, open_n);
    ranges.emplace_back(kReplayBase, kReplayRequests);
  }
  std::vector<std::uint64_t> stream;
  if (kind_ == Kind::kMiss) {
    ranges.emplace_back(kWarmBase, kSetups * kMissWarm);
    for (const auto& [first, count] : ranges) {
      for (std::uint64_t i = first; i < first + count; ++i) stream.push_back(i);
    }
  } else if (kind_ == Kind::kFleet) {
    zipf_ = std::make_unique<ZipfTable>(4096, 1.0);
    for (const auto& [first, count] : ranges) {
      for (std::uint64_t i = first; i < first + count; ++i) {
        if (fleet_pick(*zipf_, opts_.seed, i).fresh) stream.push_back(i);
      }
    }
  }
  stream_oracle_.solve(stream, opts_.nproc);

  std::vector<std::uint64_t> keys(kind_ == Kind::kHot    ? 256
                                  : kind_ == Kind::kFleet ? 4096
                                                          : 0);
  for (std::uint64_t k = 0; k < keys.size(); ++k) keys[k] = k;
  pool_oracle_.solve(keys, opts_.nproc);
  for (const std::uint64_t k : keys) {
    pool_.push_back(pool_oracle_.request(k));
    const std::string* payload = pool_oracle_.payload(k);
    if (payload == nullptr) r_.fail("no reference reply for key " + std::to_string(k));
    pool_expected_.push_back(payload != nullptr ? *payload : std::string());
  }
}

bool ServeBench::start(Proc& p) {
  std::error_code ec;
  fs::remove(p.socket, ec);
  p.pid = spawn(p.argv, p.socket + ".log");
  if (p.pid <= 0 || !wait_ready(p.socket, 20.0)) {
    r_.fail("cannot start " + p.argv[1] + " on " + p.socket);
    return false;
  }
  return true;
}

// One set-up: start the processes, reach them, warm the cache (for the
// fleet: populate through the router, stop the backends cleanly and
// restart them on the same directories, so store recovery is part of
// set-up).
bool ServeBench::deploy(int setup) {
  backends_.clear();
  const std::size_t servers = kind_ == Kind::kFleet ? 2 : 1;
  for (std::size_t i = 0; i < servers; ++i) {
    Proc p;
    p.socket = kind_ == Kind::kFleet ? "b" + std::to_string(i + 1) + ".sock"
                                     : "s.sock";
    p.argv = {opts_.qbss, "serve", "--socket", p.socket, "--workers", "2",
              "--quiet", "--manifest", p.socket + ".json"};
    if (kind_ == Kind::kMiss) p.argv.insert(p.argv.end(), {"--cache", "1024"});
    if (kind_ == Kind::kFleet) {
      const std::string dir = "d" + std::to_string(i + 1);
      std::error_code ec;
      fs::remove_all(dir, ec);
      p.argv.insert(p.argv.end(), {"--cache", "64", "--cache-dir", dir});
    }
    backends_.push_back(std::move(p));
  }
  for (Proc& p : backends_) {
    if (!start(p)) return false;
  }
  if (kind_ == Kind::kFleet) {
    std::ofstream("fleet.topo") << "b1 unix:b1.sock\nb2 unix:b2.sock\n";
    router_.socket = "r.sock";
    router_.argv = {opts_.qbss, "route", "--topology", "fleet.topo",
                    "--socket", "r.sock", "--quiet", "--manifest", "r.json"};
    if (!start(router_)) return false;
  }
  if (!connect_all()) return false;

  ClosedResult warm;
  if (kind_ == Kind::kMiss) {
    warm = closed(60.0, kWarmBase + static_cast<std::uint64_t>(setup) * kMissWarm,
                  kMissWarm);
  } else {
    populating_ = true;
    warm = closed(60.0, 0, pool_.size());
    populating_ = false;
  }
  count(warm.attempted, warm.ok);
  if (warm.ok != warm.attempted) r_.fail("warm-up requests failed");

  if (kind_ == Kind::kFleet) {
    conns_.clear();
    for (Proc& p : backends_) {
      const int status = stop(p.pid, p.socket, 20.0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        r_.fail("backend did not stop cleanly");
      }
    }
    for (Proc& p : backends_) {
      if (!start(p)) return false;
    }
    if (!connect_all()) return false;
  }
  return !r_.broken;
}

void ServeBench::teardown() {
  conns_.clear();
  if (router_.pid > 0) stop(router_.pid, router_.socket, 20.0);
  router_.pid = -1;
  for (Proc& p : backends_) {
    if (p.pid <= 0) continue;
    const int status = stop(p.pid, p.socket, 20.0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      r_.fail(p.socket + " did not shut down cleanly");
    }
    p.pid = -1;
  }
}

bool ServeBench::connect_all() {
  conns_.clear();
  for (std::size_t c = 0; c < opts_.nproc; ++c) {
    auto conn = std::make_unique<Conn>();
    std::string error;
    conn->client.set_timeout_ms(10000.0);
    if (!conn->client.connect_unix(entry(), &error)) {
      r_.fail("connect " + entry() + ": " + error);
      return false;
    }
    conns_.push_back(std::move(conn));
  }
  return true;
}

// One request on connection `c`: transport, status, header flags (on
// direct paths) and the payload bytes against the reference reply.
bool ServeBench::call(std::size_t c, std::uint64_t index) {
  Conn& conn = *conns_[c];
  const sv::Request& req =
      conn.next != nullptr ? *conn.next : request(conn, index);
  conn.next = nullptr;
  sv::Client::Reply reply;
  std::string error;
  bool sent = false;
  {
    const std::uint64_t trace_id = mix(opts_.seed, index) | 1;
    Scope span(conn.log, "bench.request", trace_id);
    Scope rtt(conn.log, "client.call");
    if (conn.log != nullptr) conn.client.set_next_trace_id(trace_id);
    sent = conn.client.call(req, &reply, &error);
  }
  if (!sent) {
    // A broken connection would fail every later request: reconnect.
    conn.client.close();
    static_cast<void>(conn.client.connect_unix(entry(), &error));
    return false;
  }
  if (reply.status != sv::Status::kOk) return false;
  if (reply.disk_hit) ++conn.disk_flags;
  bool flags_ok = true;
  if (populating_) {
    flags_ok = !reply.cache_hit;  // a first solve cannot be a hit
  } else if (check_flags_) {
    flags_ok = kind_ == Kind::kHot ? reply.cache_hit && !reply.disk_hit
                                   : !reply.cache_hit && !reply.disk_hit;
  }
  const std::string* want = expected(index);
  if (!flags_ok || want == nullptr || reply.payload != *want) {
    ++mismatches_;
    return false;
  }
  return true;
}

ClosedResult ServeBench::closed(double seconds, std::uint64_t first,
                                std::uint64_t max) {
  return run_closed(conns_.size(), seconds, first, max,
                    [&](std::size_t c, std::uint64_t i) { return call(c, i); });
}

OpenResult ServeBench::open(double seconds, std::uint64_t first) {
  return run_open(
      conns_.size(), rate(), seconds, first,
      [&](std::size_t c, std::uint64_t i) {
        Conn& conn = *conns_[c];
        conn.next = &request(conn, i);
      },
      [&](std::size_t c, std::uint64_t i) { return call(c, i); });
}

Phase ServeBench::closed_phase(double seconds, std::uint64_t first,
                               std::uint64_t max) {
  Phase ph;
  const long chunks = std::max(1L, std::lround(seconds / kChunkS));
  const bool by_count = max != std::numeric_limits<std::uint64_t>::max();
  for (long k = 0; k < chunks && ph.attempted < max; ++k) {
    const std::uint64_t n =
        by_count ? max / static_cast<std::uint64_t>(chunks) : max;
    const ClosedResult cl =
        closed(by_count ? kChunkLimitS : seconds / static_cast<double>(chunks),
               first + ph.attempted, std::min(n, max - ph.attempted));
    ph.attempted += cl.attempted;
    ph.ok += cl.ok;
    ph.chunk_rps.push_back(
        cl.seconds > 0 ? static_cast<double>(cl.ok) / cl.seconds : 0.0);
    ph.echo_us.push_back(host_echo_us());
  }
  return ph;
}

Phase ServeBench::open_phase(double seconds, std::uint64_t first) {
  Phase ph;
  const long chunks = std::max(1L, std::lround(seconds / kChunkS));
  for (long k = 0; k < chunks; ++k) {
    OpenResult op =
        open(seconds / static_cast<double>(chunks), first + ph.attempted);
    ph.attempted += op.attempted;
    ph.ok += op.ok;
    ph.latency_us.insert(ph.latency_us.end(), op.latency_us.begin(),
                         op.latency_us.end());
    ph.late_us.insert(ph.late_us.end(), op.late_us.begin(), op.late_us.end());
    ph.chunk_p50_us.push_back(percentile(op.latency_us, 0.5));
    ph.echo_us.push_back(host_echo_us());
  }
  return ph;
}

void ServeBench::run() {
  prepare_inputs();
  if (r_.broken) return;
  // serve_hot's server gets half the CPUs and the load generator the
  // other half. serve_miss's solves and the fleet's three processes
  // queue up on fewer CPUs (serve_miss's p50 tripled on half of them, the
  // fleet's max_rps spread tripled on three), so they run unpinned.
  if (kind_ == Kind::kHot) split_cpus(static_cast<long>(opts_.nproc) / 2);

  std::vector<double> setup_s;
  const int setups = opts_.trace             ? 1
                     : kind_ == Kind::kFleet ? kFleetSetups
                                             : kSetups;
  for (int i = 0; i < setups; ++i) {
    if (i > 0) teardown();
    const std::uint64_t t0 = now_ns();
    const bool ok = deploy(i);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!ok) {
      teardown();
      return;
    }
  }

  check_flags_ = kind_ != Kind::kFleet;  // the router path is not direct
  const Phase cl = closed_phase(closed_seconds(), kClosedBase, closed_cap());
  count(cl.attempted, cl.ok);
  const Phase op = open_phase(open_seconds(), kOpenBase);
  count(op.attempted, op.ok);
  Phase traced;
  if (opts_.trace) {
    // The same phase again with client-side spans around every call.
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      logs_.push_back(std::make_unique<SpanLog>(static_cast<std::uint32_t>(c)));
      conns_[c]->log = logs_.back().get();
    }
    traced = open_phase(open_seconds(), kTracedBase);
    count(traced.attempted, traced.ok);
    for (auto& conn : conns_) conn->log = nullptr;
  }
  check_flags_ = false;

  collect_server_side();
  if (opts_.trace) {
    traced_metrics(op, traced);
    if (kind_ == Kind::kFleet) measure_hop();
  }
  teardown();
  if (opts_.trace) replay();
  report(setup_s, cl, op);
}

// Counters and peak memory of the processes under test, read before
// anything stops.
void ServeBench::collect_server_side() {
  backend_stats_.assign(backends_.size(), Stats{});
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!fetch_stats(backends_[i].socket, &backend_stats_[i])) {
      r_.fail("stats from " + backends_[i].socket);
    }
    rss_mb_ += vm_hwm_mb(backends_[i].pid);
  }
  if (router_.pid > 0) {
    if (!fetch_stats(router_.socket, &router_stats_)) r_.fail("router stats");
    rss_mb_ += vm_hwm_mb(router_.pid);
  }
  for (auto& c : conns_) disk_flags_ += c->disk_flags;
}

void ServeBench::report(const std::vector<double>& setup_s, const Phase& cl,
                        const Phase& op) {
  std::vector<double> lat = op.latency_us;
  const bool tail = tail_supported(lat.size(), 0.99);
  const double p99 = percentile(lat, 0.99);
  r_.e2e("setup_s", median(setup_s), "s");
  // The shared host's speed swings from run to run, and the wake-ups and
  // socket hand-offs that make up most of these requests swing with it.
  // p50_us and max_rps are therefore scaled to the reference VM's speed by
  // the host echo time taken after every chunk; the measured values are
  // printed beside them.
  std::vector<double> echo = cl.echo_us;
  echo.insert(echo.end(), op.echo_us.begin(), op.echo_us.end());
  const double echo_us = median(echo);
  const double scale = echo_us > 0 ? kNominalEchoUs / echo_us : 1.0;
  const double p50 = median(op.chunk_p50_us);
  const double rps = median(cl.chunk_rps);
  r_.e2e("p50_us", p50 * scale, "us");
  r_.e2e("max_rps", rps / scale, "1/s");
  r_.e2e("rss_mb", rss_mb_, "MiB");
  if (!tail) r_.fail("too few open-loop samples beyond p99");
  if (opts_.trace) r_.layer("bench.p99_us", p99, "us");

  // The generator fell behind its schedule when a send was later than one
  // per-connection gap: from there on the next send is late too.
  std::vector<double> late = op.late_us;
  const double late_p99 = percentile(late, 0.99);
  r_.valid = late_p99 < 1e6 * static_cast<double>(opts_.nproc) / rate();
  char line[320];
  std::snprintf(line, sizeof line,
                "open loop: %llu requests at %.0f/s on %zu connections in %zu "
                "chunks (p50_us = median chunk p50); p99 %.1f us with %zu "
                "samples beyond it; generator late p99 %.1f us (%s)",
                static_cast<unsigned long long>(op.attempted), rate(),
                opts_.nproc, op.chunk_p50_us.size(), p99,
                lat.size() - static_cast<std::size_t>(
                                 std::ceil(0.99 * static_cast<double>(lat.size()))),
                late_p99,
                r_.valid ? "valid" : "INVALID: the generator fell behind");
  r_.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "closed loop: %llu requests on %zu connections in %zu chunks "
                "(max_rps = median chunk); byte or flag mismatches in all "
                "phases: %llu",
                static_cast<unsigned long long>(cl.attempted), opts_.nproc,
                cl.chunk_rps.size(),
                static_cast<unsigned long long>(mismatches_.load()));
  r_.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "host echo %.2f us over %zu chunks (reference VM %.1f us): "
                "measured p50 %.1f us and max_rps %.0f/s, reported x%.4f",
                echo_us, echo.size(), kNominalEchoUs, p50, rps, scale);
  r_.notes.push_back(line);
  if (opts_.trace) {
    r_.layer("bench.host_echo_us", echo_us, "us");
    r_.layer("bench.late_p99_us", late_p99, "us");
  }

  const std::size_t rerolled =
      pool_oracle_.rerolled() + stream_oracle_.rerolled();
  r_.notes.push_back("probe.rerolled " + std::to_string(rerolled) +
                     " (requests replaced because they abort the solver)");
  if (opts_.trace) r_.layer("probe.rerolled", static_cast<double>(rerolled), "count");
  if (kind_ == Kind::kFleet) {
    double disk_hits = 0.0;
    for (const Stats& s : backend_stats_) {
      disk_hits += s.counter("svc.cache.disk_hit");
    }
    const double lost = disk_hits - static_cast<double>(disk_flags_);
    r_.notes.push_back("route.disk_flag_lost " + std::to_string(lost) +
                       " (backend disk hits whose flag the router dropped)");
    if (opts_.trace) r_.layer("route.disk_flag_lost", lost, "count");
  }
}

void ServeBench::traced_metrics(const Phase& untraced, const Phase& traced) {
  const double p50_plain = median(untraced.chunk_p50_us);
  r_.layer("bench.trace_overhead",
           p50_plain > 0
               ? (median(traced.chunk_p50_us) - p50_plain) / p50_plain
               : 0.0,
           "ratio");

  double hit = 0, disk = 0, miss = 0, evicted = 0;
  double admitted = 0, batches = 0, shed = 0, coalesced = 0, self = 0;
  for (const Stats& s : backend_stats_) {
    hit += s.counter("svc.cache.hit");
    disk += s.counter("svc.cache.disk_hit");
    miss += s.counter("svc.cache.miss");
    evicted += s.counter("svc.cache.evicted");
    admitted += s.counter("svc.admitted");
    batches += s.counter("svc.batches");
    coalesced += s.counter("svc.coalesced");
    for (const auto& [name, value] : s.counters) {
      if (name.rfind("svc.shed.", 0) == 0) shed += value;
    }
    const auto it = s.p50.find("svc.latency_us");
    if (it != s.p50.end()) self += it->second;
  }
  server_self_us_ = self / static_cast<double>(backend_stats_.size());
  const double lookups = hit + disk + miss;
  r_.layer("cache.hit_ratio", lookups > 0 ? hit / lookups : 0.0, "ratio");
  r_.layer("cache.evictions_per_req", lookups > 0 ? evicted / lookups : 0.0,
           "ratio");
  r_.layer("store.disk_hit_ratio",
           disk + miss > 0 ? disk / (disk + miss) : 0.0, "ratio");
  r_.layer("server.self_us", server_self_us_, "us");
  r_.layer("server.batch_size", batches > 0 ? admitted / batches : 0.0,
           "count");
  r_.layer("server.shed", shed, "count");
  r_.layer("server.coalesced", coalesced, "count");
  const auto backend_p50 = router_stats_.p50.find("route.backend_us");
  r_.layer("route.backend_us",
           backend_p50 == router_stats_.p50.end() ? 0.0 : backend_p50->second,
           "us");
  r_.layer("route.failovers", router_stats_.counter("route.failover"),
           "count");
  if (kind_ == Kind::kFleet) return;  // measure_hop times the fleet's rtt

  std::vector<double> rtt;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (std::string(s.name) == "client.call") {
        rtt.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  const double rtt_us = median(rtt);
  r_.layer("client.rtt_us", rtt_us, "us");
  r_.layer("server.transport_us", rtt_us - server_self_us_, "us");
  r_.layer("route.hop_us", 0.0, "us");
}

// The route hop: the same pool keys sent directly to their owning backend
// and through the router. Direct replies must be hits whose disk flags
// match the disk hits the backends counted meanwhile.
void ServeBench::measure_hop() {
  const qbss::route::HashRing ring({{"b1", 1.0}, {"b2", 1.0}});
  std::vector<std::unique_ptr<sv::Client>> direct;
  std::string error;
  double disk_before = 0.0;
  for (const Proc& p : backends_) {
    direct.push_back(std::make_unique<sv::Client>());
    direct.back()->set_timeout_ms(10000.0);
    Stats s;
    if (!direct.back()->connect_unix(p.socket, &error) ||
        !fetch_stats(p.socket, &s)) {
      r_.fail("direct connection to " + p.socket);
      return;
    }
    disk_before += s.counter("svc.cache.disk_hit");
  }
  std::vector<std::size_t> keys;
  for (std::size_t k = 0; k < kHopSamples; ++k) {
    const FleetPick pick = fleet_pick(*zipf_, opts_.seed, kSampleBase + k);
    if (!pick.fresh) keys.push_back(pick.key);
  }
  // Each key twice directly to its owner (the second is a memory hit),
  // then the same keys through the router.
  std::vector<double> via_direct;
  std::vector<double> via_router;
  std::uint64_t disk_flags = 0;
  std::uint64_t failures = 0;
  double disk_after = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    if (pass == 2) {
      for (const Proc& p : backends_) {
        Stats s;
        if (fetch_stats(p.socket, &s)) disk_after += s.counter("svc.cache.disk_hit");
      }
    }
    for (const std::size_t key : keys) {
      const sv::Request& req = pool_[key];
      const std::size_t owner =
          ring.primary(qbss::route::HashRing::key_hash(sv::cache_key(req)));
      sv::Client& client = pass < 2 ? *direct[owner] : conns_[0]->client;
      sv::Client::Reply reply;
      const std::uint64_t t0 = now_ns();
      const bool ok = client.call(req, &reply, &error);
      const double us = static_cast<double>(now_ns() - t0) / 1e3;
      ++r_.attempted;
      // Every pool key is in its owner's memory or on its disk.
      if (!ok || reply.status != sv::Status::kOk ||
          reply.payload != pool_expected_[key] ||
          (pass < 2 && !reply.cache_hit)) {
        ++failures;
      }
      if (pass < 2 && reply.disk_hit) ++disk_flags;
      if (pass == 1) via_direct.push_back(us);
      if (pass == 2) via_router.push_back(us);
    }
  }
  // Direct replies carry exactly the disk hits the backends counted.
  if (static_cast<double>(disk_flags) != disk_after - disk_before) ++failures;
  r_.failed += failures;
  mismatches_ += failures;
  const double direct_us = median(via_direct);
  r_.layer("client.rtt_us", direct_us, "us");
  r_.layer("server.transport_us", direct_us - server_self_us_, "us");
  r_.layer("route.hop_us", median(via_router) - direct_us, "us");
}

// In-process replay of the traced stream through the layers' public
// functions, in the order the server (and router) call them.
void ServeBench::replay() {
  std::vector<std::unique_ptr<ReplayServer>> servers;
  std::unique_ptr<qbss::route::HashRing> ring;
  if (kind_ == Kind::kFleet) {
    // The backends' directories as the run left them: opening them is the
    // recovery a restart performs.
    ring = std::make_unique<qbss::route::HashRing>(
        std::vector<std::pair<std::string, double>>{{"b1", 1.0}, {"b2", 1.0}});
    std::vector<double> recover_ms;
    double bytes = 0.0;
    double records = 0.0;
    for (const char* dir : {"d1", "d2"}) {
      auto server = std::make_unique<ReplayServer>(64);
      server->store = std::make_unique<sv::store::SegmentStore>();
      sv::store::StoreConfig cfg;
      cfg.dir = dir;
      sv::store::RecoveryStats rs;
      std::string error;
      const std::uint64_t t0 = now_ns();
      if (!server->store->open(cfg, &rs, &error)) {
        r_.fail("replay store open: " + error);
        return;
      }
      recover_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      bytes += static_cast<double>(rs.bytes);
      records += static_cast<double>(rs.records);
      servers.push_back(std::move(server));
    }
    r_.layer("store.recover_ms", median(recover_ms), "ms");
    r_.layer("store.bytes_per_record", records > 0 ? bytes / records : 0.0,
             "bytes");
  } else {
    servers.push_back(std::make_unique<ReplayServer>(1024));
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      static_cast<void>(
          servers[0]->cache.put(sv::cache_key(pool_[i]), pool_expected_[i]));
    }
    r_.layer("store.recover_ms", 0.0, "ms");
    r_.layer("store.bytes_per_record", 0.0, "bytes");
  }
  std::vector<ReplayServer*> view;
  for (auto& s : servers) view.push_back(s.get());

  // The fleet replays the next stretch of its stream: the traced stretch's
  // fresh keys are already on disk.
  const std::uint64_t base = kind_ == Kind::kFleet ? kReplayBase : kTracedBase;
  SpanLog log(static_cast<std::uint32_t>(opts_.nproc));
  FramePipe pipe;
  Conn scratch;
  double bytes = 0.0;
  for (std::size_t k = 0; k < kReplayRequests; ++k) {
    const std::uint64_t index = base + k;
    const sv::Request& req = request(scratch, index);
    const std::string response = replay_request(
        &log, mix(opts_.seed, index) | 1, req, view, ring.get(), pipe);
    const std::string* want = expected(index);
    if (response.empty() || (want != nullptr && response != *want)) {
      r_.fail("replayed response differs from the served one");
      return;
    }
    bytes += static_cast<double>(sv::serialize_request(req).size() +
                                 response.size() + 2 * sv::kHeaderSize);
  }
  r_.layer("protocol.bytes_per_req", bytes / kReplayRequests, "bytes");
  span_metrics(log.spans(), &r_);
  r_.layer("server.unattributed_us",
           server_self_us_ - replayed_server_us(log.spans()), "us");

  std::vector<Span> all = log.spans();
  for (const auto& l : logs_) {
    all.insert(all.end(), l->spans().begin(), l->spans().end());
  }
  write_trace(opts_, all, log.spans(), &r_);
}

}  // namespace

Result run_serve(const Options& opts) {
  Result result;
  const Kind kind = opts.workload == "serve_hot"    ? Kind::kHot
                    : opts.workload == "serve_miss" ? Kind::kMiss
                                                    : Kind::kFleet;
  ServeBench(opts, kind, &result).run();
  return result;
}

}  // namespace qbench
