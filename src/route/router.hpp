// qbss::route router — the fleet's front tier.
//
// Architecture (docs/ROUTING.md has the full story):
//
//   svc::ConnectionHost (svc/host.hpp): listeners, accept loop, one
//                     │ reader thread per client connection, request
//                     │ parsing, ping/stats/shutdown, stats ring
//   Router::on_solve ─┤ hash the solve's canonical cache key onto the
//                     │ ring and forward the client's payload bytes to
//                     │ the owning backend (breaker-gated, pooled
//                     │ RetryingClient), echoing the client's request
//                     │ and trace ids end to end and relaying the
//                     │ backend's status, both header flags and payload
//   health loop ──> periodic pings per backend feed the same breakers
//   replicator  ──> keys whose hit count crosses the hot threshold are
//                   pushed to R ring successors so a node death doesn't
//                   cold-start the hottest keys
//
// A backend whose breaker is open is skipped and the key fails over to
// the next ring node — correct by construction, because every backend
// computes byte-identical payloads for the same canonical key. When no
// backend is reachable the router sheds (`reason: no_backend`) rather
// than queueing: the fleet's backpressure story stays the backends' own.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "route/health.hpp"
#include "route/ring.hpp"
#include "route/topology.hpp"
#include "svc/host.hpp"
#include "svc/protocol.hpp"
#include "svc/retry.hpp"

namespace qbss::route {

/// Everything a Router needs to know at start(). The client-facing
/// endpoints, timeouts, stats ring and epilogue paths are the host's
/// (svc::HostConfig).
struct RouterConfig : svc::HostConfig {
  Topology topology;        ///< the backend fleet (>= 1 node)
  /// Ring successors hot keys are replicated to (0 = replication off).
  std::size_t replicas = 1;
  /// Observed hits at which a key turns hot and replication fires
  /// (0 = never).
  std::uint64_t hot_threshold = 16;
  double health_interval_ms = 500.0;  ///< ping cadence per backend
  int breaker_failures = 3;       ///< consecutive failures to trip open
  double breaker_open_ms = 2000.0;    ///< cooldown before the half-open probe
  double backend_timeout_ms = 5000.0; ///< per-attempt socket timeout
  int backend_retries = 2;        ///< extra attempts per proxied call
  std::size_t pool_capacity = 8;  ///< idle connections kept per backend
};

/// The routing tier: the request handler behind a svc::ConnectionHost.
/// Same lifecycle contract as svc::Server: construct, start(), wait()
/// from a thread that is not one of the router's own; shutdown() is
/// idempotent and callable from any thread.
class Router : private svc::ConnectionHost::Handler {
 public:
  explicit Router(RouterConfig config);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] bool start(std::string* error);
  void wait();
  void shutdown();

  /// Responses relayed or answered so far (any status).
  [[nodiscard]] std::uint64_t responses() const noexcept {
    return host_.responses();
  }

  /// Point-in-time view of one backend (stats verb and tests).
  struct BackendStatus {
    std::string name;
    std::string addr;
    Breaker::State state = Breaker::State::kClosed;
    std::uint64_t forwarded = 0;   ///< proxied calls answered by it
    std::uint64_t failures = 0;    ///< proxied calls it failed
    std::uint64_t replicated = 0;  ///< hot-key pushes it received
  };
  [[nodiscard]] std::vector<BackendStatus> backend_status() const;

  /// Keys whose hit count crossed the hot threshold so far.
  [[nodiscard]] std::uint64_t hot_keys() const noexcept {
    return hot_keys_.load(std::memory_order_relaxed);
  }

 private:
  /// One backend at runtime: its spec, breaker and connection pool.
  struct Backend {
    BackendSpec spec;
    Breaker breaker;
    std::mutex pool_mu;
    std::vector<std::unique_ptr<svc::RetryingClient>> pool;
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> replicated{0};
    Backend(BackendSpec spec_in, BreakerConfig breaker_in)
        : spec(std::move(spec_in)), breaker(breaker_in) {}
  };

  /// One queued hot-key replication push: the client's request bytes,
  /// replayed verbatim to each target.
  struct Replication {
    std::string payload;
    std::vector<std::size_t> targets;  ///< backend indices
    std::uint64_t key_hash = 0;
    std::uint64_t trace_id = 0;
  };

  // svc::ConnectionHost::Handler.
  /// Routes one solve: breaker-gated candidate walk (owner first, then
  /// ring successors), forward the client's payload, relay the reply.
  /// Sheds when every candidate is down.
  void on_solve(const std::shared_ptr<svc::Connection>& conn,
                const svc::FrameHeader& frame, svc::Request&& request,
                const std::string& payload,
                std::chrono::steady_clock::time_point received) override;
  void on_shutdown() override;
  void on_drain() override;
  void add_stats_extras(svc::Extras* extra) override;
  void add_manifest_extras(obs::Manifest* manifest) override;

  void health_loop();
  void replication_loop();
  /// One proxied call of `payload` against backend `index` through its
  /// pool. False on transport exhaustion (the breaker hears about either
  /// outcome).
  [[nodiscard]] bool call_backend(std::size_t index, std::string_view payload,
                                  std::uint64_t trace_id,
                                  svc::Client::Reply* reply);
  /// Hit-count bookkeeping; true when `key` just crossed the hot
  /// threshold (the caller then enqueues replication). `*hot` reports
  /// whether the key is already hot (replica set serves it).
  [[nodiscard]] bool note_hit(const std::string& key, bool* hot);
  void enqueue_replication(Replication task);
  void record_backend_result(std::size_t index, bool ok);
  void log_route_start();

  RouterConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<Backend>> backends_;  ///< ring-index order

  std::atomic<std::uint64_t> hot_keys_{0};
  std::atomic<std::uint64_t> hot_rotation_{0};

  std::thread health_thread_;
  std::thread replication_thread_;

  /// Hot-key table: hit counts plus the already-hot set. Bounded; when
  /// the count table overflows it is reset (hot verdicts persist).
  std::mutex hot_mu_;
  std::unordered_map<std::string, std::uint64_t> key_hits_;
  std::unordered_map<std::string, bool> hot_;

  std::mutex replication_mu_;
  std::condition_variable replication_cv_;
  std::deque<Replication> replication_queue_;

  /// Declared last: destroyed first, after Router::~Router has joined
  /// every thread that calls back into the members above.
  svc::ConnectionHost host_{config_, "route", *this};
};

}  // namespace qbss::route
