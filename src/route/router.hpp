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
//
// A backend whose breaker is open is skipped and the key fails over to
// the next ring node — correct by construction, because every backend
// computes byte-identical payloads for the same canonical key. When no
// backend is reachable the router sheds (`reason: no_backend`) rather
// than queueing: the fleet's backpressure story stays the backends' own.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
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
  };
  [[nodiscard]] std::vector<BackendStatus> backend_status() const;

 private:
  /// One backend at runtime: its spec, breaker and connection pool.
  struct Backend {
    BackendSpec spec;
    Breaker breaker;
    std::mutex pool_mu;
    std::vector<std::unique_ptr<svc::RetryingClient>> pool;
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> failures{0};
    Backend(BackendSpec spec_in, BreakerConfig breaker_in)
        : spec(std::move(spec_in)), breaker(breaker_in) {}
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
  /// One proxied call of `payload` against backend `index` through its
  /// pool. False on transport exhaustion (the breaker hears about either
  /// outcome).
  [[nodiscard]] bool call_backend(std::size_t index, std::string_view payload,
                                  std::uint64_t trace_id,
                                  svc::Client::Reply* reply);
  void record_backend_result(std::size_t index, bool ok);
  void log_route_start();

  RouterConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<Backend>> backends_;  ///< ring-index order

  std::thread health_thread_;

  /// Declared last: destroyed first, after Router::~Router has joined
  /// every thread that calls back into the members above.
  svc::ConnectionHost host_{config_, "route", *this};
};

}  // namespace qbss::route
