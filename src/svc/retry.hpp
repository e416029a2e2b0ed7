// qbss::svc retrying client — a Client wrapper that survives chaos.
//
// Transport failures (connection torn mid-request, corrupted response
// frame, per-attempt timeout) are retried with exponential backoff and
// decorrelated jitter, reconnecting transparently between attempts.
// Retrying is safe because solves are idempotent by cache key: replaying
// a request can only hit the cache or recompute the identical payload.
// Application-level replies (`shed`, `error`) are returned as-is — the
// server answered; retrying would amplify the very overload it shed.
//
// Every attempt, retry, reconnect and exhaustion feeds `svc.retry.*`
// counters, and each backoff sleep lands in the `svc.retry.backoff_ms`
// histogram, so a chaos run's manifest shows exactly how hard the
// client had to fight.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/xoshiro.hpp"
#include "svc/client.hpp"

namespace qbss::svc {

/// Knobs for the retry loop.
struct RetryPolicy {
  int max_retries = 3;        ///< extra attempts after the first (>= 0)
  double base_ms = 5.0;       ///< backoff floor per sleep
  double cap_ms = 1000.0;     ///< backoff ceiling per sleep
  double attempt_timeout_ms = 0.0;  ///< per-attempt socket timeout (0 = none)
  double call_deadline_ms = 0.0;    ///< whole-call budget incl. backoff
                                    ///< (0 = none)
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;
};

/// A Client plus the retry loop. Same threading contract as Client:
/// one RetryingClient per thread.
class RetryingClient {
 public:
  RetryingClient(Endpoint endpoint, RetryPolicy policy);

  /// Like Client::call, but transport failures reconnect and retry with
  /// decorrelated-jitter backoff until success, `max_retries` extra
  /// attempts are spent, or `call_deadline_ms` elapses.
  [[nodiscard]] bool call(const Request& request, Client::Reply* reply,
                          std::string* error);

  /// call() for a request that is already serialized (Client's
  /// call_payload through the same retry loop).
  [[nodiscard]] bool call_payload(std::string_view payload,
                                  Client::Reply* reply, std::string* error);

  /// Round-trips a ping frame through the retry loop.
  [[nodiscard]] bool ping(std::string* error);

  /// Asks the server to shut down (retried like any call, so a fault
  /// that eats the shutdown frame cannot leave the server running).
  [[nodiscard]] bool shutdown_server(std::string* error);

  void close() { client_.close(); }

  /// Pins the trace id stamped into every attempt of every later call
  /// (0 restores auto-generated ids). Unlike Client's one-shot pin this
  /// survives retries — a proxy propagating its caller's id must stamp
  /// the same id into the replayed attempt, not a fresh one.
  void pin_trace_id(std::uint64_t id) noexcept { pinned_trace_id_ = id; }

  /// Attempts beyond each call's first (the loadgen reports these).
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  /// Successful re-connects after a transport failure.
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return reconnects_;
  }
  /// Calls that failed even after every retry.
  [[nodiscard]] std::uint64_t exhausted() const noexcept { return exhausted_; }

  /// The summary of the most recent exhausted call: attempt count plus
  /// the *final* typed error (the one that spent the budget), not the
  /// first. Empty until a call exhausts.
  [[nodiscard]] const std::string& last_error() const noexcept {
    return last_error_;
  }

 private:
  /// Decorrelated jitter (AWS "timing is everything" variant):
  /// sleep = min(cap, uniform(base, max(base, 3 * previous sleep))).
  double next_backoff_ms();

  Endpoint endpoint_;
  RetryPolicy policy_;
  Client client_;
  std::uint64_t pinned_trace_id_ = 0;
  Xoshiro256 rng_;
  double prev_backoff_ms_;
  bool was_connected_ = false;
  std::uint64_t retries_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t exhausted_ = 0;
  std::string last_error_;
};

}  // namespace qbss::svc
