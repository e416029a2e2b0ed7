// Load generation: a closed loop (each connection sends its next request
// when the previous reply arrives) and an open loop (request j is due at
// t0 + j/rate whatever the system does). Open-loop latency is timed from
// the due time, so a stall also charges the requests queued behind it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace qbench {

/// Sends stream request `index` on connection `conn` and blocks for the
/// reply. Returns true only for an ok reply whose bytes and flags check
/// out; anything else (transport failure, shed, error, mismatch) is a
/// failed request.
using CallFn = std::function<bool(std::size_t conn, std::uint64_t index)>;

struct ClosedResult {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  double seconds = 0.0;
};

/// Runs `connections` closed loops for `seconds` (or until `max_requests`
/// requests were sent) over stream indices first, first+1, ...
ClosedResult run_closed(std::size_t connections, double seconds,
                        std::uint64_t first, std::uint64_t max_requests,
                        const CallFn& call);

struct OpenResult {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  /// Reply time minus due time, per request; +inf for a failed request.
  std::vector<double> latency_us;
  /// Send time minus the later of the due time and the connection's
  /// previous reply: how far the generator itself fell behind.
  std::vector<double> late_us;
};

/// Builds request `index` for connection `conn` ahead of its due time.
using PrepareFn = std::function<void(std::size_t conn, std::uint64_t index)>;

/// Request j (stream index first + j) is due at t0 + j/rate and goes out
/// on connection j % connections, which handles one request at a time.
/// `prepare` runs before the wait for the due time, untimed.
OpenResult run_open(std::size_t connections, double rate, double seconds,
                    std::uint64_t first, const PrepareFn& prepare,
                    const CallFn& call);

}  // namespace qbench
