// The traced replay: the request stream of a timed phase re-run
// in-process through the public functions of each layer, in the order
// `svc::Server` and `route::Router` call them, with a span around every
// call. Per-layer metrics are derived from those spans.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "measure.hpp"
#include "route/ring.hpp"
#include "svc/cache.hpp"
#include "svc/protocol.hpp"
#include "svc/store/segment_store.hpp"

namespace qbench {

/// Span name of the policy behind `algo` ("qbss.policy.bkpq", ...).
const char* policy_span(const std::string& algo);

/// Re-runs the policy and the validation that svc::solve_request performs
/// for `request`, as spans that are part of `solve_span`.
void replay_policy(SpanLog* log, const qbss::svc::Request& request,
                   std::uint64_t solve_span);

/// One `qbss serve` replayed in-process: its memory tier, and for a
/// backend with --cache-dir its segment store.
struct ReplayServer {
  explicit ReplayServer(std::size_t capacity) : cache(capacity, 8) {}
  qbss::svc::ResultCache cache;
  std::unique_ptr<qbss::svc::store::SegmentStore> store;
};

/// A connected socketpair that frames replayed payloads.
class FramePipe {
 public:
  FramePipe();
  ~FramePipe();
  FramePipe(const FramePipe&) = delete;
  FramePipe& operator=(const FramePipe&) = delete;
  /// write_frame on one end, read_frame on the other; returns the bytes
  /// read (empty on failure).
  std::string roundtrip(const std::string& payload);

 private:
  int fds_[2] = {-1, -1};
};

/// Replays one client request: serialize, frame, then the server's path
/// (or, with a ring, the router's path in front of the owning server).
/// Returns the response payload.
std::string replay_request(SpanLog* log, std::uint64_t trace_id,
                           const qbss::svc::Request& request,
                           std::vector<ReplayServer*>& servers,
                           const qbss::route::HashRing* ring, FramePipe& pipe);

/// Per-layer metrics derived from replay spans: mean time per call of
/// each layer function, and each layer's share of the replayed self time.
void span_metrics(const std::vector<Span>& spans, Result* result);

/// Writes every span of the run to <out_dir>/<workload>-<seed>.trace.json
/// (Perfetto) and the replay's self-time table, per span name and per
/// layer, to <out_dir>/<workload>-<seed>.layers.txt.
void write_trace(const Options& opts, const std::vector<Span>& all,
                 const std::vector<Span>& replayed, Result* result);

/// Median over `server.request` spans of the time spent in the server's
/// own calls (everything but the response frame and separate replays).
double replayed_server_us(const std::vector<Span>& spans);

}  // namespace qbench
