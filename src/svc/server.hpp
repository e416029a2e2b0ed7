// qbss::svc server — a resident scheduling service.
//
// Architecture (docs/SERVICE.md has the full story):
//
//   ConnectionHost (svc/host.hpp): listeners, accept loop, one reader
//                     │ thread per connection, request parsing,
//                     │ ping/stats/shutdown, stats ring, epilogue
//   Server::on_solve ─┤ check result cache (hit → respond)
//                     │ coalesce onto an identical in-flight request, or
//                     │ admit into the bounded queue (full → shed)
//   worker pool <─────┘ drain up to `batch` tasks per wakeup, drop
//                       deadline-expired waiters, solve once, cache,
//                       respond to every coalesced waiter
//
// Backpressure is structural: the admission queue never exceeds
// `queue_depth`, so overload turns into immediate `shed` responses
// instead of unbounded latency. Every stage feeds `svc.*` counters,
// latency/queue-depth/batch-size histograms and Chrome-trace spans, and
// shutdown writes a manifest epilogue (`BENCH_svc.json` by default from
// the CLI) that `qbss obs-diff` can gate on.
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
#include <vector>

#include "svc/cache.hpp"
#include "svc/host.hpp"
#include "svc/protocol.hpp"

namespace qbss::svc {

/// Everything a Server needs to know at start(). The endpoints,
/// client-facing timeouts, stats ring and epilogue paths are the host's
/// (HostConfig).
struct ServerConfig : HostConfig {
  std::size_t workers = 2;
  std::size_t queue_depth = 64;   ///< admission queue bound (>= 1)
  std::size_t cache_entries = 1024;
  std::size_t cache_shards = 8;
  /// Disk tier (docs/DURABILITY.md): directory for the segment store.
  /// "" = memory-only cache, no persistence.
  std::string cache_dir;
  /// Disk-tier byte budget in MiB; the oldest sealed segment is dropped
  /// whole when total size exceeds it.
  double cache_disk_mb = 256.0;
  /// Write-behind fsync cadence: "none", "interval" or "always".
  std::string cache_sync = "interval";
  double cache_sync_interval_ms = 100.0;  ///< "interval" mode cadence
  std::size_t batch = 4;     ///< max tasks drained per worker wakeup
  double delay_ms = 0.0;     ///< artificial per-solve delay (soak knob)
  /// Shutdown drain budget: backlog still queued past this deadline is
  /// answered with `shed` instead of solved, bounding exit time. 0 =
  /// drain everything no matter how long it takes.
  double drain_ms = 2000.0;
  /// Overload degradation window: after a queue-full shed, cache misses
  /// are fast-shed (cache hits still served) for this long. 0 = off.
  double degraded_window_ms = 0.0;
  /// Wire-trace sampling: requests whose client-stamped trace id is
  /// nonzero and divisible by this get a per-request span chain in the
  /// Chrome trace (ids are uniform, so ~1/N of traffic). 1 = every
  /// request, 0 = never. No effect unless tracing is enabled.
  std::uint64_t trace_sample = 16;
};

/// The resident scheduling service: the request handler behind a
/// ConnectionHost. Lifecycle: construct, start(), wait() from a thread
/// that is NOT one of the server's own (wait joins them). shutdown() is
/// idempotent and callable from any thread, including reader threads (a
/// client `shutdown` frame triggers it).
class Server : private ConnectionHost::Handler {
 public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the disk tier, binds and listens on the configured endpoints,
  /// then spawns the accept loop and worker pool. False + *error on any
  /// setup failure.
  [[nodiscard]] bool start(std::string* error);

  /// Blocks until shutdown is initiated, then joins every thread,
  /// answers the remaining backlog, writes the manifest epilogue and
  /// removes the socket file.
  void wait();

  /// Initiates shutdown: stop accepting, unblock readers and workers.
  void shutdown();

  /// Requests served so far (responses of any status).
  [[nodiscard]] std::uint64_t responses() const noexcept {
    return host_.responses();
  }

 private:
  /// Per-request wire-trace state: the client-stamped id (echoed in
  /// every response header) plus, when this request was sampled, the
  /// stage timestamps the span chain is cut from.
  struct WireTrace {
    std::uint64_t id = 0;
    bool sampled = false;
    std::uint64_t read_ns = 0;    ///< frame fully read
    std::uint64_t parsed_ns = 0;  ///< request parsed
    std::uint64_t cache_ns = 0;   ///< cache lookup finished
    std::uint64_t queued_ns = 0;  ///< admitted into the queue
    std::uint64_t picked_ns = 0;  ///< drained by a worker
    std::uint64_t solved_ns = 0;  ///< solve finished
  };

  /// A response destination for one admitted or coalesced request.
  struct Waiter {
    std::shared_ptr<Connection> conn;
    std::uint64_t request_id = 0;
    std::chrono::steady_clock::time_point admitted;
    double deadline_ms = 0.0;
    WireTrace trace;
  };

  /// An in-flight computation; identical requests append themselves as
  /// waiters instead of recomputing.
  struct Inflight {
    std::vector<Waiter> waiters;
  };

  /// One queued computation.
  struct Task {
    std::string key;
    Request request;
    std::shared_ptr<Inflight> inflight;
  };

  // ConnectionHost::Handler.
  void on_solve(const std::shared_ptr<Connection>& conn,
                const FrameHeader& frame, Request&& request,
                const std::string& payload,
                std::chrono::steady_clock::time_point received) override;
  void on_shutdown() override;
  void on_drain() override;
  void add_stats_extras(Extras* extra) override;
  void add_manifest_extras(obs::Manifest* manifest) override;

  void worker_loop();
  /// Drains one admission batch: shed bookkeeping per task, then a
  /// single solve_request_batch call over the survivors, then publish
  /// and respond per task.
  void process_batch(std::vector<Task>& batch);
  /// Pre-solve bookkeeping for one task (shutdown-drain shed, expired
  /// waiters). False when the task needs no solve.
  [[nodiscard]] bool prepare_task(Task& task);
  /// Publishes one solved task and answers its waiters. `picked_ns` /
  /// `solved_ns` stamp the batch's queue-exit and solve-done times into
  /// sampled waiters' trace chains.
  void finish_task(Task& task, SolveItem& item, std::uint64_t picked_ns,
                   std::uint64_t solved_ns);
  void respond(const Waiter& waiter, Status status, std::uint32_t flags,
               std::string_view payload);
  void enter_degraded();
  /// Logs the `server.start` event carrying the effective config.
  void log_server_start();

  ServerConfig config_;
  ResultCache cache_;

  /// steady_clock ns until which the degradation window is active (0 =
  /// never entered; steady_clock never reads negative here).
  std::atomic<std::int64_t> degraded_until_ns_{0};
  /// steady_clock ns deadline for the shutdown drain (0 = unbounded).
  std::atomic<std::int64_t> drain_deadline_ns_{0};

  std::vector<std::thread> workers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Task> queue_;

  std::mutex inflight_mu_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;

  /// Declared last: destroyed first, after Server::~Server has joined
  /// every thread that calls back into the members above.
  ConnectionHost host_{config_, "svc", *this};
};

}  // namespace qbss::svc
