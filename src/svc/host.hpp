// qbss::svc connection host — the connection plumbing `qbss serve` and
// `qbss route` share (docs/SERVICE.md "Connection host").
//
//   listeners (unix + tcp) ──> accept loop: poll, errno triage,
//                              external_stop, joins exited readers
//                                │
//                                └─> one reader thread per connection:
//                                    read_frame; a timeout, bad frame or
//                                    read-fault drop ends it; a good
//                                    frame is parsed, ping / stats /
//                                    shutdown are answered here, and a
//                                    solve goes to Handler::on_solve
//   stats thread ──> registry snapshot ring (the stats verb's window)
//
// The role (svc::Server, route::Router) is the Handler: it decides how
// a solve is answered and answers through respond(), the one
// fault-hooked write path. Every metric the host records is
// "<prefix>.<name>" for the role's prefix ("svc" or "route"), looked up
// once per host.
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

#include "obs/snapshot.hpp"
#include "svc/protocol.hpp"

namespace qbss::faults {
struct Action;
}  // namespace qbss::faults

namespace qbss::obs {
class Counter;
class Histogram;
class Timer;
struct Manifest;
}  // namespace qbss::obs

namespace qbss::svc {

/// Key/value facts for stats replies and manifests.
using Extras = std::vector<std::pair<std::string, std::string>>;

/// What every role needs to know about its connections at start().
/// ServerConfig and route::RouterConfig derive from it.
struct HostConfig {
  std::string socket_path;  ///< Unix-domain socket path ("" = no UDS)
  int tcp_port = 0;         ///< 127.0.0.1 TCP listener (0 = off)
  /// Per-connection recv timeout (slowloris defense): a peer that stalls
  /// mid-frame — or sits idle — longer than this is disconnected.
  /// 0 = never.
  double read_timeout_ms = 30000.0;
  /// Per-connection send timeout: a peer that stops draining responses
  /// is disconnected instead of wedging the writer. 0 = never.
  double write_timeout_ms = 10000.0;
  /// Cadence of the periodic registry snapshots backing the stats
  /// verb's "recent window" block. 0 = no ring; a stats reply then
  /// reports lifetime-average rates instead of recent ones.
  double stats_interval_ms = 1000.0;
  /// Snapshots retained in the ring: the window spans up to
  /// stats_ring * stats_interval_ms of recent history.
  std::size_t stats_ring = 8;
  std::string manifest_path; ///< manifest epilogue at shutdown ("" = none)
  /// Flight-recorder dump destination. When set, the host dumps the
  /// merged event rings here whenever a fault-injection clause trips, a
  /// connection dies abnormally or the role reports a trigger
  /// (rate-limited), and once more at shutdown if any trigger was seen.
  /// "" disables automatic dumps (the crash handler, if installed, still
  /// writes one).
  std::string flight_path;
  /// Extra manifest key/values (the CLI records its flags here).
  Extras manifest_extra;
  /// Optional externally-owned stop flag (signal handlers set it; the
  /// accept loop polls it every ~100 ms and initiates shutdown).
  const std::atomic<bool>* external_stop = nullptr;
};

/// One client connection. The fd closes when the last reference drops
/// (the reader and any pending responses share ownership), so a response
/// racing a disconnect writes to a valid-but-dead socket, never to a
/// reused descriptor.
struct Connection {
  Connection(int fd_in, std::uint64_t id_in);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd;
  std::uint64_t id;     ///< dense accept-order id (log correlation)
  std::mutex write_mu;  ///< one response frame leaves at a time
  /// Reader-owned frame payload buffer, preallocated and reused across
  /// every request on this connection (read_frame assigns in place, so
  /// steady-state reads never allocate). Responses need no twin: the
  /// scatter/gather write path sends straight from the response bytes.
  std::string read_buf;
};

/// Listeners, accept loop, per-connection readers, the response write
/// path, the stats ring, flight triggers and the shutdown epilogue for
/// one role. Lifecycle: construct, start(), wait() from a thread that is
/// not one of the host's own (wait joins them). shutdown() is idempotent
/// and callable from any thread, including reader threads.
class ConnectionHost {
 public:
  /// What a role plugs into the host. Callbacks run with no host lock
  /// held.
  class Handler {
   public:
    /// One parsed solve request, on the connection's reader thread.
    /// `payload` is the frame body exactly as the client sent it (the
    /// connection's read buffer: valid until the call returns);
    /// `received` is when the host began handling the frame.
    virtual void on_solve(const std::shared_ptr<Connection>& conn,
                          const FrameHeader& frame, Request&& request,
                          const std::string& payload,
                          std::chrono::steady_clock::time_point received) = 0;
    /// The first shutdown(): wake the role's own threads.
    virtual void on_shutdown() = 0;
    /// wait(), once every reader has been joined: join the role's own
    /// threads and settle its state before the manifest epilogue.
    virtual void on_drain() = 0;
    /// Role facts for a stats reply's extra table.
    virtual void add_stats_extras(Extras* extra) = 0;
    /// Role facts for the manifest epilogue (the config's
    /// manifest_extra follows them).
    virtual void add_manifest_extras(obs::Manifest* manifest) = 0;

   protected:
    ~Handler() = default;
  };

  /// `config` and `handler` must outlive the host.
  ConnectionHost(const HostConfig& config, std::string_view prefix,
                 Handler& handler);
  ~ConnectionHost();
  ConnectionHost(const ConnectionHost&) = delete;
  ConnectionHost& operator=(const ConnectionHost&) = delete;

  /// Binds and listens on the configured endpoints, then spawns the
  /// accept loop and the stats ring. False + *error on any setup
  /// failure.
  [[nodiscard]] bool start(std::string* error);

  /// Initiates shutdown: stop accepting, let readers finish their frame.
  void shutdown();

  /// Blocks until shutdown is initiated, then joins every reader, runs
  /// Handler::on_drain, closes the listeners (removing the socket file),
  /// writes the manifest epilogue and the owed flight dump. Once per
  /// lifetime; later calls return at once.
  void wait();

  [[nodiscard]] bool stopping() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Responses written so far (any status).
  [[nodiscard]] std::uint64_t responses() const noexcept {
    return responses_.load(std::memory_order_relaxed);
  }

  /// "PATH", "tcp:PORT" or "PATH+tcp:PORT" (start-event logging).
  [[nodiscard]] std::string endpoint_label() const;

  /// Writes one response frame through the write fault site, recording
  /// `latency_us` into "<prefix>.latency_us". A vanished client is not a
  /// failure; a peer that stopped draining is disconnected.
  void respond(Connection& conn, std::uint64_t request_id,
               std::uint64_t trace_id, Status status, std::uint32_t flags,
               std::string_view payload, double latency_us);

  /// Renders one stats reply ("json" or "prometheus"): a fresh capture
  /// as the lifetime block, delta'd against the oldest ring snapshot as
  /// the window block, plus the role's extras.
  [[nodiscard]] std::string stats_payload(const std::string& format);

  /// Logs one `faults.fired` event per clause that fired on this
  /// opportunity (with the trace id of the request it hit) and arms the
  /// flight recorder when the action does anything.
  void note_fault(const faults::Action& action, const char* site,
                  std::uint64_t trace_id, std::uint64_t conn_id);

  /// Records that something flight-worthy happened and dumps the rings,
  /// rate-limited; a final dump happens in wait(). No-op unless
  /// flight_path is set.
  void note_flight_trigger();

  /// Sleeps up to `ms`, cut short by shutdown(): the pacing of the
  /// periodic loops (stats ring, the router's health checks). True once
  /// shutdown has begun.
  [[nodiscard]] bool sleep_until_stop(double ms);

 private:
  /// A live reader thread and the connection it serves.
  struct Reader {
    std::thread thread;
    std::shared_ptr<Connection> conn;
  };

  /// "<prefix>.*" metrics, looked up once per host (all null when
  /// observability is compiled out, so nothing is registered).
  struct Metrics {
    obs::Counter* connections = nullptr;
    obs::Counter* accept_overload = nullptr;
    obs::Counter* accept_retry = nullptr;
    obs::Counter* accept_error = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* pings = nullptr;
    obs::Counter* stats_requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* badframe = nullptr;
    obs::Counter* timeout_read = nullptr;
    obs::Counter* timeout_write = nullptr;
    obs::Counter* snapshots = nullptr;
    obs::Counter* flight_dumps = nullptr;
    obs::Histogram* latency = nullptr;
    obs::Timer* request = nullptr;
  };

  void accept_loop();
  void accept_one(int listen_fd);
  void reader_loop(std::shared_ptr<Connection> conn);
  /// Parses one request frame and answers it, or hands a solve to the
  /// handler.
  void dispatch(const std::shared_ptr<Connection>& conn,
                const FrameHeader& frame, const std::string& payload);
  /// Joins readers that have exited; with `all`, first shuts down and
  /// then joins every live one too.
  void join_readers(bool all);
  void stats_loop();
  void dump_flight_recorder();
  void write_manifest();

  const HostConfig& config_;
  Handler& handler_;
  Metrics metrics_;

  std::vector<int> listen_fds_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> next_conn_id_{0};
  /// A flight trigger fired since start (final dump owed at shutdown).
  std::atomic<bool> flight_pending_{false};
  /// obs::now_ns() of the last automatic flight dump (rate limiting).
  std::atomic<std::uint64_t> last_flight_dump_ns_{0};
  bool finished_ = false;  ///< wait() already ran its epilogue

  /// Live readers by connection id, and exited ones awaiting a join. A
  /// reader moves its own thread handle to `exited_` as it leaves, and
  /// the accept loop joins them, so a long-running host keeps one thread
  /// per open connection, not per connection ever accepted.
  std::mutex readers_mu_;
  std::unordered_map<std::uint64_t, Reader> readers_;
  std::vector<std::thread> exited_;

  /// Snapshot ring: stats_loop appends, stats replies delta against the
  /// front. Guarded by its own mutex (capture happens outside it).
  std::mutex ring_mu_;
  std::deque<obs::Snapshot> ring_;
  std::mutex stop_mu_;  ///< pairs with stop_cv_ for sleep_until_stop
  std::condition_variable stop_cv_;

  std::thread accept_thread_;
  std::thread stats_thread_;
};

}  // namespace qbss::svc
