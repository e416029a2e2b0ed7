#include "svc/host.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "faults/faults.hpp"
#include "io/json.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace qbss::svc {

namespace {

using A = obs::LogArg;
using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

void bump(obs::Counter* counter) {
  if (counter != nullptr) counter->add();
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// A listening stream socket of `domain` bound to `addr`, or -1 with
/// *error naming `where`.
int open_listener(int domain, const sockaddr* addr, socklen_t len,
                  const std::string& where, std::string* error) {
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (domain == AF_INET) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  }
  if (::bind(fd, addr, len) < 0 || ::listen(fd, 64) < 0) {
    if (error) *error = "bind/listen " + where + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

const char* status_name(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kShed:
      return "shed";
    case Status::kError:
      break;
  }
  return "error";
}

}  // namespace

Connection::Connection(int fd_in, std::uint64_t id_in) : fd(fd_in), id(id_in) {
  read_buf.reserve(4096);
}

Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

ConnectionHost::ConnectionHost(const HostConfig& config,
                               std::string_view prefix, Handler& handler)
    : config_(config), handler_(handler) {
#ifndef QBSS_OBS_OFF
  // QBSS_COUNT caches one counter per call site, and a process can host
  // both roles (tests run a Server and a Router side by side), so the
  // prefixed names resolve here, per instance.
  const auto counter = [prefix](const char* name) {
    return &obs::registry().counter(std::string(prefix) + "." + name);
  };
  metrics_.connections = counter("connections");
  metrics_.accept_overload = counter("accept.overload");
  metrics_.accept_retry = counter("accept.retry");
  metrics_.accept_error = counter("accept.error");
  metrics_.requests = counter("requests");
  metrics_.pings = counter("pings");
  metrics_.stats_requests = counter("stats.requests");
  metrics_.errors = counter("errors");
  metrics_.badframe = counter("badframe");
  metrics_.timeout_read = counter("timeout.read");
  metrics_.timeout_write = counter("timeout.write");
  metrics_.snapshots = counter("stats.snapshots");
  metrics_.flight_dumps = counter("flight.dumps");
  metrics_.latency =
      &obs::registry().histogram(std::string(prefix) + ".latency_us");
  metrics_.request = &obs::registry().timer(std::string(prefix) + ".request");
#else
  static_cast<void>(prefix);
#endif
}

ConnectionHost::~ConnectionHost() {
  shutdown();
  wait();
}

bool ConnectionHost::start(std::string* error) {
  if (config_.socket_path.empty() && config_.tcp_port == 0) {
    if (error) *error = "no endpoint: need a socket path or a TCP port";
    return false;
  }
  if (!config_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
      if (error) *error = "socket path too long";
      return false;
    }
    std::strncpy(addr.sun_path, config_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.socket_path.c_str());  // stale socket from a crash
    const int fd = open_listener(AF_UNIX,
                                 reinterpret_cast<const sockaddr*>(&addr),
                                 sizeof addr, config_.socket_path, error);
    if (fd < 0) return false;
    listen_fds_.push_back(fd);
  }
  if (config_.tcp_port != 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int fd = open_listener(
        AF_INET, reinterpret_cast<const sockaddr*>(&addr), sizeof addr,
        "127.0.0.1:" + std::to_string(config_.tcp_port), error);
    if (fd < 0) return false;
    listen_fds_.push_back(fd);
  }
  if (config_.stats_interval_ms > 0.0) {
    stats_thread_ = std::thread([this] { stats_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

std::string ConnectionHost::endpoint_label() const {
  std::string endpoint = config_.socket_path;
  if (config_.tcp_port != 0) {
    if (!endpoint.empty()) endpoint += "+";
    endpoint += "tcp:" + std::to_string(config_.tcp_port);
  }
  return endpoint;
}

void ConnectionHost::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  handler_.on_shutdown();
  // Notified under the mutex sleep_until_stop checks its predicate with,
  // so the wakeup cannot fall between that check and the wait.
  const std::lock_guard<std::mutex> lock(stop_mu_);
  stop_cv_.notify_all();
}

void ConnectionHost::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  if (stats_thread_.joinable()) stats_thread_.join();
  join_readers(/*all=*/true);
  if (finished_) return;
  finished_ = true;
  handler_.on_drain();

  for (int& fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  if (!config_.socket_path.empty()) {
    ::unlink(config_.socket_path.c_str());
  }
  if (!config_.manifest_path.empty()) write_manifest();
  if (flight_pending_.exchange(false, std::memory_order_acq_rel)) {
    // The final, complete black box: every trigger-time dump was
    // rate-limited and raced ongoing traffic; this one sees it all.
    dump_flight_recorder();
  }
}

void ConnectionHost::dump_flight_recorder() {
  if (config_.flight_path.empty()) return;
  bump(metrics_.flight_dumps);
  obs::flush_logs();  // the sink stream and the dump agree on history
  obs::dump_flight_recorder(config_.flight_path.c_str());
}

void ConnectionHost::note_flight_trigger() {
  if (config_.flight_path.empty()) return;
  flight_pending_.store(true, std::memory_order_release);
  // Rate limit trigger-time dumps: a chaos plan can fire hundreds of
  // clauses per second, and each dump rewrites the whole file anyway.
  const std::uint64_t now = obs::now_ns();
  std::uint64_t last = last_flight_dump_ns_.load(std::memory_order_relaxed);
  constexpr std::uint64_t kMinGapNs = 250'000'000;  // 250 ms
  if (last != 0 && now - last < kMinGapNs) return;
  if (last_flight_dump_ns_.compare_exchange_strong(
          last, now, std::memory_order_acq_rel)) {
    dump_flight_recorder();
  }
}

void ConnectionHost::note_fault(const faults::Action& action,
                                const char* site, std::uint64_t trace_id,
                                std::uint64_t conn_id) {
  for (std::uint32_t kind = 0; kind < faults::FaultSpec::kKindCount; ++kind) {
    if ((action.fired_kinds & (1u << kind)) == 0) continue;
    QBSS_LOG_WARN(
        "faults.fired", trace_id, A("site", site),
        A("kind",
          faults::kind_name(static_cast<faults::FaultSpec::Kind>(kind))),
        A("conn", conn_id), A("delay_ms", action.delay_ms));
  }
  if (action.any()) note_flight_trigger();
}

void ConnectionHost::accept_loop() {
  std::vector<pollfd> pfds;
  pfds.reserve(listen_fds_.size());
  for (const int fd : listen_fds_) {
    pfds.push_back(pollfd{fd, POLLIN, 0});
  }
  while (!stopping()) {
    if (config_.external_stop != nullptr &&
        config_.external_stop->load(std::memory_order_relaxed)) {
      shutdown();
      break;
    }
    join_readers(/*all=*/false);
    for (pollfd& p : pfds) p.revents = 0;
    const int ready = ::poll(pfds.data(), pfds.size(), 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    for (const pollfd& p : pfds) {
      if ((p.revents & POLLIN) != 0) accept_one(p.fd);
    }
  }
}

void ConnectionHost::accept_one(int listen_fd) {
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
      // Descriptor/buffer exhaustion: back off instead of spinning hot,
      // and keep the listener alive — finishing connections free
      // descriptors.
      bump(metrics_.accept_overload);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } else if (err == EINTR || err == ECONNABORTED || err == EAGAIN ||
               err == EPROTO) {
      // The peer vanished between poll-readiness and accept, or the call
      // was interrupted: routine, take the next one.
      bump(metrics_.accept_retry);
    } else {
      bump(metrics_.accept_error);
    }
    return;
  }
  if (stopping()) {
    ::close(fd);
    return;
  }
  set_socket_timeouts(fd, config_.read_timeout_ms, config_.write_timeout_ms);
  bump(metrics_.connections);
  const std::uint64_t conn_id =
      next_conn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto conn = std::make_shared<Connection>(fd, conn_id);
  QBSS_LOG_INFO("conn.accept", 0, A("conn", conn_id));
  // Registered under the lock the reader's exit takes, so a reader that
  // finishes at once still finds its own entry.
  const std::lock_guard<std::mutex> lock(readers_mu_);
  readers_.emplace(conn_id,
                   Reader{std::thread([this, conn] { reader_loop(conn); }),
                          conn});
}

void ConnectionHost::reader_loop(std::shared_ptr<Connection> conn) {
  // The frame payload lands in the connection's preallocated buffer;
  // read_frame assigns in place, so steady-state requests reuse the same
  // storage instead of allocating per frame.
  std::string& payload = conn->read_buf;
  std::string error;
  const char* close_reason = "eof";
  bool abnormal = false;
  for (;;) {
    FrameHeader header;
    const ReadResult rc = read_frame(conn->fd, &header, &payload, &error);
    if (rc == ReadResult::kTimeout) {
      // Slowloris / stalled peer: reclaim the connection instead of
      // holding a reader thread hostage forever.
      bump(metrics_.timeout_read);
      ::shutdown(conn->fd, SHUT_RDWR);
      close_reason = "read_timeout";
      abnormal = true;
      break;
    }
    if (rc == ReadResult::kBadFrame) {
      // The stream cannot resync after a bad header, but the peer gets a
      // typed error frame saying why before the close — never a silent
      // drop.
      bump(metrics_.badframe);
      QBSS_LOG_WARN("req.error", 0, A("conn", conn->id),
                    A("message", error));
      respond(*conn, 0, 0, Status::kError, 0, "message: " + error + "\n",
              0.0);
      close_reason = "badframe";
      abnormal = true;
      break;
    }
    if (rc == ReadResult::kError) {
      close_reason = "read_error";
      abnormal = true;
      break;
    }
    if (rc != ReadResult::kFrame) break;
    const faults::Action fault = QBSS_FAULT(faults::Site::kRead);
    note_fault(fault, "read", header.trace_id, conn->id);
    if (fault.delay_ms > 0.0) sleep_ms(fault.delay_ms);
    if (fault.drop_connection) {
      // Injected short read: tear the connection down mid-request; the
      // client sees EOF with no response and must reconnect and retry.
      ::shutdown(conn->fd, SHUT_RDWR);
      close_reason = "fault_drop";
      abnormal = true;
      break;
    }
    bump(metrics_.requests);
    dispatch(conn, header, payload);
    if (stopping()) {
      close_reason = "shutdown";
      break;
    }
  }
  QBSS_LOG_INFO("conn.close", 0, A("conn", conn->id),
                A("reason", close_reason));
  if (abnormal) note_flight_trigger();
  // Hand this thread to the accept loop for joining. Pending responses
  // still hold Connection references, so writes in flight stay safe.
  const std::lock_guard<std::mutex> lock(readers_mu_);
  const auto it = readers_.find(conn->id);
  if (it != readers_.end()) {
    exited_.push_back(std::move(it->second.thread));
    readers_.erase(it);
  }
}

void ConnectionHost::dispatch(const std::shared_ptr<Connection>& conn,
                              const FrameHeader& frame,
                              const std::string& payload) {
  std::optional<obs::Span> span;
  if (metrics_.request != nullptr) span.emplace(*metrics_.request);
  const Clock::time_point received = Clock::now();
  const auto reply = [&](Status status, std::string_view body) {
    respond(*conn, frame.request_id, frame.trace_id, status, 0, body,
            elapsed_us(received));
  };
  Request request;
  std::string error;
  if (!parse_request(payload, &request, &error)) {
    bump(metrics_.errors);
    QBSS_LOG_WARN("req.error", frame.trace_id, A("conn", conn->id),
                  A("req", frame.request_id), A("message", error));
    reply(Status::kError, "message: " + error + "\n");
    return;
  }
  switch (request.verb) {
    case Verb::kPing:
      bump(metrics_.pings);
      reply(Status::kOk, "pong\n");
      return;
    case Verb::kShutdown:
      // Stops this process only: a router's backends are someone else's
      // processes and keep serving (stop them individually).
      reply(Status::kOk, "bye\n");
      shutdown();
      return;
    case Verb::kStats:
      // Answered inline on the reader thread, bypassing admission: the
      // whole point of live introspection is that it still works when
      // the queue is full or the server is degraded.
      bump(metrics_.stats_requests);
      reply(Status::kOk, stats_payload(request.stats_format));
      return;
    case Verb::kSolve:
      break;
  }
  handler_.on_solve(conn, frame, std::move(request), payload, received);
}

void ConnectionHost::join_readers(bool all) {
  std::vector<std::thread> done;
  {
    const std::lock_guard<std::mutex> lock(readers_mu_);
    done.swap(exited_);
    if (all) {
      for (auto& [id, reader] : readers_) {
        // Unblock a reader stuck in recv; the fd stays open (and its
        // number un-reused) until the last Connection reference drops.
        ::shutdown(reader.conn->fd, SHUT_RDWR);
        done.push_back(std::move(reader.thread));
      }
      readers_.clear();
    }
  }
  for (std::thread& reader : done) reader.join();
}

void ConnectionHost::respond(Connection& conn, std::uint64_t request_id,
                             std::uint64_t trace_id, Status status,
                             std::uint32_t flags, std::string_view payload,
                             double latency_us) {
  if (metrics_.latency != nullptr) metrics_.latency->record(latency_us);
  responses_.fetch_add(1, std::memory_order_relaxed);
  const faults::Action fault = QBSS_FAULT(faults::Site::kWrite);
  note_fault(fault, "write", trace_id, conn.id);
  if (fault.delay_ms > 0.0) sleep_ms(fault.delay_ms);
  QBSS_LOG_DEBUG("req.write", trace_id, A("conn", conn.id),
                 A("req", request_id), A("status", status_name(status)),
                 A("latency_us", latency_us));
  FrameHeader header;
  header.status = status;
  header.flags = flags;
  header.request_id = request_id;
  header.trace_id = trace_id;
  std::string error;
  const std::lock_guard<std::mutex> lock(conn.write_mu);
  if (fault.corrupt_header) {
    // Injected corruption: the frame goes out with a flipped magic byte,
    // so the client's decode must reject it and retry.
    static_cast<void>(write_corrupt_frame(conn.fd, header, payload, &error));
    return;
  }
  if (fault.drop_connection) {
    // Injected write error: the response vanishes with the connection.
    ::shutdown(conn.fd, SHUT_RDWR);
    return;
  }
  // A vanished client is not a failure; the write error is deliberately
  // dropped (EPIPE after shutdown is the normal case) — but a peer that
  // stopped draining responses is disconnected so it cannot wedge later
  // responses behind its full socket buffer.
  bool timed_out = false;
  if (!write_frame(conn.fd, header, payload, &error, &timed_out) &&
      timed_out) {
    bump(metrics_.timeout_write);
    ::shutdown(conn.fd, SHUT_RDWR);
  }
}

bool ConnectionHost::sleep_until_stop(double ms) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  return stop_cv_.wait_for(lock,
                           std::chrono::duration<double, std::milli>(ms),
                           [this] { return stopping(); });
}

void ConnectionHost::stats_loop() {
  const std::size_t cap = std::max<std::size_t>(config_.stats_ring, 1);
  // The first capture happens at startup, so the first stats reply
  // already has a real window instead of falling back to lifetime
  // averages.
  do {
    obs::Snapshot snap = obs::capture_snapshot(true);
    bump(metrics_.snapshots);
    const std::lock_guard<std::mutex> lock(ring_mu_);
    ring_.push_back(std::move(snap));
    while (ring_.size() > cap) ring_.pop_front();
  } while (!sleep_until_stop(config_.stats_interval_ms));
}

std::string ConnectionHost::stats_payload(const std::string& format) {
  obs::StatsFrame frame;
  frame.lifetime = obs::capture_snapshot(true);
  frame.uptime_seconds = frame.lifetime.uptime_seconds;
  frame.interval_ms = config_.stats_interval_ms;
  {
    // Ring disabled (--stats-interval-ms 0): the "window" degrades to
    // the whole lifetime, i.e. lifetime-average rates.
    static const obs::Snapshot kStart;
    const std::lock_guard<std::mutex> lock(ring_mu_);
    frame.window =
        obs::delta(ring_.empty() ? kStart : ring_.front(), frame.lifetime);
  }
  handler_.add_stats_extras(&frame.extra);
  std::ostringstream out;
  if (format == "prometheus") {
    obs::write_prometheus(out, frame);
  } else {
    io::write_json_stats(out, frame);
  }
  return out.str();
}

void ConnectionHost::write_manifest() {
  obs::Manifest manifest = obs::current_manifest();
  handler_.add_manifest_extras(&manifest);
  for (const auto& [key, value] : config_.manifest_extra) {
    manifest.extra.emplace_back(key, value);
  }
  if (std::ofstream out(config_.manifest_path); out) {
    io::write_json_manifest(out, manifest);
  }
}

}  // namespace qbss::svc
