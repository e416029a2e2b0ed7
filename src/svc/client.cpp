#include "svc/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace qbss::svc {

namespace {

/// splitmix64 step — well-mixed 64-bit ids from a cheap counter.
std::uint64_t splitmix64(std::uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::connect_unix(const std::string& path, std::string* error) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error) *error = "socket path too long";
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    if (error) *error = "connect " + path + ": " + std::strerror(errno);
    close();
    return false;
  }
  set_socket_timeouts(fd_, timeout_ms_, timeout_ms_);
  return true;
}

bool Client::connect_tcp(int port, std::string* error) {
  return connect_tcp(std::string(), port, error);
}

bool Client::connect_tcp(const std::string& host, int port,
                         std::string* error) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad host \"" + host + "\" (want an IPv4 literal)";
    close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    if (error) {
      *error = "connect " + (host.empty() ? std::string("127.0.0.1") : host) +
               ":" + std::to_string(port) + ": " + std::strerror(errno);
    }
    close();
    return false;
  }
  set_socket_timeouts(fd_, timeout_ms_, timeout_ms_);
  return true;
}

bool Client::connect(const Endpoint& endpoint, std::string* error) {
  if (!endpoint.socket_path.empty()) {
    return connect_unix(endpoint.socket_path, error);
  }
  if (endpoint.tcp_port != 0) {
    return connect_tcp(endpoint.host, endpoint.tcp_port, error);
  }
  if (error) *error = "empty endpoint";
  return false;
}

void Client::set_timeout_ms(double ms) {
  timeout_ms_ = ms;
  if (fd_ >= 0) set_socket_timeouts(fd_, timeout_ms_, timeout_ms_);
}

std::uint64_t Client::make_trace_id() {
  if (pinned_trace_id_ != 0) {
    const std::uint64_t id = pinned_trace_id_;
    pinned_trace_id_ = 0;  // one-shot pin
    return id;
  }
  if (trace_seed_ == 0) {
    // Distinct streams per client object and process without any global
    // coordination: mix the object address, pid, and the clock.
    trace_seed_ =
        reinterpret_cast<std::uintptr_t>(this) ^
        (static_cast<std::uint64_t>(::getpid()) << 32) ^
        static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
  }
  std::uint64_t id = splitmix64(&trace_seed_);
  if (id == 0) id = 1;  // 0 means "untraced" on the wire
  return id;
}

bool Client::call(const Request& request, Reply* reply, std::string* error) {
  return call_payload(serialize_request(request), reply, error);
}

bool Client::call_payload(std::string_view payload, Reply* reply,
                          std::string* error) {
  if (fd_ < 0) {
    if (error) *error = "not connected";
    return false;
  }
  FrameHeader header;
  header.request_id = next_id_++;
  header.trace_id = make_trace_id();
  last_trace_id_ = header.trace_id;
  if (!write_frame(fd_, header, payload, error)) return false;
  // One outstanding request per connection: the next response frame with
  // our id is the answer (ids catch desynchronized peers).
  FrameHeader response;
  std::string body;
  const ReadResult rc = read_frame(fd_, &response, &body, error);
  if (rc == ReadResult::kEof) {
    if (error) *error = "server closed the connection";
    return false;
  }
  if (rc == ReadResult::kTimeout) {
    if (error) *error = "response timed out";
    return false;
  }
  if (rc == ReadResult::kBadFrame) {
    // A corrupted response header: the stream is unusable, but the
    // caller can reconnect and retry (solves are idempotent by key).
    if (error) *error = "malformed response frame: " + *error;
    return false;
  }
  if (rc == ReadResult::kError) return false;
  if (response.request_id != header.request_id) {
    if (error) *error = "response id mismatch";
    return false;
  }
  reply->status = response.status;
  reply->cache_hit = (response.flags & kFlagCacheHit) != 0;
  reply->disk_hit = (response.flags & kFlagDiskHit) != 0;
  reply->trace_id = response.trace_id;
  reply->payload = std::move(body);
  return true;
}

bool Client::ping(std::string* error) {
  Request request;
  request.verb = Verb::kPing;
  Reply reply;
  if (!call(request, &reply, error)) return false;
  if (reply.status != Status::kOk) {
    if (error) *error = "ping rejected";
    return false;
  }
  return true;
}

bool Client::stats(const std::string& format, Reply* reply,
                   std::string* error) {
  Request request;
  request.verb = Verb::kStats;
  request.stats_format = format;
  if (!call(request, reply, error)) return false;
  if (reply->status != Status::kOk) {
    if (error) *error = "stats rejected: " + reply->payload;
    return false;
  }
  return true;
}

bool Client::shutdown_server(std::string* error) {
  Request request;
  request.verb = Verb::kShutdown;
  Reply reply;
  return call(request, &reply, error) && reply.status == Status::kOk;
}

}  // namespace qbss::svc
