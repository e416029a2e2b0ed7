#include "svc/protocol.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <vector>

#include "io/format.hpp"
#include "obs/span.hpp"
#include "qbss/avrq.hpp"
#include "qbss/avrq_m.hpp"
#include "qbss/bkpq.hpp"
#include "qbss/clairvoyant.hpp"
#include "qbss/crad.hpp"
#include "qbss/crcd.hpp"
#include "qbss/crp2d.hpp"
#include "qbss/oaq.hpp"
#include "qbss/transform.hpp"

namespace qbss::svc {

namespace {

void put_u32(unsigned char* out, std::uint32_t v) {
  out[0] = static_cast<unsigned char>(v & 0xff);
  out[1] = static_cast<unsigned char>((v >> 8) & 0xff);
  out[2] = static_cast<unsigned char>((v >> 16) & 0xff);
  out[3] = static_cast<unsigned char>((v >> 24) & 0xff);
}

void put_u64(unsigned char* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* in) {
  return static_cast<std::uint64_t>(get_u32(in)) |
         (static_cast<std::uint64_t>(get_u32(in + 4)) << 32);
}

/// Scatter/gather send: transmits every iovec in order, handling partial
/// writes (by advancing the iovec array in place) and EINTR; MSG_NOSIGNAL
/// (sendmsg rather than writev, which cannot pass flags) so a vanished
/// peer yields EPIPE instead of killing the process. An SO_SNDTIMEO
/// expiry sets *timed_out so callers can count it apart from a dead peer.
bool send_iov(int fd, iovec* iov, std::size_t count, std::string* error,
              bool* timed_out) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  std::size_t remaining = 0;
  for (std::size_t i = 0; i < count; ++i) remaining += iov[i].iov_len;
  while (remaining > 0) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (timed_out) *timed_out = true;
        if (error) *error = "send timed out";
        return false;
      }
      if (error) *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    remaining -= static_cast<std::size_t>(n);
    std::size_t advanced = static_cast<std::size_t>(n);
    while (advanced > 0 && msg.msg_iovlen > 0) {
      iovec& head = msg.msg_iov[0];
      if (advanced >= head.iov_len) {
        advanced -= head.iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      } else {
        head.iov_base = static_cast<char*>(head.iov_base) + advanced;
        head.iov_len -= advanced;
        advanced = 0;
      }
    }
  }
  return true;
}

/// Reads exactly `len` bytes. 1 = done, 0 = clean EOF before any byte,
/// -1 = recv failure, -2 = SO_RCVTIMEO expired, -3 = EOF mid-buffer
/// (the peer closed after delivering some but not all bytes).
int recv_all(int fd, void* data, std::size_t len, std::string* error) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (error) *error = "recv timed out";
        return -2;
      }
      if (error) *error = std::string("recv: ") + std::strerror(errno);
      return -1;
    }
    if (n == 0) {
      if (got == 0) return 0;
      if (error) *error = "connection closed mid-frame";
      return -3;
    }
    got += static_cast<std::size_t>(n);
  }
  return 1;
}

/// Hex digits of a double's bit pattern in a cache key.
constexpr std::size_t kKeyHex = 16;

/// Hex bit pattern of a double, -0.0 normalized to +0.0 — the exact,
/// canonical number form inside cache keys.
void append_double_bits(std::string& out, double v) {
  if (v == 0.0) v = 0.0;  // -0.0 == 0.0, assignment canonicalizes
  std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  char hex[kKeyHex];
  for (std::size_t i = kKeyHex; i-- > 0; bits >>= 4) {
    hex[i] = "0123456789abcdef"[bits & 0xf];
  }
  out.append(hex, kKeyHex);
}

/// Strips one "key: value" line; false when `line` is not of that shape.
bool split_field(std::string_view line, std::string_view* key,
                 std::string_view* value) {
  const std::size_t colon = line.find(": ");
  if (colon == std::string_view::npos) return false;
  *key = line.substr(0, colon);
  *value = line.substr(colon + 2);
  return true;
}

/// Appends one `key: value` line.
void put_field(std::string& out, std::string_view key, std::string_view value) {
  out += key;
  out += ": ";
  out += value;
  out += '\n';
}

/// max_digits10 rendering — payload numbers round-trip losslessly.
void put_number(std::string& out, std::string_view key, double value) {
  out += key;
  out += ": ";
  io::append_number(out, value);
  out += '\n';
}

/// The instance classes the offline policies are defined on. Their own
/// contracts abort outside them, which would take the whole server down
/// for one bad request; false + *error names the missing property.
bool in_policy_domain(const Request& request, std::string* error) {
  const std::string& algo = request.algo;
  if (algo != "crcd" && algo != "crp2d" && algo != "crad") return true;
  if (!request.instance.common_release()) {
    *error = algo + " needs a common release (every job released at 0)";
    return false;
  }
  if (algo == "crcd" && !request.instance.common_deadline()) {
    *error = "crcd needs a common deadline";
    return false;
  }
  if (algo == "crp2d") {
    for (const core::QJob& j : request.instance.jobs()) {
      if (!core::is_power_of_two(j.deadline)) {
        *error = "crp2d needs power-of-two deadlines";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void encode_header(const FrameHeader& header,
                   unsigned char out[kHeaderSize]) {
  put_u32(out, kMagic);
  put_u32(out + 4, static_cast<std::uint32_t>(header.status));
  put_u32(out + 8, header.flags);
  put_u32(out + 12, header.payload_len);
  put_u64(out + 16, header.request_id);
  put_u64(out + 24, header.trace_id);
}

bool decode_header(const unsigned char in[kHeaderSize], FrameHeader* header,
                   std::string* error) {
  if (const std::uint32_t magic = get_u32(in); magic != kMagic) {
    // "QSS2" little-endian keeps the version in the high byte: a right
    // prefix with a wrong version byte is a peer speaking a different
    // protocol revision (e.g. a QSS1 client predating the trace-id
    // field), which deserves a distinct diagnosis.
    if (error) {
      *error = (magic & 0x00ffffffu) == (kMagic & 0x00ffffffu)
                   ? "frame version mismatch"
                   : "bad frame magic";
    }
    return false;
  }
  const std::uint32_t status = get_u32(in + 4);
  if (status > static_cast<std::uint32_t>(Status::kError)) {
    if (error) *error = "unknown frame status";
    return false;
  }
  header->status = static_cast<Status>(status);
  header->flags = get_u32(in + 8);
  header->payload_len = get_u32(in + 12);
  header->request_id = get_u64(in + 16);
  header->trace_id = get_u64(in + 24);
  if (header->payload_len > kMaxPayload) {
    if (error) *error = "frame payload exceeds limit";
    return false;
  }
  return true;
}

bool write_frame(int fd, const FrameHeader& header, std::string_view payload,
                 std::string* error, bool* timed_out) {
  if (payload.size() > kMaxPayload) {
    if (error) *error = "payload exceeds frame limit";
    return false;
  }
  FrameHeader h = header;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  // Zero-copy framing: the header leaves from the stack and the payload
  // straight from the caller's buffer (for cache hits, the pinned shard
  // entry) via one scatter/gather sendmsg — no concatenation buffer, no
  // allocation, one syscall in the common case.
  unsigned char raw[kHeaderSize];
  encode_header(h, raw);
  iovec iov[2];
  iov[0].iov_base = raw;
  iov[0].iov_len = kHeaderSize;
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  return send_iov(fd, iov, payload.empty() ? 1 : 2, error, timed_out);
}

bool write_corrupt_frame(int fd, const FrameHeader& header,
                         std::string_view payload, std::string* error) {
  if (payload.size() > kMaxPayload) {
    if (error) *error = "payload exceeds frame limit";
    return false;
  }
  FrameHeader h = header;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  unsigned char raw[kHeaderSize];
  encode_header(h, raw);
  raw[0] ^= 0xff;  // byte-garbling peer: the magic no longer matches
  iovec iov[2];
  iov[0].iov_base = raw;
  iov[0].iov_len = kHeaderSize;
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  return send_iov(fd, iov, payload.empty() ? 1 : 2, error, nullptr);
}

ReadResult read_frame(int fd, FrameHeader* header, std::string* payload,
                      std::string* error) {
  unsigned char raw[kHeaderSize];
  const int rc = recv_all(fd, raw, kHeaderSize, error);
  if (rc == 0) return ReadResult::kEof;
  if (rc == -2) return ReadResult::kTimeout;
  if (rc < 0) return ReadResult::kError;
  if (!decode_header(raw, header, error)) return ReadResult::kBadFrame;
  payload->assign(header->payload_len, '\0');
  if (header->payload_len > 0) {
    const int prc = recv_all(fd, payload->data(), payload->size(), error);
    if (prc == -2) return ReadResult::kTimeout;
    if (prc != 1) {
      // Any EOF here is a torn read: the header promised payload_len
      // bytes, whether the peer closed exactly on the header/payload
      // boundary (prc == 0, a "clean" EOF from recv_all's point of
      // view) or partway through the body (prc == -3). Give both the
      // same typed error so callers (the retrying client in
      // particular) classify a torn response as a retryable transport
      // failure rather than a reply.
      if (error && (prc == 0 || prc == -3)) {
        *error = "connection closed mid-payload";
      }
      return ReadResult::kError;
    }
  }
  return ReadResult::kFrame;
}

void set_socket_timeouts(int fd, double recv_ms, double send_ms) {
  const auto to_timeval = [](double ms) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
    return tv;
  };
  if (recv_ms > 0.0) {
    const timeval tv = to_timeval(recv_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  if (send_ms > 0.0) {
    const timeval tv = to_timeval(send_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
}

std::string serialize_request(const Request& request) {
  switch (request.verb) {
    case Verb::kPing:
      return "qbss-svc/1 ping\n";
    case Verb::kShutdown:
      return "qbss-svc/1 shutdown\n";
    case Verb::kStats:
      if (request.stats_format != "json") {
        return "qbss-svc/1 stats\nformat: " + request.stats_format + "\n";
      }
      return "qbss-svc/1 stats\n";
    case Verb::kSolve:
      break;
  }
  // max_digits10 for the whole payload: the instance section must parse
  // back to the exact doubles the client keyed its cache check on.
  std::string out = "qbss-svc/1 solve\n";
  put_field(out, "algo", request.algo);
  put_number(out, "alpha", request.alpha);
  put_field(out, "machines", std::to_string(request.machines));
  put_field(out, "schedule", request.want_schedule ? "1" : "0");
  if (request.deadline_ms > 0.0) {
    put_number(out, "deadline_ms", request.deadline_ms);
  }
  out += "instance:\n";
  io::append_qinstance(out, request.instance);
  return out;
}

bool parse_request(std::string_view payload, Request* out,
                   std::string* error) {
  std::string_view line;
  if (!io::next_line(payload, &line)) {
    *error = "empty request";
    return false;
  }
  Request req;
  if (line == "qbss-svc/1 ping") {
    req.verb = Verb::kPing;
    *out = std::move(req);
    return true;
  }
  if (line == "qbss-svc/1 shutdown") {
    req.verb = Verb::kShutdown;
    *out = std::move(req);
    return true;
  }
  std::string_view key;
  std::string_view value;
  if (line == "qbss-svc/1 stats") {
    req.verb = Verb::kStats;
    while (io::next_line(payload, &line)) {
      if (!split_field(line, &key, &value)) {
        *error = "malformed stats field: " + std::string(line);
        return false;
      }
      if (key != "format") {
        *error = "unknown stats field: " + std::string(key);
        return false;
      }
      if (value != "json" && value != "prometheus") {
        *error = "stats format must be json or prometheus";
        return false;
      }
      req.stats_format = value;
    }
    *out = std::move(req);
    return true;
  }
  if (line != "qbss-svc/1 solve") {
    *error = "unknown request line: " + std::string(line);
    return false;
  }
  req.verb = Verb::kSolve;
  bool saw_instance = false;
  while (io::next_line(payload, &line)) {
    if (line == "instance:") {
      saw_instance = true;
      break;
    }
    if (!split_field(line, &key, &value)) {
      *error = "malformed request field: " + std::string(line);
      return false;
    }
    if (key == "algo") {
      req.algo = value;
    } else if (key == "alpha") {
      if (!io::parse_number(value, &req.alpha) || !(req.alpha > 1.0) ||
          !(req.alpha <= 100.0)) {
        *error = "alpha must be a number in (1, 100]";
        return false;
      }
    } else if (key == "machines") {
      double m = 0.0;
      if (!io::parse_number(value, &m) || m < 1.0 || m > 1024.0 ||
          m != static_cast<double>(static_cast<int>(m))) {
        *error = "machines must be an integer in [1, 1024]";
        return false;
      }
      req.machines = static_cast<int>(m);
    } else if (key == "schedule") {
      req.want_schedule = value == "1";
    } else if (key == "deadline_ms") {
      if (!io::parse_number(value, &req.deadline_ms) ||
          req.deadline_ms < 0.0) {
        *error = "deadline_ms must be a non-negative number";
        return false;
      }
    } else {
      *error = "unknown request field: " + std::string(key);
      return false;
    }
  }
  if (!saw_instance) {
    *error = "request has no instance section";
    return false;
  }
  io::Parsed<core::QInstance> parsed = io::read_qinstance(payload);
  if (!parsed) {
    *error = "instance line " + std::to_string(parsed.error.line) + ": " +
             parsed.error.message;
    return false;
  }
  req.instance = std::move(*parsed.value);
  *out = std::move(req);
  return true;
}

std::string cache_key(const Request& request) {
  // machines only shapes avrq_m results; canonicalize it away elsewhere
  // so identical single-machine requests share an entry.
  const std::string machines =
      request.algo == "avrq_m" ? std::to_string(request.machines) : "0";
  const std::string jobs = std::to_string(request.instance.size());
  std::string key;
  key.reserve(3 + request.algo.size() + 1 + machines.size() + 2 + 2 +
              kKeyHex + 2 + jobs.size() +
              request.instance.size() * (1 + 5 * kKeyHex));
  key += "v1|";
  key += request.algo;
  key += '|';
  key += machines;
  key += '|';
  key += request.want_schedule ? '1' : '0';
  key += "|a";
  append_double_bits(key, request.alpha);
  key += "|n";
  key += jobs;
  for (const core::QJob& j : request.instance.jobs()) {
    key += '|';
    append_double_bits(key, j.release);
    append_double_bits(key, j.deadline);
    append_double_bits(key, j.query_cost);
    append_double_bits(key, j.upper_bound);
    append_double_bits(key, j.exact_load);
  }
  return key;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

bool solve_request(const Request& request, std::string* payload,
                   std::string* error) {
  QBSS_SPAN("svc.solve");
  if (request.instance.empty()) {
    *error = "empty instance";
    return false;
  }
  if (!in_policy_domain(request, error)) return false;
  const double alpha = request.alpha;
  // max_digits10 throughout: the classical section must carry the exact
  // doubles the schedule was computed against, or re-validation of the
  // (bit-exact) schedule dump fails on rounded deadlines and works.
  std::string out;

  if (request.algo == "avrq_m") {
    if (request.want_schedule) {
      *error = "schedule dump is not supported for avrq_m";
      return false;
    }
    const core::QbssMultiRun run =
        core::avrq_m(request.instance, request.machines);
    const bool valid =
        core::validate_multi_run(request.instance, run).feasible;
    int queried = 0;
    for (const bool q : run.expansion.queried) queried += q ? 1 : 0;
    put_field(out, "algo", "avrq_m");
    put_number(out, "alpha", alpha);
    put_field(out, "jobs", std::to_string(request.instance.size()));
    put_field(out, "machines", std::to_string(request.machines));
    put_field(out, "queried", std::to_string(queried));
    put_field(out, "valid", valid ? "1" : "0");
    put_number(out, "energy", run.energy(alpha));
    put_number(out, "max_speed", run.max_speed());
    *payload = std::move(out);
    return true;
  }

  core::QbssRun run;
  scheduling::Instance classical;
  bool valid = false;
  int queried = 0;
  if (request.algo == "opt") {
    // Clairvoyant optimum: one part per job on the reduced instance.
    classical = core::clairvoyant_instance(request.instance);
    const scheduling::Schedule schedule =
        core::clairvoyant_schedule(request.instance);
    valid = scheduling::validate(classical, schedule).feasible;
    for (const core::QJob& j : request.instance.jobs()) {
      queried += j.optimum_queries() ? 1 : 0;
    }
    put_field(out, "algo", "opt");
    put_number(out, "alpha", alpha);
    put_field(out, "jobs", std::to_string(request.instance.size()));
    put_field(out, "queried", std::to_string(queried));
    put_field(out, "valid", valid ? "1" : "0");
    put_number(out, "energy", schedule.energy(alpha));
    put_number(out, "max_speed", schedule.max_speed());
    if (request.want_schedule) {
      out += "classical:\n";
      io::append_instance(out, classical);
      out += "schedule:\n";
      io::append_schedule(out, schedule, alpha);
    }
    *payload = std::move(out);
    return true;
  }

  if (request.algo == "crcd") {
    run = core::crcd(request.instance);
  } else if (request.algo == "crp2d") {
    run = core::crp2d(request.instance);
  } else if (request.algo == "crad") {
    run = core::crad(request.instance);
  } else if (request.algo == "avrq") {
    run = core::avrq(request.instance);
  } else if (request.algo == "bkpq") {
    run = core::bkpq(request.instance);
  } else if (request.algo == "oaq") {
    run = core::oaq(request.instance);
  } else {
    *error = "unknown algorithm: " + request.algo;
    return false;
  }
  valid = core::validate_run(request.instance, run).feasible;
  for (const bool q : run.expansion.queried) queried += q ? 1 : 0;
  put_field(out, "algo", request.algo);
  put_number(out, "alpha", alpha);
  put_field(out, "jobs", std::to_string(request.instance.size()));
  put_field(out, "queried", std::to_string(queried));
  put_field(out, "valid", valid ? "1" : "0");
  put_number(out, "energy", run.energy(alpha));
  put_number(out, "max_speed", run.max_speed());
  if (request.want_schedule) {
    out += "classical:\n";
    io::append_instance(out, run.expansion.classical);
    out += "schedule:\n";
    io::append_schedule(out, run.schedule, alpha);
  }
  *payload = std::move(out);
  return true;
}

bool parse_solve_result(std::string_view payload, SolveResult* out,
                        std::string* error) {
  std::string_view line;
  SolveResult result;
  enum class Section { kFields, kClassical, kSchedule };
  Section section = Section::kFields;
  bool saw_energy = false;
  std::string_view key;
  std::string_view value;
  while (io::next_line(payload, &line)) {
    if (line == "classical:") {
      section = Section::kClassical;
      continue;
    }
    if (line == "schedule:") {
      section = Section::kSchedule;
      continue;
    }
    if (section == Section::kClassical) {
      result.classical_text += line;
      result.classical_text += '\n';
      continue;
    }
    if (section == Section::kSchedule) {
      result.schedule_text += line;
      result.schedule_text += '\n';
      continue;
    }
    if (!split_field(line, &key, &value)) {
      *error = "malformed result field: " + std::string(line);
      return false;
    }
    if (key == "algo") {
      result.algo = value;
    } else if (key == "alpha") {
      if (!io::parse_number(value, &result.alpha)) {
        *error = "bad alpha: " + std::string(value);
        return false;
      }
    } else if (key == "jobs" || key == "machines" || key == "queried") {
      double v = 0.0;
      if (!io::parse_number(value, &v) || v < 0.0) {
        *error = "bad " + std::string(key) + ": " + std::string(value);
        return false;
      }
      if (key == "jobs") result.jobs = static_cast<std::size_t>(v);
      if (key == "machines") result.machines = static_cast<int>(v);
      if (key == "queried") result.queried = static_cast<int>(v);
    } else if (key == "valid") {
      result.valid = value == "1";
    } else if (key == "energy") {
      if (!io::parse_number(value, &result.energy)) {
        *error = "bad energy: " + std::string(value);
        return false;
      }
      saw_energy = true;
    } else if (key == "max_speed") {
      if (!io::parse_number(value, &result.max_speed)) {
        *error = "bad max_speed: " + std::string(value);
        return false;
      }
    } else {
      *error = "unknown result field: " + std::string(key);
      return false;
    }
  }
  if (result.algo.empty() || !saw_energy) {
    *error = "result payload missing algo/energy fields";
    return false;
  }
  *out = std::move(result);
  return true;
}

}  // namespace qbss::svc
