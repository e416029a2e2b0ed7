// qbss::svc wire protocol — length-prefixed frames carrying text
// request/response payloads over a stream socket (Unix-domain or TCP).
//
// Frame layout (32-byte little-endian header, then `payload_len` bytes):
//
//     u32 magic        "QSS2" (0x32535351)
//     u32 status       request: 0; response: 0 ok / 1 shed / 2 error
//     u32 flags        response bit 0: served from the result cache;
//                      bit 1: the hit came from the on-disk tier
//     u32 payload_len  <= 64 MiB
//     u64 request_id   echoed verbatim in the response
//     u64 trace_id     client-stamped; echoed verbatim in the response
//
// The trace id keys the server's sampled per-request span chains (see
// docs/SERVICE.md "Wire tracing"); 0 means "untraced". Bumping the
// version byte from QSS1 added it — an old peer gets the distinct
// version-mismatch error, not a silent misparse.
//
// The cache-hit bit lives in the *header* so a cached response's payload
// stays byte-identical to the uncached one — the loadgen asserts exactly
// that. Payloads are line-oriented text (`key: value` fields, then named
// sections) reusing the io::format instance/schedule grammar, so served
// schedules re-validate through the ordinary readers. docs/SERVICE.md
// documents the grammar; docs/FORMATS.md the frame layout.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "qbss/qinstance.hpp"

namespace qbss::svc {

inline constexpr std::uint32_t kMagic = 0x32535351;  // "QSS2" on the wire
inline constexpr std::uint32_t kMaxPayload = 64u << 20;
inline constexpr std::size_t kHeaderSize = 32;
inline constexpr std::uint32_t kFlagCacheHit = 1u;
/// The hit was served from the on-disk segment store (set together with
/// kFlagCacheHit; the payload bytes are identical either way — tiering
/// is visible only in the header flags).
inline constexpr std::uint32_t kFlagDiskHit = 2u;

/// Response disposition. Requests always carry kOk.
enum class Status : std::uint32_t {
  kOk = 0,     ///< result payload follows
  kShed = 1,   ///< load-shedding: queue full or deadline expired
  kError = 2,  ///< malformed request or failed computation
};

/// Decoded frame header (magic and length checks live in decode).
struct FrameHeader {
  Status status = Status::kOk;
  std::uint32_t flags = 0;
  std::uint32_t payload_len = 0;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;  ///< 0 = untraced
};

/// Serializes `header` into the 32-byte little-endian wire form.
void encode_header(const FrameHeader& header,
                   unsigned char out[kHeaderSize]);

/// Parses a wire header; false (with *error set) on bad magic, a
/// protocol-version mismatch (right "QSS" prefix, wrong version byte),
/// unknown status or an over-limit payload length.
[[nodiscard]] bool decode_header(const unsigned char in[kHeaderSize],
                                 FrameHeader* header, std::string* error);

/// Outcome of read_frame.
enum class ReadResult {
  kFrame,     ///< a complete, well-formed frame
  kEof,       ///< the stream ended cleanly between frames
  kError,     ///< recv failure or a torn header/payload
  kBadFrame,  ///< a full header arrived but failed decode_header
  kTimeout,   ///< SO_RCVTIMEO expired (slowloris / stalled peer)
};

/// Writes one frame (header + payload) to `fd`, handling partial writes
/// and EINTR; never raises SIGPIPE. False + *error on failure;
/// *timed_out (when non-null) distinguishes an SO_SNDTIMEO expiry from
/// a vanished peer.
[[nodiscard]] bool write_frame(int fd, const FrameHeader& header,
                               std::string_view payload, std::string* error,
                               bool* timed_out = nullptr);

/// Fault-injection / test helper: writes the frame with its magic byte
/// flipped, so the peer's decode_header must reject it.
[[nodiscard]] bool write_corrupt_frame(int fd, const FrameHeader& header,
                                       std::string_view payload,
                                       std::string* error);

/// Reads one frame from `fd`. kEof only when the stream ends cleanly
/// between frames; a torn header or payload is kError; a header that
/// fails validation is kBadFrame (the caller can still answer with a
/// typed error frame before closing); an SO_RCVTIMEO expiry is kTimeout.
[[nodiscard]] ReadResult read_frame(int fd, FrameHeader* header,
                                    std::string* payload, std::string* error);

/// Applies SO_RCVTIMEO / SO_SNDTIMEO to `fd` (either value <= 0 leaves
/// that direction blocking forever). Server connections use it as the
/// slowloris defense; clients use it as the per-attempt timeout.
void set_socket_timeouts(int fd, double recv_ms, double send_ms);

/// What a request asks the server to do.
enum class Verb { kSolve, kPing, kShutdown, kStats };

/// One decoded request. `deadline_ms` bounds the time a solve may sit in
/// the admission queue (0 = unbounded); `want_schedule` asks for the
/// expanded classical instance and schedule dump in the response.
/// `stats_format` applies to kStats only: "json" or "prometheus".
struct Request {
  Verb verb = Verb::kSolve;
  std::string algo = "bkpq";
  double alpha = 3.0;
  int machines = 4;
  bool want_schedule = false;
  double deadline_ms = 0.0;
  std::string stats_format = "json";
  core::QInstance instance;
};

/// Renders the text payload for `request`.
[[nodiscard]] std::string serialize_request(const Request& request);

/// Parses a request payload; false + *error on malformed input (errors
/// inside the instance section carry the section-relative line number).
[[nodiscard]] bool parse_request(std::string_view payload, Request* out,
                                 std::string* error);

/// Canonical result-cache key: an exact (collision-free) serialization
/// of every result-determining field — algo, alpha bit pattern,
/// machines (for avrq_m only), the schedule flag, and each job's five
/// doubles as bit patterns with -0.0 normalized to +0.0. Two requests
/// share a key iff the server would produce byte-identical payloads.
[[nodiscard]] std::string cache_key(const Request& request);

/// 64-bit FNV-1a — the cache's shard selector.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// Runs the requested policy and renders the canonical ok-payload
/// (deterministic: equal requests give byte-identical payloads). False +
/// *error on unknown algo, empty instance, or an unsupported combination
/// (schedule dump for avrq_m).
[[nodiscard]] bool solve_request(const Request& request, std::string* payload,
                                 std::string* error);

/// Parsed form of a solve ok-payload (loadgen / test side).
struct SolveResult {
  std::string algo;
  double alpha = 0.0;
  std::size_t jobs = 0;
  int machines = 0;  ///< 0 unless the avrq_m path answered
  int queried = 0;
  bool valid = false;
  double energy = 0.0;
  double max_speed = 0.0;
  std::string classical_text;  ///< 3-column section, empty if absent
  std::string schedule_text;   ///< schedule dump section, empty if absent
};

/// Parses a solve ok-payload; false + *error on malformed input.
[[nodiscard]] bool parse_solve_result(std::string_view payload,
                                      SolveResult* out, std::string* error);

}  // namespace qbss::svc
