#include "obs/log.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace qbss::obs {

namespace {

static_assert(std::is_trivially_copyable_v<LogEvent>,
              "ring slots are seqlock-copied; a torn copy must be a torn "
              "byte pattern, never undefined behavior");
static_assert(sizeof(LogEvent) % sizeof(std::uint64_t) == 0 &&
                  offsetof(LogEvent, ts_ns) % sizeof(std::uint64_t) == 0,
              "ring slots hold an event as whole 64-bit words");
static_assert((kRingCapacity & (kRingCapacity - 1)) == 0,
              "ring indexing masks, so the capacity must be a power of two");

constexpr std::size_t kEventWords = sizeof(LogEvent) / sizeof(std::uint64_t);
constexpr std::size_t kTsWord =
    offsetof(LogEvent, ts_ns) / sizeof(std::uint64_t);

// ---------------------------------------------------------------------------
// Per-thread rings.
//
// Each logging thread owns one single-writer ring. The writer publishes
// a slot with a per-slot sequence stamp (0 while the copy is in
// progress, index+1 once whole), so concurrent readers — the flusher
// and the flight dumper — validate the stamp around their copy and skip
// slots the writer lapped mid-read. The writer itself never waits.
//
// The event itself is stored as 64-bit atomic words, so a reader racing
// the writer reads stale or torn values, never a data race. Each word
// store is a release and each word load an acquire: a reader that sees
// any word of a newer event therefore also sees that event's `seq = 0`
// store, and its re-check of `seq` fails.
// ---------------------------------------------------------------------------

struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> words[kEventWords];
};

class Ring {
 public:
  void push(const LogEvent& ev) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[h & (kRingCapacity - 1)];
    const auto* bytes = reinterpret_cast<const unsigned char*>(&ev);
    slot.seq.store(0, std::memory_order_release);
    for (std::size_t w = 0; w < kEventWords; ++w) {
      std::uint64_t word = 0;
      std::memcpy(&word, bytes + w * sizeof word, sizeof word);
      slot.words[w].store(word, std::memory_order_release);
    }
    slot.seq.store(h + 1, std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t head() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Seqlock copy of event index `i`; false when the writer overwrote
  /// the slot before or during the copy.
  bool read(std::uint64_t i, LogEvent* out) const noexcept {
    const Slot& slot = slots_[i & (kRingCapacity - 1)];
    if (slot.seq.load(std::memory_order_acquire) != i + 1) return false;
    auto* bytes = reinterpret_cast<unsigned char*>(out);
    for (std::size_t w = 0; w < kEventWords; ++w) {
      const std::uint64_t word = slot.words[w].load(std::memory_order_acquire);
      std::memcpy(bytes + w * sizeof word, &word, sizeof word);
    }
    return slot.seq.load(std::memory_order_relaxed) == i + 1;
  }

  /// Like read() but copies only the timestamp (the merge's sort key).
  bool peek_ts(std::uint64_t i, std::uint64_t* ts) const noexcept {
    const Slot& slot = slots_[i & (kRingCapacity - 1)];
    if (slot.seq.load(std::memory_order_acquire) != i + 1) return false;
    *ts = slot.words[kTsWord].load(std::memory_order_acquire);
    return slot.seq.load(std::memory_order_relaxed) == i + 1;
  }

  std::uint64_t flushed = 0;  ///< sink cursor; sink-mutex guarded
  std::atomic<bool> in_use{false};

 private:
  std::atomic<std::uint64_t> head_{0};
  Slot slots_[kRingCapacity];
};

// The ring table is a fixed array of atomics — no mutex, so the flight
// dumper can walk it from a signal handler. Rings are heap-allocated
// once and never freed: a dead thread's ring keeps its retained events
// dumpable and is recycled by the next new thread.
constexpr std::size_t kMaxRings = 256;
std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<std::size_t> g_ring_count{0};

std::atomic<std::uint64_t> g_recorded{0};
std::atomic<std::uint8_t> g_level{static_cast<std::uint8_t>(LogLevel::kInfo)};
std::atomic<bool> g_sink_on{false};

char g_flight_path[512] = {0};
std::atomic<bool> g_flight_path_set{false};

Ring* acquire_ring() {
  const std::size_t count =
      std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
  for (std::size_t i = 0; i < count; ++i) {
    Ring* ring = g_rings[i].load(std::memory_order_acquire);
    bool expected = false;
    if (ring != nullptr &&
        ring->in_use.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      return ring;
    }
  }
  const std::size_t slot =
      g_ring_count.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= kMaxRings) return nullptr;  // table full: this thread drops
  Ring* ring = new Ring();
  ring->in_use.store(true, std::memory_order_relaxed);
  g_rings[slot].store(ring, std::memory_order_release);
  return ring;
}

/// The calling thread's ring (acquired on first use, released — for
/// recycling, with events retained — when the thread exits).
Ring* thread_ring() noexcept {
  struct TlRing {
    Ring* ring = nullptr;
    bool attempted = false;
    ~TlRing() {
      if (ring != nullptr) ring->in_use.store(false, std::memory_order_release);
    }
  };
  thread_local TlRing tl;
  if (!tl.attempted) {
    tl.attempted = true;
    tl.ring = acquire_ring();
  }
  return tl.ring;
}

// ---------------------------------------------------------------------------
// NDJSON formatting into a fixed buffer (no allocation; usable from the
// crash handler modulo snprintf for doubles, which is best-effort).
// ---------------------------------------------------------------------------

class LineBuffer {
 public:
  [[nodiscard]] const char* data() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  void clear() noexcept { len_ = 0; }

  void put(char c) noexcept {
    if (len_ < sizeof(buf_)) buf_[len_++] = c;
  }
  void append(const char* s) noexcept {
    for (; *s != '\0'; ++s) put(*s);
  }
  void append_escaped(const char* s) noexcept {
    if (s == nullptr) return;
    for (; *s != '\0'; ++s) {
      const char c = *s;
      if (c == '"' || c == '\\') {
        put('\\');
        put(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        // Control characters degrade to spaces: log lines stay one line.
        put(' ');
      } else {
        put(c);
      }
    }
  }
  void append_u64(std::uint64_t v) noexcept {
    char digits[20];
    std::size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) put(digits[--n]);
  }
  void append_i64(std::int64_t v) noexcept {
    std::uint64_t mag = static_cast<std::uint64_t>(v);
    if (v < 0) {
      put('-');
      mag = ~mag + 1;
    }
    append_u64(mag);
  }
  void append_hex(std::uint64_t v) noexcept {
    char digits[16];
    std::size_t n = 0;
    do {
      digits[n++] = "0123456789abcdef"[v & 0xf];
      v >>= 4;
    } while (v != 0);
    while (n > 0) put(digits[--n]);
  }
  void append_double(double v) noexcept {
    char tmp[40];
    const int n = std::snprintf(tmp, sizeof tmp, "%.6g", v);
    if (n <= 0) {
      append("0");
      return;
    }
    // NDJSON numbers cannot be nan/inf; those degrade to strings.
    const bool finite = tmp[0] != 'n' && tmp[0] != 'i' &&
                        !(tmp[0] == '-' && (tmp[1] == 'n' || tmp[1] == 'i'));
    if (!finite) put('"');
    append(tmp);
    if (!finite) put('"');
  }

 private:
  char buf_[4096];
  std::size_t len_ = 0;
};

void format_ndjson(const LogEvent& ev, LineBuffer* out) noexcept {
  out->append("{\"ts_ns\":");
  out->append_u64(ev.ts_ns);
  out->append(",\"level\":\"");
  out->append(level_name(ev.level));
  out->append("\",\"event\":\"");
  out->append_escaped(ev.event);
  out->append("\",\"trace_id\":\"0x");
  out->append_hex(ev.trace_id);
  out->append("\",\"thread\":");
  out->append_i64(ev.thread);
  const std::size_t nargs =
      std::min<std::size_t>(ev.nargs, LogEvent::kMaxArgs);
  for (std::size_t i = 0; i < nargs; ++i) {
    const LogArg& arg = ev.args[i];
    out->append(",\"");
    out->append_escaped(arg.key);
    out->append("\":");
    switch (arg.type) {
      case LogArg::Type::kU64:
        out->append_u64(arg.num.u);
        break;
      case LogArg::Type::kI64:
        out->append_i64(arg.num.i);
        break;
      case LogArg::Type::kF64:
        out->append_double(arg.num.f);
        break;
      case LogArg::Type::kHex:
        out->append("\"0x");
        out->append_hex(arg.num.u);
        out->put('"');
        break;
      case LogArg::Type::kStr:
      case LogArg::Type::kNone:
        out->put('"');
        out->append_escaped(arg.str);
        out->put('"');
        break;
    }
  }
  out->append("}\n");
}

// ---------------------------------------------------------------------------
// The sink: a FILE* plus the background flusher that drains rings into
// it. All sink state — including each ring's `flushed` cursor — is
// guarded by one mutex; the hot path never touches any of it.
// ---------------------------------------------------------------------------

struct Sink {
  std::mutex mu;
  std::FILE* out = nullptr;
  bool owned = false;
  std::thread flusher;
  std::condition_variable cv;
  bool flusher_running = false;
  bool stop = false;

  Sink() {
    // Touch the registry first so it outlives this sink: the final
    // drain below still counts into it during static destruction.
    registry();
  }
  ~Sink();
};

Sink& sink();

/// Drains every ring into the sink, severity-filtered and
/// timestamp-ordered. Requires sink().mu held.
void drain_locked(Sink& s) {
  if (s.out == nullptr) return;
  const std::uint8_t threshold = g_level.load(std::memory_order_relaxed);
  const std::size_t count =
      std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
  std::vector<LogEvent> pending;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head();
    std::uint64_t lo = ring->flushed;
    if (head > kRingCapacity && lo < head - kRingCapacity) {
      // The writer lapped the flusher: those events survive only in the
      // flight-recorder window now, not in the sink stream.
      dropped += (head - kRingCapacity) - lo;
      lo = head - kRingCapacity;
    }
    for (std::uint64_t idx = lo; idx < head; ++idx) {
      LogEvent ev;
      if (!ring->read(idx, &ev)) {
        ++dropped;
        continue;
      }
      if (static_cast<std::uint8_t>(ev.level) >= threshold) {
        pending.push_back(ev);
      }
    }
    ring->flushed = head;
  }
  if (dropped > 0) QBSS_COUNT_ADD("log.dropped", dropped);
  if (pending.empty()) return;
  std::stable_sort(pending.begin(), pending.end(),
                   [](const LogEvent& a, const LogEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  LineBuffer line;
  for (const LogEvent& ev : pending) {
    line.clear();
    format_ndjson(ev, &line);
    std::fwrite(line.data(), 1, line.size(), s.out);
  }
  std::fflush(s.out);
  QBSS_COUNT_ADD("log.flushed", pending.size());
}

void flusher_main() {
  Sink& s = sink();
  std::unique_lock<std::mutex> lock(s.mu);
  while (!s.stop) {
    s.cv.wait_for(lock, std::chrono::milliseconds(50),
                  [&s] { return s.stop; });
    drain_locked(s);
  }
}

void close_output_locked(Sink& s) {
  if (s.out != nullptr && s.owned) std::fclose(s.out);
  s.out = nullptr;
  s.owned = false;
  g_sink_on.store(false, std::memory_order_release);
}

Sink::~Sink() {
  {
    const std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv.notify_all();
  if (flusher.joinable()) flusher.join();
  const std::lock_guard<std::mutex> lock(mu);
  drain_locked(*this);  // whatever the last tick missed
  close_output_locked(*this);
}

Sink& sink() {
  static Sink instance;
  return instance;
}

// ---------------------------------------------------------------------------
// Flight dump + crash handler.
// ---------------------------------------------------------------------------

/// The effective dump destination: `path` if given, else the configured
/// flight path, else "flight-<pid>.ndjson" built into `scratch`.
const char* resolve_flight_path(const char* path, char* scratch,
                                std::size_t scratch_len) noexcept {
  if (path != nullptr && *path != '\0') return path;
  if (g_flight_path_set.load(std::memory_order_acquire)) {
    return g_flight_path;
  }
  LineBuffer name;
  name.append("flight-");
  name.append_u64(static_cast<std::uint64_t>(::getpid()));
  name.append(".ndjson");
  const std::size_t n = std::min(name.size(), scratch_len - 1);
  std::memcpy(scratch, name.data(), n);
  scratch[n] = '\0';
  return scratch;
}

void write_all(int fd, const char* data, std::size_t len) noexcept {
  while (len > 0) {
    const ::ssize_t n = ::write(fd, data, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

std::atomic<bool> g_crash_dumping{false};

extern "C" void qbss_crash_handler(int sig) {
  if (!g_crash_dumping.exchange(true, std::memory_order_acq_rel)) {
    char scratch[64];
    const char* path = resolve_flight_path(nullptr, scratch, sizeof scratch);
    const long events = dump_flight_recorder(path);
    LineBuffer msg;
    msg.append("qbss: fatal signal ");
    msg.append_i64(sig);
    if (events >= 0) {
      msg.append("; flight recorder (");
      msg.append_i64(events);
      msg.append(" events) -> ");
      msg.append(path);
    } else {
      msg.append("; flight recorder dump failed");
    }
    msg.put('\n');
    write_all(2, msg.data(), msg.size());
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      break;
  }
  return "off";
}

bool parse_log_level(std::string_view text, LogLevel* out) noexcept {
  if (text == "debug") *out = LogLevel::kDebug;
  else if (text == "info") *out = LogLevel::kInfo;
  else if (text == "warn") *out = LogLevel::kWarn;
  else if (text == "error" || text == "err") *out = LogLevel::kError;
  else if (text == "off") *out = LogLevel::kOff;
  else return false;
  return true;
}

void log_event(LogLevel level, const char* event, std::uint64_t trace_id,
               std::initializer_list<LogArg> args) noexcept {
  Ring* ring = thread_ring();
  QBSS_COUNT("log.events");
  if (ring == nullptr) {
    QBSS_COUNT("log.dropped");
    return;
  }
  LogEvent ev;
  ev.ts_ns = now_ns();
  ev.trace_id = trace_id;
  ev.event = event == nullptr ? "" : event;
  ev.level = level;
  ev.thread = current_thread_id();
  for (const LogArg& arg : args) {
    if (ev.nargs >= LogEvent::kMaxArgs) break;
    ev.args[ev.nargs++] = arg;
  }
  ring->push(ev);
  g_recorded.fetch_add(1, std::memory_order_relaxed);
}

void set_log_level(LogLevel level) noexcept {
  g_level.store(static_cast<std::uint8_t>(level), std::memory_order_relaxed);
}

LogLevel log_level() noexcept {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

bool set_log_sink(const std::string& path, std::string* error) {
  Sink& s = sink();
  std::unique_lock<std::mutex> lock(s.mu);
  drain_locked(s);  // the old sink gets everything up to the switch
  close_output_locked(s);
  if (path.empty()) return true;
  if (path == "stderr" || path == "-") {
    s.out = stderr;
    s.owned = false;
  } else {
    s.out = std::fopen(path.c_str(), "w");
    if (s.out == nullptr) {
      if (error) {
        *error = "cannot open log sink " + path + ": " + std::strerror(errno);
      }
      return false;
    }
    s.owned = true;
  }
  // A fresh sink starts at the stream head: it should not replay every
  // event still retained in the rings from before it existed.
  const std::size_t count =
      std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
  for (std::size_t i = 0; i < count; ++i) {
    Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring != nullptr) ring->flushed = ring->head();
  }
  g_sink_on.store(true, std::memory_order_release);
  if (!s.flusher_running) {
    s.flusher_running = true;
    s.flusher = std::thread(flusher_main);
  }
  return true;
}

bool log_sink_enabled() noexcept {
  return g_sink_on.load(std::memory_order_acquire);
}

bool configure_log_from_env(std::string* error) {
  const char* env = std::getenv("QBSS_LOG");
  if (env == nullptr || *env == '\0') return true;
  LogLevel level = LogLevel::kInfo;
  if (!parse_log_level(env, &level)) {
    if (error) {
      *error = std::string("QBSS_LOG: unknown level \"") + env +
               "\" (want debug|info|warn|error|off)";
    }
    return false;
  }
  set_log_level(level);
  return true;
}

void flush_logs() {
  Sink& s = sink();
  const std::lock_guard<std::mutex> lock(s.mu);
  drain_locked(s);
}

std::uint64_t log_events_recorded() noexcept {
  return g_recorded.load(std::memory_order_relaxed);
}

void set_flight_path(std::string_view path) noexcept {
  if (path.empty()) {
    g_flight_path_set.store(false, std::memory_order_release);
    return;
  }
  const std::size_t n =
      std::min(path.size(), sizeof(g_flight_path) - 1);
  std::memcpy(g_flight_path, path.data(), n);
  g_flight_path[n] = '\0';
  g_flight_path_set.store(true, std::memory_order_release);
}

long dump_flight_recorder(const char* path) noexcept {
  char scratch[64];
  const char* target = resolve_flight_path(path, scratch, sizeof scratch);
  const int fd = ::open(target, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return -1;

  // K-way timestamp merge straight out of the rings, one event at a
  // time: no allocation, no locks, so a crash handler can run this
  // while other threads keep logging (their concurrent writes surface
  // as skipped torn slots, nothing worse).
  const std::size_t count =
      std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
  Ring* rings[kMaxRings];
  std::uint64_t lo[kMaxRings];
  std::uint64_t hi[kMaxRings];
  for (std::size_t i = 0; i < count; ++i) {
    rings[i] = g_rings[i].load(std::memory_order_acquire);
    if (rings[i] == nullptr) {
      lo[i] = hi[i] = 0;
      continue;
    }
    hi[i] = rings[i]->head();
    lo[i] = hi[i] > kRingCapacity ? hi[i] - kRingCapacity : 0;
  }

  long written = 0;
  LineBuffer line;
  for (;;) {
    std::size_t best = count;
    std::uint64_t best_ts = 0;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t ts = 0;
      while (lo[i] < hi[i] && !rings[i]->peek_ts(lo[i], &ts)) ++lo[i];
      if (lo[i] >= hi[i]) continue;
      if (best == count || ts < best_ts) {
        best = i;
        best_ts = ts;
      }
    }
    if (best == count) break;
    LogEvent ev;
    const bool ok = rings[best]->read(lo[best], &ev);
    ++lo[best];
    if (!ok) continue;
    line.clear();
    format_ndjson(ev, &line);
    write_all(fd, line.data(), line.size());
    ++written;
  }
  ::close(fd);
  return written;
}

void install_crash_handler() noexcept {
  struct sigaction sa {};
  sa.sa_handler = qbss_crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGBUS, &sa, nullptr);
}

// ---------------------------------------------------------------------------
// Reading lines back (qbss logs, tests).
// ---------------------------------------------------------------------------

namespace {

bool fail(std::string* error, const char* what) {
  if (error) *error = what;
  return false;
}

void skip_spaces(std::string_view line, std::size_t* pos) {
  while (*pos < line.size() && (line[*pos] == ' ' || line[*pos] == '\t')) {
    ++*pos;
  }
}

/// Parses a JSON string starting at the opening quote; leaves `pos`
/// past the closing quote.
bool parse_string(std::string_view line, std::size_t* pos, std::string* out,
                  std::string* error) {
  if (*pos >= line.size() || line[*pos] != '"') {
    return fail(error, "expected '\"'");
  }
  ++*pos;
  out->clear();
  while (*pos < line.size() && line[*pos] != '"') {
    char c = line[*pos];
    if (c == '\\') {
      ++*pos;
      if (*pos >= line.size()) return fail(error, "dangling escape");
      c = line[*pos];
      if (c == 'n') c = '\n';
      else if (c == 't') c = '\t';
    }
    out->push_back(c);
    ++*pos;
  }
  if (*pos >= line.size()) return fail(error, "unterminated string");
  ++*pos;
  return true;
}

/// A raw (unquoted) value token: everything up to the next top-level
/// ',' or '}'.
void parse_raw(std::string_view line, std::size_t* pos, std::string* out) {
  out->clear();
  while (*pos < line.size() && line[*pos] != ',' && line[*pos] != '}') {
    out->push_back(line[*pos]);
    ++*pos;
  }
  while (!out->empty() && (out->back() == ' ' || out->back() == '\t')) {
    out->pop_back();
  }
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

bool parse_log_line(std::string_view line, ParsedLogLine* out,
                    std::string* error) {
  *out = ParsedLogLine{};
  std::size_t pos = 0;
  skip_spaces(line, &pos);
  if (pos >= line.size() || line[pos] != '{') {
    return fail(error, "expected '{'");
  }
  ++pos;
  std::string key;
  std::string value;
  bool first = true;
  for (;;) {
    skip_spaces(line, &pos);
    if (pos < line.size() && line[pos] == '}') break;
    if (!first) {
      if (pos >= line.size() || line[pos] != ',') {
        return fail(error, "expected ','");
      }
      ++pos;
      skip_spaces(line, &pos);
    }
    first = false;
    if (!parse_string(line, &pos, &key, error)) return false;
    skip_spaces(line, &pos);
    if (pos >= line.size() || line[pos] != ':') {
      return fail(error, "expected ':'");
    }
    ++pos;
    skip_spaces(line, &pos);
    if (pos < line.size() && line[pos] == '"') {
      if (!parse_string(line, &pos, &value, error)) return false;
    } else {
      parse_raw(line, &pos, &value);
      if (value.empty()) return fail(error, "empty value");
    }
    if (key == "ts_ns") {
      if (!parse_u64(value, &out->ts_ns)) return fail(error, "bad ts_ns");
    } else if (key == "level") {
      if (!parse_log_level(value, &out->level)) {
        return fail(error, "bad level");
      }
    } else if (key == "event") {
      out->event = value;
    } else if (key == "trace_id") {
      out->trace_id = value;
    } else if (key == "thread") {
      std::uint64_t mag = 0;
      const bool neg = !value.empty() && value[0] == '-';
      if (!parse_u64(neg ? value.substr(1) : value, &mag)) {
        return fail(error, "bad thread");
      }
      out->thread = neg ? -static_cast<std::int64_t>(mag)
                        : static_cast<std::int64_t>(mag);
    } else {
      out->args.emplace_back(key, value);
    }
  }
  if (out->event.empty()) return fail(error, "missing event");
  return true;
}

}  // namespace qbss::obs
