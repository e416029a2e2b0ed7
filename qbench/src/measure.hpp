// Measurement primitives of the qbss benchmark: exact-sample percentiles
// with the ten-beyond tail rule, and an in-memory span recorder whose
// spans are written out (Perfetto-loadable) only when a run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it. Sorts `samples` in place; 0 for an empty set.
double percentile(std::vector<double>& samples, double q);

/// The tail rule: quantile q of n samples is reported only when at least
/// ten samples lie strictly beyond its nearest rank.
bool tail_supported(std::size_t n, double q);

double median(std::vector<double> samples);

/// What a fixed piece of parallel computation costs on this host right
/// now, in microseconds: `threads` threads started together, each running
/// the same branchy floating-point loop, then joined (the shape of a
/// common::parallel_for call, without its code); the median of 9 rounds.
/// No code of the program under test runs in it, so it moves with the
/// host's load and not with the program; sweep.cpp scales its times by it.
double host_compute_us(std::size_t threads);
double mean(const std::vector<double>& samples);

/// One timed interval. `parent` is the enclosing span (0 = root);
/// `part_of` names a span whose work this one re-runs separately (a
/// policy call replayed next to the solve_request that contains it), so
/// its time is taken out of that span's self time instead of counted
/// twice. Spans of one request share `trace_id`.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t part_of = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// One thread's spans. Not thread-safe: every thread records into its
/// own log and the logs are merged after the threads join.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}
  std::uint32_t tid() const { return tid_; }
  /// Innermost open span on this log (0 = none).
  std::uint64_t current() const { return open_.empty() ? 0 : open_.back().id; }
  std::uint64_t begin(const char* name, std::uint64_t trace_id,
                      std::uint64_t parent, std::uint64_t part_of);
  void end(std::uint64_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::uint64_t next_ = 0;
  std::vector<Span> spans_;
  struct Open {
    std::uint64_t id;
    std::uint64_t trace_id;
    std::size_t index;  ///< into spans_
  };
  std::vector<Open> open_;
};

/// RAII span. A null log records nothing, so untraced code paths pay a
/// branch only. The parent defaults to the log's innermost open span and
/// the trace id to the parent's.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::uint64_t trace_id = 0,
        std::uint64_t parent = ~0ull, std::uint64_t part_of = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children, minus the durations of the spans that are
/// `part_of` it. Indexed like `spans`.
std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// Per-name and per-layer (name up to the first '.') totals.
struct LayerTable {
  struct Row {
    std::size_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Row> by_name;
  std::map<std::string, Row> by_layer;
};
LayerTable layer_table(const std::vector<Span>& spans);

/// Writes `spans` as a Chrome/Perfetto JSON trace (open it at
/// ui.perfetto.dev). False when the file cannot be written.
bool write_perfetto(const std::string& path, const std::vector<Span>& spans);

}  // namespace qbench
