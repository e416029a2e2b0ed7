#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <utility>

namespace qbench {

namespace {

// Nearest rank (1-based) of quantile q among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), q) - 1];
}

bool tail_supported(std::size_t n, double q) {
  return n > 0 && n - nearest_rank(n, q) >= 10;
}

double median(std::vector<double> samples) {
  return percentile(samples, 0.5);
}

namespace {

double compute_kernel(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  double acc = 0.0;
  double best = 0.0;
  for (int i = 0; i < 60000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double w = static_cast<double>(x >> 11) * 0x1p-53 + 0.5;
    const double d = w / (1.0 + static_cast<double>(i & 15));
    if (d > best) {
      best = d;
    } else {
      acc += d;
    }
  }
  return acc + best;
}

}  // namespace

double host_compute_us(std::size_t threads) {
  std::vector<double> rounds;
  std::vector<double> sink(threads);
  for (std::uint64_t r = 0; r < 9; ++r) {
    const std::uint64_t t0 = now_ns();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&sink, t, r] { sink[t] += compute_kernel(t * 131 + r); });
    }
    for (std::thread& t : pool) t.join();
    rounds.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  // Keeps the loops from being optimised away.
  if (std::accumulate(sink.begin(), sink.end(), 0.0) < 0.0) std::abort();
  return median(rounds);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::uint64_t SpanLog::begin(const char* name, std::uint64_t trace_id,
                             std::uint64_t parent, std::uint64_t part_of) {
  Span s;
  s.name = name;
  s.id = (static_cast<std::uint64_t>(tid_) + 1) << 40 | ++next_;
  s.parent = parent == ~0ull ? current() : parent;
  s.part_of = part_of;
  s.trace_id = trace_id != 0 || open_.empty() || s.parent != current()
                   ? trace_id
                   : open_.back().trace_id;
  s.tid = tid_;
  open_.push_back({s.id, s.trace_id, spans_.size()});
  spans_.push_back(s);
  spans_.back().start_ns = now_ns();
  return s.id;
}

void SpanLog::end(std::uint64_t id) {
  const std::uint64_t t = now_ns();
  if (!open_.empty() && open_.back().id == id) {
    spans_[open_.back().index].end_ns = t;
    open_.pop_back();
  }
}

Scope::Scope(SpanLog* log, const char* name, std::uint64_t trace_id,
             std::uint64_t parent, std::uint64_t part_of)
    : log_(log) {
  if (log_ != nullptr) id_ = log_->begin(name, trace_id, parent, part_of);
}

Scope::~Scope() {
  if (log_ != nullptr) log_->end(id_);
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> covered(
      spans.size());
  std::vector<double> replayed(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (const auto it = index.find(s.parent); it != index.end()) {
      covered[it->second].emplace_back(s.start_ns, s.end_ns);
    }
    if (const auto it = index.find(s.part_of); it != index.end()) {
      replayed[it->second] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }

  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = covered[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent: children
    // on several threads (a parallel_for fan-out) may overlap.
    std::uint64_t busy = 0;
    std::uint64_t cursor = s.start_ns;
    for (const auto& [a, b] : kids) {
      const std::uint64_t lo = std::max(a, cursor);
      const std::uint64_t hi = std::min(b, s.end_ns);
      if (hi > lo) {
        busy += hi - lo;
        cursor = hi;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns) -
              static_cast<double>(busy) - replayed[i];
  }
  return self;
}

LayerTable layer_table(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ns(spans);
  LayerTable table;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double total = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    for (auto* row : {&table.by_name[name],
                      &table.by_layer[name.substr(0, name.find('.'))]}) {
      ++row->count;
      row->total_ns += total;
      row->self_ns += self[i];
    }
  }
  return table;
}

bool write_perfetto(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = ~0ull;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%llx\","
                 "\"parent\":\"%llx\",\"part_of\":\"%llx\","
                 "\"trace_id\":\"0x%016llx\"}}",
                 first ? "" : ",\n", s.name,
                 static_cast<int>(std::string(s.name).find('.')), s.name,
                 s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.part_of),
                 static_cast<unsigned long long>(s.trace_id));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace qbench
