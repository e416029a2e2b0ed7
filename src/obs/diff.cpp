#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ios>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>

namespace qbss::obs {

namespace {

// ----- Minimal JSON reader -------------------------------------------
//
// Just enough to read back what io::write_json_manifest (and
// google-benchmark) write: objects, arrays, strings, numbers, literals.
// Non-ASCII escapes decode to '?' — the diff only consumes names and
// numbers, never free text.

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  [[nodiscard]] const Json* find(std::string_view key) const {
    for (const auto& [name, value] : fields) {
      if (name == key) return &value;
    }
    return nullptr;
  }
  [[nodiscard]] double number_or(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<Json> parse(std::string* error) {
    std::optional<Json> value = parse_value(0);
    if (value) {
      skip_whitespace();
      if (pos_ != text_.size()) value = fail("trailing characters");
    }
    if (!value && error != nullptr) *error = error_;
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  std::optional<Json> fail(std::string message) {
    if (error_.empty()) {
      error_ = std::move(message) + " at offset " + std::to_string(pos_);
    }
    return std::nullopt;
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') return parse_string_value();
    if (c == 't' || c == 'f' || c == 'n') return parse_literal();
    return parse_number();
  }

  std::optional<Json> parse_object(int depth) {
    ++pos_;  // '{'
    Json out;
    out.kind = Json::Kind::kObject;
    if (consume('}')) return out;
    while (true) {
      skip_whitespace();
      std::optional<std::string> key = parse_string_raw();
      if (!key) return std::nullopt;
      if (!consume(':')) return fail("expected ':'");
      std::optional<Json> value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      out.fields.emplace_back(std::move(*key), std::move(*value));
      if (consume(',')) continue;
      if (consume('}')) return out;
      return fail("expected ',' or '}'");
    }
  }

  std::optional<Json> parse_array(int depth) {
    ++pos_;  // '['
    Json out;
    out.kind = Json::Kind::kArray;
    if (consume(']')) return out;
    while (true) {
      std::optional<Json> value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      out.items.push_back(std::move(*value));
      if (consume(',')) continue;
      if (consume(']')) return out;
      return fail("expected ',' or ']'");
    }
  }

  std::optional<std::string> parse_string_raw() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      fail("expected string");
      return std::nullopt;
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u':
          // Skip the four hex digits; the diff never reads such text.
          pos_ = std::min(pos_ + 4, text_.size());
          out.push_back('?');
          break;
        default: out.push_back(esc);
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> parse_string_value() {
    std::optional<std::string> raw = parse_string_raw();
    if (!raw) return std::nullopt;
    Json out;
    out.kind = Json::Kind::kString;
    out.text = std::move(*raw);
    return out;
  }

  std::optional<Json> parse_literal() {
    const auto matches = [&](std::string_view word) {
      if (text_.compare(pos_, word.size(), word) != 0) return false;
      pos_ += word.size();
      return true;
    };
    Json out;
    if (matches("true")) {
      out.kind = Json::Kind::kBool;
      out.boolean = true;
      return out;
    }
    if (matches("false")) {
      out.kind = Json::Kind::kBool;
      out.boolean = false;
      return out;
    }
    if (matches("null")) return out;
    return fail("unknown literal");
  }

  std::optional<Json> parse_number() {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) return fail("expected a value");
    pos_ += static_cast<std::size_t>(end - begin);
    Json out;
    out.kind = Json::Kind::kNumber;
    out.number = value;
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// ----- Manifest extraction -------------------------------------------

std::string string_field(const Json& manifest, std::string_view key) {
  const Json* value = manifest.find(key);
  return value != nullptr && value->kind == Json::Kind::kString ? value->text
                                                                : "";
}

/// Copies the "counters"/"histograms" tables of a manifest-grammar
/// object (a manifest body, or a stats frame's lifetime/window block)
/// into the diff-friendly maps.
void fill_tables(const Json& object, std::map<std::string, double>* counters,
                 std::map<std::string, HistogramSummary>* histograms) {
  if (const Json* table = object.find("counters");
      table != nullptr && table->kind == Json::Kind::kObject) {
    for (const auto& [name, value] : table->fields) {
      (*counters)[name] = value.number_or(0.0);
    }
  }
  if (const Json* table = object.find("histograms");
      table != nullptr && table->kind == Json::Kind::kObject) {
    for (const auto& [name, value] : table->fields) {
      if (value.kind != Json::Kind::kObject) continue;
      HistogramSummary h;
      if (const Json* v = value.find("count")) {
        h.count = static_cast<std::uint64_t>(
            std::max(0.0, v->number_or(0.0)));
      }
      if (const Json* v = value.find("min")) h.min = v->number_or(0.0);
      if (const Json* v = value.find("max")) h.max = v->number_or(0.0);
      if (const Json* v = value.find("p50")) h.p50 = v->number_or(0.0);
      if (const Json* v = value.find("p90")) h.p90 = v->number_or(0.0);
      if (const Json* v = value.find("p99")) h.p99 = v->number_or(0.0);
      (*histograms)[name] = h;
    }
  }
}

std::optional<ManifestData> extract_manifest(const Json& document,
                                             std::string* error) {
  const Json* manifest = document.find("manifest");
  if (manifest == nullptr || manifest->kind != Json::Kind::kObject) {
    // A live stats frame diffs through the same gate machinery: its
    // lifetime block carries the manifest counters/histograms grammar.
    if (const Json* stats = document.find("stats");
        stats != nullptr && stats->kind == Json::Kind::kObject) {
      const Json* lifetime = stats->find("lifetime");
      if (lifetime == nullptr || lifetime->kind != Json::Kind::kObject) {
        if (error != nullptr) *error = "stats frame has no lifetime block";
        return std::nullopt;
      }
      ManifestData out;
      if (const Json* v = stats->find("uptime_seconds")) {
        out.wall_seconds = v->number_or(0.0);
      }
      fill_tables(*lifetime, &out.counters, &out.histograms);
      return out;
    }
    // Accept a bare manifest body (anything carrying a counters object).
    if (document.kind == Json::Kind::kObject &&
        document.find("counters") != nullptr) {
      manifest = &document;
    } else {
      if (error != nullptr) *error = "no \"manifest\" object found";
      return std::nullopt;
    }
  }

  ManifestData out;
  out.git_sha = string_field(*manifest, "git_sha");
  out.compiler = string_field(*manifest, "compiler");
  out.build_type = string_field(*manifest, "build_type");
  if (const Json* v = manifest->find("obs_enabled")) {
    out.obs_enabled = v->kind == Json::Kind::kBool ? v->boolean : true;
  }
  if (const Json* v = manifest->find("threads")) {
    out.threads = v->number_or(0.0);
  }
  if (const Json* v = manifest->find("wall_seconds")) {
    out.wall_seconds = v->number_or(0.0);
  }
  fill_tables(*manifest, &out.counters, &out.histograms);
  return out;
}

std::optional<StatsData> extract_stats(const Json& document,
                                       std::string* error) {
  const Json* stats = document.find("stats");
  if (stats == nullptr || stats->kind != Json::Kind::kObject) {
    if (error != nullptr) *error = "no \"stats\" object found";
    return std::nullopt;
  }
  StatsData out;
  if (const Json* v = stats->find("uptime_seconds")) {
    out.uptime_seconds = v->number_or(0.0);
  }
  if (const Json* v = stats->find("interval_ms")) {
    out.interval_ms = v->number_or(0.0);
  }
  if (const Json* v = stats->find("window_seconds")) {
    out.window_seconds = v->number_or(0.0);
  }
  if (const Json* extra = stats->find("extra");
      extra != nullptr && extra->kind == Json::Kind::kObject) {
    for (const auto& [name, value] : extra->fields) {
      if (value.kind == Json::Kind::kString) out.extra[name] = value.text;
    }
  }
  if (const Json* lifetime = stats->find("lifetime");
      lifetime != nullptr && lifetime->kind == Json::Kind::kObject) {
    fill_tables(*lifetime, &out.lifetime.counters, &out.lifetime.histograms);
  }
  out.lifetime.wall_seconds = out.uptime_seconds;
  if (const Json* window = stats->find("window");
      window != nullptr && window->kind == Json::Kind::kObject) {
    fill_tables(*window, &out.window.counters, &out.window.histograms);
  }
  out.window.wall_seconds = out.window_seconds;
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// "name.ns" -> "name" when the manifest also carries "name.calls".
std::optional<std::string> timer_base_name(
    const std::string& ns_name, const std::map<std::string, double>& a,
    const std::map<std::string, double>& b) {
  constexpr std::string_view kSuffix = ".ns";
  if (ns_name.size() <= kSuffix.size() ||
      ns_name.compare(ns_name.size() - kSuffix.size(), kSuffix.size(),
                      kSuffix) != 0) {
    return std::nullopt;
  }
  const std::string base = ns_name.substr(0, ns_name.size() - kSuffix.size());
  const std::string calls = base + ".calls";
  if (a.count(calls) > 0 || b.count(calls) > 0) return base;
  return std::nullopt;
}

double lookup(const std::map<std::string, double>& m,
              const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// candidate/baseline with a defined value for zero baselines.
double safe_ratio(double baseline, double candidate) {
  if (baseline == 0.0) return candidate == 0.0 ? 1.0 : 0.0;
  return candidate / baseline;
}

/// Ratio drift check in both directions: 1/tol <= ratio <= tol passes.
bool within(double ratio, double tol) {
  return ratio >= 1.0 / tol && ratio <= tol;
}

/// One-sided check for costs (timers, histogram quantiles): above tol
/// regresses, below 1/tol improves.
DiffVerdict cost_verdict(double ratio, double tol) {
  if (ratio > tol) return DiffVerdict::kRegressed;
  if (ratio < 1.0 / tol) return DiffVerdict::kImproved;
  return DiffVerdict::kOk;
}

}  // namespace

std::optional<ManifestData> parse_manifest_json(const std::string& text,
                                                std::string* error) {
  JsonParser parser(text);
  const std::optional<Json> document = parser.parse(error);
  if (!document) return std::nullopt;
  return extract_manifest(*document, error);
}

std::optional<StatsData> parse_stats_json(const std::string& text,
                                          std::string* error) {
  JsonParser parser(text);
  const std::optional<Json> document = parser.parse(error);
  if (!document) return std::nullopt;
  return extract_stats(*document, error);
}

std::optional<ManifestData> load_manifest_file(const std::string& path,
                                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::optional<ManifestData> manifest =
      parse_manifest_json(buffer.str(), error);
  if (manifest) {
    manifest->source = path;
  } else if (error != nullptr) {
    *error = path + ": " + *error;
  }
  return manifest;
}

ManifestData median_of(const std::vector<ManifestData>& candidates) {
  if (candidates.empty()) return ManifestData{};
  if (candidates.size() == 1) return candidates.front();

  ManifestData out = candidates.front();
  out.source = candidates.front().source + " (median of " +
               std::to_string(candidates.size()) + ")";

  std::set<std::string> counter_names;
  std::set<std::string> histogram_names;
  for (const ManifestData& m : candidates) {
    for (const auto& [name, value] : m.counters) counter_names.insert(name);
    for (const auto& [name, h] : m.histograms) histogram_names.insert(name);
  }

  out.counters.clear();
  for (const std::string& name : counter_names) {
    std::vector<double> values;
    values.reserve(candidates.size());
    for (const ManifestData& m : candidates) {
      values.push_back(lookup(m.counters, name));
    }
    out.counters[name] = median(std::move(values));
  }

  out.histograms.clear();
  for (const std::string& name : histogram_names) {
    const auto field_median = [&](auto getter) {
      std::vector<double> values;
      values.reserve(candidates.size());
      for (const ManifestData& m : candidates) {
        const auto it = m.histograms.find(name);
        values.push_back(it == m.histograms.end() ? 0.0 : getter(it->second));
      }
      return median(std::move(values));
    };
    HistogramSummary h;
    h.count = static_cast<std::uint64_t>(field_median(
        [](const HistogramSummary& s) {
          return static_cast<double>(s.count);
        }));
    h.min = field_median([](const HistogramSummary& s) { return s.min; });
    h.max = field_median([](const HistogramSummary& s) { return s.max; });
    h.p50 = field_median([](const HistogramSummary& s) { return s.p50; });
    h.p90 = field_median([](const HistogramSummary& s) { return s.p90; });
    h.p99 = field_median([](const HistogramSummary& s) { return s.p99; });
    out.histograms[name] = h;
  }

  std::vector<double> threads, walls;
  for (const ManifestData& m : candidates) {
    threads.push_back(m.threads);
    walls.push_back(m.wall_seconds);
  }
  out.threads = median(std::move(threads));
  out.wall_seconds = median(std::move(walls));
  return out;
}

DiffReport diff_manifests(const ManifestData& baseline,
                          const ManifestData& candidate,
                          const DiffOptions& options) {
  DiffReport report;
  report.baseline = baseline;
  report.candidate = candidate;

  const auto push = [&report](MetricDiff diff) {
    if (diff.verdict == DiffVerdict::kRegressed) ++report.regressions;
    if (diff.verdict == DiffVerdict::kImproved) ++report.improvements;
    if (diff.verdict != DiffVerdict::kSkipped &&
        diff.verdict != DiffVerdict::kAdded &&
        diff.verdict != DiffVerdict::kRemoved) {
      ++report.compared;
    }
    report.metrics.push_back(std::move(diff));
  };

  // Timers and counters share the counters map; timers are the .ns
  // entries with a sibling .calls and are compared as mean ns/call.
  std::set<std::string> names;
  for (const auto& [name, value] : baseline.counters) names.insert(name);
  for (const auto& [name, value] : candidate.counters) names.insert(name);

  std::set<std::string> consumed;  // .calls entries folded into timers
  for (const std::string& name : names) {
    const std::optional<std::string> base_name =
        timer_base_name(name, baseline.counters, candidate.counters);
    if (!base_name) continue;
    consumed.insert(name);
    consumed.insert(*base_name + ".calls");

    const double base_ns = lookup(baseline.counters, name);
    const double cand_ns = lookup(candidate.counters, name);
    const double base_calls = lookup(baseline.counters, *base_name + ".calls");
    const double cand_calls = lookup(candidate.counters, *base_name + ".calls");

    MetricDiff diff;
    diff.name = *base_name + " ns/call";
    diff.kind = "timer";
    diff.baseline = base_calls > 0.0 ? base_ns / base_calls : 0.0;
    diff.candidate = cand_calls > 0.0 ? cand_ns / cand_calls : 0.0;
    diff.ratio = safe_ratio(diff.baseline, diff.candidate);
    diff.tolerance = options.timer_ratio_tol;
    if (options.timer_ratio_tol <= 0.0 ||
        std::max(base_ns, cand_ns) < options.min_total_ns) {
      diff.verdict = DiffVerdict::kSkipped;
    } else if (base_calls == 0.0 && cand_calls == 0.0) {
      diff.verdict = DiffVerdict::kSkipped;
    } else if (base_calls == 0.0) {
      diff.verdict = DiffVerdict::kAdded;
    } else if (cand_calls == 0.0) {
      diff.verdict = DiffVerdict::kRemoved;
    } else {
      diff.verdict = cost_verdict(diff.ratio, options.timer_ratio_tol);
    }
    push(std::move(diff));
  }

  for (const std::string& name : names) {
    if (consumed.count(name) > 0) continue;
    const bool in_base = baseline.counters.count(name) > 0;
    const bool in_cand = candidate.counters.count(name) > 0;

    MetricDiff diff;
    diff.name = name;
    diff.kind = "counter";
    diff.baseline = lookup(baseline.counters, name);
    diff.candidate = lookup(candidate.counters, name);
    diff.ratio = safe_ratio(diff.baseline, diff.candidate);
    diff.tolerance = options.counter_ratio_tol;
    if (options.counter_ratio_tol <= 0.0 ||
        std::max(diff.baseline, diff.candidate) < options.min_count) {
      diff.verdict = DiffVerdict::kSkipped;
    } else if (!in_base) {
      diff.verdict = DiffVerdict::kAdded;
    } else if (!in_cand) {
      diff.verdict = DiffVerdict::kRemoved;
    } else if (!within(diff.ratio, options.counter_ratio_tol)) {
      diff.verdict = DiffVerdict::kRegressed;
    }
    push(std::move(diff));
  }

  std::set<std::string> histogram_names;
  for (const auto& [name, h] : baseline.histograms) {
    histogram_names.insert(name);
  }
  for (const auto& [name, h] : candidate.histograms) {
    histogram_names.insert(name);
  }
  for (const std::string& name : histogram_names) {
    const auto base_it = baseline.histograms.find(name);
    const auto cand_it = candidate.histograms.find(name);
    if (base_it == baseline.histograms.end() ||
        cand_it == candidate.histograms.end()) {
      MetricDiff diff;
      diff.name = name;
      diff.kind = "histogram";
      diff.verdict = base_it == baseline.histograms.end()
                         ? DiffVerdict::kAdded
                         : DiffVerdict::kRemoved;
      diff.tolerance = options.hist_ratio_tol;
      push(std::move(diff));
      continue;
    }
    const HistogramSummary& base = base_it->second;
    const HistogramSummary& cand = cand_it->second;
    const struct {
      const char* label;
      double baseline;
      double candidate;
    } fields[] = {{"p50", base.p50, cand.p50},
                  {"p90", base.p90, cand.p90},
                  {"p99", base.p99, cand.p99}};
    for (const auto& field : fields) {
      MetricDiff diff;
      diff.name = name + " " + field.label;
      diff.kind = "histogram";
      diff.baseline = field.baseline;
      diff.candidate = field.candidate;
      diff.ratio = safe_ratio(field.baseline, field.candidate);
      diff.tolerance = options.hist_ratio_tol;
      if (options.hist_ratio_tol <= 0.0 ||
          (base.count == 0 && cand.count == 0)) {
        diff.verdict = DiffVerdict::kSkipped;
      } else if (base.count == 0) {
        diff.verdict = DiffVerdict::kAdded;
      } else if (cand.count == 0) {
        diff.verdict = DiffVerdict::kRemoved;
      } else if (field.baseline == 0.0 && field.candidate == 0.0) {
        diff.verdict = DiffVerdict::kOk;
      } else {
        diff.verdict = cost_verdict(diff.ratio, options.hist_ratio_tol);
      }
      push(std::move(diff));
    }
  }

  return report;
}

const char* to_string(DiffVerdict verdict) {
  switch (verdict) {
    case DiffVerdict::kOk: return "ok";
    case DiffVerdict::kImproved: return "improved";
    case DiffVerdict::kRegressed: return "REGRESSED";
    case DiffVerdict::kAdded: return "added";
    case DiffVerdict::kRemoved: return "removed";
    case DiffVerdict::kSkipped: return "skipped";
  }
  return "unknown";
}

void write_markdown_report(std::ostream& out, const DiffReport& report) {
  const std::streamsize saved_precision = out.precision(6);
  out << "# obs-diff report\n\n";
  out << "baseline:  `" << report.baseline.source << "` (sha "
      << report.baseline.git_sha << ", " << report.baseline.build_type
      << ")\n";
  out << "candidate: `" << report.candidate.source << "` (sha "
      << report.candidate.git_sha << ", " << report.candidate.build_type
      << ")\n\n";
  out << "**" << (report.ok() ? "PASS" : "REGRESSION") << "** — "
      << report.compared << " metrics compared, " << report.regressions
      << " regressed, " << report.improvements << " improved\n\n";

  out << "| metric | kind | baseline | candidate | ratio | tol | verdict "
         "|\n";
  out << "|---|---|---|---|---|---|---|\n";
  // Regressions first, then everything else in name order; skipped rows
  // are summarized, not listed.
  int skipped = 0;
  for (const int pass : {0, 1}) {
    for (const MetricDiff& m : report.metrics) {
      if (m.verdict == DiffVerdict::kSkipped) {
        skipped += pass == 0 ? 1 : 0;
        continue;
      }
      const bool regressed = m.verdict == DiffVerdict::kRegressed;
      if ((pass == 0) != regressed) continue;
      out << "| " << m.name << " | " << m.kind << " | " << m.baseline
          << " | " << m.candidate << " | " << m.ratio << " | "
          << m.tolerance << " | " << to_string(m.verdict) << " |\n";
    }
  }
  if (skipped > 0) {
    out << "\n" << skipped << " metrics below the noise floor skipped.\n";
  }
  out.precision(saved_precision);
}

void write_json_report(std::ostream& out, const DiffReport& report) {
  const std::streamsize saved_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  const auto escape = [](const std::string& text) {
    std::string safe;
    for (const char c : text) {
      if (c == '"' || c == '\\') safe.push_back('\\');
      safe.push_back(c);
    }
    return safe;
  };
  out << "{\"ok\":" << (report.ok() ? "true" : "false")
      << ",\"compared\":" << report.compared << ",\"regressions\":"
      << report.regressions << ",\"improvements\":" << report.improvements
      << ",\"baseline\":\"" << escape(report.baseline.source)
      << "\",\"candidate\":\"" << escape(report.candidate.source)
      << "\",\"metrics\":[";
  bool first = true;
  for (const MetricDiff& m : report.metrics) {
    if (m.verdict == DiffVerdict::kSkipped) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << escape(m.name) << "\",\"kind\":\"" << m.kind
        << "\",\"baseline\":" << m.baseline << ",\"candidate\":"
        << m.candidate << ",\"ratio\":" << m.ratio << ",\"tolerance\":"
        << m.tolerance << ",\"verdict\":\"" << to_string(m.verdict)
        << "\"}";
  }
  out << "]}\n";
  out.precision(saved_precision);
}

}  // namespace qbss::obs
