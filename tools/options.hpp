// Minimal --key value option parsing shared by the qbss CLI tools.
#pragma once

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel_for.hpp"
#include "io/format.hpp"
#include "obs/log.hpp"

namespace qbss::tools {

/// Thrown by Options::number for a flag given without a value or with
/// one that is not a number. Each tool's main catches it and exits 2
/// with its message.
struct BadNumber : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parsed command line: `--key value` pairs (a `--flag` before another
/// option or the end maps to an empty value) plus bare positionals.
/// Every getter records the key it was asked for, so a command can
/// reject the options nothing read (a typo, or a removed flag).
struct Options {
  std::map<std::string, std::string> values;
  std::vector<std::string> positional;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    read_.insert(key);
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  /// The value of `--key` as a number (io::parse_number's grammar), or
  /// `fallback` when the flag is absent. Throws BadNumber otherwise.
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    read_.insert(key);
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    double value = 0.0;
    if (!io::parse_number(it->second, &value)) {
      throw BadNumber("--" + key + " needs a number, got \"" + it->second +
                      "\"");
    }
    return value;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    read_.insert(key);
    return values.count(key) > 0;
  }
  /// Given options no getter has asked for so far, in name order.
  [[nodiscard]] std::vector<std::string> unread() const {
    std::vector<std::string> out;
    for (const auto& [key, value] : values) {
      if (read_.count(key) == 0) out.push_back(key);
    }
    return out;
  }

 private:
  mutable std::set<std::string> read_;
};

/// Scans argv[first..): `--name [value]` into values, the rest into
/// positional.
inline Options parse_options(int argc, char** argv, int first) {
  Options opts;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positional.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      opts.values[arg] = argv[++i];
    } else {
      opts.values[arg] = "";
    }
  }
  return opts;
}

/// Client-side robustness knobs shared by the tools that open qbss
/// serve connections (`--timeout-ms`, `--retries`; `--chaos` flips the
/// defaults from "fail fast" to values that ride out an aggressive
/// fault plan).
struct RetryOptions {
  double timeout_ms = 0.0;  ///< per-attempt socket timeout (0 = blocking)
  int retries = 0;          ///< extra attempts after the first
};

inline RetryOptions parse_retry_options(const Options& opts) {
  RetryOptions retry;
  const bool chaos = opts.flag("chaos");
  retry.timeout_ms = opts.number("timeout-ms", chaos ? 2000.0 : 0.0);
  retry.retries = static_cast<int>(opts.number("retries", chaos ? 8.0 : 0.0));
  return retry;
}

/// Applies the structured-log flags shared by the tools: the `QBSS_LOG`
/// environment variable (a level name), then `--log-level LVL` (wins
/// over the env) and `--log FILE` ("stderr" or "-" for stderr). Returns
/// 0 on success, 2 with a message on a malformed value. In a binary
/// built with -DQBSS_OBS=OFF any logging flag (including serve's
/// `--flight`) is rejected with exit code 2 instead of silently
/// recording nothing — mirroring how `--faults` behaves under
/// -DQBSS_FAULTS=OFF.
inline int apply_log_options(const Options& opts, const char* tool) {
#ifdef QBSS_OBS_OFF
  for (const char* name : {"log", "log-level", "flight"}) {
    if (opts.flag(name)) {
      std::fprintf(stderr,
                   "%s: --%s requested but this binary was built with "
                   "-DQBSS_OBS=OFF\n",
                   tool, name);
      return 2;
    }
  }
  return 0;
#else
  std::string error;
  if (!obs::configure_log_from_env(&error)) {
    std::fprintf(stderr, "%s: %s\n", tool, error.c_str());
    return 2;
  }
  if (const std::string text = opts.get("log-level", ""); !text.empty()) {
    obs::LogLevel level = obs::LogLevel::kInfo;
    if (!obs::parse_log_level(text, &level)) {
      std::fprintf(stderr,
                   "%s: bad --log-level \"%s\" (want debug|info|warn|"
                   "error|off)\n",
                   tool, text.c_str());
      return 2;
    }
    obs::set_log_level(level);
  }
  if (const std::string path = opts.get("log", ""); !path.empty()) {
    if (!obs::set_log_sink(path, &error)) {
      std::fprintf(stderr, "%s: %s\n", tool, error.c_str());
      return 2;
    }
  }
  return 0;
#endif
}

/// Applies the global `--threads N` override (wins over `QBSS_THREADS`);
/// non-positive values are ignored, and a non-number throws BadNumber.
inline void apply_thread_override(const Options& opts) {
  const double n = opts.number("threads", 0.0);
  if (n >= 1.0) {
    common::set_worker_count(static_cast<std::size_t>(n));
  }
}

}  // namespace qbss::tools
