// Workload entry points of the qbss benchmark and the result they fill.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace qbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string qbss;     ///< the built `qbss` binary (absolute path)
  std::string out_dir;  ///< traces and layer tables (absolute path)
  std::size_t nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Set when a check that is not a per-request failure went wrong (a
  /// process could not start, a bound or determinism check failed).
  bool broken = false;
  bool valid = true;  ///< false when the generator fell behind its schedule
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< human-readable report lines

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    broken = true;
    notes.push_back("FAILED: " + std::move(why));
  }
};

/// serve_hot, serve_miss and fleet_disk.
Result run_serve(const Options& opts);
/// sweep_table1.
Result run_sweep(const Options& opts);
/// Sends each known-defect request to a throwaway `qbss serve` and
/// returns how many of them killed it.
int run_probe(const Options& opts, std::vector<std::string>* notes);

/// Layers whose shares of the replayed self time the traced run reports.
/// The client's own serialize is timed too but is not part of the
/// server-side path being replayed, so it is left out of the shares.
inline constexpr const char* kLayers[] = {
    "protocol", "cache", "store", "server", "route",
    "qbss", "scheduling", "analysis", "common"};

/// Served algorithms, in the order the per-policy metrics are reported.
inline constexpr const char* kAlgos[] = {"crcd", "crp2d", "crad", "avrq",
                                         "bkpq", "oaq", "opt", "avrq_m"};

}  // namespace qbench
