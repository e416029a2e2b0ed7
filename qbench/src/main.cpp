// qbench — one benchmark run of one workload.
//
//   qbench --workload W --seed N --seconds S --trace 0|1 --qbss PATH
//          --out DIR [--provenance JSON]
//
// Prints the run's report lines, a provenance line and every metric by
// name and unit, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. qbench/run.py builds
// the program and calls this; see qbench/README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/parallel_for.hpp"
#include "obs/manifest.hpp"
#include "procs.hpp"
#include "scheduling/yds.hpp"

namespace {

using qbench::Metric;

// Every per-layer metric, in report order, with its unit. A workload
// that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"client.serialize_us", "us"},   {"client.rtt_us", "us"},
        {"protocol.parse_us", "us"},     {"protocol.key_us", "us"},
        {"protocol.frame_us", "us"},     {"protocol.bytes_per_req", "bytes"},
        {"protocol.render_us", "us"},    {"cache.get_us", "us"},
        {"cache.put_us", "us"},          {"cache.hit_ratio", "ratio"},
        {"cache.evictions_per_req", "ratio"},
        {"store.find_us", "us"},         {"store.append_us", "us"},
        {"store.disk_hit_ratio", "ratio"}, {"store.recover_ms", "ms"},
        {"store.bytes_per_record", "bytes"},
        {"server.self_us", "us"},        {"server.transport_us", "us"},
        {"server.unattributed_us", "us"}, {"server.batch_size", "count"},
        {"server.shed", "count"},        {"server.coalesced", "count"},
        {"route.hop_us", "us"},          {"route.ring_us", "us"},
        {"route.backend_us", "us"},      {"route.failovers", "count"},
        {"route.disk_flag_lost", "count"}};
    for (const char* algo : qbench::kAlgos) {
      v.emplace_back(std::string("qbss.policy_us.") + algo, "us");
    }
    v.insert(v.end(), {{"scheduling.yds_us", "us"},
                       {"scheduling.validate_us", "us"},
                       {"analysis.measure_us", "us"},
                       {"analysis.memo_hit_ratio", "ratio"},
                       {"common.fanout_calls", "count"},
                       {"common.fanout_overhead_us", "us"},
                       {"bench.p99_us", "us"},
                       {"bench.late_p99_us", "us"},
                       {"bench.trace_overhead", "ratio"},
                       {"bench.host_echo_us", "us"},
                       {"bench.host_compute_us", "us"},
                       {"probe.server_aborts", "count"},
                       {"probe.rerolled", "count"}});
    for (const char* layer : qbench::kLayers) {
      v.emplace_back(std::string("layer.") + layer + ".share", "ratio");
    }
    return v;
  }();
  return kNames;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: qbench --workload serve_hot|serve_miss|fleet_disk|"
               "sweep_table1 --seed N --seconds S --trace 0|1 --qbss PATH "
               "--out DIR [--provenance JSON]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  qbench::Options opts;
  std::string provenance = "{}";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") opts.workload = value;
    else if (flag == "--seed") opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") opts.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") opts.trace = value == "1";
    else if (flag == "--qbss") opts.qbss = value;
    else if (flag == "--out") opts.out_dir = value;
    else if (flag == "--provenance") provenance = value;
    else return usage();
  }
  const bool serve = opts.workload == "serve_hot" ||
                     opts.workload == "serve_miss" ||
                     opts.workload == "fleet_disk";
  if ((!serve && opts.workload != "sweep_table1") || opts.seconds <= 0 ||
      opts.qbss.empty() || opts.out_dir.empty()) {
    return usage();
  }

  // Refuse to record numbers from a build that is not Release.
  const qbss::obs::Manifest build = qbss::obs::current_manifest();
  if (build.build_type != "Release") {
    std::fprintf(stderr, "qbench: refusing a %s build; configure Release\n",
                 build.build_type.c_str());
    return 3;
  }
  opts.nproc = std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // Aborting servers (the probe) must not leave core files behind.
  const rlimit no_core{0, 0};
  setrlimit(RLIMIT_CORE, &no_core);

  // Watchdog: a hung process under test must not outlive the run's
  // budget; every child is killed and the run fails.
  std::atomic<bool> done{false};
  std::thread watchdog([&done] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(170);
    while (!done.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "qbench: watchdog expired\n");
        qbench::kill_all_children();
        std::_Exit(4);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  // Sockets, logs and store directories live in a run directory entered
  // here, so socket paths stay short.
  namespace fs = std::filesystem;
  const fs::path run_dir = fs::path(opts.out_dir) /
                           ("run-" + opts.workload + "-" +
                            std::to_string(getpid()));
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  const fs::path home = fs::current_path();
  fs::current_path(run_dir, ec);

  qbench::Result r = serve ? qbench::run_serve(opts) : qbench::run_sweep(opts);
  const int aborts = qbench::run_probe(opts, &r.notes);

  fs::current_path(home, ec);
  if (!r.broken) fs::remove_all(run_dir, ec);

  r.e2e("ok_share",
        r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                        : 0.0,
        "ratio");
  r.layer("probe.server_aborts", aborts, "count");

  std::ostringstream prov;
  prov << "{\"build\":" << provenance << ",\"linked_build_type\":\""
       << json_escape(build.build_type) << "\",\"compiler\":\""
       << json_escape(build.compiler) << "\",\"obs\":"
       << (build.obs_enabled ? "true" : "false") << ",\"simd\":"
       << (qbss::scheduling::yds_simd_compiled() ? "true" : "false")
       << ",\"nproc\":" << opts.nproc << ",\"workload\":\"" << opts.workload
       << "\",\"seed\":" << opts.seed << ",\"seconds\":" << number(opts.seconds)
       << ",\"trace\":" << (opts.trace ? 1 : 0)
       << ",\"valid\":" << (r.valid ? "true" : "false") << "}";

  // The reported set: end-to-end untraced, every per-layer name traced.
  std::vector<Metric> metrics;
  if (!opts.trace) {
    for (const char* name :
         {"setup_s", "p50_us", "max_rps", "ok_share", "rss_mb"}) {
      for (const Metric& m : r.end_to_end) {
        if (m.name == name) metrics.push_back(m);
      }
    }
  } else {
    std::map<std::string, double> have;
    for (const Metric& m : r.per_layer) have[m.name] = m.value;
    for (const auto& [name, unit] : per_layer_names()) {
      const auto it = have.find(name);
      metrics.push_back({name, it == have.end() ? 0.0 : it->second, unit});
    }
  }

  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  std::printf("provenance %s\n", prov.str().c_str());
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = !r.broken && r.failed == 0;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::ofstream(fs::path(opts.out_dir) / "results.jsonl", std::ios::app)
      << "{\"provenance\": " << prov.str() << ", \"result\": " << out.str()
      << "}\n";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);

  done.store(true);
  watchdog.join();
  return 0;
}
