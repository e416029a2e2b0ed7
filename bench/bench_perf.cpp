// E12 — substrate throughput (google-benchmark).
//
// Microbenchmarks of every algorithm in the library as a function of the
// number of jobs, so downstream users can size workloads: YDS is the
// O(n^3)-ish offline solver, AVR/AVRQ are near-linear in event count,
// BKP/BKPQ pay O(n^3) for the profile max, AVR(m) scales with m.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ratio_harness.hpp"
#include "common/parallel_for.hpp"
#include "io/json.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "oracles.hpp"
#include "gen/random_instances.hpp"
#include "qbss/avrq.hpp"
#include "qbss/avrq_m.hpp"
#include "qbss/bkpq.hpp"
#include "qbss/clairvoyant.hpp"
#include "qbss/crad.hpp"
#include "qbss/crcd.hpp"
#include "qbss/oaq.hpp"
#include "scheduling/avr.hpp"
#include "scheduling/bkp.hpp"
#include "scheduling/density_scan.hpp"
#include "scheduling/multi/avr_m.hpp"
#include "scheduling/oa.hpp"
#include "scheduling/yds.hpp"
#include "scheduling/yds_common.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace {

using namespace qbss;

scheduling::Instance classical_instance(int n) {
  const core::QInstance q = gen::random_online(n, 10.0, 0.5, 4.0, 1234);
  return core::clairvoyant_instance(q);
}

void BM_Yds(benchmark::State& state) {
  const auto inst = classical_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduling::yds(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Yds)->RangeMultiplier(2)->Range(8, 4096)->Complexity();

void BM_DensityScan(benchmark::State& state) {
  // The solver's inner row scan in isolation, at sizes up to n = 1e6
  // (the full general solver is quadratic in events and cannot reach
  // that; this isolates the per-row cost of the fused kernel).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> work(n), ends(n), used(n);
  for (std::size_t i = 0; i < n; ++i) {
    work[i] = 1.0 + 0.001 * static_cast<double>(i % 97);
    ends[i] = 1.0 + static_cast<double>(i);
    used[i] = 0.25 * static_cast<double>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduling::density_row(
        0.0, 0.0, 0.0, work.data(), ends.data(), used.data(), 0, n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DensityScan)
    ->RangeMultiplier(4)
    ->Range(1 << 8, 1 << 20)
    ->Complexity();

void BM_YdsReference(benchmark::State& state) {
  // The direct-scan oracle kept for differential testing; small n only —
  // its per-round candidate scan pays an extra factor n over BM_Yds.
  const auto inst = classical_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduling::oracle::yds_reference(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_YdsReference)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_MeasureSweep(benchmark::State& state) {
  // The parallel ratio-sweep harness end to end: AVRQ across seeds vs the
  // memoized clairvoyant optimum (QBSS_THREADS controls the fan-out).
  const int seeds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    analysis::ClairvoyantCache cache;
    benchmark::DoNotOptimize(analysis::sweep_family(
        [](std::uint64_t s) {
          return gen::random_online(32, 10.0, 0.5, 4.0, s);
        },
        seeds, core::avrq, 3.0, &cache));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MeasureSweep)
    ->RangeMultiplier(2)
    ->Range(4, 32)
    ->UseRealTime()
    ->Complexity();

void BM_MeasureSweepWarm(benchmark::State& state) {
  // BM_MeasureSweep against a memo already holding every seed's optimum
  // and run, warmed once outside the timing loop: the cost of a sweep's
  // later alpha columns, answered on the calling thread.
  const int seeds = static_cast<int>(state.range(0));
  const auto make = [](std::uint64_t s) {
    return gen::random_online(32, 10.0, 0.5, 4.0, s);
  };
  analysis::ClairvoyantCache cache;
  benchmark::DoNotOptimize(
      analysis::sweep_family(make, seeds, core::avrq, 3.0, &cache));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::sweep_family(make, seeds, core::avrq, 3.0, &cache));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MeasureSweepWarm)
    ->RangeMultiplier(2)
    ->Range(4, 32)
    ->UseRealTime()
    ->Complexity();

void BM_YdsCommonRelease(benchmark::State& state) {
  // The O(n log n) specialization vs BM_Yds's general O(n^3)-ish solver.
  const auto q = gen::random_common_deadline(
      static_cast<int>(state.range(0)), 8.0, 1234);
  const auto inst = core::clairvoyant_instance(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduling::yds_common_release(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_YdsCommonRelease)
    ->RangeMultiplier(4)
    ->Range(8, 1 << 20)
    ->Complexity();

void BM_Avr(benchmark::State& state) {
  const auto inst = classical_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduling::avr(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Avr)->RangeMultiplier(4)->Range(8, 512)->Complexity();

void BM_Oa(benchmark::State& state) {
  const auto inst = classical_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduling::optimal_available(inst));
  }
}
BENCHMARK(BM_Oa)->RangeMultiplier(2)->Range(8, 64);

void BM_Bkp(benchmark::State& state) {
  const auto inst = classical_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduling::bkp(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Bkp)->RangeMultiplier(2)->Range(8, 64)->Complexity();

void BM_AvrM(benchmark::State& state) {
  const auto inst = classical_instance(64);
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduling::avr_m(inst, m));
  }
}
BENCHMARK(BM_AvrM)->RangeMultiplier(2)->Range(1, 16);

void BM_Crcd(benchmark::State& state) {
  const auto inst = gen::random_common_deadline(
      static_cast<int>(state.range(0)), 8.0, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::crcd(inst));
  }
}
BENCHMARK(BM_Crcd)->RangeMultiplier(4)->Range(8, 512);

void BM_Crad(benchmark::State& state) {
  const auto inst = gen::random_arbitrary_deadlines(
      static_cast<int>(state.range(0)), 12.0, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::crad(inst));
  }
}
BENCHMARK(BM_Crad)->RangeMultiplier(2)->Range(8, 128);

void BM_Avrq(benchmark::State& state) {
  const auto inst = gen::random_online(static_cast<int>(state.range(0)),
                                       10.0, 0.5, 4.0, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::avrq(inst));
  }
}
BENCHMARK(BM_Avrq)->RangeMultiplier(4)->Range(8, 512);

void BM_Bkpq(benchmark::State& state) {
  const auto inst = gen::random_online(static_cast<int>(state.range(0)),
                                       10.0, 0.5, 4.0, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::bkpq(inst));
  }
}
BENCHMARK(BM_Bkpq)->RangeMultiplier(2)->Range(8, 64);

void BM_Oaq(benchmark::State& state) {
  const auto inst = gen::random_online(static_cast<int>(state.range(0)),
                                       10.0, 0.5, 4.0, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::oaq(inst));
  }
}
BENCHMARK(BM_Oaq)->RangeMultiplier(2)->Range(8, 64);

void BM_AvrqM(benchmark::State& state) {
  const auto inst = gen::random_online(64, 10.0, 0.5, 4.0, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::avrq_m(inst, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_AvrqM)->RangeMultiplier(2)->Range(1, 16);

void BM_Clairvoyant(benchmark::State& state) {
  const auto inst = gen::random_online(static_cast<int>(state.range(0)),
                                       10.0, 0.5, 4.0, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::clairvoyant_schedule(inst));
  }
}
BENCHMARK(BM_Clairvoyant)->RangeMultiplier(2)->Range(8, 128);

void BM_SvcThroughput(benchmark::State& state) {
  // End-to-end service round-trips over a Unix-domain socket: an
  // in-process server, one closed-loop client, a cache-resident request
  // (range(0) = 1) or a rotating set of misses-then-hits (range(0) > 1).
  // items_per_second is the service's single-connection reqs/s; the
  // svc.latency_us histogram lands in the embedded manifest, giving the
  // perf gate p50/p99.
  const int distinct = static_cast<int>(state.range(0));
  svc::ServerConfig config;
  config.socket_path =
      "/tmp/qbss-bench-" + std::to_string(::getpid()) + ".sock";
  config.workers = 2;
  config.manifest_path.clear();
  svc::Server server(std::move(config));
  std::string error;
  if (!server.start(&error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  svc::Client client;
  if (!client.connect_unix("/tmp/qbss-bench-" + std::to_string(::getpid()) +
                               ".sock",
                           &error)) {
    state.SkipWithError(error.c_str());
    server.shutdown();
    server.wait();
    return;
  }
  std::vector<svc::Request> requests;
  for (int i = 0; i < distinct; ++i) {
    svc::Request request;
    request.algo = "bkpq";
    request.instance = gen::random_online(16, 10.0, 0.5, 4.0,
                                          static_cast<std::uint64_t>(i));
    requests.push_back(std::move(request));
  }
  // Warm the cache so the steady state measures the zero-copy hit path.
  for (const svc::Request& request : requests) {
    svc::Client::Reply reply;
    if (!client.call(request, &reply, &error)) {
      state.SkipWithError(error.c_str());
      server.shutdown();
      server.wait();
      return;
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    svc::Client::Reply reply;
    if (!client.call(requests[next], &reply, &error)) {
      state.SkipWithError(error.c_str());
      break;
    }
    benchmark::DoNotOptimize(reply);
    next = (next + 1) % requests.size();
  }
  state.SetItemsProcessed(state.iterations());
  server.shutdown();
  server.wait();
  std::remove(("/tmp/qbss-bench-" + std::to_string(::getpid()) + ".sock")
                  .c_str());
}
BENCHMARK(BM_SvcThroughput)->Arg(1)->Arg(64)->UseRealTime();

// Splices the run manifest into the google-benchmark JSON at `path`:
// the file's closing '}' is replaced by ,"manifest":{...}}. Leaves the
// file alone when it is missing or not a JSON object (console format).
void embed_manifest(const std::string& path) {
  std::string text;
  {
    std::ifstream in(path);
    if (!in) return;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const std::size_t close = text.find_last_of('}');
  if (close == std::string::npos) return;

  qbss::obs::Manifest manifest = qbss::obs::current_manifest();
  manifest.threads = qbss::common::worker_count();

  std::ofstream out(path, std::ios::trunc);
  if (!out) return;
  out << text.substr(0, close) << ",\"manifest\":";
  qbss::io::write_json_manifest_body(out, manifest);
  out << "}\n";
  std::fprintf(stderr, "[obs] manifest embedded into %s\n", path.c_str());
  for (const auto& [name, value] : manifest.counters) {
    std::fprintf(stderr, "[obs] counter %-36s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
}

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to BENCH_perf.json
// (JSON) so every run leaves a machine-readable trace of the perf
// trajectory; an explicit --benchmark_out on the command line wins. The
// run manifest (sha, compiler, threads, wall time, counter snapshot) is
// embedded into the JSON after the run, and QBSS_TRACE=<file> dumps a
// Chrome trace of the instrumented spans.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_path = "BENCH_perf.json";
  std::string out_format = "json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      has_out = true;
      out_path = argv[i] + 16;
    }
    if (std::strncmp(argv[i], "--benchmark_out_format=", 23) == 0) {
      out_format = argv[i] + 23;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_perf.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (out_format == "json") embed_manifest(out_path);
  qbss::obs::flush_trace();
  return 0;
}
