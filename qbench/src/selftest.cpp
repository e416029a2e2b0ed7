// Self-tests of the benchmark's own machinery: percentiles and the tail
// rule, due-time accounting against a deliberately stalled fake server,
// seed-determinism of the request streams, re-rolling of requests that
// fail to solve, span self-time arithmetic and the stats-frame parser. Exits 1 if any check fails.
//
//   python3 qbench/run.py --selftest
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "load.hpp"
#include "measure.hpp"
#include "oracle.hpp"
#include "procs.hpp"
#include "streams.hpp"
#include "svc/protocol.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);
  check(qbench::percentile(v, 0.5) == 500.0, "p50 of 1..1000 is 500");
  check(qbench::percentile(v, 0.99) == 990.0, "p99 of 1..1000 is 990");
  check(qbench::tail_supported(1000, 0.99), "p99 of 1000 samples has 10 beyond");
  check(!qbench::tail_supported(999, 0.99), "p99 of 999 samples has only 9");
  check(qbench::tail_supported(20, 0.5) && !qbench::tail_supported(19, 0.5),
        "p50 needs 20 samples");
  v.push_back(std::numeric_limits<double>::infinity());
  check(std::isinf(qbench::percentile(v, 1.0)), "a failed request sorts last");
  check(qbench::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

// A fake QSS2 server on a socketpair that answers at once, except that it
// stalls 50 ms before answering request 100.
void test_due_time_accounting() {
  int fds[2];
  check(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0, "socketpair");
  std::thread server([fd = fds[1]] {
    qbss::svc::FrameHeader header;
    std::string payload;
    std::string error;
    while (qbss::svc::read_frame(fd, &header, &payload, &error) ==
           qbss::svc::ReadResult::kFrame) {
      if (header.request_id == 100) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (!qbss::svc::write_frame(fd, header, payload, &error)) break;
    }
  });
  const qbench::OpenResult r = qbench::run_open(
      1, 2000.0, 0.25, 0, nullptr, [&](std::size_t, std::uint64_t index) {
        qbss::svc::FrameHeader header;
        header.request_id = index;
        header.payload_len = 4;
        std::string reply;
        std::string error;
        return qbss::svc::write_frame(fds[0], header, "ping", &error) &&
               qbss::svc::read_frame(fds[0], &header, &reply, &error) ==
                   qbss::svc::ReadResult::kFrame &&
               header.request_id == index;
      });
  shutdown(fds[0], SHUT_RDWR);
  server.join();
  close(fds[0]);
  close(fds[1]);
  check(r.attempted == 500 && r.ok == 500, "500 requests at 2000/s all answered");
  const auto median_of = [](const std::vector<double>& v, std::size_t a,
                            std::size_t b) {
    return qbench::median(std::vector<double>(v.begin() + a, v.begin() + b));
  };
  // Requests 101-120 were due 0.5-10 ms after the stalled one and could
  // only go out once the stall ended: timed from their due times they
  // waited 40-50 ms. Medians over ranges keep a host hiccup on one
  // request from deciding a check.
  check(r.latency_us[100] > 45000.0, "the stalled request itself is slow");
  check(median_of(r.latency_us, 101, 121) > 35000.0,
        "the stall inflates the requests queued behind it");
  check(median_of(r.latency_us, 400, 500) < 10000.0,
        "requests due after the backlog drained are fast");
  check(median_of(r.late_us, 101, 121) < 1000.0,
        "the backlog is the system's delay, not generator lateness");
}

void test_stream_determinism() {
  bool same = true;
  bool differs = false;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const std::string a = qbss::svc::serialize_request(qbench::miss_request(7, i));
    same = same && a == qbss::svc::serialize_request(qbench::miss_request(7, i));
    differs = differs ||
              a != qbss::svc::serialize_request(qbench::miss_request(8, i));
  }
  check(same, "serve_miss: the same seed gives a byte-identical stream");
  check(differs, "serve_miss: another seed gives another stream");
  bool pools = true;
  for (std::uint64_t k = 0; k < 256; ++k) {
    pools = pools && qbss::svc::serialize_request(qbench::hot_key(7, k)) ==
                         qbss::svc::serialize_request(qbench::hot_key(7, k)) &&
            qbss::svc::serialize_request(qbench::fleet_key(7, k)) ==
                qbss::svc::serialize_request(qbench::fleet_key(7, k));
  }
  check(pools, "serve_hot, fleet_disk: the same seed gives byte-identical keys");
  const qbench::ZipfTable zipf(4096, 1.0);
  bool picks = true;
  std::size_t fresh = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const qbench::FleetPick a = qbench::fleet_pick(zipf, 7, i);
    const qbench::FleetPick b = qbench::fleet_pick(zipf, 7, i);
    picks = picks && a.fresh == b.fresh && a.key == b.key;
    fresh += a.fresh ? 1 : 0;
  }
  check(picks, "fleet_disk: the same seed gives the same picks");
  check(fresh > 60 && fresh < 140, "fleet_disk: about 1 request in 20 is fresh");
  std::size_t distinct = 0;
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < 500; ++i) {
    keys.push_back(qbss::svc::cache_key(qbench::miss_request(7, i)));
  }
  std::sort(keys.begin(), keys.end());
  distinct = static_cast<std::size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
  check(distinct == 500, "serve_miss: every index is a distinct key");
}

// A request the solver rejects or dies on is re-rolled, not sent.
void test_oracle_rerolls() {
  qbench::Oracle oracle([](std::uint64_t index, std::uint32_t attempt) {
    qbss::svc::Request r = qbench::hot_key(7, index);
    if (index == 3 && attempt == 0) r.algo = "no_such_algorithm";
    return r;
  });
  oracle.solve({0, 1, 2, 3, 4, 5}, 2);
  bool all = true;
  for (std::uint64_t i = 0; i < 6; ++i) all = all && oracle.payload(i) != nullptr;
  check(all && oracle.rerolled() == 1 && oracle.request(3).algo == "bkpq",
        "oracle: the failing request is re-rolled and every reply solved");
}

void test_self_time() {
  using qbench::Span;
  // root [0,100] with children A [10,40] and B [30,60] (on another
  // thread, overlapping A), A's child C [15,20], and P [70,80], a
  // separate re-run of part of A's work.
  std::vector<Span> spans(5);
  spans[0] = {"replay.root", 1, 0, 0, 9, 0, 100, 0};
  spans[1] = {"layer_a.call", 2, 1, 0, 9, 10, 40, 0};
  spans[2] = {"layer_b.call", 3, 1, 0, 9, 30, 60, 1};
  spans[3] = {"layer_c.call", 4, 2, 0, 9, 15, 20, 0};
  spans[4] = {"layer_c.part", 5, 1, 2, 9, 70, 80, 0};
  const std::vector<double> self = qbench::self_times_ns(spans);
  check(self[0] == 40.0, "root self = 100 - union(A, B, P) = 40");
  check(self[1] == 15.0, "A self = 30 - C - P = 15");
  check(self[2] == 30.0 && self[3] == 5.0 && self[4] == 10.0,
        "leaf self times equal their durations");
  const qbench::LayerTable table = qbench::layer_table(spans);
  check(table.by_layer.at("layer_c").self_ns == 15.0 &&
            table.by_layer.at("layer_c").count == 2,
        "layer table sums self time by layer");
}

void test_stats_parser() {
  const std::string frame =
      "{\"stats\":{\"uptime_seconds\":1.5,\"extra\":{\"workers\":\"2\","
      "\"disk_records\":\"4096\"},\"lifetime\":{\"counters\":{"
      "\"svc.cache.hit\":12,\"svc.cache.miss\":3},\"histograms\":{"
      "\"svc.latency_us\":{\"count\":15,\"min\":1,\"max\":9,\"p50\":4.5,"
      "\"p90\":8,\"p99\":9}}},\"window\":{\"counters\":{},\"histograms\":{}}}}";
  qbench::Stats s;
  check(qbench::parse_stats(frame, &s) && s.counter("svc.cache.hit") == 12 &&
            s.counter("extra.disk_records") == 4096 &&
            s.p50.at("svc.latency_us") == 4.5,
        "stats frame: counters, extras and histogram p50");
}

}  // namespace

int main() {
  test_percentiles();
  test_due_time_accounting();
  test_stream_determinism();
  test_oracle_rerolls();
  test_self_time();
  test_stats_parser();
  std::printf("%s: %d failed\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
