#include "load.hpp"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "measure.hpp"

namespace qbench {

namespace {

// Sleeps until shortly before `due_ns`, then spins: a plain sleep wakes
// tens of microseconds late, and that lateness would land in every
// open-loop latency.
void wait_until(std::uint64_t due_ns) {
  constexpr std::uint64_t kSpinNs = 5'000;
  std::uint64_t now = now_ns();
  if (due_ns > now + kSpinNs) {
    const std::uint64_t delta = due_ns - now - kSpinNs;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(delta / 1'000'000'000ull);
    ts.tv_nsec = static_cast<long>(delta % 1'000'000'000ull);
    nanosleep(&ts, nullptr);
  }
  while (now_ns() < due_ns) {
  }
}

}  // namespace

ClosedResult run_closed(std::size_t connections, double seconds,
                        std::uint64_t first, std::uint64_t max_requests,
                        const CallFn& call) {
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> last_end{0};
  const std::uint64_t start = now_ns();
  const std::uint64_t stop = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      while (now_ns() < stop) {
        const std::uint64_t j = next.fetch_add(1);
        if (j >= max_requests) break;
        if (call(c, first + j)) ok.fetch_add(1);
        const std::uint64_t t = now_ns();
        std::uint64_t seen = last_end.load();
        while (t > seen && !last_end.compare_exchange_weak(seen, t)) {
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedResult r;
  r.attempted = std::min(next.load(), max_requests);
  r.ok = ok.load();
  r.seconds = static_cast<double>(last_end.load() - start) / 1e9;
  return r;
}

OpenResult run_open(std::size_t connections, double rate, double seconds,
                    std::uint64_t first, const PrepareFn& prepare,
                    const CallFn& call) {
  const auto total = static_cast<std::uint64_t>(rate * seconds);
  OpenResult r;
  r.latency_us.assign(total, 0.0);
  r.late_us.assign(total, 0.0);
  std::atomic<std::uint64_t> ok{0};
  const std::uint64_t t0 = now_ns() + 2'000'000;
  const double gap_ns = 1e9 / rate;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      std::uint64_t prev_end = 0;
      for (std::uint64_t j = c; j < total; j += connections) {
        const std::uint64_t due =
            t0 + static_cast<std::uint64_t>(static_cast<double>(j) * gap_ns);
        if (prepare) prepare(c, first + j);
        wait_until(due);
        const std::uint64_t sent = now_ns();
        const bool good = call(c, first + j);
        const std::uint64_t end = now_ns();
        r.late_us[j] =
            static_cast<double>(sent - std::max(due, prev_end)) / 1e3;
        r.latency_us[j] = good ? static_cast<double>(end - due) / 1e3
                               : std::numeric_limits<double>::infinity();
        if (good) ok.fetch_add(1);
        prev_end = end;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r.attempted = total;
  r.ok = ok.load();
  return r;
}

}  // namespace qbench
