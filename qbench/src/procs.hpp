// The processes under test: `qbss serve` / `qbss route` children started
// from the built binary, reached over Unix-domain sockets named relative
// to the run directory (the benchmark chdirs there, so socket paths stay
// short whatever the checkout path is).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qbench {

/// Splits the CPUs: the calling thread (and every thread it starts later)
/// keeps to the top `client_cpus` CPUs, and processes started by `spawn`
/// afterwards run on the others. Keeping the load generator off the
/// server's CPUs roughly halved serve_hot's run-to-run spread on the
/// reference VM.
void split_cpus(long client_cpus);

/// What a hand-off between a client thread and a server thread costs on
/// this host right now: the median round trip, in microseconds, of a
/// 2 KiB message between the calling thread and an echo thread over a
/// Unix socketpair. The echo thread runs where `spawn` places servers.
/// No code of the program under test runs in it, so it moves with the
/// host's load and not with the program; serve.cpp scales the gated
/// times by it.
double host_echo_us();

/// Starts `argv` with stdout/stderr appended to `log_path`. Every child
/// is remembered so `kill_all_children` can stop it on a watchdog expiry.
pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path);

/// Polls `socket` with pings until one succeeds; false after `timeout_s`.
bool wait_ready(const std::string& socket, double timeout_s);

/// Sends the shutdown verb to `socket`, then reaps `pid`, killing it if it
/// has not exited within `timeout_s`. Returns the raw wait status.
int stop(pid_t pid, const std::string& socket, double timeout_s);

/// Reaps `pid` within `timeout_s` (SIGKILL after that); raw wait status.
int reap(pid_t pid, double timeout_s);

void kill_all_children();

/// Peak resident set (VmHWM) of `pid` in MiB; 0 if unreadable.
double vm_hwm_mb(pid_t pid);

/// The lifetime block of a stats-verb reply: counters, plus p50 of each
/// histogram.
struct Stats {
  std::map<std::string, double> counters;
  std::map<std::string, double> p50;
  double counter(const std::string& name) const;
};

/// Fetches and parses a JSON stats frame from `socket`.
bool fetch_stats(const std::string& socket, Stats* out);

/// Parses the JSON stats frame `text` (exposed for the self-tests).
bool parse_stats(const std::string& text, Stats* out);

}  // namespace qbench
