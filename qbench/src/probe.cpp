// The known-defect probe: requests that abort `qbss serve` instead of
// getting a typed error. A report, not a gate: the count is printed on
// every run so a fix shows up as a drop to 0.
#include <sys/wait.h>

#include <cstring>
#include <filesystem>

#include "bench.hpp"
#include "procs.hpp"
#include "streams.hpp"
#include "svc/client.hpp"

namespace qbench {

int run_probe(const Options& opts, std::vector<std::string>* notes) {
  int aborts = 0;
  int n = 0;
  for (const auto& [label, request] : probe_requests()) {
    const std::string sock = "probe" + std::to_string(n++) + ".sock";
    std::error_code ec;
    std::filesystem::remove(sock, ec);
    const pid_t pid = spawn({opts.qbss, "serve", "--socket", sock, "--workers",
                             "1", "--quiet", "--manifest", sock + ".json"},
                            sock + ".log");
    if (pid <= 0 || !wait_ready(sock, 20.0)) {
      notes->push_back("probe: cannot start a server for " + label);
      if (pid > 0) reap(pid, 0.0);
      continue;
    }
    qbss::svc::Client client;
    qbss::svc::Client::Reply reply;
    std::string error;
    client.set_timeout_ms(10000.0);
    const bool answered = client.connect_unix(sock, &error) &&
                          client.call(request, &reply, &error);
    client.close();
    const int status = answered ? stop(pid, sock, 10.0) : reap(pid, 10.0);
    std::filesystem::remove(sock, ec);
    if (WIFSIGNALED(status)) {
      ++aborts;
      notes->push_back("probe: " + label + ": server killed by " +
                       strsignal(WTERMSIG(status)));
    } else {
      notes->push_back("probe: " + label + ": server answered (" +
                       (answered && reply.status == qbss::svc::Status::kError
                            ? "typed error"
                            : "status " + std::to_string(static_cast<int>(
                                              reply.status))) +
                       ")");
    }
  }
  notes->push_back("probe.server_aborts " + std::to_string(aborts) + " of " +
                   std::to_string(n));
  return aborts;
}

}  // namespace qbench
