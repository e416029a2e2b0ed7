#include "procs.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>

#include "measure.hpp"
#include "svc/client.hpp"

extern char** environ;

namespace qbench {

namespace {

std::mutex g_children_mu;
std::vector<pid_t> g_children;
bool g_split = false;
cpu_set_t g_server_cpus;
cpu_set_t g_client_cpus;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// A scanner over the fixed shape of a stats frame: objects of string
// keys whose values are numbers, strings or (histograms) flat objects.
struct Scanner {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool str(std::string* out) {
    if (!eat('"')) return false;
    const std::size_t end = s.find('"', i);
    if (end == std::string::npos) return false;
    *out = s.substr(i, end - i);
    i = end + 1;
    return true;
  }
  bool num(double* out) {
    ws();
    char* end = nullptr;
    *out = std::strtod(s.c_str() + i, &end);
    if (end == s.c_str() + i) return false;
    i = static_cast<std::size_t>(end - s.c_str());
    return true;
  }
  // Calls on_value(key) for each member of the object starting here;
  // on_value consumes the value.
  template <typename F>
  bool object(F on_value) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      std::string key;
      if (!str(&key) || !eat(':') || !on_value(key)) return false;
    } while (eat(','));
    return eat('}');
  }
};

}  // namespace

double Stats::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

void split_cpus(long client_cpus) {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (client_cpus < 1 || client_cpus >= n) return;
  CPU_ZERO(&g_server_cpus);
  CPU_ZERO(&g_client_cpus);
  for (long cpu = 0; cpu < n; ++cpu) {
    CPU_SET(static_cast<int>(cpu),
            cpu < n - client_cpus ? &g_server_cpus : &g_client_cpus);
  }
  g_split = sched_setaffinity(0, sizeof g_client_cpus, &g_client_cpus) == 0;
}

namespace {

bool move_all(int fd, char* buf, std::size_t n, bool out) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t k = out ? write(fd, buf + done, n - done)
                          : read(fd, buf + done, n - done);
    if (k <= 0) return false;
    done += static_cast<std::size_t>(k);
  }
  return true;
}

}  // namespace

double host_echo_us() {
  constexpr std::size_t kBytes = 2048;
  constexpr int kTrips = 300;
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return 0.0;
  std::thread echo([fd = fds[1]] {
    if (g_split) sched_setaffinity(0, sizeof g_server_cpus, &g_server_cpus);
    char buf[kBytes];
    while (move_all(fd, buf, kBytes, false) && move_all(fd, buf, kBytes, true)) {
    }
  });
  char buf[kBytes] = {};
  std::vector<double> trips;
  for (int i = 0; i < kTrips; ++i) {
    const std::uint64_t t0 = now_ns();
    if (!move_all(fds[0], buf, kBytes, true) ||
        !move_all(fds[0], buf, kBytes, false)) {
      break;
    }
    trips.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  shutdown(fds[0], SHUT_RDWR);
  echo.join();
  close(fds[0]);
  close(fds[1]);
  return median(trips);
}

pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  // The child inherits the calling thread's CPU set.
  if (g_split) sched_setaffinity(0, sizeof g_server_cpus, &g_server_cpus);
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  if (g_split) sched_setaffinity(0, sizeof g_client_cpus, &g_client_cpus);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  const std::lock_guard<std::mutex> lock(g_children_mu);
  g_children.push_back(pid);
  return pid;
}

bool wait_ready(const std::string& socket, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    qbss::svc::Client client;
    std::string error;
    client.set_timeout_ms(2000.0);
    if (client.connect_unix(socket, &error) && client.ping(&error)) return true;
    sleep_ms(2);
  }
  return false;
}

int reap(pid_t pid, double timeout_s) {
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid || r < 0) break;
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      break;
    }
    sleep_ms(1);
  }
  const std::lock_guard<std::mutex> lock(g_children_mu);
  std::erase(g_children, pid);
  return status;
}

int stop(pid_t pid, const std::string& socket, double timeout_s) {
  qbss::svc::Client client;
  std::string error;
  client.set_timeout_ms(5000.0);
  if (client.connect_unix(socket, &error)) {
    static_cast<void>(client.shutdown_server(&error));
  }
  return reap(pid, timeout_s);
}

void kill_all_children() {
  const std::lock_guard<std::mutex> lock(g_children_mu);
  for (const pid_t pid : g_children) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  g_children.clear();
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool parse_stats(const std::string& text, Stats* out) {
  const std::size_t extra = text.find("\"extra\":");
  const std::size_t life = text.find("\"lifetime\":");
  if (extra == std::string::npos || life == std::string::npos) return false;
  Scanner sc{text, extra + 8};
  const bool extra_ok = sc.object([&](const std::string& key) {
    std::string value;
    if (!sc.str(&value)) return false;
    out->counters["extra." + key] = std::strtod(value.c_str(), nullptr);
    return true;
  });
  sc.i = life + 11;
  return extra_ok && sc.object([&](const std::string& section) {
    if (section == "counters") {
      return sc.object([&](const std::string& key) {
        return sc.num(&out->counters[key]);
      });
    }
    return sc.object([&](const std::string& hist) {
      return sc.object([&](const std::string& field) {
        double v = 0.0;
        if (!sc.num(&v)) return false;
        if (field == "p50") out->p50[hist] = v;
        return true;
      });
    });
  });
}

bool fetch_stats(const std::string& socket, Stats* out) {
  qbss::svc::Client client;
  qbss::svc::Client::Reply reply;
  std::string error;
  client.set_timeout_ms(5000.0);
  return client.connect_unix(socket, &error) &&
         client.stats("json", &reply, &error) &&
         reply.status == qbss::svc::Status::kOk &&
         parse_stats(reply.payload, out);
}

}  // namespace qbench
