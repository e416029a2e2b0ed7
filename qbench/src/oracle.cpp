#include "oracle.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

namespace qbench {

namespace {

// One child's output file: a record per solved request, [u64 index]
// [u32 length][payload bytes], flushed after each record so a child that
// dies leaves only whole records behind (a torn tail is ignored).
std::vector<std::pair<std::uint64_t, std::string>> read_records(
    const std::string& path) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::uint64_t index = 0;
  std::uint32_t len = 0;
  while (std::fread(&index, sizeof index, 1, f) == 1 &&
         std::fread(&len, sizeof len, 1, f) == 1) {
    std::string payload(len, '\0');
    if (len > 0 && std::fread(payload.data(), 1, len, f) != len) break;
    out.emplace_back(index, std::move(payload));
  }
  std::fclose(f);
  std::remove(path.c_str());
  return out;
}

}  // namespace

std::uint32_t Oracle::attempt(std::uint64_t index) const {
  const auto it = attempts_.find(index);
  return it == attempts_.end() ? 0 : it->second;
}

qbss::svc::Request Oracle::request(std::uint64_t index) const {
  return make_(index, attempt(index));
}

const std::string* Oracle::payload(std::uint64_t index) const {
  const auto it = payloads_.find(index);
  return it == payloads_.end() ? nullptr : &it->second;
}

void Oracle::solve(const std::vector<std::uint64_t>& indices,
                   std::size_t workers) {
  struct Child {
    pid_t pid = -1;
    std::string path;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  const auto launch = [&](std::size_t begin, std::size_t end) {
    Child kid{-1, "oracle-" + std::to_string(begin) + ".bin", begin, end};
    std::fflush(nullptr);
    kid.pid = fork();
    if (kid.pid == 0) {
      std::FILE* out = std::fopen(kid.path.c_str(), "wb");
      if (out == nullptr || std::freopen("/dev/null", "w", stderr) == nullptr) {
        _exit(3);
      }
      for (std::size_t k = begin; k < end; ++k) {
        std::string payload;
        std::string error;
        // A request the solver rejects is no more usable than one that
        // kills it: both are re-rolled.
        if (!qbss::svc::solve_request(request(indices[k]), &payload, &error)) {
          std::fflush(out);
          std::abort();
        }
        const auto len = static_cast<std::uint32_t>(payload.size());
        std::fwrite(&indices[k], sizeof indices[k], 1, out);
        std::fwrite(&len, sizeof len, 1, out);
        std::fwrite(payload.data(), 1, payload.size(), out);
        std::fflush(out);
      }
      std::fclose(out);
      _exit(0);
    }
    return kid;
  };

  std::vector<Child> kids;
  for (std::size_t w = 0; w < workers; ++w) {
    kids.push_back(launch(indices.size() * w / workers,
                          indices.size() * (w + 1) / workers));
  }
  for (Child kid : kids) {
    while (kid.pid > 0) {
      int status = 0;
      waitpid(kid.pid, &status, 0);
      const auto records = read_records(kid.path);
      for (const auto& [index, payload] : records) payloads_[index] = payload;
      const std::size_t next = kid.begin + records.size();
      if (next >= kid.end) break;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 3) break;  // no file
      ++attempts_[indices[next]];
      ++rerolled_;
      kid = launch(next, kid.end);
    }
  }
}

}  // namespace qbench
