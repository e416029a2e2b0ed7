// Reference replies for the benchmark's requests.
//
// Every request a run may send is solved with svc::solve_request in
// forked children before any process under test starts; the replies the
// programs send are then compared byte for byte with these payloads. Some
// requests abort the solver (a failed precondition or postcondition kills
// the process, see README.md). Such a request would kill `qbss serve` mid
// run, so it is re-rolled instead: same algorithm, family and size, a new
// instance. How many were re-rolled is reported with every run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "svc/protocol.hpp"

namespace qbench {

class Oracle {
 public:
  /// Builds request `index`; `attempt` > 0 asks for a re-rolled instance.
  using Make =
      std::function<qbss::svc::Request(std::uint64_t index, std::uint32_t attempt)>;

  explicit Oracle(Make make) : make_(std::move(make)) {}

  /// Solves `indices` in `workers` forked children, writing through files
  /// in the current directory.
  void solve(const std::vector<std::uint64_t>& indices, std::size_t workers);

  /// Request `index` as it is sent: re-rolled if the original aborted.
  qbss::svc::Request request(std::uint64_t index) const;
  /// Its ok-payload, or null when `index` was never solved.
  const std::string* payload(std::uint64_t index) const;
  std::size_t rerolled() const { return rerolled_; }

 private:
  std::uint32_t attempt(std::uint64_t index) const;

  Make make_;
  std::unordered_map<std::uint64_t, std::uint32_t> attempts_;
  std::unordered_map<std::uint64_t, std::string> payloads_;
  std::size_t rerolled_ = 0;
};

}  // namespace qbench
