#include "streams.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "gen/compression.hpp"
#include "gen/optimizer.hpp"
#include "gen/random_instances.hpp"

namespace qbench {

namespace {

using qbss::svc::Request;

// Stream salts keep the workloads' instance seeds apart.
constexpr std::uint64_t kHotSalt = 0x686f74;
constexpr std::uint64_t kMissSalt = 0x6d697373;
constexpr std::uint64_t kFleetSalt = 0x666c656574;
constexpr std::uint64_t kFreshSalt = 0x6672657368;

Request solve(const std::string& algo, qbss::core::QInstance instance) {
  Request r;
  r.verb = qbss::svc::Verb::kSolve;
  r.algo = algo;
  r.alpha = 3.0;
  r.instance = std::move(instance);
  return r;
}

struct MissShape {
  const char* algo;
  Family family;
  int n;
};

MissShape miss_shape(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t bits = mix(mix(seed, kMissSalt), index);
  static constexpr std::array<Family, 3> kOnline = {
      Family::kMixed, Family::kCompression, Family::kOptimizer};
  const Family online = kOnline[(bits >> 8) % 3];
  const int n = (bits >> 16) % 2 == 0 ? 16 : 32;
  switch (bits % 8) {
    case 0: return {"crcd", Family::kCommon, n};
    case 1: return {"crp2d", Family::kPow2, n};
    case 2: return {"crad", Family::kPow2, n};
    case 3: return {"avrq", online, n};
    case 4: return {"bkpq", online, n};
    case 5: return {"oaq", online, n};
    case 6: return {"opt", online, n};
    default: return {"avrq_m", Family::kMixed, n};
  }
}

}  // namespace

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

qbss::core::QInstance make_instance(Family family, int n, std::uint64_t seed) {
  namespace gen = qbss::gen;
  switch (family) {
    case Family::kMixed: return gen::random_online(n, 10.0, 0.5, 4.0, seed);
    case Family::kCommon: return gen::random_common_deadline(n, 8.0, seed);
    case Family::kPow2: return gen::random_pow2_deadlines(n, 4, seed);
    case Family::kCompression: {
      gen::CompressionConfig cfg;
      cfg.files = n;
      return gen::compression_stream(cfg, 12.0, 3.0, seed);
    }
    case Family::kOptimizer: {
      gen::OptimizerConfig cfg;
      cfg.jobs = n;
      return gen::optimizer_instance(cfg, seed);
    }
  }
  return {};
}

Request hot_key(std::uint64_t seed, std::uint64_t k, std::uint32_t attempt) {
  Request r = solve("bkpq", make_instance(Family::kMixed, 12,
                                          mix(mix(mix(seed, kHotSalt), k), attempt)));
  r.want_schedule = k % 4 == 0;
  return r;
}

std::size_t hot_pick(std::uint64_t seed, std::uint64_t index,
                     std::size_t size) {
  return mix(mix(seed, kHotSalt + 1), index) % size;
}

Request miss_request(std::uint64_t seed, std::uint64_t index,
                     std::uint32_t attempt) {
  const MissShape shape = miss_shape(seed, index);
  const std::uint64_t instance_seed =
      mix(mix(mix(seed, kMissSalt + 1), index), attempt);
  Request r = solve(shape.algo, make_instance(shape.family, shape.n,
                                              instance_seed));
  if (r.algo == "avrq_m") r.machines = 4;
  return r;
}

Request fleet_key(std::uint64_t seed, std::uint64_t k, std::uint32_t attempt) {
  static constexpr std::array<const char*, 3> kAlgos = {"bkpq", "avrq", "opt"};
  return solve(kAlgos[k % 3],
               make_instance(Family::kMixed, 12,
                             mix(mix(mix(seed, kFleetSalt), k), attempt)));
}

ZipfTable::ZipfTable(std::size_t n, double s) {
  double total = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfTable::draw(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

FleetPick fleet_pick(const ZipfTable& zipf, std::uint64_t seed,
                     std::uint64_t index) {
  const std::uint64_t bits = mix(mix(seed, kFleetSalt + 1), index);
  if (bits % 20 == 0) return {true, 0};
  return {false, zipf.draw(unit(mix(bits, 1)))};
}

Request fleet_fresh(std::uint64_t seed, std::uint64_t index,
                    std::uint32_t attempt) {
  static constexpr std::array<const char*, 3> kAlgos = {"bkpq", "avrq", "opt"};
  const std::uint64_t bits = mix(mix(seed, kFreshSalt), index);
  return solve(kAlgos[bits % 3],
               make_instance(Family::kMixed, 12, mix(mix(bits, 1), attempt)));
}

std::vector<std::pair<std::string, Request>> probe_requests() {
  std::vector<std::pair<std::string, Request>> probes;
  for (const char* algo : {"crcd", "crp2d", "crad"}) {
    probes.emplace_back(std::string(algo) + " on mixed",
                        solve(algo, make_instance(Family::kMixed, 12, 7)));
  }
  Request multi = solve("avrq_m", make_instance(Family::kMixed, 64, 191));
  multi.machines = 4;
  probes.emplace_back("avrq_m m=4 on mixed n=64 seed 191", std::move(multi));
  return probes;
}

}  // namespace qbench
