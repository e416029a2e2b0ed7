// The benchmark's inputs. Every request is a pure function of the
// workload seed and its stream index, so the same seed always yields a
// byte-identical request stream; the programs under test see only the
// generated requests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "qbss/qinstance.hpp"
#include "svc/protocol.hpp"

namespace qbench {

/// splitmix64 of `a` combined with `b`.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);
/// Uniform double in [0, 1) derived from `bits`.
double unit(std::uint64_t bits);

/// Instance families, generated exactly as `qbss gen --family F` does.
enum class Family { kMixed, kCommon, kPow2, kCompression, kOptimizer };
qbss::core::QInstance make_instance(Family family, int n, std::uint64_t seed);

/// serve_hot: entry k of the 256 distinct `bkpq` requests on `mixed` n=12
/// instances; a quarter of them ask for the schedule dump.
qbss::svc::Request hot_key(std::uint64_t seed, std::uint64_t k,
                           std::uint32_t attempt = 0);
/// Which pool entry stream request `index` asks for (uniform).
std::size_t hot_pick(std::uint64_t seed, std::uint64_t index, std::size_t size);

/// serve_miss: a uniform mix over all eight served algorithms at
/// n in {16, 32}, each on a family it is defined on; every index is a
/// distinct key. `attempt` re-rolls the instance (see Oracle).
qbss::svc::Request miss_request(std::uint64_t seed, std::uint64_t index,
                                std::uint32_t attempt = 0);

/// fleet_disk: key k of the 4096 cheap keys (n=12; bkpq/avrq/opt on
/// `mixed`).
qbss::svc::Request fleet_key(std::uint64_t seed, std::uint64_t k,
                             std::uint32_t attempt = 0);

/// One fleet_disk stream entry: a Zipf(1.0) draw over the pool, or (one
/// request in 20) a fresh key.
struct FleetPick {
  bool fresh = false;
  std::size_t key = 0;
};

class ZipfTable {
 public:
  ZipfTable(std::size_t n, double s);
  std::size_t draw(double u) const;

 private:
  std::vector<double> cdf_;
};

FleetPick fleet_pick(const ZipfTable& zipf, std::uint64_t seed,
                     std::uint64_t index);
qbss::svc::Request fleet_fresh(std::uint64_t seed, std::uint64_t index,
                               std::uint32_t attempt = 0);

/// The known-defect probe: requests that each abort `qbss serve` at the
/// time of writing, with a label.
std::vector<std::pair<std::string, qbss::svc::Request>> probe_requests();

}  // namespace qbench
