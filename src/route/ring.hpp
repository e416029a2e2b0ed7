// qbss::route hash ring — consistent hashing of canonical cache keys
// onto weighted backends.
//
// Each backend contributes `round(weight * kVnodesPerWeight)` virtual
// nodes; a vnode's position is a pure function of the backend *name*
// (never its address, list position, or pointer), so the mapping is
// deterministic across platforms, processes and topology-file orderings.
// A key lands on the first vnode at or after its hash (wrapping), which
// gives the two properties the router leans on:
//
//   - weighted placement: a backend owns ~weight/total of key space;
//   - bounded movement: adding or removing one backend remaps only the
//     keys that land on (or leave) that backend's vnodes — about 1/N of
//     the key space — and every remapped key moves to/from that backend.
//
// successors() walks the ring past a key's owner to find the distinct
// next backends — the failover ladder the router walks when the owner's
// breaker is open or its call fails.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qbss::route {

class HashRing {
 public:
  /// Virtual nodes per unit of weight. High enough that placement
  /// tracks weights within a few percent; low enough that building a
  /// fleet-sized ring is microseconds.
  static constexpr std::size_t kVnodesPerWeight = 64;

  HashRing() = default;

  /// Builds a ring over `nodes` (name, weight). Names must be unique
  /// and weights positive — the topology parser enforces both. Nodes
  /// are name-sorted internally, so two rings built from permutations
  /// of the same list are identical, indices included.
  explicit HashRing(std::vector<std::pair<std::string, double>> nodes);

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }

  /// Name of node `index` (indices are name-sorted).
  [[nodiscard]] const std::string& name(std::size_t index) const {
    return names_[index];
  }

  /// Index of the node owning `hash` (the first vnode at or after it,
  /// wrapping). Ring must be non-empty.
  [[nodiscard]] std::size_t primary(std::uint64_t hash) const;

  /// Up to `count` distinct nodes after `hash`'s owner, in ring order.
  /// Never contains the owner; shorter than `count` when the ring has
  /// fewer other nodes.
  [[nodiscard]] std::vector<std::size_t> successors(std::uint64_t hash,
                                                    std::size_t count) const;

  /// Position hash for a canonical cache key (or any byte string):
  /// FNV-1a then a splitmix64 finalizer, platform-independent.
  [[nodiscard]] static std::uint64_t key_hash(std::string_view key) noexcept;

 private:
  struct Vnode {
    std::uint64_t point;
    std::uint32_t node;
  };

  /// Index of the first vnode at or after `hash`, wrapping to 0.
  [[nodiscard]] std::size_t lower_vnode(std::uint64_t hash) const;

  std::vector<std::string> names_;  ///< sorted
  std::vector<Vnode> points_;      ///< sorted by (point, owner name)
};

}  // namespace qbss::route
