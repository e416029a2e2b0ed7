// A set of disjoint half-open intervals with union/subtract/measure — the
// bookkeeping YDS needs to treat already-scheduled critical intervals as
// unavailable time.
#pragma once

#include <algorithm>
#include <vector>

#include "common/interval.hpp"

namespace qbss {

/// Sorted union of disjoint non-empty intervals. Value semantics.
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Adds `iv` (unioning with any overlapping or touching members), in
  /// place: the members it meets are one run, which becomes their union.
  void insert(Interval iv) {
    if (iv.empty()) return;
    // Members strictly left of iv, then the run it meets.
    auto first = std::find_if(
        members_.begin(), members_.end(),
        [&](const Interval& m) { return !(m.end < iv.begin); });
    auto last = first;
    while (last != members_.end() && !(iv.end < last->begin)) {
      iv.begin = std::min(iv.begin, last->begin);
      iv.end = std::max(iv.end, last->end);
      ++last;
    }
    if (first == last) {
      members_.insert(first, iv);
    } else {
      *first = iv;
      members_.erase(first + 1, last);
    }
  }

  /// Total length covered within `iv`.
  [[nodiscard]] Time measure_within(Interval iv) const {
    Time total = 0.0;
    for (const Interval& m : members_) total += m.intersect(iv).length();
    return total;
  }

  /// Total length covered.
  [[nodiscard]] Time measure() const {
    Time total = 0.0;
    for (const Interval& m : members_) total += m.length();
    return total;
  }

  /// The parts of `iv` NOT covered by this set, in increasing order.
  [[nodiscard]] std::vector<Interval> gaps_within(Interval iv) const {
    std::vector<Interval> out;
    gaps_within(iv, out);
    return out;
  }

  /// Same, into `out` (cleared first), for a caller that keeps the buffer.
  void gaps_within(Interval iv, std::vector<Interval>& out) const {
    out.clear();
    Time cursor = iv.begin;
    for (const Interval& m : members_) {
      const Interval cut = m.intersect(iv);
      if (cut.empty()) continue;
      if (cursor < cut.begin) out.push_back({cursor, cut.begin});
      cursor = std::max(cursor, cut.end);
    }
    if (cursor < iv.end) out.push_back({cursor, iv.end});
  }

  /// True iff `t` lies in some member (half-open test).
  [[nodiscard]] bool contains(Time t) const {
    for (const Interval& m : members_) {
      if (m.contains(t)) return true;
    }
    return false;
  }

  [[nodiscard]] const std::vector<Interval>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] bool empty() const noexcept { return members_.empty(); }

  /// Removes every member, keeping the buffer's capacity.
  void clear() noexcept { members_.clear(); }

 private:
  std::vector<Interval> members_;
};

}  // namespace qbss
