#include "common/piecewise.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace qbss {

namespace {

/// Collects the sorted distinct boundary points of two piece lists.
std::vector<Time> merged_boundaries(const std::vector<Segment>& a,
                                    const std::vector<Segment>& b) {
  std::vector<Time> ts;
  ts.reserve(2 * (a.size() + b.size()));
  for (const auto& s : a) {
    ts.push_back(s.span.begin);
    ts.push_back(s.span.end);
  }
  for (const auto& s : b) {
    ts.push_back(s.span.begin);
    ts.push_back(s.span.end);
  }
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  return ts;
}

/// True iff sum_of's event sort would leave the events of `pieces`
/// (begin, end, begin, end, ...) as they come: the pieces are non-empty,
/// sorted, and no two overlap or touch, so every event time is distinct
/// and any sort gives this order. (Touching pieces tie an end with the
/// next begin, and an unstable sort may swap the two.)
bool in_event_order(std::span<const Segment> pieces) {
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const Interval& span = pieces[i].span;
    if (!(span.begin < span.end)) return false;
    if (i > 0 && !(pieces[i - 1].span.end < span.begin)) return false;
  }
  return true;
}

/// Appends `p` to the pieces out[first..]: what normalize() makes of
/// pieces that arrive sorted with distinct begins (a zero piece is
/// dropped, one that continues the last piece at its value joins it).
void append_normalized(std::vector<Segment>& out, std::size_t first,
                       const Segment& p) {
  if (p.value == 0.0) return;
  if (out.size() > first && out.back().span.end == p.span.begin &&
      out.back().value == p.value) {
    out.back().span.end = p.span.end;
  } else {
    out.push_back(p);
  }
}

/// sum_of's sweep over `count` events in sorted order, event i being
/// at(i) = (time, signed value): the running sum between consecutive
/// distinct event times, with anything within `dust` of zero snapped to
/// zero, appended to `out` normalized.
template <class EventAt>
void sweep(std::size_t count, EventAt at, double dust,
           std::vector<Segment>& out) {
  const std::size_t first = out.size();
  double running = 0.0;
  std::size_t i = 0;
  while (i < count) {
    const Time t = at(i).first;
    while (i < count && at(i).first == t) {
      running += at(i).second;
      ++i;
    }
    if (std::fabs(running) <= dust) running = 0.0;
    if (i < count) {
      append_normalized(out, first, Segment{{t, at(i).first}, running});
    }
  }
}

}  // namespace

StepFunction StepFunction::constant(Interval iv, double v) {
  QBSS_EXPECTS(!iv.empty());
  StepFunction f;
  f.pieces_ = {Segment{iv, v}};
  f.normalize();
  return f;
}

StepFunction StepFunction::sum_of(std::span<const Segment> pieces) {
  StepFunction out;
  out.pieces_.reserve(pieces.empty() ? 0 : 2 * pieces.size() - 1);
  append_sum_of(pieces, out.pieces_);
  return out;
}

void StepFunction::append_sum_of(std::span<const Segment> pieces,
                                 std::vector<Segment>& out) {
  // Sweep line: +value at each begin, -value at each end; the running sum
  // between consecutive distinct event times is the summed function.
  // Scale for snapping cancellation residue (+v then -v leaves ~1 ulp of
  // dust in the running sum, which would surface as spurious tiny pieces).
  double scale = 0.0;
  if (in_event_order(pieces)) {
    for (const Segment& p : pieces) scale = std::max(scale, std::fabs(p.value));
    const auto event = [pieces](std::size_t i) {
      const Segment& p = pieces[i / 2];
      return i % 2 == 0 ? std::pair{p.span.begin, p.value}
                        : std::pair{p.span.end, -p.value};
    };
    sweep(2 * pieces.size(), event, 1e-12 * scale, out);
    return;
  }

  std::vector<std::pair<Time, double>> events;
  events.reserve(2 * pieces.size());
  for (const auto& p : pieces) {
    if (p.span.empty()) continue;
    events.emplace_back(p.span.begin, p.value);
    events.emplace_back(p.span.end, -p.value);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& e : events) scale = std::max(scale, std::fabs(e.second));
  sweep(events.size(), [&events](std::size_t i) { return events[i]; },
        1e-12 * scale, out);
}

double StepView::value(Time t) const {
  // Pieces are sorted; find the piece with span.begin < t <= span.end.
  auto it = std::upper_bound(
      pieces_.begin(), pieces_.end(), t,
      [](Time x, const Segment& s) { return x <= s.span.end; });
  // `it` is the first piece with span.end >= t; check it actually covers t.
  if (it != pieces_.end() && it->span.contains(t)) return it->value;
  return 0.0;
}

double StepView::integral() const {
  double total = 0.0;
  for (const auto& p : pieces_) total += p.span.length() * p.value;
  return total;
}

double StepView::integral(Interval iv) const {
  double total = 0.0;
  for (const auto& p : pieces_) {
    const Interval cut = p.span.intersect(iv);
    if (!cut.empty()) total += cut.length() * p.value;
  }
  return total;
}

double StepView::power_integral(double alpha) const {
  QBSS_EXPECTS(alpha > 0.0);
  double total = 0.0;
  for (const auto& p : pieces_) {
    if (p.value > 0.0) total += p.span.length() * std::pow(p.value, alpha);
  }
  return total;
}

double StepView::max_value() const {
  double m = 0.0;
  for (const auto& p : pieces_) m = std::max(m, p.value);
  return m;
}

Interval StepView::support() const {
  Time lo = kInf;
  Time hi = -kInf;
  for (const auto& p : pieces_) {
    if (p.value != 0.0) {
      lo = std::min(lo, p.span.begin);
      hi = std::max(hi, p.span.end);
    }
  }
  if (lo >= hi) return {};
  return {lo, hi};
}

StepFunction StepFunction::plus(const StepFunction& other) const {
  const std::vector<Time> ts = merged_boundaries(pieces_, other.pieces_);
  StepFunction out;
  out.pieces_.reserve(ts.empty() ? 0 : ts.size() - 1);
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    const Interval span{ts[i], ts[i + 1]};
    const Time probe = span.end;  // any interior/right point of (a, b]
    out.pieces_.push_back(Segment{span, value(probe) + other.value(probe)});
  }
  out.normalize();
  return out;
}

StepFunction StepView::scaled(double k) const {
  QBSS_EXPECTS(k >= 0.0);
  StepFunction out;
  out.pieces_.assign(pieces_.begin(), pieces_.end());
  for (auto& p : out.pieces_) p.value *= k;
  out.normalize();
  return out;
}

StepFunction StepView::restricted(Interval iv) const {
  StepFunction out;
  out.pieces_.reserve(pieces_.size());
  for (const auto& p : pieces_) {
    const Interval cut = p.span.intersect(iv);
    if (!cut.empty()) out.pieces_.push_back(Segment{cut, p.value});
  }
  out.normalize();
  return out;
}

void StepFunction::add_constant(Interval iv, double v) {
  if (iv.empty()) return;
  if (!pieces_.empty() && iv.begin < pieces_.back().span.end) {
    *this = plus(StepFunction::constant(iv, v));
    return;
  }
  // A piece at or after the last one: plus() would keep every old piece
  // (p + 0.0 == p for the nonzero values stored), drop a zero v and merge
  // v into an adjacent equal last piece. Do exactly that, in place.
  if (v == 0.0) return;
  if (!pieces_.empty() && pieces_.back().span.end == iv.begin &&
      pieces_.back().value == v) {
    pieces_.back().span.end = iv.end;
  } else {
    pieces_.push_back(Segment{iv, v});
  }
}

std::vector<Time> StepView::breakpoints() const {
  std::vector<Time> ts;
  ts.reserve(2 * pieces_.size());
  for (const auto& p : pieces_) {
    ts.push_back(p.span.begin);
    ts.push_back(p.span.end);
  }
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  return ts;
}

namespace {

/// Boundaries of normalized pieces in ascending order (begin, end, begin,
/// end, ...; an end may equal the next begin), with the function's value
/// at each: value(t) for a t that never decreases between calls.
class BoundaryCursor {
 public:
  explicit BoundaryCursor(std::span<const Segment> pieces)
      : pieces_(pieces) {}

  [[nodiscard]] bool done() const noexcept {
    return next_ == 2 * pieces_.size();
  }
  [[nodiscard]] Time peek() const noexcept {
    const Segment& p = pieces_[next_ / 2];
    return next_ % 2 == 0 ? p.span.begin : p.span.end;
  }
  void advance() noexcept { ++next_; }

  [[nodiscard]] double value(Time t) noexcept {
    while (at_ < pieces_.size() && pieces_[at_].span.end < t) ++at_;
    if (at_ < pieces_.size() && pieces_[at_].span.contains(t)) {
      return pieces_[at_].value;
    }
    return 0.0;
  }

 private:
  std::span<const Segment> pieces_;
  std::size_t next_ = 0;  ///< next boundary
  std::size_t at_ = 0;    ///< first piece that may contain the probe
};

}  // namespace

bool StepView::approx_equals(StepView other, double tol) const {
  // The distinct boundaries of both functions, merged in ascending order;
  // every one but the first is a probe.
  BoundaryCursor a(pieces_);
  BoundaryCursor b(other.pieces_);
  bool first = true;
  Time last = 0.0;
  while (!a.done() || !b.done()) {
    BoundaryCursor& from =
        b.done() || (!a.done() && a.peek() <= b.peek()) ? a : b;
    const Time t = from.peek();
    from.advance();
    if (!first && t == last) continue;
    const bool probe = !first;
    first = false;
    last = t;
    if (probe && !approx_eq(a.value(t), b.value(t), tol)) return false;
  }
  return true;
}

void StepFunction::normalize() {
  // Sort, drop empties and zero pieces, merge adjacent equal-valued pieces.
  std::erase_if(pieces_,
                [](const Segment& s) { return s.span.empty() || s.value == 0.0; });
  std::sort(pieces_.begin(), pieces_.end(),
            [](const Segment& a, const Segment& b) {
              return a.span.begin < b.span.begin;
            });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    const Segment p = pieces_[i];
    if (kept > 0 && pieces_[kept - 1].span.end == p.span.begin &&
        pieces_[kept - 1].value == p.value) {
      pieces_[kept - 1].span.end = p.span.end;
    } else {
      QBSS_ENSURES(kept == 0 || pieces_[kept - 1].span.end <= p.span.begin);
      pieces_[kept++] = p;
    }
  }
  pieces_.resize(kept);
}

}  // namespace qbss
