#include "common/piecewise.hpp"

#include <algorithm>
#include <cmath>

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

}  // namespace

StepFunction StepFunction::constant(Interval iv, double v) {
  QBSS_EXPECTS(!iv.empty());
  StepFunction f;
  f.pieces_ = {Segment{iv, v}};
  f.normalize();
  return f;
}

StepFunction StepFunction::sum_of(std::span<const Segment> pieces) {
  // Sweep line: +value at each begin, -value at each end; the running sum
  // between consecutive distinct event times is the summed function.
  std::vector<std::pair<Time, double>> events;
  events.reserve(2 * pieces.size());
  for (const auto& p : pieces) {
    if (p.span.empty()) continue;
    events.emplace_back(p.span.begin, p.value);
    events.emplace_back(p.span.end, -p.value);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Scale for snapping cancellation residue (+v then -v leaves ~1 ulp of
  // dust in the running sum, which would surface as spurious tiny pieces).
  double scale = 0.0;
  for (const auto& e : events) scale = std::max(scale, std::fabs(e.second));
  const double dust = 1e-12 * scale;

  StepFunction out;
  out.pieces_.reserve(events.empty() ? 0 : events.size() - 1);
  double running = 0.0;
  std::size_t i = 0;
  while (i < events.size()) {
    const Time t = events[i].first;
    while (i < events.size() && events[i].first == t) {
      running += events[i].second;
      ++i;
    }
    if (std::fabs(running) <= dust) running = 0.0;
    if (i < events.size()) {
      out.pieces_.push_back(Segment{{t, events[i].first}, running});
    }
  }
  out.normalize();
  return out;
}

double StepFunction::value(Time t) const {
  // Pieces are sorted; find the piece with span.begin < t <= span.end.
  auto it = std::upper_bound(
      pieces_.begin(), pieces_.end(), t,
      [](Time x, const Segment& s) { return x <= s.span.end; });
  // `it` is the first piece with span.end >= t; check it actually covers t.
  if (it != pieces_.end() && it->span.contains(t)) return it->value;
  return 0.0;
}

double StepFunction::integral() const {
  double total = 0.0;
  for (const auto& p : pieces_) total += p.span.length() * p.value;
  return total;
}

double StepFunction::integral(Interval iv) const {
  double total = 0.0;
  for (const auto& p : pieces_) {
    const Interval cut = p.span.intersect(iv);
    if (!cut.empty()) total += cut.length() * p.value;
  }
  return total;
}

double StepFunction::power_integral(double alpha) const {
  QBSS_EXPECTS(alpha > 0.0);
  double total = 0.0;
  for (const auto& p : pieces_) {
    if (p.value > 0.0) total += p.span.length() * std::pow(p.value, alpha);
  }
  return total;
}

double StepFunction::max_value() const {
  double m = 0.0;
  for (const auto& p : pieces_) m = std::max(m, p.value);
  return m;
}

Interval StepFunction::support() const {
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

StepFunction StepFunction::scaled(double k) const {
  QBSS_EXPECTS(k >= 0.0);
  StepFunction out = *this;
  for (auto& p : out.pieces_) p.value *= k;
  out.normalize();
  return out;
}

StepFunction StepFunction::restricted(Interval iv) const {
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

std::vector<Time> StepFunction::breakpoints() const {
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

bool StepFunction::approx_equals(const StepFunction& other, double tol) const {
  const std::vector<Time> ts = merged_boundaries(pieces_, other.pieces_);
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    const Time probe = ts[i + 1];
    if (!approx_eq(value(probe), other.value(probe), tol)) return false;
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
