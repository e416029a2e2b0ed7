// The schedule primitives as they were before schedules kept one piece
// buffer: StepFunction::sum_of and normalize, approx_equals over sorted
// merged boundaries, IntervalSet::insert by rebuild and sort, the
// per-job-vector ScheduleBuilder, validate, and check_expansion with one
// parts_of scan per QBSS job. The bodies are verbatim apart from working
// on plain piece vectors instead of StepFunction's private members,
// parts_of taking its Expansion as an argument, and dropping the
// validators' obs counters.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "oracles.hpp"

namespace qbss::scheduling::oracle {

namespace {

/// StepFunction::normalize on a piece vector.
void normalize(std::vector<Segment>& pieces_) {
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

/// StepFunction::value on a piece span.
double value(std::span<const Segment> pieces_, Time t) {
  // Pieces are sorted; find the piece with span.begin < t <= span.end.
  auto it = std::upper_bound(
      pieces_.begin(), pieces_.end(), t,
      [](Time x, const Segment& s) { return x <= s.span.end; });
  // `it` is the first piece with span.end >= t; check it actually covers t.
  if (it != pieces_.end() && it->span.contains(t)) return it->value;
  return 0.0;
}

/// Collects the sorted distinct boundary points of two piece lists.
std::vector<Time> merged_boundaries(std::span<const Segment> a,
                                    std::span<const Segment> b) {
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

void fail(ValidationReport& report, std::string message) {
  report.feasible = false;
  report.errors.push_back(std::move(message));
}

}  // namespace

std::vector<Segment> sum_of(std::span<const Segment> pieces) {
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

  std::vector<Segment> out;
  out.reserve(events.empty() ? 0 : events.size() - 1);
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
      out.push_back(Segment{{t, events[i].first}, running});
    }
  }
  normalize(out);
  return out;
}

bool approx_equals(StepView a, StepView b, double tol) {
  const std::vector<Time> ts = merged_boundaries(a.pieces(), b.pieces());
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    const Time probe = ts[i + 1];
    if (!approx_eq(value(a.pieces(), probe), value(b.pieces(), probe), tol)) {
      return false;
    }
  }
  return true;
}

void interval_insert(std::vector<Interval>& members_, Interval iv) {
  if (iv.empty()) return;
  std::vector<Interval> out;
  out.reserve(members_.size() + 1);
  for (const Interval& m : members_) {
    if (m.end < iv.begin || iv.end < m.begin) {
      out.push_back(m);  // disjoint, not even touching
    } else {             // overlapping or adjacent: absorb into iv
      iv.begin = std::min(iv.begin, m.begin);
      iv.end = std::max(iv.end, m.end);
    }
  }
  out.push_back(iv);
  std::sort(out.begin(), out.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  members_ = std::move(out);
}

BuiltSchedule PerJobBuilder::build() && {
  BuiltSchedule out;
  out.rates.reserve(rates_.size());
  std::size_t total = 0;
  for (const auto& pieces : rates_) total += pieces.size();
  std::vector<Segment> all;
  all.reserve(total);
  for (auto& pieces : rates_) {
    all.insert(all.end(), pieces.begin(), pieces.end());
    out.rates.push_back(oracle::sum_of(pieces));
  }
  out.speed = oracle::sum_of(all);
  return out;
}

ValidationReport validate(const Instance& instance, const Schedule& schedule,
                          double tol) {
  ValidationReport report;

  if (schedule.job_count() != instance.size()) {
    fail(report, "schedule job count does not match instance");
    return report;
  }

  std::vector<Segment> all;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const JobId id = static_cast<JobId>(i);
    const ClassicalJob& job = instance.job(id);
    const StepView rate = schedule.rate(id);

    for (const Segment& s : rate.pieces()) {
      if (s.value < -tol) {
        std::ostringstream msg;
        msg << "job " << id << ": negative rate " << s.value;
        fail(report, msg.str());
      }
      if (s.value > tol && !job.window().covers(s.span)) {
        std::ostringstream msg;
        msg << "job " << id << ": rate outside window (" << s.span.begin
            << ", " << s.span.end << "] not in (" << job.release << ", "
            << job.deadline << "]";
        fail(report, msg.str());
      }
      all.push_back(s);
    }

    const Work done = rate.integral();
    if (!approx_eq(done, job.work, tol)) {
      std::ostringstream msg;
      msg << "job " << id << ": executed " << done << " of " << job.work;
      fail(report, msg.str());
    }
  }

  const std::vector<Segment> total = oracle::sum_of(all);
  if (!oracle::approx_equals(StepView(total), schedule.speed(), tol)) {
    fail(report, "speed profile is not the sum of job rates");
  }

  return report;
}

}  // namespace qbss::scheduling::oracle

namespace qbss::core::oracle {

namespace {

void fail(scheduling::ValidationReport& report, std::string message) {
  report.feasible = false;
  report.errors.push_back(std::move(message));
}

/// Expansion::parts_of: ids of the classical parts of QBSS job `q`.
std::vector<JobId> parts_of(const Expansion& expansion, JobId q) {
  std::vector<JobId> out;
  for (std::size_t i = 0; i < expansion.parts.size(); ++i) {
    if (expansion.parts[i].source == q) out.push_back(static_cast<JobId>(i));
  }
  return out;
}

}  // namespace

void check_expansion(const QInstance& instance, const Expansion& expansion,
                     scheduling::ValidationReport& report) {
  if (expansion.queried.size() != instance.size()) {
    fail(report, "expansion job count does not match QBSS instance");
    return;
  }

  for (std::size_t q = 0; q < instance.size(); ++q) {
    const QJob& job = instance.job(static_cast<JobId>(q));
    const auto parts = parts_of(expansion, static_cast<JobId>(q));

    if (expansion.queried[q]) {
      if (parts.size() != 2) {
        std::ostringstream msg;
        msg << "queried job " << q << " has " << parts.size()
            << " parts, expected 2";
        fail(report, msg.str());
        continue;
      }
      const auto& query = expansion.classical.job(parts[0]);
      const auto& exact = expansion.classical.job(parts[1]);
      if (expansion.parts[static_cast<std::size_t>(parts[0])].kind !=
              PartKind::kQuery ||
          expansion.parts[static_cast<std::size_t>(parts[1])].kind !=
              PartKind::kExact) {
        std::ostringstream msg;
        msg << "job " << q << ": unexpected part kinds";
        fail(report, msg.str());
      }
      if (!approx_eq(query.work, job.query_cost)) {
        std::ostringstream msg;
        msg << "job " << q << ": query work " << query.work << " != c_j "
            << job.query_cost;
        fail(report, msg.str());
      }
      if (!approx_eq(exact.work, job.exact_load)) {
        std::ostringstream msg;
        msg << "job " << q << ": exact work " << exact.work << " != w*_j "
            << job.exact_load;
        fail(report, msg.str());
      }
      if (query.deadline > exact.release + kEps) {
        std::ostringstream msg;
        msg << "job " << q
            << ": exact part may start before the query completes";
        fail(report, msg.str());
      }
      if (!job.window().covers(query.window()) ||
          !job.window().covers(exact.window())) {
        std::ostringstream msg;
        msg << "job " << q << ": part window escapes (r_j, d_j]";
        fail(report, msg.str());
      }
    } else {
      bool ok = !parts.empty();
      Work total = 0.0;
      for (const JobId p : parts) {
        const auto& part = expansion.classical.job(p);
        if (expansion.parts[static_cast<std::size_t>(p)].kind !=
            PartKind::kFull) {
          ok = false;
        }
        if (!job.window().covers(part.window())) ok = false;
        total += part.work;
      }
      if (!ok || !approx_eq(total, job.upper_bound)) {
        std::ostringstream msg;
        msg << "job " << q << ": unqueried parts must cover w_j inside the "
            << "window (got total " << total << ")";
        fail(report, msg.str());
      }
    }
  }
}

scheduling::ValidationReport validate_run(const QInstance& instance,
                                          const QbssRun& run, double tol) {
  scheduling::ValidationReport report =
      scheduling::oracle::validate(run.expansion.classical, run.schedule, tol);
  check_expansion(instance, run.expansion, report);
  return report;
}

}  // namespace qbss::core::oracle
