#include "io/render.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/check.hpp"

namespace qbss::io {

namespace {

/// Sample value at the midpoint of column c over [t0, t1).
double sample(StepView f, Interval span, int width, int c) {
  const double t = span.begin +
                   (static_cast<double>(c) + 0.5) * span.length() / width;
  return f.value(t);
}

/// The time range to draw: union of supports, else a unit stub.
Interval draw_span(const StepFunction& f) {
  const Interval s = f.support();
  if (s.empty()) return {0.0, 1.0};
  return s;
}

char shade(double value, double max) {
  if (value <= 0.0 || max <= 0.0) return ' ';
  const double q = value / max;
  if (q < 0.34) return '.';
  if (q < 0.67) return ':';
  return '#';
}

}  // namespace

std::string render_profile(const StepFunction& profile, int width,
                           int height, const std::string& title) {
  QBSS_EXPECTS(width >= 8 && height >= 2);
  const Interval span = draw_span(profile);
  const double max = profile.max_value();

  std::ostringstream out;
  if (!title.empty()) out << title << '\n';
  for (int row = height; row >= 1; --row) {
    const double level =
        max * (static_cast<double>(row) - 0.5) / height;
    out << (row == height ? '^' : '|');
    for (int c = 0; c < width; ++c) {
      const double v = sample(profile, span, width, c);
      out << ((max > 0.0 && v >= level) ? '#' : ' ');
    }
    if (row == height) {
      out << "  max " << max;
    }
    out << '\n';
  }
  out << '+';
  for (int c = 0; c < width; ++c) out << '-';
  out << "> t\n";
  std::ostringstream lo;
  lo << ' ' << span.begin;
  std::ostringstream hi;
  hi << span.end;
  std::string axis = lo.str();
  const std::string right = hi.str();
  const std::size_t total = static_cast<std::size_t>(width) + 1;
  if (axis.size() + right.size() < total) {
    axis.append(total - axis.size() - right.size(), ' ');
  }
  out << axis << right << '\n';
  return out.str();
}

std::string render_schedule(const scheduling::Schedule& schedule,
                            int width) {
  QBSS_EXPECTS(width >= 8);
  const Interval span = draw_span(schedule.speed());
  const double max = schedule.speed().max_value();

  std::ostringstream out;
  for (std::size_t j = 0; j < schedule.job_count(); ++j) {
    const StepView rate = schedule.rate(static_cast<scheduling::JobId>(j));
    out << "job " << j << (j < 10 ? "  |" : " |");
    for (int c = 0; c < width; ++c) {
      out << shade(sample(rate, span, width, c), max);
    }
    out << "|\n";
  }
  out << render_profile(schedule.speed(), width, 6, "speed:");
  return out.str();
}

std::string render_machine_schedule(
    const scheduling::MachineSchedule& schedule, int width) {
  QBSS_EXPECTS(width >= 8);
  Interval span{kInf, -kInf};
  for (const scheduling::MachineSlice& s : schedule.slices()) {
    span.begin = std::min(span.begin, s.span.begin);
    span.end = std::max(span.end, s.span.end);
  }
  if (span.empty()) span = {0.0, 1.0};

  std::ostringstream out;
  for (int machine = 0; machine < schedule.machines(); ++machine) {
    out << "m" << machine << " |";
    for (int c = 0; c < width; ++c) {
      const double t = span.begin +
                       (static_cast<double>(c) + 0.5) * span.length() / width;
      char glyph = ' ';
      for (const scheduling::MachineSlice& s : schedule.slices()) {
        if (s.machine == machine && s.span.contains(t)) {
          glyph = static_cast<char>('0' + (s.job % 10));
          break;
        }
      }
      out << glyph;
    }
    out << "|\n";
  }
  return out.str();
}

}  // namespace qbss::io
