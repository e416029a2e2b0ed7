#include "scheduling/schedule.hpp"

#include <sstream>

#include "obs/registry.hpp"

namespace qbss::scheduling {

namespace {

void fail(ValidationReport& report, std::string message) {
  report.feasible = false;
  report.errors.push_back(std::move(message));
}

void count_outcome(const ValidationReport& report) {
  if (report.feasible) {
    QBSS_COUNT("validator.schedule.pass");
  } else {
    QBSS_COUNT("validator.schedule.fail");
  }
}

}  // namespace

Schedule ScheduleBuilder::build() && {
  const std::size_t n = job_count_;
  Schedule out;

  // Stable counting pass: job j's pieces, in insertion order, go to
  // all[offsets[j], offsets[j + 1]). The scatter leaves offsets[j] at the
  // end of job j's range.
  std::vector<std::size_t>& offsets = out.offsets_;
  offsets.assign(n + 1, 0);
  for (const Piece& p : pieces_) {
    ++offsets[static_cast<std::size_t>(p.job) + 1];
  }
  for (std::size_t j = 0; j < n; ++j) offsets[j + 1] += offsets[j];
  std::vector<Segment> all(pieces_.size());
  for (const Piece& p : pieces_) {
    all[offsets[static_cast<std::size_t>(p.job)]++] = p.segment;
  }

  // Each job's normalized rate goes straight into the schedule's buffer;
  // offsets[j] turns from the end of job j's input into the begin of its
  // output.
  out.pieces_.reserve(all.size());
  std::size_t begin = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t end = offsets[j];
    offsets[j] = out.pieces_.size();
    StepFunction::append_sum_of(
        std::span<const Segment>(all).subspan(begin, end - begin),
        out.pieces_);
    begin = end;
  }
  offsets[n] = out.pieces_.size();

  out.speed_ = StepFunction::sum_of(all);
  return out;
}

ValidationReport validate(const Instance& instance, const Schedule& schedule,
                          double tol) {
  ValidationReport report;

  if (schedule.job_count() != instance.size()) {
    fail(report, "schedule job count does not match instance");
    count_outcome(report);
    return report;
  }

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
    }

    const Work done = rate.integral();
    if (!approx_eq(done, job.work, tol)) {
      std::ostringstream msg;
      msg << "job " << id << ": executed " << done << " of " << job.work;
      fail(report, msg.str());
    }
  }

  // Every rate's pieces, job after job: the schedule's own buffer.
  const StepFunction total = StepFunction::sum_of(schedule.pieces());
  if (!total.approx_equals(schedule.speed(), tol)) {
    fail(report, "speed profile is not the sum of job rates");
  }

  count_outcome(report);
  return report;
}

}  // namespace qbss::scheduling
