// Plain-text instance and schedule formats, for the CLI tools and for
// shipping instances between runs.
//
// Instance format (one job per line, '#' comments, blank lines ignored):
//
//     # release deadline query_cost upper_bound exact_load
//     0.0  4.0  0.5  3.0  1.0
//     1.0  5.0  0.4  2.0  2.0
//
// Classical instances use three columns (release deadline work).
// Schedules round-trip: one rate piece per line (job begin end speed),
// preceded by summary comments; read_schedule parses the same format
// back (the loadgen re-validates served schedules through it).
//
// Numbers go through one locale-free codec (std::from_chars and
// std::to_chars), which the svc wire protocol shares: parse_number
// accepts exactly what `std::istream >> double` accepts in the classic
// locale, and append_number writes what printf's %.*g writes.
#pragma once

#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "qbss/qinstance.hpp"
#include "scheduling/schedule.hpp"

namespace qbss::io {

/// Digits that make a double round-trip through text (%.17g).
inline constexpr int kLossless = std::numeric_limits<double>::max_digits10;

/// Parse failure: offending line and message.
struct ParseError {
  int line = 0;
  std::string message;
};

/// Either a value or a parse error.
template <typename T>
struct Parsed {
  std::optional<T> value;
  ParseError error;

  explicit operator bool() const noexcept { return value.has_value(); }
};

/// Parses `text` as one number, exactly as `in >> v && in.eof()` does for
/// a std::istringstream `in` over it in the classic locale: leading
/// whitespace, then an optional sign, decimal digits with at most one
/// decimal point, and an optional exponent (e/E, optional sign, digits)
/// that must run to the end. `inf`, `nan`, hex and values that overflow
/// are rejected; an underflow gives strtod's value (a denormal or a
/// signed zero).
[[nodiscard]] bool parse_number(std::string_view text, double* out);

/// Appends `v` as printf's %.*g does at `precision` in the C locale (so
/// at kLossless the text parses back to the same bits).
void append_number(std::string& out, double v, int precision = kLossless);

/// Takes the next line off the front of `text` as std::getline does: a
/// '\n' ends a line, the last line needs none, and a trailing '\n' opens
/// no empty line. False once `text` is empty.
[[nodiscard]] bool next_line(std::string_view& text, std::string_view* line);

/// Reads a QBSS instance (5 columns).
[[nodiscard]] Parsed<core::QInstance> read_qinstance(std::string_view text);
[[nodiscard]] Parsed<core::QInstance> read_qinstance(std::istream& in);

/// Reads a classical instance (3 columns).
[[nodiscard]] Parsed<scheduling::Instance> read_instance(
    std::string_view text);
[[nodiscard]] Parsed<scheduling::Instance> read_instance(std::istream& in);

/// Appends a QBSS instance in the 5-column format.
void append_qinstance(std::string& out, const core::QInstance& instance,
                      int precision = kLossless);

/// Appends a classical instance in the 3-column format.
void append_instance(std::string& out, const scheduling::Instance& instance,
                     int precision = kLossless);

/// Writes a QBSS instance at the stream's precision (`qbss gen` prints
/// the default 6 digits).
void write_qinstance(std::ostream& out, const core::QInstance& instance);

/// Writes a classical instance at the stream's precision.
void write_instance(std::ostream& out,
                    const scheduling::Instance& instance);

/// Appends a fluid schedule: summary comments (energy at `alpha`, max
/// speed), then one `job begin end speed` line per rate piece. Numbers
/// carry max_digits10 precision so read_schedule round-trips losslessly.
void append_schedule(std::string& out, const scheduling::Schedule& schedule,
                     double alpha);

/// Writes append_schedule's text (at max_digits10, whatever the stream's
/// precision).
void write_schedule(std::ostream& out, const scheduling::Schedule& schedule,
                    double alpha);

/// Reads a schedule dump written by write_schedule: comments and blank
/// lines are ignored, each data line is `job begin end speed` with an
/// integral job id. `job_count` fixes the number of rate functions (ids
/// must stay below it); 0 derives it from the largest id seen. Pieces of
/// one job may repeat or overlap — rates accumulate, as in
/// ScheduleBuilder.
[[nodiscard]] Parsed<scheduling::Schedule> read_schedule(
    std::string_view text, std::size_t job_count = 0);
[[nodiscard]] Parsed<scheduling::Schedule> read_schedule(
    std::istream& in, std::size_t job_count = 0);

}  // namespace qbss::io
