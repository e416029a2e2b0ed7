#include "io/format.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <istream>
#include <iterator>
#include <ostream>
#include <vector>

namespace qbss::io {

namespace {

/// isspace in the classic locale.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

const char* skip_digits(const char* p, const char* end) noexcept {
  while (p != end && *p >= '0' && *p <= '9') ++p;
  return p;
}

/// For a number std::from_chars found out of range: true when it is too
/// small (strtod underflows it to a signed zero), false when too large.
/// Out-of-range values lie below 1e-323 or at or above 1e308, so the
/// sign of the leading digit's decimal exponent decides.
bool underflows(std::string_view mantissa, bool negative_exponent,
                std::string_view exponent_digits) {
  const std::size_t lead = mantissa.find_first_not_of("0.");
  const std::size_t point = std::min(mantissa.find('.'), mantissa.size());
  long long exponent = static_cast<long long>(point) -
                       static_cast<long long>(lead) - (lead < point ? 1 : 0);
  long long explicit_exponent = 0;
  for (const char c : exponent_digits) {
    explicit_exponent =
        std::min(explicit_exponent * 10 + (c - '0'), 1'000'000'000LL);
  }
  exponent += negative_exponent ? -explicit_exponent : explicit_exponent;
  return exponent < 0;
}

/// One `std::istream >> double` extraction at `p` in the classic locale,
/// after the sentry's whitespace skip. The stream takes the longest
/// prefix shaped
///
///     sign? digits ('.' digits)? (('e' | 'E') sign? digits)?
///
/// where each digit run may be empty and an exponent needs a mantissa
/// digit before it, then converts it with strtod: the extraction
/// succeeds iff strtod takes all of it (a mantissa digit, and a digit
/// after any 'e') and the value does not overflow.
struct Extraction {
  const char* stop;  ///< first byte the stream did not take
  bool ok;
};

Extraction extract_number(const char* p, const char* end, double* out) {
  const char* const sign = p;
  if (p != end && (*p == '+' || *p == '-')) ++p;
  const char* const mantissa = p;
  p = skip_digits(p, end);
  bool digits = p != mantissa;
  if (p != end && *p == '.') {
    const char* const fraction = p + 1;
    p = skip_digits(fraction, end);
    digits = digits || p != fraction;
  }
  if (!digits) return {p, false};
  const char* const mantissa_end = p;
  bool negative_exponent = false;
  const char* exponent = p;
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) {
      negative_exponent = *p == '-';
      ++p;
    }
    exponent = p;
    p = skip_digits(p, end);
    if (p == exponent) return {p, false};
  }
  double v = 0.0;
  // from_chars takes no '+' sign and no whitespace; the scan above has
  // already confined the rest to its grammar.
  const std::from_chars_result r = std::from_chars(
      *sign == '+' ? sign + 1 : sign, p, v, std::chars_format::general);
  if (r.ec == std::errc::result_out_of_range) {
    if (!underflows({mantissa, mantissa_end}, negative_exponent,
                    {exponent, p})) {
      return {p, false};
    }
    v = *sign == '-' ? -0.0 : 0.0;
  } else if (r.ec != std::errc() || r.ptr != p) {
    return {p, false};
  }
  *out = v;
  return {p, true};
}

/// Reads one data line's numbers into `cols` as the stream readers did
/// (`while (ss >> v) cols.push_back(v)` over the line, then an eof
/// check). Extractions need no whitespace between them, so "1.5.5" is
/// 1.5 and .5, and an extraction that fails at the end of the line ends
/// the row rather than spoiling it. True iff exactly N numbers came.
template <std::size_t N>
bool read_row(std::string_view line, std::array<double, N>& cols) {
  const char* p = line.data();
  const char* const end = p + line.size();
  std::size_t count = 0;
  while (true) {
    while (p != end && is_space(*p)) ++p;
    if (p == end) break;
    double v = 0.0;
    const Extraction e = extract_number(p, end, &v);
    if (!e.ok) {
      if (e.stop != end) return false;  // trailing junk
      break;
    }
    if (count == N) return false;
    cols[count++] = v;
    p = e.stop;
  }
  return count == N;
}

/// The part of `line` before any '#'; false when only blanks remain.
bool data_line(std::string_view& line) {
  line = line.substr(0, line.find('#'));
  return line.find_first_not_of(" \t\r") != std::string_view::npos;
}

/// Hands every data line of `text`, as N numbers, to `row`, which
/// returns nullptr or a message; the first bad line ends the read.
template <std::size_t N, typename RowFn>
std::optional<ParseError> read_rows(std::string_view text, RowFn row) {
  std::array<double, N> cols{};
  std::string_view line;
  int number = 0;
  while (next_line(text, &line)) {
    ++number;
    if (!data_line(line)) continue;
    if (!read_row(line, cols)) {
      return ParseError{number, "expected " + std::to_string(N) +
                                    " numeric columns"};
    }
    if (const char* error = row(cols)) return ParseError{number, error};
  }
  return std::nullopt;
}

/// What the stream readers' getline loop consumed: all of `in`, or
/// nothing when it is not good.
std::string slurp(std::istream& in) {
  std::string text;
  if (in.good()) {
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  return text;
}

/// The precision `out << double` prints with (a negative one means 6).
int precision_of(const std::ostream& out) {
  return out.precision() < 0 ? 6 : static_cast<int>(out.precision());
}

void write_text(std::ostream& out, const std::string& text) {
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void append_row(std::string& out, std::initializer_list<double> values,
                int precision) {
  const char* separator = "";
  for (const double v : values) {
    out += separator;
    append_number(out, v, precision);
    separator = " ";
  }
  out += '\n';
}

}  // namespace

bool parse_number(std::string_view text, double* out) {
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end && is_space(*p)) ++p;
  if (p == end) return false;
  const Extraction e = extract_number(p, end, out);
  return e.ok && e.stop == end;
}

void append_number(std::string& out, double v, int precision) {
  // Room for a sign, the digits, a point and "e-308".
  const std::size_t room = static_cast<std::size_t>(std::max(precision, 1)) + 8;
  const std::size_t size = out.size();
  out.resize(size + room);
  char* const first = out.data() + size;
  const std::to_chars_result r = std::to_chars(
      first, first + room, v, std::chars_format::general, precision);
  out.resize(static_cast<std::size_t>(r.ptr - out.data()));
}

bool next_line(std::string_view& text, std::string_view* line) {
  if (text.empty()) return false;
  const std::size_t end = text.find('\n');
  *line = text.substr(0, end);
  text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
  return true;
}

Parsed<core::QInstance> read_qinstance(std::string_view text) {
  core::QInstance inst;
  std::optional<ParseError> error =
      read_rows<5>(text, [&](const std::array<double, 5>& c) -> const char* {
        const core::QJob job{c[0], c[1], c[2], c[3], c[4]};
        if (!job.valid()) {
          return "invalid job: need 0 <= r < d, 0 < c <= w, 0 <= w* <= w";
        }
        inst.add(c[0], c[1], c[2], c[3], c[4]);
        return nullptr;
      });
  if (error) return {std::nullopt, std::move(*error)};
  return {std::move(inst), {}};
}

Parsed<core::QInstance> read_qinstance(std::istream& in) {
  return read_qinstance(slurp(in));
}

Parsed<scheduling::Instance> read_instance(std::string_view text) {
  scheduling::Instance inst;
  std::optional<ParseError> error =
      read_rows<3>(text, [&](const std::array<double, 3>& c) -> const char* {
        const scheduling::ClassicalJob job{c[0], c[1], c[2]};
        if (!job.valid()) return "invalid job: need 0 <= r < d, w >= 0";
        inst.add(c[0], c[1], c[2]);
        return nullptr;
      });
  if (error) return {std::nullopt, std::move(*error)};
  return {std::move(inst), {}};
}

Parsed<scheduling::Instance> read_instance(std::istream& in) {
  return read_instance(slurp(in));
}

void append_qinstance(std::string& out, const core::QInstance& instance,
                      int precision) {
  out += "# release deadline query_cost upper_bound exact_load\n";
  for (const core::QJob& j : instance.jobs()) {
    append_row(out,
               {j.release, j.deadline, j.query_cost, j.upper_bound,
                j.exact_load},
               precision);
  }
}

void append_instance(std::string& out, const scheduling::Instance& instance,
                     int precision) {
  out += "# release deadline work\n";
  for (const scheduling::ClassicalJob& j : instance.jobs()) {
    append_row(out, {j.release, j.deadline, j.work}, precision);
  }
}

void write_qinstance(std::ostream& out, const core::QInstance& instance) {
  std::string text;
  append_qinstance(text, instance, precision_of(out));
  write_text(out, text);
}

void write_instance(std::ostream& out, const scheduling::Instance& instance) {
  std::string text;
  append_instance(text, instance, precision_of(out));
  write_text(out, text);
}

void append_schedule(std::string& out, const scheduling::Schedule& schedule,
                     double alpha) {
  out += "# energy(alpha=";
  append_number(out, alpha);
  out += ") = ";
  append_number(out, schedule.energy(alpha));
  out += "\n# max_speed = ";
  append_number(out, schedule.max_speed());
  out += "\n# job begin end speed\n";
  for (std::size_t j = 0; j < schedule.job_count(); ++j) {
    for (const Segment& p :
         schedule.rate(static_cast<scheduling::JobId>(j)).pieces()) {
      out += std::to_string(j);
      out += ' ';
      append_row(out, {p.span.begin, p.span.end, p.value}, kLossless);
    }
  }
}

void write_schedule(std::ostream& out, const scheduling::Schedule& schedule,
                    double alpha) {
  std::string text;
  append_schedule(text, schedule, alpha);
  write_text(out, text);
}

Parsed<scheduling::Schedule> read_schedule(std::string_view text,
                                           std::size_t job_count) {
  struct Piece {
    std::size_t job;
    Interval span;
    Speed speed;
  };
  std::vector<Piece> pieces;
  std::size_t max_id = 0;
  bool any = false;
  std::optional<ParseError> error = read_rows<4>(
      text, [&](const std::array<double, 4>& c) -> const char* {
        const double id = c[0];
        if (id < 0.0 || id != std::floor(id) ||
            id > static_cast<double>(std::numeric_limits<int>::max())) {
          return "job id must be a small non-negative integer";
        }
        const std::size_t job = static_cast<std::size_t>(id);
        if (job_count != 0 && job >= job_count) return "job id out of range";
        if (!(c[1] < c[2])) return "need begin < end";
        if (c[3] <= 0.0) return "need speed > 0";
        pieces.push_back(Piece{job, Interval{c[1], c[2]}, c[3]});
        max_id = std::max(max_id, job);
        any = true;
        return nullptr;
      });
  if (error) return {std::nullopt, std::move(*error)};

  const std::size_t jobs = job_count != 0 ? job_count : (any ? max_id + 1 : 0);
  scheduling::ScheduleBuilder builder(jobs);
  for (const Piece& p : pieces) {
    builder.add_rate(static_cast<scheduling::JobId>(p.job), p.span, p.speed);
  }
  return {std::move(builder).build(), {}};
}

Parsed<scheduling::Schedule> read_schedule(std::istream& in,
                                           std::size_t job_count) {
  return read_schedule(slurp(in), job_count);
}

}  // namespace qbss::io
