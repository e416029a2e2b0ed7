// Differential test of the wire codec (io::parse_number/append_number,
// the row reader, and svc's parse_request, serialize_request, cache_key
// and solve_request) against the iostream code it replaced, which lives
// on here, verbatim in behaviour, as the oracle. Every case is seeded
// (splitmix64, fixed seeds), so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gen/random_instances.hpp"
#include "io/format.hpp"
#include "qbss/avrq.hpp"
#include "qbss/avrq_m.hpp"
#include "qbss/bkpq.hpp"
#include "qbss/clairvoyant.hpp"
#include "qbss/crad.hpp"
#include "qbss/crcd.hpp"
#include "qbss/crp2d.hpp"
#include "qbss/oaq.hpp"
#include "qbss/transform.hpp"
#include "svc/protocol.hpp"

namespace qbss::svc {
namespace {

// ---------------------------------------------------------------------
// The oracle: the stream-based codec as it was before the rewrite.

namespace oracle {

bool parse_columns(const std::string& line, std::vector<double>& out) {
  out.clear();
  std::istringstream ss(line);
  double v = 0.0;
  while (ss >> v) out.push_back(v);
  if (!ss.eof()) return false;  // trailing junk
  return true;
}

bool data_line(std::string& line) {
  const std::size_t hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return false;
  line.erase(0, first);
  return true;
}

io::Parsed<core::QInstance> read_qinstance(std::istream& in) {
  core::QInstance result;
  std::string line;
  int number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (!data_line(line)) continue;
    std::vector<double> c;
    if (!parse_columns(line, c) || c.size() != 5) {
      return {std::nullopt, {number, "expected 5 numeric columns"}};
    }
    const core::QJob job{c[0], c[1], c[2], c[3], c[4]};
    if (!job.valid()) {
      return {std::nullopt,
              {number,
               "invalid job: need 0 <= r < d, 0 < c <= w, 0 <= w* <= w"}};
    }
    result.add(c[0], c[1], c[2], c[3], c[4]);
  }
  return {std::move(result), {}};
}

void write_qinstance(std::ostream& out, const core::QInstance& instance) {
  out << "# release deadline query_cost upper_bound exact_load\n";
  for (const core::QJob& j : instance.jobs()) {
    out << j.release << ' ' << j.deadline << ' ' << j.query_cost << ' '
        << j.upper_bound << ' ' << j.exact_load << '\n';
  }
}

void write_instance(std::ostream& out, const scheduling::Instance& instance) {
  out << "# release deadline work\n";
  for (const scheduling::ClassicalJob& j : instance.jobs()) {
    out << j.release << ' ' << j.deadline << ' ' << j.work << '\n';
  }
}

void write_schedule(std::ostream& out, const scheduling::Schedule& schedule,
                    double alpha) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "# energy(alpha=" << alpha << ") = " << schedule.energy(alpha)
      << "\n# max_speed = " << schedule.max_speed()
      << "\n# job begin end speed\n";
  for (std::size_t j = 0; j < schedule.job_count(); ++j) {
    for (const Segment& p :
         schedule.rate(static_cast<scheduling::JobId>(j)).pieces()) {
      out << j << ' ' << p.span.begin << ' ' << p.span.end << ' ' << p.value
          << '\n';
    }
  }
}

bool split_field(const std::string& line, std::string* key,
                 std::string* value) {
  const std::size_t colon = line.find(": ");
  if (colon == std::string::npos) return false;
  *key = line.substr(0, colon);
  *value = line.substr(colon + 2);
  return true;
}

bool parse_double_field(const std::string& value, double* out) {
  std::istringstream ss(value);
  return static_cast<bool>(ss >> *out) && ss.eof();
}

std::string lossless(double v) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << v;
  return out.str();
}

std::string serialize_request(const Request& request) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "qbss-svc/1 solve\n";
  out << "algo: " << request.algo << '\n';
  out << "alpha: " << lossless(request.alpha) << '\n';
  out << "machines: " << request.machines << '\n';
  out << "schedule: " << (request.want_schedule ? 1 : 0) << '\n';
  if (request.deadline_ms > 0.0) {
    out << "deadline_ms: " << lossless(request.deadline_ms) << '\n';
  }
  out << "instance:\n";
  write_qinstance(out, request.instance);
  return out.str();
}

bool parse_request(const std::string& payload, Request* out,
                   std::string* error) {
  std::istringstream in(payload);
  std::string line;
  if (!std::getline(in, line)) {
    *error = "empty request";
    return false;
  }
  Request req;
  if (line == "qbss-svc/1 ping") {
    req.verb = Verb::kPing;
    *out = std::move(req);
    return true;
  }
  if (line == "qbss-svc/1 shutdown") {
    req.verb = Verb::kShutdown;
    *out = std::move(req);
    return true;
  }
  if (line == "qbss-svc/1 stats") {
    req.verb = Verb::kStats;
    while (std::getline(in, line)) {
      std::string key;
      std::string value;
      if (!split_field(line, &key, &value)) {
        *error = "malformed stats field: " + line;
        return false;
      }
      if (key != "format") {
        *error = "unknown stats field: " + key;
        return false;
      }
      if (value != "json" && value != "prometheus") {
        *error = "stats format must be json or prometheus";
        return false;
      }
      req.stats_format = value;
    }
    *out = std::move(req);
    return true;
  }
  if (line != "qbss-svc/1 solve") {
    *error = "unknown request line: " + line;
    return false;
  }
  req.verb = Verb::kSolve;
  bool saw_instance = false;
  while (std::getline(in, line)) {
    if (line == "instance:") {
      saw_instance = true;
      break;
    }
    std::string key;
    std::string value;
    if (!split_field(line, &key, &value)) {
      *error = "malformed request field: " + line;
      return false;
    }
    if (key == "algo") {
      req.algo = value;
    } else if (key == "alpha") {
      if (!parse_double_field(value, &req.alpha) || !(req.alpha > 1.0) ||
          !(req.alpha <= 100.0)) {
        *error = "alpha must be a number in (1, 100]";
        return false;
      }
    } else if (key == "machines") {
      double m = 0.0;
      if (!parse_double_field(value, &m) || m < 1.0 || m > 1024.0 ||
          m != static_cast<double>(static_cast<int>(m))) {
        *error = "machines must be an integer in [1, 1024]";
        return false;
      }
      req.machines = static_cast<int>(m);
    } else if (key == "schedule") {
      req.want_schedule = value == "1";
    } else if (key == "deadline_ms") {
      if (!parse_double_field(value, &req.deadline_ms) ||
          req.deadline_ms < 0.0) {
        *error = "deadline_ms must be a non-negative number";
        return false;
      }
    } else {
      *error = "unknown request field: " + key;
      return false;
    }
  }
  if (!saw_instance) {
    *error = "request has no instance section";
    return false;
  }
  io::Parsed<core::QInstance> parsed = read_qinstance(in);
  if (!parsed) {
    std::ostringstream msg;
    msg << "instance line " << parsed.error.line << ": "
        << parsed.error.message;
    *error = msg.str();
    return false;
  }
  req.instance = std::move(*parsed.value);
  *out = std::move(req);
  return true;
}

void append_double_bits(std::string& out, double v) {
  if (v == 0.0) v = 0.0;
  char buf[17];
  std::snprintf(
      buf, sizeof buf, "%016llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  out += buf;
}

std::string cache_key(const Request& request) {
  std::string key = "v1|";
  key += request.algo;
  key += '|';
  key += request.algo == "avrq_m" ? std::to_string(request.machines) : "0";
  key += '|';
  key += request.want_schedule ? '1' : '0';
  key += "|a";
  append_double_bits(key, request.alpha);
  key += "|n";
  key += std::to_string(request.instance.size());
  for (const core::QJob& j : request.instance.jobs()) {
    key += '|';
    append_double_bits(key, j.release);
    append_double_bits(key, j.deadline);
    append_double_bits(key, j.query_cost);
    append_double_bits(key, j.upper_bound);
    append_double_bits(key, j.exact_load);
  }
  return key;
}

/// The reply renderer of the old solve_request; the policy domain and
/// request checks are the caller's (both sides share them).
std::string render_solve(const Request& request) {
  const double alpha = request.alpha;
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  if (request.algo == "avrq_m") {
    const core::QbssMultiRun run =
        core::avrq_m(request.instance, request.machines);
    const bool valid =
        core::validate_multi_run(request.instance, run).feasible;
    int queried = 0;
    for (const bool q : run.expansion.queried) queried += q ? 1 : 0;
    out << "algo: avrq_m\n";
    out << "alpha: " << lossless(alpha) << '\n';
    out << "jobs: " << request.instance.size() << '\n';
    out << "machines: " << request.machines << '\n';
    out << "queried: " << queried << '\n';
    out << "valid: " << (valid ? 1 : 0) << '\n';
    out << "energy: " << lossless(run.energy(alpha)) << '\n';
    out << "max_speed: " << lossless(run.max_speed()) << '\n';
    return out.str();
  }
  if (request.algo == "opt") {
    const scheduling::Instance classical =
        core::clairvoyant_instance(request.instance);
    const scheduling::Schedule schedule =
        core::clairvoyant_schedule(request.instance);
    const bool valid = scheduling::validate(classical, schedule).feasible;
    int queried = 0;
    for (const core::QJob& j : request.instance.jobs()) {
      queried += j.optimum_queries() ? 1 : 0;
    }
    out << "algo: opt\n";
    out << "alpha: " << lossless(alpha) << '\n';
    out << "jobs: " << request.instance.size() << '\n';
    out << "queried: " << queried << '\n';
    out << "valid: " << (valid ? 1 : 0) << '\n';
    out << "energy: " << lossless(schedule.energy(alpha)) << '\n';
    out << "max_speed: " << lossless(schedule.max_speed()) << '\n';
    if (request.want_schedule) {
      out << "classical:\n";
      write_instance(out, classical);
      out << "schedule:\n";
      write_schedule(out, schedule, alpha);
    }
    return out.str();
  }
  core::QbssRun run;
  if (request.algo == "crcd") run = core::crcd(request.instance);
  if (request.algo == "crp2d") run = core::crp2d(request.instance);
  if (request.algo == "crad") run = core::crad(request.instance);
  if (request.algo == "avrq") run = core::avrq(request.instance);
  if (request.algo == "bkpq") run = core::bkpq(request.instance);
  if (request.algo == "oaq") run = core::oaq(request.instance);
  const bool valid = core::validate_run(request.instance, run).feasible;
  int queried = 0;
  for (const bool q : run.expansion.queried) queried += q ? 1 : 0;
  out << "algo: " << request.algo << '\n';
  out << "alpha: " << lossless(alpha) << '\n';
  out << "jobs: " << request.instance.size() << '\n';
  out << "queried: " << queried << '\n';
  out << "valid: " << (valid ? 1 : 0) << '\n';
  out << "energy: " << lossless(run.energy(alpha)) << '\n';
  out << "max_speed: " << lossless(run.max_speed()) << '\n';
  if (request.want_schedule) {
    out << "classical:\n";
    write_instance(out, run.expansion.classical);
    out << "schedule:\n";
    write_schedule(out, run.schedule, alpha);
  }
  return out.str();
}

}  // namespace oracle

// ---------------------------------------------------------------------
// Seeded inputs.

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t below(std::uint64_t& state, std::size_t n) {
  return static_cast<std::size_t>(splitmix64(state) % n);
}

constexpr const char* kAlgos[] = {"crcd", "crp2d", "crad", "avrq",
                                  "bkpq", "oaq",   "opt",  "avrq_m"};

/// A request in each algorithm's own instance class (so the solve runs),
/// with seeded alpha, flags, deadline and size.
Request generated_request(const std::string& algo, std::uint64_t seed) {
  std::uint64_t state = seed;
  const int n = 1 + static_cast<int>(below(state, 12));
  Request r;
  r.algo = algo;
  if (algo == "crcd") {
    r.instance = gen::random_common_deadline(n, 4.0, seed);
  } else if (algo == "crp2d") {
    r.instance = gen::random_pow2_deadlines(n, 3, seed);
  } else if (algo == "crad") {
    r.instance = gen::random_arbitrary_deadlines(n, 8.0, seed);
  } else {
    r.instance = gen::random_online(n, 10.0, 0.5, 4.0, seed);
  }
  r.alpha = 1.0 + static_cast<double>(splitmix64(state) >> 11) * 0x1p-53 * 4.0;
  r.machines = 1 + static_cast<int>(below(state, 4));
  r.want_schedule = algo != "avrq_m" && below(state, 2) == 0;
  if (below(state, 3) == 0) {
    r.deadline_ms = static_cast<double>(splitmix64(state) >> 11) * 0x1p-53 * 50;
  }
  return r;
}

/// Every generated request, serialized, plus the other verbs.
std::vector<std::string> base_payloads() {
  std::vector<std::string> payloads = {
      "qbss-svc/1 ping\n", "qbss-svc/1 shutdown\n", "qbss-svc/1 stats\n",
      "qbss-svc/1 stats\nformat: prometheus\n"};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const char* algo : kAlgos) {
      payloads.push_back(
          oracle::serialize_request(generated_request(algo, seed)));
    }
  }
  return payloads;
}

std::string render(double v, int precision) {
  std::ostringstream out;
  out.precision(precision);
  out << v;
  return out.str();
}

/// ±0, denormals, DBL_MIN/MAX, infinities, NaN, every power of ten and a
/// run of integers.
std::vector<double> special_doubles() {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::nextafter(DBL_MIN, 0.0),
                                DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                0x1p53,
                                0x1p53 + 1.0,
                                0x1p53 - 1.0};
  for (int e = -323; e <= 308; ++e) {
    values.push_back(std::strtod(("1e" + std::to_string(e)).c_str(), nullptr));
  }
  for (int i = -1000; i <= 1000; ++i) values.push_back(i);
  return values;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field-by-field, bit-exact comparison of two parsed requests.
::testing::AssertionResult same_request(const Request& a, const Request& b) {
  if (a.verb != b.verb || a.algo != b.algo || bits(a.alpha) != bits(b.alpha) ||
      a.machines != b.machines || a.want_schedule != b.want_schedule ||
      bits(a.deadline_ms) != bits(b.deadline_ms) ||
      a.stats_format != b.stats_format ||
      a.instance.size() != b.instance.size()) {
    return ::testing::AssertionFailure() << "request fields differ";
  }
  for (std::size_t i = 0; i < a.instance.size(); ++i) {
    const core::QJob& x = a.instance.jobs()[i];
    const core::QJob& y = b.instance.jobs()[i];
    if (bits(x.release) != bits(y.release) ||
        bits(x.deadline) != bits(y.deadline) ||
        bits(x.query_cost) != bits(y.query_cost) ||
        bits(x.upper_bound) != bits(y.upper_bound) ||
        bits(x.exact_load) != bits(y.exact_load)) {
      return ::testing::AssertionFailure() << "job " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Both parsers on one payload: same verdict, same fields or the same
/// error text.
::testing::AssertionResult parsers_agree(const std::string& payload) {
  Request want;
  Request got;
  std::string want_error;
  std::string got_error;
  const bool want_ok = oracle::parse_request(payload, &want, &want_error);
  const bool got_ok = parse_request(payload, &got, &got_error);
  if (want_ok != got_ok) {
    return ::testing::AssertionFailure()
           << "verdicts differ (stream " << want_ok << ", codec " << got_ok
           << ": " << got_error << want_error << ") on:\n"
           << payload;
  }
  if (!want_ok) {
    if (want_error == got_error) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "errors differ: \"" << want_error
                                         << "\" vs \"" << got_error
                                         << "\" on:\n"
                                         << payload;
  }
  return same_request(want, got) << " on:\n" << payload;
}

// ---------------------------------------------------------------------

TEST(WireCodec, AppendNumberMatchesStreamAtPrecision17And6) {
  std::uint64_t state = 0x5eed'0001;
  std::string text;
  const auto check = [&](double v) {
    text.clear();
    io::append_number(text, v);
    ASSERT_EQ(text, render(v, 17)) << std::hexfloat << v;
  };
  for (const double v : special_doubles()) {
    check(v);
    text.clear();
    io::append_number(text, v, 6);
    ASSERT_EQ(text, render(v, 6));
  }
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = std::bit_cast<double>(splitmix64(state));
    check(v);
    if (i % 16 == 0) {
      text.clear();
      io::append_number(text, v, 6);
      ASSERT_EQ(text, render(v, 6)) << std::hexfloat << v;
    }
  }
}

::testing::AssertionResult numbers_agree(const std::string& token) {
  std::istringstream in(token);
  double want = 0.0;
  const bool want_ok = static_cast<bool>(in >> want) && in.eof();
  double got = 0.0;
  const bool got_ok = io::parse_number(token, &got);
  if (want_ok != got_ok) {
    return ::testing::AssertionFailure()
           << "verdicts differ (stream " << want_ok << ") on \"" << token
           << "\"";
  }
  if (want_ok && bits(want) != bits(got)) {
    return ::testing::AssertionFailure()
           << "values differ on \"" << token << "\": " << std::hexfloat
           << want << " vs " << got;
  }
  return ::testing::AssertionSuccess();
}

TEST(WireCodec, ParseNumberMatchesStreamExtraction) {
  const std::vector<std::string> edges = {
      "", " ", "\v", "\t1", "\v1", " \f\r\n1", "1 ", "1\n", "1\v",
      "inf", "-inf", "+inf", "nan", "-nan", "NaN", "infinity", "INF",
      "0x10", "0x1p3", "0X1P-2", "1e-400", "-1e-400", "1e400", "-1e400",
      "1e309", "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "-1.7976931348623159e308",
      "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
      "-2.4703282292062327e-324", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "1e-320", "+-5", "-+5", "++5", "--5",
      "+", "-", ".", "+.", "-.", ".e1", "e5", "E5", "1e", "1E", "1e+",
      "1e-", "1e+-5", "1e5e3", "1e5.3", "1..5", "1.5.5", "1.e5", "1.",
      ".5", "-.5e-3", "+.5E+3", "00001.5", "-0", "-0.0", "+0", "0e0",
      "0.000e-99999", "1e99999999999999999999", "1e-99999999999999999999",
      "0.0000000000000000000000000000001e-300", "1,5", "1_000", "5%",
      std::string("1\0", 2), "\xd9\xa1", "123456789012345678901234567890",
      "123456789012345678901234567890e-350",
      "0." + std::string(400, '0') + "1",
      "1" + std::string(400, '0'), "1" + std::string(300, '0') + ".5",
      std::string(500, '9') + "e-600"};
  for (const std::string& token : edges) EXPECT_TRUE(numbers_agree(token));

  for (const double v : special_doubles()) {
    ASSERT_TRUE(numbers_agree(render(v, 17)));
    ASSERT_TRUE(numbers_agree(render(v, 6)));
  }
  std::uint64_t state = 0x5eed'0002;
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = std::bit_cast<double>(splitmix64(state));
    ASSERT_TRUE(numbers_agree(render(v, 17)));
  }
  // Short tokens over the grammar's alphabet, whitespace and junk.
  static constexpr char kAlphabet[] = "0123456789..eE+-- \t\v\nxpina#,";
  for (int i = 0; i < 200'000; ++i) {
    std::string token(below(state, 9), ' ');
    for (char& c : token) c = kAlphabet[below(state, sizeof kAlphabet - 1)];
    ASSERT_TRUE(numbers_agree(token));
  }
}

TEST(WireCodec, RowReaderMatchesStreamColumns) {
  // Instance texts from random rows of random tokens: column counts,
  // glued numbers ("1.5.5"), failed tails, comments and blank lines.
  static const std::vector<std::string> kTokens = {
      "0", "1", "2.5", "4", "0.5", ".5", "3.", "1e1", "-0.0", "1.5.5",
      "1e", "+", "-", "1e999", "1e-999", "x", "nan", "#", "# c", "",
      " ", "\t", "\v", "\r", "6", "9", "2", "1-2", "0x1", "7e-1"};
  std::uint64_t state = 0x5eed'0003;
  for (int i = 0; i < 100'000; ++i) {
    std::string text;
    const std::size_t lines = below(state, 4);
    for (std::size_t l = 0; l < lines; ++l) {
      const std::size_t tokens = below(state, 8);
      for (std::size_t t = 0; t < tokens; ++t) {
        if (t > 0) text += below(state, 6) == 0 ? "" : " ";
        text += kTokens[below(state, kTokens.size())];
      }
      if (l + 1 < lines || below(state, 2) == 0) text += '\n';
    }
    std::istringstream in(text);
    const io::Parsed<core::QInstance> want = oracle::read_qinstance(in);
    const io::Parsed<core::QInstance> got = io::read_qinstance(text);
    ASSERT_EQ(static_cast<bool>(want), static_cast<bool>(got)) << text;
    if (!want) {
      ASSERT_EQ(want.error.line, got.error.line) << text;
      ASSERT_EQ(want.error.message, got.error.message) << text;
      continue;
    }
    Request a;
    Request b;
    a.instance = *want.value;
    b.instance = *got.value;
    ASSERT_TRUE(same_request(a, b)) << text;
  }
}

TEST(WireCodec, ParseRequestMatchesStreamParserUnderMutation) {
  const std::vector<std::string> payloads = base_payloads();
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(parsers_agree(payload));
  }
  // Bytes a mutation inserts or overwrites with: the grammar's own
  // characters weighted over arbitrary ones.
  static constexpr char kBytes[] = "0123456789.eE+- \t\v\r\n#:xin";
  std::uint64_t state = 0x5eed'0004;
  const auto byte = [&] {
    return below(state, 4) == 0
               ? static_cast<char>(splitmix64(state) & 0xff)
               : kBytes[below(state, sizeof kBytes - 1)];
  };
  for (int i = 0; i < 100'000; ++i) {
    std::string payload = payloads[below(state, payloads.size())];
    const std::size_t edits = 1 + below(state, 3);
    for (std::size_t e = 0; e < edits && !payload.empty(); ++e) {
      const std::size_t at = below(state, payload.size());
      switch (below(state, 4)) {
        case 0:  // flip
          payload[at] = byte();
          break;
        case 1:  // insert
          payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(at),
                         byte());
          break;
        case 2:  // delete
          payload.erase(at, 1 + below(state, 3));
          break;
        default:  // truncate
          payload.resize(at);
          break;
      }
    }
    ASSERT_TRUE(parsers_agree(payload));
  }
}

TEST(WireCodec, SerializeAndSolveMatchStreamRendering) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    for (const char* algo : kAlgos) {
      for (const bool dump : {false, true}) {
        Request request = generated_request(algo, seed);
        request.want_schedule = dump;
        const std::string wire = serialize_request(request);
        ASSERT_EQ(wire, oracle::serialize_request(request)) << algo;
        ASSERT_EQ(cache_key(request), oracle::cache_key(request)) << algo;

        std::string payload;
        std::string error;
        const bool ok = solve_request(request, &payload, &error);
        if (std::string(algo) == "avrq_m" && dump) {
          ASSERT_FALSE(ok);
          EXPECT_EQ(error, "schedule dump is not supported for avrq_m");
          continue;
        }
        ASSERT_TRUE(ok) << algo << ": " << error;
        ASSERT_EQ(payload, oracle::render_solve(request)) << algo;

        SolveResult result;
        ASSERT_TRUE(parse_solve_result(payload, &result, &error)) << error;
        EXPECT_EQ(result.algo, algo);
        EXPECT_EQ(bits(result.alpha), bits(request.alpha));
        EXPECT_EQ(result.jobs, request.instance.size());
        EXPECT_EQ(result.schedule_text.empty(), !dump);
      }
    }
  }
}

TEST(WireCodec, StreamWritersHonourThePrecision) {
  const core::QInstance instance = gen::random_online(20, 10.0, 0.5, 4.0, 9);
  for (const int precision : {6, 3, 17}) {
    std::ostringstream want;
    std::ostringstream got;
    want.precision(precision);
    got.precision(precision);
    oracle::write_qinstance(want, instance);
    io::write_qinstance(got, instance);
    EXPECT_EQ(got.str(), want.str()) << precision;
  }
}

TEST(WireCodec, CacheKeyMatchesKeyRecordedByThePreviousRelease) {
  // Recorded from the previous release's snprintf-based cache_key, so
  // segment stores that older releases wrote keep hitting.
  Request request;
  request.algo = "avrq_m";
  request.machines = 3;
  request.alpha = 2.5;
  request.instance.add(-0.0, 4.0, 0.5, 3.0, 1.0);
  request.instance.add(5e-324, 0.3, 0.1, 1.0 / 3.0, 0.0);
  request.instance.add(1.25, 1e300, 2.2250738585072014e-308, 7.0, 7.0);
  EXPECT_EQ(cache_key(request),
            "v1|avrq_m|3|0|a4004000000000000|n3|"
            "000000000000000040100000000000003fe0000000000000"
            "40080000000000003ff0000000000000|"
            "00000000000000013fd33333333333333fb999999999999a"
            "3fd55555555555550000000000000000|"
            "3ff40000000000007e37e43c8800759c0010000000000000"
            "401c000000000000401c000000000000");
  request.algo = "bkpq";
  request.want_schedule = true;
  request.alpha = 3.0;
  EXPECT_EQ(cache_key(request),
            "v1|bkpq|0|1|a4008000000000000|n3|"
            "000000000000000040100000000000003fe0000000000000"
            "40080000000000003ff0000000000000|"
            "00000000000000013fd33333333333333fb999999999999a"
            "3fd55555555555550000000000000000|"
            "3ff40000000000007e37e43c8800759c0010000000000000"
            "401c000000000000401c000000000000");
}

}  // namespace
}  // namespace qbss::svc
