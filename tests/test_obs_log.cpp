// The structured event log + flight recorder: level parsing, typed-arg
// rendering and truncation, ring retention (last kRingCapacity events
// per thread survive regardless of the sink filter), the timestamp-
// ordered flight dump (also while other threads keep logging), NDJSON
// round trips through parse_log_line, and the sink's severity filter.
// Everything runs in one process against the global rings, so tests
// identify their events by unique literal names instead of assuming an
// empty log.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.hpp"

namespace qbss::obs {
namespace {

using A = LogArg;

std::string arg_value(const ParsedLogLine& line, const std::string& key) {
  for (const auto& [k, v] : line.args) {
    if (k == key) return v;
  }
  return "<missing>";
}

TEST(ObsLog, LevelNamesRoundTrip) {
  for (const LogLevel level :
       {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn, LogLevel::kError,
        LogLevel::kOff}) {
    LogLevel parsed = LogLevel::kInfo;
    ASSERT_TRUE(parse_log_level(level_name(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  LogLevel parsed = LogLevel::kInfo;
  EXPECT_TRUE(parse_log_level("err", &parsed));
  EXPECT_EQ(parsed, LogLevel::kError);
  EXPECT_FALSE(parse_log_level("", &parsed));
  EXPECT_FALSE(parse_log_level("verbose", &parsed));
  EXPECT_FALSE(parse_log_level("Info", &parsed));
}

TEST(ObsLog, StringArgsTruncateNeverOverflow) {
  const std::string long_value(200, 'x');
  const A arg("k", long_value);
  const std::string kept(arg.str);
  EXPECT_EQ(kept.size(), A::kStrBytes - 1);
  EXPECT_EQ(kept, long_value.substr(0, A::kStrBytes - 1));
  const A empty("k", static_cast<const char*>(nullptr));
  EXPECT_STREQ(empty.str, "");
}

// Everything below actually records events, which QBSS_OBS_OFF compiles
// away — the level/truncation/parse tests above run in both builds.
#ifndef QBSS_OBS_OFF

/// Reads `path` and returns the parsed events named `event` (writing
/// order preserved); unparsable lines fail the test.
std::vector<ParsedLogLine> read_events(const std::string& path,
                                       const std::string& event) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<ParsedLogLine> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ParsedLogLine parsed;
    std::string error;
    EXPECT_TRUE(parse_log_line(line, &parsed, &error))
        << error << " in: " << line;
    if (parsed.event == event) out.push_back(std::move(parsed));
  }
  return out;
}

TEST(ObsLog, RecordingFeedsTheCounter) {
  const std::uint64_t before = log_events_recorded();
  QBSS_LOG_INFO("log.test.counter", 0);
  QBSS_LOG_DEBUG("log.test.counter", 0);
  EXPECT_EQ(log_events_recorded(), before + 2);
}

TEST(ObsLog, FlightDumpRoundTripsEveryArgType) {
  QBSS_LOG_WARN("log.test.roundtrip", 0x1fULL, A("u", 42u), A("i", -7),
                A("f", 2.5), A("s", "hello \"world\"\n"), A("b", true),
                A::hex("h", 0xdeadbeefULL));
  const std::string path = "test_log_roundtrip.ndjson";
  const long written = dump_flight_recorder(path.c_str());
  ASSERT_GT(written, 0);

  const std::vector<ParsedLogLine> events =
      read_events(path, "log.test.roundtrip");
  ASSERT_FALSE(events.empty());
  const ParsedLogLine& e = events.back();
  EXPECT_EQ(e.level, LogLevel::kWarn);
  EXPECT_EQ(e.trace_id, "0x1f");
  EXPECT_GT(e.ts_ns, 0u);
  EXPECT_EQ(arg_value(e, "u"), "42");
  EXPECT_EQ(arg_value(e, "i"), "-7");
  EXPECT_EQ(arg_value(e, "f"), "2.5");
  // Quotes and backslashes escape; control characters degrade to
  // spaces so a log line can never span lines.
  EXPECT_EQ(arg_value(e, "s"), "hello \"world\" ");
  EXPECT_EQ(arg_value(e, "b"), "true");
  EXPECT_EQ(arg_value(e, "h"), "0xdeadbeef");
  std::remove(path.c_str());
}

TEST(ObsLog, FlightDumpIsTimestampOrderedAcrossThreads) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      // The arg is "worker", not "thread": top-level schema keys
      // (ts_ns/level/event/trace_id/thread) are reserved — a same-named
      // arg would collide with them at parse time.
      for (int i = 0; i < 50; ++i) {
        QBSS_LOG_INFO("log.test.merge", 0, A("worker", t), A("i", i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::string path = "test_log_merge.ndjson";
  ASSERT_GT(dump_flight_recorder(path.c_str()), 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t prev_ts = 0;
  std::set<std::string> merge_threads;
  std::size_t merge_events = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ParsedLogLine parsed;
    ASSERT_TRUE(parse_log_line(line, &parsed)) << line;
    EXPECT_GE(parsed.ts_ns, prev_ts) << "dump not timestamp-ordered";
    prev_ts = parsed.ts_ns;
    if (parsed.event == "log.test.merge") {
      ++merge_events;
      merge_threads.insert(arg_value(parsed, "worker"));
    }
  }
  EXPECT_EQ(merge_events, 200u);
  EXPECT_EQ(merge_threads.size(), 4u);
  std::remove(path.c_str());
}

TEST(ObsLog, DumpsWhileThreadsLogNeverEmitTornEvents) {
  // Writers keep lapping their rings while this thread dumps them, so
  // dumps read slots mid-overwrite. Such a slot must be skipped: an
  // event mixing words of two writes shows up as `check != 7 * i`, or
  // as a line that does not parse (read_events fails on those).
  constexpr int kWriters = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> lapped{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&stop, &lapped] {
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        QBSS_LOG_DEBUG("log.test.torn", 0, A("i", i), A("check", 7 * i));
        if (i == kRingCapacity) lapped.fetch_add(1);
      }
    });
  }
  // Dump only once every writer has lapped its ring at least once.
  while (lapped.load() < kWriters) std::this_thread::yield();
  const std::string path = "test_log_torn.ndjson";
  std::size_t checked = 0;
  std::size_t torn = 0;
  for (int dump = 0; dump < 20; ++dump) {
    if (dump_flight_recorder(path.c_str()) < 0) break;
    for (const ParsedLogLine& e : read_events(path, "log.test.torn")) {
      const std::uint64_t i =
          std::strtoull(arg_value(e, "i").c_str(), nullptr, 10);
      if (arg_value(e, "check") != std::to_string(7 * i)) ++torn;
      ++checked;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(torn, 0u) << "of " << checked << " events";
  std::remove(path.c_str());
}

TEST(ObsLog, RingRetainsExactlyTheLastCapacityEvents) {
  const std::size_t total = kRingCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    QBSS_LOG_DEBUG("log.test.retention", 0, A("i", i));
  }
  const std::string path = "test_log_retention.ndjson";
  ASSERT_GT(dump_flight_recorder(path.c_str()), 0);
  const std::vector<ParsedLogLine> events =
      read_events(path, "log.test.retention");
  // This thread's ring was lapped: only the newest kRingCapacity events
  // survive, and they are the *last* ones emitted.
  ASSERT_EQ(events.size(), kRingCapacity);
  EXPECT_EQ(arg_value(events.front(), "i"), "100");
  EXPECT_EQ(arg_value(events.back(), "i"), std::to_string(total - 1));
  std::remove(path.c_str());
}

TEST(ObsLog, SinkFiltersBySeverityButRingsKeepEverything) {
  const std::string path = "test_log_sink.ndjson";
  std::string error;
  ASSERT_TRUE(set_log_sink(path, &error)) << error;
  set_log_level(LogLevel::kWarn);
  QBSS_LOG_DEBUG("log.test.sink_debug", 0);
  QBSS_LOG_INFO("log.test.sink_info", 0);
  QBSS_LOG_WARN("log.test.sink_warn", 0, A("kept", true));
  QBSS_LOG_ERR("log.test.sink_error", 0);
  flush_logs();

  EXPECT_TRUE(read_events(path, "log.test.sink_debug").empty());
  EXPECT_TRUE(read_events(path, "log.test.sink_info").empty());
  EXPECT_EQ(read_events(path, "log.test.sink_warn").size(), 1u);
  EXPECT_EQ(read_events(path, "log.test.sink_error").size(), 1u);

  // The filter only gates the sink: a flight dump still has the debug
  // event the sink suppressed.
  const std::string flight = "test_log_sink_flight.ndjson";
  ASSERT_GT(dump_flight_recorder(flight.c_str()), 0);
  EXPECT_FALSE(read_events(flight, "log.test.sink_debug").empty());

  // Lowering the filter applies to later events, not retroactively.
  set_log_level(LogLevel::kDebug);
  QBSS_LOG_DEBUG("log.test.sink_debug2", 0);
  flush_logs();
  EXPECT_EQ(read_events(path, "log.test.sink_debug2").size(), 1u);
  EXPECT_TRUE(read_events(path, "log.test.sink_debug").empty());

  ASSERT_TRUE(set_log_sink("", &error)) << error;
  set_log_level(LogLevel::kInfo);
  std::remove(path.c_str());
  std::remove(flight.c_str());
}

#endif  // QBSS_OBS_OFF

TEST(ObsLog, ParseLogLineRejectsMalformedInput) {
  ParsedLogLine parsed;
  std::string error;
  EXPECT_FALSE(parse_log_line("", &parsed, &error));
  EXPECT_FALSE(parse_log_line("not json", &parsed, &error));
  EXPECT_FALSE(parse_log_line("{\"ts_ns\":1}", &parsed, &error))
      << "a line without an event name must not parse";
  EXPECT_FALSE(parse_log_line("{\"event\":\"x\"", &parsed, &error))
      << "an unterminated object must not parse";

  // Unknown keys are tolerated (forward compatibility): they land in
  // args rather than failing the line.
  ASSERT_TRUE(parse_log_line(
      "{\"ts_ns\":7,\"level\":\"warn\",\"event\":\"x\",\"trace_id\":\"0x2\","
      "\"thread\":3,\"future_field\":\"ok\"}",
      &parsed, &error))
      << error;
  EXPECT_EQ(parsed.ts_ns, 7u);
  EXPECT_EQ(parsed.level, LogLevel::kWarn);
  EXPECT_EQ(parsed.event, "x");
  EXPECT_EQ(parsed.trace_id, "0x2");
  EXPECT_EQ(parsed.thread, 3);
  EXPECT_EQ(arg_value(parsed, "future_field"), "ok");
}

}  // namespace
}  // namespace qbss::obs
