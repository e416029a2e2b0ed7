// Tests for obs::diff — the manifest regression gate: JSON round-trip
// through io::write_json_manifest, identical manifests pass, an inflated
// timer fails and names the metric, counter drift and an upward
// histogram tail shift are caught (a downward one is an improvement),
// the median-of-N reduction absorbs one noisy outlier,
// and both report writers emit well-formed output.
#include "obs/diff.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "io/json.hpp"
#include "obs/manifest.hpp"

namespace qbss::obs {
namespace {

int count_char(const std::string& text, char c) {
  int n = 0;
  for (const char ch : text) n += (ch == c) ? 1 : 0;
  return n;
}

/// A synthetic manifest with one timer (calls+ns), one plain counter and
/// one histogram, serialized through the real JSON writer.
std::string manifest_text(std::uint64_t solve_ns, std::uint64_t queries,
                          double p99) {
  Manifest m;
  m.git_sha = "deadbeef";
  m.compiler = "test-compiler 1.0";
  m.build_type = "Release";
  m.obs_enabled = true;
  m.threads = 4;
  m.wall_seconds = 1.5;
  m.counters.emplace_back("expand.queries.issued", queries);
  m.counters.emplace_back("yds.solve.calls", 100u);
  m.counters.emplace_back("yds.solve.ns", solve_ns);
  HistogramSummary h;
  h.count = 64;
  h.min = 1.0;
  h.max = p99;
  h.p50 = 2.0;
  h.p90 = 4.0;
  h.p99 = p99;
  m.histograms.emplace_back("harness.energy_ratio", h);
  std::ostringstream out;
  io::write_json_manifest(out, m);
  return out.str();
}

ManifestData parse_or_die(const std::string& text) {
  std::string error;
  const std::optional<ManifestData> data = parse_manifest_json(text, &error);
  EXPECT_TRUE(data.has_value()) << error;
  return data.value_or(ManifestData{});
}

TEST(ObsDiffParse, RoundTripsWriterOutput) {
  const ManifestData m = parse_or_die(manifest_text(5'000'000, 40, 8.0));
  EXPECT_EQ(m.git_sha, "deadbeef");
  EXPECT_EQ(m.compiler, "test-compiler 1.0");
  EXPECT_EQ(m.build_type, "Release");
  EXPECT_TRUE(m.obs_enabled);
  EXPECT_DOUBLE_EQ(m.threads, 4.0);
  EXPECT_DOUBLE_EQ(m.wall_seconds, 1.5);
  EXPECT_DOUBLE_EQ(m.counters.at("yds.solve.ns"), 5'000'000.0);
  EXPECT_DOUBLE_EQ(m.counters.at("expand.queries.issued"), 40.0);
  ASSERT_TRUE(m.histograms.contains("harness.energy_ratio"));
  const HistogramSummary& h = m.histograms.at("harness.energy_ratio");
  EXPECT_EQ(h.count, 64u);
  EXPECT_DOUBLE_EQ(h.p50, 2.0);
  EXPECT_DOUBLE_EQ(h.p99, 8.0);
}

TEST(ObsDiffParse, AcceptsManifestEmbeddedInLargerDocument) {
  // google-benchmark style: the manifest block sits beside other keys.
  const std::string text =
      "{\"context\":{\"cpus\":8},\"benchmarks\":[{\"name\":\"BM_X\"}]," +
      manifest_text(1000, 10, 2.0).substr(1);
  const ManifestData m = parse_or_die(text);
  EXPECT_EQ(m.git_sha, "deadbeef");
  EXPECT_DOUBLE_EQ(m.counters.at("yds.solve.ns"), 1000.0);
}

TEST(ObsDiffParse, RejectsGarbageWithDiagnosis) {
  std::string error;
  EXPECT_FALSE(parse_manifest_json("not json at all", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_manifest_json("{\"no_manifest\":1}", &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_manifest_json("{\"manifest\":{", &error).has_value());
}

TEST(ObsDiff, IdenticalManifestsPass) {
  const ManifestData base = parse_or_die(manifest_text(5'000'000, 40, 8.0));
  const DiffReport report = diff_manifests(base, base);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.regressions, 0);
  EXPECT_GT(report.compared, 0);
  for (const MetricDiff& m : report.metrics) {
    EXPECT_NE(m.verdict, DiffVerdict::kRegressed) << m.name;
  }
}

TEST(ObsDiff, InflatedTimerRegressesAndNamesTheMetric) {
  const ManifestData base = parse_or_die(manifest_text(5'000'000, 40, 8.0));
  const ManifestData bad =
      parse_or_die(manifest_text(500'000'000, 40, 8.0));
  const DiffReport report = diff_manifests(base, bad);
  EXPECT_FALSE(report.ok());
  bool named = false;
  for (const MetricDiff& m : report.metrics) {
    if (m.verdict == DiffVerdict::kRegressed) {
      EXPECT_NE(m.name.find("yds.solve"), std::string::npos);
      EXPECT_EQ(m.kind, "timer");
      named = true;
    }
  }
  EXPECT_TRUE(named);
}

TEST(ObsDiff, FasterTimerIsAnImprovementNotARegression) {
  const ManifestData base =
      parse_or_die(manifest_text(500'000'000, 40, 8.0));
  const ManifestData fast = parse_or_die(manifest_text(5'000'000, 40, 8.0));
  const DiffReport report = diff_manifests(base, fast);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.improvements, 0);
}

TEST(ObsDiff, CounterDriftFailsInBothDirections) {
  const ManifestData base = parse_or_die(manifest_text(5'000'000, 40, 8.0));
  for (const std::uint64_t drifted : {400u, 10u}) {
    const ManifestData cand =
        parse_or_die(manifest_text(5'000'000, drifted, 8.0));
    const DiffReport report = diff_manifests(base, cand);
    EXPECT_FALSE(report.ok()) << "queries " << drifted;
  }
}

TEST(ObsDiff, HistogramTailShiftRegresses) {
  const ManifestData base = parse_or_die(manifest_text(5'000'000, 40, 8.0));
  const ManifestData cand =
      parse_or_die(manifest_text(5'000'000, 40, 80.0));
  const DiffReport report = diff_manifests(base, cand);
  EXPECT_FALSE(report.ok());
  bool named = false;
  for (const MetricDiff& m : report.metrics) {
    if (m.verdict == DiffVerdict::kRegressed) {
      EXPECT_NE(m.name.find("harness.energy_ratio"), std::string::npos);
      EXPECT_EQ(m.kind, "histogram");
      named = true;
    }
  }
  EXPECT_TRUE(named);
}

TEST(ObsDiff, HistogramTailShiftDownIsAnImprovement) {
  const ManifestData base = parse_or_die(manifest_text(5'000'000, 40, 8.0));
  const ManifestData cand = parse_or_die(manifest_text(5'000'000, 40, 0.8));
  const DiffReport report = diff_manifests(base, cand);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.regressions, 0);
  bool improved = false;
  for (const MetricDiff& m : report.metrics) {
    if (m.name == "harness.energy_ratio p99") {
      EXPECT_EQ(m.verdict, DiffVerdict::kImproved);
      improved = true;
    }
  }
  EXPECT_TRUE(improved);
}

TEST(ObsDiff, NoiseFloorSkipsTinyTimersButNotInflatedOnes) {
  // Both sides under the ns floor: skipped, no verdict either way.
  const ManifestData base = parse_or_die(manifest_text(1000, 40, 8.0));
  const ManifestData cand = parse_or_die(manifest_text(3000, 40, 8.0));
  EXPECT_TRUE(diff_manifests(base, cand).ok());
  // Candidate far above the floor: checked even though the baseline is
  // tiny — deliberate inflation always clears the floor.
  const ManifestData huge =
      parse_or_die(manifest_text(500'000'000, 40, 8.0));
  EXPECT_FALSE(diff_manifests(base, huge).ok());
}

TEST(ObsDiff, DisabledToleranceClassIsIgnored) {
  const ManifestData base = parse_or_die(manifest_text(5'000'000, 40, 8.0));
  const ManifestData cand =
      parse_or_die(manifest_text(5'000'000, 400, 8.0));
  DiffOptions options;
  options.counter_ratio_tol = 0.0;  // disable counter checks
  EXPECT_TRUE(diff_manifests(base, cand, options).ok());
}

TEST(ObsDiff, MedianOfThreeAbsorbsOneOutlier) {
  const std::vector<ManifestData> candidates = {
      parse_or_die(manifest_text(5'000'000, 40, 8.0)),
      parse_or_die(manifest_text(900'000'000, 40, 8.0)),  // noisy outlier
      parse_or_die(manifest_text(5'200'000, 40, 8.0)),
  };
  const ManifestData median = median_of(candidates);
  EXPECT_DOUBLE_EQ(median.counters.at("yds.solve.ns"), 5'200'000.0);
  const ManifestData base = parse_or_die(manifest_text(5'000'000, 40, 8.0));
  EXPECT_TRUE(diff_manifests(base, median).ok());
}

TEST(ObsDiffReport, MarkdownAndJsonAreWellFormed) {
  const ManifestData base = parse_or_die(manifest_text(5'000'000, 40, 8.0));
  const ManifestData bad =
      parse_or_die(manifest_text(500'000'000, 400, 80.0));
  const DiffReport report = diff_manifests(base, bad);

  std::ostringstream md;
  write_markdown_report(md, report);
  const std::string markdown = md.str();
  EXPECT_NE(markdown.find("REGRESSION"), std::string::npos);
  EXPECT_NE(markdown.find("yds.solve"), std::string::npos);
  EXPECT_NE(markdown.find("| metric |"), std::string::npos);

  std::ostringstream js;
  write_json_report(js, report);
  const std::string json = js.str();
  EXPECT_EQ(count_char(json, '{'), count_char(json, '}'));
  EXPECT_EQ(count_char(json, '['), count_char(json, ']'));
  EXPECT_NE(json.find("\"regressions\":"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"REGRESSED\""), std::string::npos);
}

}  // namespace
}  // namespace qbss::obs
