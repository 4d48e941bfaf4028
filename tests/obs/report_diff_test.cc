// The diff engine's two headline contracts: byte-identical artifacts
// diff to zero rows (the determinism gate), and a perturbed metric is
// named and fails the threshold gate. Rendering is deterministic
// markdown / JSON.

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/report/artifact.h"
#include "obs/report/diff.h"

namespace strip::obs::report {
namespace {

TelemetryDoc MakeTelemetry(double committed, double p_md) {
  TelemetryDoc doc;
  doc.path = "t.json";
  doc.policy = "OD";
  doc.staleness = "MA";
  doc.seed = 7;
  doc.sim_seconds = 30;
  doc.lambda_t = 10;
  doc.lambda_u = 200;
  doc.stale_reads_seen = 5;
  doc.metrics = {{"txns_committed", committed},
                 {"p_md", p_md},
                 {"outage_recovery_seconds", std::nullopt}};
  HistogramData h;
  h.name = "response_seconds";
  h.count = 10;
  h.mean = 0.2;
  h.p50 = 0.15;
  h.p90 = 0.3;
  h.p99 = 0.4;
  h.range_min = 1e-4;
  h.range_max = 100;
  h.buckets_per_decade = 16;
  doc.histograms.push_back(h);
  return doc;
}

TEST(ReportDiffTest, IdenticalDocsHaveZeroDeltas) {
  const TelemetryDoc doc = MakeTelemetry(100, 0.125);
  const DiffReport report = DiffTelemetry(doc, doc, DiffOptions{});
  EXPECT_EQ(report.rows_changed, 0);
  EXPECT_EQ(report.rows_over_threshold, 0);
  EXPECT_TRUE(report.notes.empty());
  EXPECT_FALSE(report.Exceeds());
  EXPECT_NE(DiffMarkdown(report, DiffOptions{}).find("metric-identical"),
            std::string::npos);
}

TEST(ReportDiffTest, PerturbedMetricIsNamedAndGates) {
  const TelemetryDoc a = MakeTelemetry(100, 0.125);
  const TelemetryDoc b = MakeTelemetry(103, 0.125);
  DiffOptions options;
  options.threshold = 0.01;  // 1% gate; 3% move must trip it
  const DiffReport report = DiffTelemetry(a, b, options);
  EXPECT_TRUE(report.Exceeds());
  EXPECT_EQ(report.rows_changed, 1);
  EXPECT_EQ(report.rows_over_threshold, 1);
  ASSERT_EQ(report.over_threshold_names.size(), 1u);
  EXPECT_EQ(report.over_threshold_names[0], "metrics.txns_committed");
}

TEST(ReportDiffTest, ChangeWithinThresholdDoesNotGate) {
  const TelemetryDoc a = MakeTelemetry(100, 0.125);
  const TelemetryDoc b = MakeTelemetry(102, 0.125);
  DiffOptions options;
  options.threshold = 0.05;  // 2% move under a 5% gate
  const DiffReport report = DiffTelemetry(a, b, options);
  EXPECT_EQ(report.rows_changed, 1);
  EXPECT_EQ(report.rows_over_threshold, 0);
  EXPECT_FALSE(report.Exceeds());
}

TEST(ReportDiffTest, NullVersusNumberAlwaysGates) {
  const TelemetryDoc a = MakeTelemetry(100, 0.125);
  TelemetryDoc b = a;
  // outage_recovery_seconds flips null -> 12.5: no relative delta
  // exists, so any threshold must gate.
  b.metrics[2].second = 12.5;
  DiffOptions options;
  options.threshold = 100.0;
  const DiffReport report = DiffTelemetry(a, b, options);
  EXPECT_TRUE(report.Exceeds());
  ASSERT_EQ(report.over_threshold_names.size(), 1u);
  EXPECT_EQ(report.over_threshold_names[0],
            "metrics.outage_recovery_seconds");
}

TEST(ReportDiffTest, ContextMismatchIsANoteAndGates) {
  const TelemetryDoc a = MakeTelemetry(100, 0.125);
  TelemetryDoc b = a;
  b.policy = "UF";
  const DiffReport report = DiffTelemetry(a, b, DiffOptions{});
  EXPECT_FALSE(report.notes.empty());
  EXPECT_TRUE(report.Exceeds());
}

TEST(ReportDiffTest, HistogramRowsParticipate) {
  const TelemetryDoc a = MakeTelemetry(100, 0.125);
  TelemetryDoc b = a;
  b.histograms[0].p99 = 0.8;
  const DiffReport report = DiffTelemetry(a, b, DiffOptions{});
  EXPECT_TRUE(report.Exceeds());
  ASSERT_EQ(report.over_threshold_names.size(), 1u);
  EXPECT_EQ(report.over_threshold_names[0],
            "histograms.response_seconds.p99");
}

TEST(ReportDiffTest, SweepCellDiffComparesPerReplication) {
  SweepCellDoc a;
  a.policy = "UF";
  a.x_name = "lambda_u";
  a.x_value = 200;
  a.replications = 2;
  a.runs = {{{"p_md", 0.1}}, {{"p_md", 0.2}}};
  SweepCellDoc b = a;
  b.runs[1] = {{"p_md", 0.5}};
  const DiffReport report = DiffSweepCell(a, b, DiffOptions{});
  EXPECT_TRUE(report.Exceeds());
  ASSERT_EQ(report.over_threshold_names.size(), 1u);
  // The failing row names the replication, not just the metric.
  EXPECT_EQ(report.over_threshold_names[0], "runs[1].p_md");
}

TEST(ReportDiffTest, MarkdownAndJsonAreDeterministic) {
  const TelemetryDoc a = MakeTelemetry(100, 0.125);
  const TelemetryDoc b = MakeTelemetry(103, 0.2);
  const DiffReport report = DiffTelemetry(a, b, DiffOptions{});
  EXPECT_EQ(DiffMarkdown(report, DiffOptions{}),
            DiffMarkdown(report, DiffOptions{}));
  const std::string json = DiffJson(report);
  EXPECT_EQ(json, DiffJson(report));
  EXPECT_NE(json.find("\"schema\": \"strip.report.diff/v1\""),
            std::string::npos);
  EXPECT_NE(json.find("txns_committed"), std::string::npos);
}

TEST(ReportDiffTest, DiffPathsRejectsMixedKinds) {
  const std::string dir = ::testing::TempDir();
  const std::string telemetry = dir + "diff_kind_t.json";
  const std::string bench = dir + "diff_kind_b.json";
  {
    std::ofstream t(telemetry);
    t << "{\"schema\": \"strip.telemetry/v4\", \"run\": {},"
         " \"metrics\": {}, \"histograms\": {}}";
    std::ofstream b(bench);
    b << "{\"context\": {}, \"benchmarks\": []}";
  }
  std::string error;
  EXPECT_FALSE(DiffPaths(telemetry, bench, DiffOptions{}, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace strip::obs::report
