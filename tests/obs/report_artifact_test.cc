// Artifact loaders: each of the three families (telemetry, sweep
// cell, Google-Benchmark JSON) parses into the common typed model,
// malformed documents fail with one-line errors naming the file, and
// ClassifyArtifact routes paths to the right loader.

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/report/artifact.h"

namespace strip::obs::report {
namespace {

std::string WriteTemp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out) << path;
  out << body;
  return path;
}

// A minimal but structurally faithful telemetry document.
std::string TelemetryBody(int shard, int shards, double response_p99) {
  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\n"
      "  \"schema\": \"strip.telemetry/v4\",\n"
      "  \"run\": {\"policy\": \"OD\", \"staleness\": \"MA\", \"seed\": 7,"
      " \"shard\": %d, \"shards\": %d, \"sim_seconds\": 30,"
      " \"warmup_seconds\": 5, \"lambda_t\": 10, \"lambda_u\": 200,"
      " \"alpha\": 0.5},\n"
      "  \"phases\": {\"warmup_end\": 5, \"run_end\": 30},\n"
      "  \"series\": {\"interval_seconds\": 1, \"time\": []},\n"
      "  \"histograms\": {\"response_seconds\": {\"count\": 3,"
      " \"mean\": 0.2, \"min\": 0.1, \"max\": 0.4, \"p50\": 0.2,"
      " \"p90\": 0.4, \"p99\": %.17g, \"underflow\": 0, \"overflow\": 0,"
      " \"range\": [0.0001, 100], \"buckets_per_decade\": 16,"
      " \"buckets\": [[1, 2], [5, 1]]}},\n"
      "  \"stale_reads_seen\": 11,\n"
      "  \"metrics\": {\"txns_committed\": 42, \"p_md\": 0.125,"
      " \"outage_recovery_seconds\": null, \"response_p99\": %.17g}\n"
      "}\n",
      shard, shards, response_p99, response_p99);
  return buffer;
}

TEST(ReportArtifactTest, LoadsTelemetryDoc) {
  const std::string path =
      WriteTemp("artifact_t1.json", TelemetryBody(0, 1, 0.4));
  std::string error;
  const auto doc = LoadTelemetryDoc(path, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->policy, "OD");
  EXPECT_EQ(doc->staleness, "MA");
  EXPECT_EQ(doc->seed, 7u);
  EXPECT_EQ(doc->shards, 1);
  EXPECT_DOUBLE_EQ(doc->lambda_u, 200.0);
  EXPECT_EQ(doc->stale_reads_seen, 11u);
  EXPECT_DOUBLE_EQ(FindMetric(doc->metrics, "txns_committed").value(), 42);
  // JSON null carries through as an absent value, not 0.
  EXPECT_FALSE(
      FindMetric(doc->metrics, "outage_recovery_seconds").has_value());
  const HistogramData* h = doc->FindHistogram("response_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->buckets_per_decade, 16);
  ASSERT_EQ(h->buckets.size(), 2u);
  EXPECT_EQ(h->buckets[0].first, 1u);
  EXPECT_EQ(h->buckets[0].second, 2u);
}

TEST(ReportArtifactTest, RejectsWrongSchema) {
  const std::string path = WriteTemp(
      "artifact_bad_schema.json",
      "{\"schema\": \"strip.telemetry/v2\", \"run\": {}, \"metrics\": {}}");
  std::string error;
  EXPECT_FALSE(LoadTelemetryDoc(path, &error).has_value());
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

// The reader follows the writer: a v3 document, which lacks v4's
// interconnect counters, is refused with the schema it wants.
TEST(ReportArtifactTest, RejectsTelemetryV3NamingV4) {
  std::string body = TelemetryBody(0, 1, 0.4);
  body.replace(body.find("strip.telemetry/v4"), 18, "strip.telemetry/v3");
  const std::string path = WriteTemp("artifact_v3.json", body);
  std::string error;
  EXPECT_FALSE(LoadTelemetryDoc(path, &error).has_value());
  EXPECT_NE(error.find("strip.telemetry/v3"), std::string::npos) << error;
  EXPECT_NE(error.find("want strip.telemetry/v4"), std::string::npos)
      << error;
}

TEST(ReportArtifactTest, RejectsMalformedJsonWithFileName) {
  const std::string path = WriteTemp("artifact_garbage.json", "{nope");
  std::string error;
  EXPECT_FALSE(LoadTelemetryDoc(path, &error).has_value());
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("byte"), std::string::npos) << error;
}

TEST(ReportArtifactTest, LoadsSweepCellDocAndMeans) {
  const std::string body =
      "{\n"
      "  \"schema\": \"strip.sweep-cell/v1\",\n"
      "  \"policy\": \"UF\",\n"
      "  \"x_name\": \"lambda_u\",\n"
      "  \"x_value\": 200,\n"
      "  \"x_index\": 3,\n"
      "  \"replications\": 2,\n"
      "  \"base_seed\": 42,\n"
      "  \"timed_out\": false,\n"
      "  \"runs\": [\n"
      "    {\"p_md\": 0.1, \"outage_recovery_seconds\": null},\n"
      "    {\"p_md\": 0.3, \"outage_recovery_seconds\": null}\n"
      "  ]\n}\n";
  const std::string path = WriteTemp("artifact_cell.json", body);
  std::string error;
  const auto cell = LoadSweepCellDoc(path, &error);
  ASSERT_TRUE(cell.has_value()) << error;
  EXPECT_EQ(cell->policy, "UF");
  EXPECT_EQ(cell->x_index, 3u);
  ASSERT_EQ(cell->runs.size(), 2u);
  EXPECT_DOUBLE_EQ(cell->Mean("p_md").value(), 0.2);
  // Null in every replication -> no mean, not zero.
  EXPECT_FALSE(cell->Mean("outage_recovery_seconds").has_value());
  EXPECT_FALSE(cell->Mean("no_such_metric").has_value());
}

constexpr char kBenchBody[] =
    "{\n"
    "  \"context\": {\"strip_build_type\": \"release\","
    " \"strip_lto\": \"on\"},\n"
    "  \"benchmarks\": [\n"
    "    {\"name\": \"BM_Sim/1\", \"run_type\": \"iteration\","
    " \"real_time\": 120, \"cpu_time\": 100, \"time_unit\": \"us\"},\n"
    "    {\"name\": \"BM_Sim/1\", \"run_type\": \"iteration\","
    " \"real_time\": 110, \"cpu_time\": 90, \"time_unit\": \"us\"},\n"
    "    {\"name\": \"BM_Sim/1\", \"run_type\": \"aggregate\","
    " \"aggregate_name\": \"mean\", \"real_time\": 115,"
    " \"cpu_time\": 95, \"time_unit\": \"us\"},\n"
    "    {\"name\": \"BM_Queue\", \"run_type\": \"iteration\","
    " \"real_time\": 2, \"cpu_time\": 1.5, \"time_unit\": \"ms\"}\n"
    "  ]\n}\n";

TEST(ReportArtifactTest, LoadsBenchDocMinOfN) {
  const std::string path = WriteTemp("artifact_bench.json", kBenchBody);
  std::string error;
  const auto doc = LoadBenchDoc(path, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->build_type, "release");
  EXPECT_EQ(doc->lto, "on");
  ASSERT_EQ(doc->entries.size(), 2u);
  const BenchEntry* sim = doc->FindEntry("BM_Sim/1");
  ASSERT_NE(sim, nullptr);
  // Min across the two iteration rows; aggregate rows ignored. Units
  // normalized to nanoseconds.
  EXPECT_DOUBLE_EQ(sim->cpu_time_ns, 90e3);
  EXPECT_DOUBLE_EQ(sim->real_time_ns, 110e3);
  EXPECT_EQ(sim->samples, 2);
  EXPECT_EQ(sim->family, "BM_Sim");
  const BenchEntry* queue = doc->FindEntry("BM_Queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_DOUBLE_EQ(queue->cpu_time_ns, 1.5e6);
}

TEST(ReportArtifactTest, ClassifiesEachFamily) {
  const std::string telemetry =
      WriteTemp("classify_t.json", TelemetryBody(0, 1, 0.4));
  const std::string bench = WriteTemp("classify_b.json", kBenchBody);
  std::string error;
  EXPECT_EQ(ClassifyArtifact(telemetry, &error).value_or(ArtifactKind::kBench),
            ArtifactKind::kTelemetry);
  EXPECT_EQ(ClassifyArtifact(bench, &error).value_or(ArtifactKind::kTelemetry),
            ArtifactKind::kBench);
  EXPECT_EQ(
      ClassifyArtifact(::testing::TempDir(), &error).value_or(
          ArtifactKind::kBench),
      ArtifactKind::kSweepDir);
  EXPECT_FALSE(
      ClassifyArtifact(::testing::TempDir() + "no_such_file", &error)
          .has_value());
}

TEST(ReportArtifactTest, LoadsSweepDirWithShardTelemetry) {
  const std::string dir = ::testing::TempDir() + "report_sweepdir";
  std::remove((dir + "/cell_UF_00.json").c_str());
  std::remove((dir + "/OD_00.json.shard0").c_str());
  std::remove((dir + "/OD_00.json.shard1").c_str());
  ASSERT_EQ(0, std::system(("mkdir -p " + dir).c_str()));

  const std::string cell =
      "{\"schema\": \"strip.sweep-cell/v1\", \"policy\": \"UF\","
      " \"x_name\": \"lambda_u\", \"x_value\": 100, \"x_index\": 0,"
      " \"replications\": 1, \"base_seed\": 1, \"timed_out\": false,"
      " \"runs\": [{\"p_md\": 0.5}]}";
  {
    std::ofstream out(dir + "/cell_UF_00.json");
    out << cell;
  }
  {
    std::ofstream s0(dir + "/OD_00.json.shard0");
    s0 << TelemetryBody(0, 2, 0.3);
    std::ofstream s1(dir + "/OD_00.json.shard1");
    s1 << TelemetryBody(1, 2, 0.5);
  }

  std::string error;
  const auto data = LoadSweepDir(dir, &error);
  ASSERT_TRUE(data.has_value()) << error;
  ASSERT_EQ(data->cells.size(), 1u);
  EXPECT_EQ(data->cells[0].policy, "UF");
  EXPECT_EQ(data->x_name, "lambda_u");
  ASSERT_EQ(data->shard_groups.size(), 1u);
  EXPECT_EQ(data->shard_groups[0].label, "OD_00");
  ASSERT_EQ(data->shard_groups[0].shards.size(), 2u);
  EXPECT_EQ(data->shard_groups[0].shards[0].shard, 0);
  EXPECT_EQ(data->shard_groups[0].shards[1].shard, 1);
}

TEST(ReportArtifactTest, SweepDirWithNoArtifactsFails) {
  const std::string dir = ::testing::TempDir() + "report_emptydir";
  ASSERT_EQ(0, std::system(("mkdir -p " + dir).c_str()));
  std::string error;
  EXPECT_FALSE(LoadSweepDir(dir, &error).has_value());
  EXPECT_NE(error.find("no cell_"), std::string::npos) << error;
}

}  // namespace
}  // namespace strip::obs::report
