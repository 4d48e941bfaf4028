// The perf-regression gate: a synthetic 2× slowdown must be rejected,
// the baseline against itself must pass, build-type and host
// mismatches are refused, per-family tolerances override the default,
// and the history snapshot round-trips through LoadBenchDoc as a BASE.

#include <fstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "obs/report/artifact.h"
#include "obs/report/bench_diff.h"

namespace strip::obs::report {
namespace {

BenchDoc MakeDoc(const std::string& build_type, double sim_cpu_ns,
                 double queue_cpu_ns) {
  BenchDoc doc;
  doc.path = build_type + ".json";
  doc.build_type = build_type;
  doc.lto = "on";
  doc.entries.push_back(
      {"BM_Sim/1", "BM_Sim", 3, sim_cpu_ns * 1.2, sim_cpu_ns});
  doc.entries.push_back(
      {"BM_Queue", "BM_Queue", 3, queue_cpu_ns * 1.1, queue_cpu_ns});
  return doc;
}

TEST(ReportBenchDiffTest, BaselineAgainstItselfPasses) {
  const BenchDoc doc = MakeDoc("release", 1e6, 2e3);
  const BenchDiffReport report = BenchDiff(doc, doc, BenchDiffOptions{});
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.improvements, 0);
  EXPECT_FALSE(report.Exceeds());
  EXPECT_NE(BenchDiffMarkdown(report).find("PASS"), std::string::npos);
}

TEST(ReportBenchDiffTest, TwoTimesSlowdownIsRejected) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  const BenchDoc slow = MakeDoc("release", 2e6, 2e3);
  const BenchDiffReport report = BenchDiff(base, slow, BenchDiffOptions{});
  EXPECT_EQ(report.regressions, 1);
  EXPECT_TRUE(report.Exceeds());
  // The regressed row is the simulator benchmark, at ratio 2.
  bool found = false;
  for (const BenchDiffRow& row : report.rows) {
    if (!row.regressed) continue;
    found = true;
    EXPECT_EQ(row.name, "BM_Sim/1");
    EXPECT_DOUBLE_EQ(row.cpu_ratio, 2.0);
  }
  EXPECT_TRUE(found);
  EXPECT_NE(BenchDiffMarkdown(report).find("FAIL"), std::string::npos);
}

TEST(ReportBenchDiffTest, ImprovementIsCountedNotGated) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  const BenchDoc fast = MakeDoc("release", 5e5, 2e3);
  const BenchDiffReport report = BenchDiff(base, fast, BenchDiffOptions{});
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.improvements, 1);
  EXPECT_FALSE(report.Exceeds());
}

TEST(ReportBenchDiffTest, WithinToleranceIsQuiet) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  // +8% under the 10% default: noise, not a regression.
  const BenchDoc near = MakeDoc("release", 1.08e6, 2e3);
  const BenchDiffReport report = BenchDiff(base, near, BenchDiffOptions{});
  EXPECT_EQ(report.regressions, 0);
  EXPECT_FALSE(report.Exceeds());
}

TEST(ReportBenchDiffTest, FamilyToleranceOverridesDefault) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  const BenchDoc drift = MakeDoc("release", 1.15e6, 2e3);
  // 15% slower: regresses under the default 10%…
  EXPECT_EQ(BenchDiff(base, drift, BenchDiffOptions{}).regressions, 1);
  // …but the family override widens BM_Sim's floor to 25%.
  BenchDiffOptions options;
  options.family_tolerance.push_back({"BM_Sim", 0.25});
  const BenchDiffReport report = BenchDiff(base, drift, options);
  EXPECT_EQ(report.regressions, 0);
  EXPECT_FALSE(report.Exceeds());
}

TEST(ReportBenchDiffTest, BuildTypeMismatchRefusesToGate) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  const BenchDoc debug = MakeDoc("debug", 1e6, 2e3);
  const BenchDiffReport report = BenchDiff(base, debug, BenchDiffOptions{});
  EXPECT_TRUE(report.build_mismatch);
  EXPECT_TRUE(report.Exceeds());
  EXPECT_FALSE(report.notes.empty());

  BenchDiffOptions allow;
  allow.allow_build_mismatch = true;
  const BenchDiffReport allowed = BenchDiff(base, debug, allow);
  EXPECT_FALSE(allowed.Exceeds());
}

TEST(ReportBenchDiffTest, RemovedBenchmarkGatesAddedDoesNot) {
  BenchDoc base = MakeDoc("release", 1e6, 2e3);
  BenchDoc next = MakeDoc("release", 1e6, 2e3);
  next.entries.push_back({"BM_New", "BM_New", 1, 10, 10});
  const BenchDiffReport grown = BenchDiff(base, next, BenchDiffOptions{});
  ASSERT_EQ(grown.added.size(), 1u);
  EXPECT_FALSE(grown.Exceeds());

  const BenchDiffReport shrunk = BenchDiff(next, base, BenchDiffOptions{});
  ASSERT_EQ(shrunk.removed.size(), 1u);
  EXPECT_TRUE(shrunk.Exceeds());
}

TEST(ReportBenchDiffTest, HistorySnapshotRoundTripsAsBase) {
  const BenchDoc doc = MakeDoc("release", 1e6, 2e3);
  const std::string snapshot = BenchHistorySnapshot(doc, "seed-baseline");
  EXPECT_NE(snapshot.find("\"schema\": \"strip.bench-history/v1\""),
            std::string::npos);
  EXPECT_NE(snapshot.find("seed-baseline"), std::string::npos);
  // Deterministic bytes.
  EXPECT_EQ(snapshot, BenchHistorySnapshot(doc, "seed-baseline"));

  const std::string path = ::testing::TempDir() + "bench_history_rt.json";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << snapshot;
  }
  std::string error;
  const auto reloaded = LoadBenchDoc(path, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(reloaded->build_type, "release");
  ASSERT_EQ(reloaded->entries.size(), 2u);
  // A reloaded snapshot gates exactly like the original document.
  const BenchDiffReport report =
      BenchDiff(*reloaded, MakeDoc("release", 2e6, 2e3),
                BenchDiffOptions{});
  EXPECT_EQ(report.regressions, 1);
}

// The host perf_core's baseline was captured on: 1 CPU at 2,100 MHz
// with a 48 KiB L1d, a 32 KiB L1i, a 2 MiB L2 and a 260 MiB L3.
BenchHost MakeHost() {
  BenchHost host;
  host.known = true;
  host.num_cpus = 1;
  host.mhz_per_cpu = 2100;
  host.caches = {{1, "Data", 49152},
                 {1, "Instruction", 32768},
                 {2, "Unified", 2097152},
                 {3, "Unified", 272629760}};
  return host;
}

BenchDoc MakeHostedDoc(const BenchHost& host) {
  BenchDoc doc = MakeDoc("release", 1e6, 2e3);
  doc.host = host;
  return doc;
}

bool HasNoteWith(const BenchDiffReport& report, const std::string& text) {
  for (const std::string& note : report.notes) {
    if (note.find(text) != std::string::npos) return true;
  }
  return false;
}

TEST(ReportBenchDiffTest, SameHostPasses) {
  const BenchDoc doc = MakeHostedDoc(MakeHost());
  const BenchDiffReport report = BenchDiff(doc, doc, BenchDiffOptions{});
  EXPECT_FALSE(report.host_mismatch);
  EXPECT_FALSE(report.Exceeds());
  EXPECT_TRUE(report.notes.empty());
}

TEST(ReportBenchDiffTest, EachDifferingHostFieldFailsAndIsNamed) {
  const BenchDoc base = MakeHostedDoc(MakeHost());
  struct Case {
    const char* field;
    void (*mutate)(BenchHost&);
  };
  const Case cases[] = {
      {"num_cpus 1 vs 4", [](BenchHost& h) { h.num_cpus = 4; }},
      {"mhz_per_cpu 2100 vs 2400", [](BenchHost& h) { h.mhz_per_cpu = 2400; }},
      {"L1 Data cache 49152 B vs 32768 B",
       [](BenchHost& h) { h.caches[0].size_bytes = 32768; }},
      {"L1 Instruction cache 32768 B vs 65536 B",
       [](BenchHost& h) { h.caches[1].size_bytes = 65536; }},
      {"L2 Unified cache 2097152 B vs 1048576 B",
       [](BenchHost& h) { h.caches[2].size_bytes = 1048576; }},
      {"L3 Unified cache 272629760 B vs none",
       [](BenchHost& h) { h.caches.pop_back(); }},
  };
  BenchHost all = MakeHost();
  for (const Case& c : cases) {
    BenchHost host = MakeHost();
    c.mutate(host);
    c.mutate(all);
    const BenchDiffReport report =
        BenchDiff(base, MakeHostedDoc(host), BenchDiffOptions{});
    EXPECT_TRUE(report.host_mismatch) << c.field;
    EXPECT_TRUE(report.Exceeds()) << c.field;
    EXPECT_TRUE(HasNoteWith(report, c.field)) << c.field;
    EXPECT_NE(BenchDiffMarkdown(report).find("FAIL"), std::string::npos);
  }
  // A host that differs in every field names every field in one note.
  const BenchDiffReport report =
      BenchDiff(base, MakeHostedDoc(all), BenchDiffOptions{});
  EXPECT_TRUE(report.Exceeds());
  for (const Case& c : cases) {
    EXPECT_TRUE(HasNoteWith(report, c.field)) << c.field;
  }
  // A cache only the new host has is named too.
  BenchHost extra = MakeHost();
  extra.caches.push_back({4, "Unified", 1 << 20});
  EXPECT_TRUE(HasNoteWith(
      BenchDiff(base, MakeHostedDoc(extra), BenchDiffOptions{}),
      "L4 Unified cache none vs 1048576 B"));
}

TEST(ReportBenchDiffTest, UnknownHostOnlyNotes) {
  const BenchDoc known = MakeHostedDoc(MakeHost());
  const BenchDoc unknown = MakeDoc("release", 1e6, 2e3);
  ASSERT_FALSE(unknown.host.known);
  for (const auto& [base, next, side] :
       {std::tuple{&unknown, &known, "host unknown for base"},
        std::tuple{&known, &unknown, "host unknown for new"},
        std::tuple{&unknown, &unknown, "host unknown for base and new"}}) {
    const BenchDiffReport report = BenchDiff(*base, *next, BenchDiffOptions{});
    EXPECT_FALSE(report.host_mismatch) << side;
    EXPECT_FALSE(report.Exceeds()) << side;
    EXPECT_TRUE(HasNoteWith(report, side)) << side;
  }
}

TEST(ReportBenchDiffTest, HostRoundTripsThroughContextAndSnapshot) {
  // Google Benchmark's context, as perf_core writes it.
  const std::string context_path =
      ::testing::TempDir() + "bench_host_context.json";
  {
    std::ofstream out(context_path, std::ios::binary | std::ios::trunc);
    out << R"({"context": {"num_cpus": 1, "mhz_per_cpu": 2100,
      "caches": [
        {"type": "Data", "level": 1, "size": 49152, "num_sharing": 1},
        {"type": "Instruction", "level": 1, "size": 32768, "num_sharing": 1},
        {"type": "Unified", "level": 2, "size": 2097152, "num_sharing": 1},
        {"type": "Unified", "level": 3, "size": 272629760, "num_sharing": 1}
      ], "strip_build_type": "release", "strip_lto": "on"},
      "benchmarks": [{"name": "BM_Queue", "run_type": "iteration",
        "real_time": 2200, "cpu_time": 2000, "time_unit": "ns"}]})";
  }
  std::string error;
  const auto captured = LoadBenchDoc(context_path, &error);
  ASSERT_TRUE(captured.has_value()) << error;
  const BenchHost& host = captured->host;
  EXPECT_TRUE(host.known);
  EXPECT_EQ(host.num_cpus, 1);
  EXPECT_DOUBLE_EQ(host.mhz_per_cpu, 2100);
  ASSERT_EQ(host.caches.size(), 4u);
  EXPECT_EQ(host.caches[2].level, 2);
  EXPECT_EQ(host.caches[2].type, "Unified");
  EXPECT_DOUBLE_EQ(host.caches[2].size_bytes, 2097152);

  // The snapshot carries the host, and reloads on the same host.
  const std::string snapshot = BenchHistorySnapshot(*captured, "hosted");
  EXPECT_NE(snapshot.find("\"host\": {\"num_cpus\": 1"), std::string::npos);
  const std::string snapshot_path =
      ::testing::TempDir() + "bench_host_snapshot.json";
  {
    std::ofstream out(snapshot_path, std::ios::binary | std::ios::trunc);
    out << snapshot;
  }
  const auto reloaded = LoadBenchDoc(snapshot_path, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  const BenchDiffReport report =
      BenchDiff(*reloaded, *captured, BenchDiffOptions{});
  EXPECT_FALSE(report.host_mismatch);
  EXPECT_TRUE(report.notes.empty());

  // A document without a host writes no host block.
  EXPECT_EQ(BenchHistorySnapshot(MakeDoc("release", 1e6, 2e3), "bare")
                .find("\"host\""),
            std::string::npos);
}

TEST(ReportBenchDiffTest, JsonReportIsDeterministic) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  const BenchDoc slow = MakeDoc("release", 2e6, 2e3);
  const BenchDiffReport report = BenchDiff(base, slow, BenchDiffOptions{});
  const std::string json = BenchDiffJson(report);
  EXPECT_EQ(json, BenchDiffJson(report));
  EXPECT_NE(json.find("\"schema\": \"strip.report.bench-diff/v1\""),
            std::string::npos);
}

}  // namespace
}  // namespace strip::obs::report
