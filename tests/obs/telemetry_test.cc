// RunTelemetry: document schema, determinism, and the golden file.
//
// The golden test byte-compares the document for a fixed (config,
// seed) against tests/obs/testdata/telemetry_golden.json. Runs are
// pure functions of (Config, seed) and the writer is deterministic by
// design (fixed key order, %.17g, no timestamps), so the bytes are a
// constant of the implementation. If an intentional change (new
// column, schema bump) fails this test, regenerate with
//   STRIP_UPDATE_GOLDEN=1 ./build/tests/telemetry_test
// and review the diff like any other golden update.

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/sharded_config.h"
#include "core/system.h"
#include "exp/experiment.h"
#include "obs/telemetry.h"

namespace strip::obs {
namespace {

constexpr char kGoldenPath[] =
    STRIP_TEST_SOURCE_DIR "/obs/testdata/telemetry_golden.json";

// The fixed run the golden file pins: paper baseline, short horizon,
// one-second warm-up, seed 1.
core::Config GoldenConfig() {
  core::Config config;
  config.sim_seconds = 5.0;
  config.warmup_seconds = 1.0;
  return config;
}

std::string ProduceDocument(const core::Config& config, std::uint64_t seed) {
  std::ostringstream out;
  exp::ClusterRunHook hook = [&out](core::Cluster& cluster,
                                    const exp::RunContext& context)
      -> exp::RunFinisher {
    RunTelemetry::Options options;
    options.seed = context.seed;
    auto telemetry =
        std::make_shared<RunTelemetry>(&cluster.shard(0), options);
    return [telemetry, &out](const core::RunMetrics& metrics) {
      telemetry->WriteJson(out, metrics);
    };
  };
  exp::RunContext context;
  context.seed = seed;
  core::ShardedConfig sharded;
  sharded.base = config;
  exp::RunOnce(sharded, seed, hook, context);
  return out.str();
}

TEST(TelemetryTest, DocumentHasSchemaAndRequiredSections) {
  const std::string doc = ProduceDocument(GoldenConfig(), 1);
  EXPECT_NE(doc.find("\"schema\": \"strip.telemetry/v4\""),
            std::string::npos);
  // The acceptance bar: at least 5 time series and 2 histograms.
  for (const char* series :
       {"\"time\"", "\"uq_depth\"", "\"os_depth\"", "\"ready_queue\"",
        "\"live_txns\"", "\"f_stale_low\"", "\"f_stale_high\"",
        "\"cpu_share_txn\"", "\"cpu_share_updater\"",
        "\"cpu_share_idle\""}) {
    EXPECT_NE(doc.find(series), std::string::npos) << series;
  }
  for (const char* section :
       {"\"run\"", "\"phases\"", "\"series\"", "\"histograms\"",
        "\"response_seconds\"", "\"slack_at_commit_seconds\"",
        "\"update_age_at_install_seconds\"", "\"stale_reads_seen\"",
        "\"metrics\"", "\"warmup_end\"", "\"run_end\"", "\"p50\"",
        "\"p90\"", "\"p99\""}) {
    EXPECT_NE(doc.find(section), std::string::npos) << section;
  }
}

TEST(TelemetryTest, SameSeedSameBytes) {
  const std::string first = ProduceDocument(GoldenConfig(), 1);
  const std::string second = ProduceDocument(GoldenConfig(), 1);
  EXPECT_EQ(first, second);
}

TEST(TelemetryTest, DifferentSeedDifferentBytes) {
  const std::string first = ProduceDocument(GoldenConfig(), 1);
  const std::string second = ProduceDocument(GoldenConfig(), 2);
  EXPECT_NE(first, second);
}

TEST(TelemetryTest, HistogramsRecordTheRun) {
  core::Config config = GoldenConfig();
  sim::Simulator sim;
  core::System system(&sim, config, base::RngSeed(1));
  RunTelemetry telemetry(&system);
  const core::RunMetrics metrics = system.Run();

  // The baseline workload commits transactions and installs updates
  // even over 5 seconds.
  EXPECT_GT(telemetry.response_seconds().count(), 0u);
  EXPECT_GT(telemetry.slack_at_commit_seconds().count(), 0u);
  EXPECT_GT(telemetry.update_age_at_install_seconds().count(), 0u);
  // Response histogram counts committed + aborted + tardy terminals in
  // the observation window; commits alone bound it from below.
  EXPECT_GE(telemetry.response_seconds().count(), metrics.txns_committed);
  // The sampler rode along: warm-up boundary pinned.
  EXPECT_DOUBLE_EQ(telemetry.sampler().warmup_end(), 1.0);
}

TEST(TelemetryTest, MatchesGoldenFile) {
  const std::string doc = ProduceDocument(GoldenConfig(), 1);

  if (std::getenv("STRIP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << doc;
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath
                  << " (regenerate with STRIP_UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(doc, golden.str())
      << "telemetry bytes changed; if intentional, regenerate with "
         "STRIP_UPDATE_GOLDEN=1 and review the diff";
}

}  // namespace
}  // namespace strip::obs
