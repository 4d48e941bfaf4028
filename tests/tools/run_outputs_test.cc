// AttachRunOutputs: the artifact names for one and M shards, and
// one-shard bytes identical to the bare recorders on the same run.

#include "run_outputs.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/system.h"
#include "obs/telemetry.h"
#include "obs/trace/chrome_trace.h"
#include "sim/simulator.h"

namespace strip::tools {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 7;

// Overloaded enough that the flight recorder's deadline-miss burst
// predicate trips on every shard.
core::ShardedConfig Overloaded(int shards) {
  core::ShardedConfig config;
  config.shards = shards;
  config.base.policy = core::PolicyKind::kUpdateFirst;
  config.base.lambda_t = 60;
  config.base.sim_seconds = 10.0;
  return config;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "run_outputs_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

RunOutputs AllOutputs(const std::string& dir, std::atomic<bool>* failed) {
  RunOutputs outputs;
  outputs.tool = "run_outputs_test";
  outputs.run_label = "replication 0";
  outputs.seed = kSeed;
  outputs.telemetry_path = dir + "/run.json";
  outputs.chrome_trace_path = dir + "/trace.json";
  outputs.flight_stem = dir + "/flight_run";
  outputs.audit = true;
  outputs.audit_failed = failed;
  return outputs;
}

// Runs `config` through the helper and returns the aggregate metrics.
core::RunMetrics RunWithOutputs(const core::ShardedConfig& config,
                                const RunOutputs& outputs) {
  sim::Simulator simulator;
  core::Cluster cluster(&simulator, config, base::RngSeed(kSeed));
  const exp::RunFinisher finish = AttachRunOutputs(cluster, outputs);
  const core::RunMetrics metrics = cluster.Run();
  EXPECT_TRUE(finish != nullptr);
  if (finish) finish(metrics);
  return metrics;
}

TEST(RunOutputsTest, OneShardMatchesBareRecorders) {
  const std::string dir = FreshDir("one");
  std::atomic<bool> failed{false};
  const core::ShardedConfig config = Overloaded(1);
  RunWithOutputs(config, AllOutputs(dir, &failed));
  EXPECT_FALSE(failed.load());

  // The same run with a bare System and the single-stream recorders.
  sim::Simulator simulator;
  core::System system(&simulator, config.base, base::RngSeed(kSeed));
  obs::RunTelemetry::Options options;
  options.seed = kSeed;
  obs::RunTelemetry telemetry(&system, options);
  std::ostringstream trace_bytes;
  obs::trace::ChromeTraceWriter trace(&trace_bytes);
  system.AddObserver(&trace);
  const core::RunMetrics metrics = system.Run();
  trace.Finish();
  std::ostringstream telemetry_bytes;
  telemetry.WriteJson(telemetry_bytes, metrics);

  EXPECT_EQ(ReadAll(dir + "/run.json"), telemetry_bytes.str());
  EXPECT_EQ(ReadAll(dir + "/trace.json"), trace_bytes.str());
  EXPECT_TRUE(fs::exists(dir + "/flight_run.txt"));
  EXPECT_FALSE(fs::exists(dir + "/run.json.shard0"));
  EXPECT_FALSE(fs::exists(dir + "/flight_run_shard0.txt"));
}

TEST(RunOutputsTest, MultiShardNamesEveryShard) {
  const std::string dir = FreshDir("two");
  std::atomic<bool> failed{false};
  RunWithOutputs(Overloaded(2), AllOutputs(dir, &failed));
  EXPECT_FALSE(failed.load());
  for (const char* name :
       {"run.json.shard0", "run.json.shard1", "trace.json",
        "flight_run_shard0.txt", "flight_run_shard1.txt"}) {
    EXPECT_TRUE(fs::exists(dir + "/" + name)) << name;
  }
  EXPECT_FALSE(fs::exists(dir + "/run.json"));
  EXPECT_FALSE(fs::exists(dir + "/flight_run.txt"));
  const std::string trace = ReadAll(dir + "/trace.json");
  EXPECT_NE(trace.find("\"args\":{\"name\":\"shard 0\"}"), std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"name\":\"shard 1\"}"), std::string::npos);
  EXPECT_EQ(trace.find("\"args\":{\"name\":\"strip\"}"), std::string::npos);
}

TEST(RunOutputsTest, PerShardNamesOneShardLikeM) {
  const std::string dir = FreshDir("per_shard");
  std::atomic<bool> failed{false};
  RunOutputs outputs = AllOutputs(dir, &failed);
  outputs.per_shard = true;
  RunWithOutputs(Overloaded(1), outputs);
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(fs::exists(dir + "/run.json.shard0"));
  EXPECT_TRUE(fs::exists(dir + "/flight_run_shard0.txt"));
  EXPECT_FALSE(fs::exists(dir + "/run.json"));
  EXPECT_NE(ReadAll(dir + "/trace.json").find("\"name\":\"shard 0\""),
            std::string::npos);
}

// A trace the stream could not take (here: a full device) fails the
// run the way an unwritable telemetry file does.
TEST(RunOutputsDeathTest, TraceWriteFailureExitsTwo) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  RunOutputs outputs;
  outputs.tool = "run_outputs_test";
  outputs.chrome_trace_path = "/dev/full";
  EXPECT_EXIT(RunWithOutputs(Overloaded(1), outputs),
              ::testing::ExitedWithCode(2),
              "run_outputs_test: cannot write trace to /dev/full");
}

TEST(RunOutputsTest, NothingRequestedAttachesNothing) {
  sim::Simulator simulator;
  core::Cluster cluster(&simulator, Overloaded(2), base::RngSeed(kSeed));
  RunOutputs outputs;
  outputs.tool = "run_outputs_test";
  EXPECT_TRUE(AttachRunOutputs(cluster, outputs) == nullptr);
}

}  // namespace
}  // namespace strip::tools
