// strip_replay: run a recorded workload trace through the system.
//
//   strip_replay <trace-file> [--name=value ...] [--seed=N]
//                [--chrome-trace=PATH] [--quiet]
//
// The trace format is documented in workload/trace_replay.h. All
// Config parameters are settable as --name=value (policy, staleness,
// cost knobs, ...); sim_seconds defaults to just past the last arrival
// unless set explicitly. The replay runs as a one-shard core::Cluster
// fed through its external-workload injection. --chrome-trace writes
// the run's lifecycle trace (transaction outcomes, installs, on-demand
// installs, drops with their reason, stale reads, phases) in the same
// Chrome trace-event format as strip_sim, via tools/run_outputs.h;
// inspect it with strip_trace --chrome=PATH.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "core/sharded_config.h"
#include "exp/config_flags.h"
#include "run_outputs.h"
#include "sim/simulator.h"
#include "workload/trace_replay.h"

int main(int argc, char** argv) {
  strip::core::Config config;
  config.external_workload = true;
  std::vector<std::string> rest;
  if (const auto error =
          strip::exp::ApplyConfigFlags(argc, argv, config, &rest)) {
    std::fprintf(stderr, "strip_replay: %s\n", error->c_str());
    return 2;
  }

  std::string trace_path;
  std::string chrome_trace_path;
  std::uint64_t seed = 1;
  bool quiet = false;
  bool sim_seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sim_seconds=", 14) == 0) {
      sim_seconds_set = true;
    }
  }
  for (const std::string& arg : rest) {
    if (arg.rfind("--seed=", 0) == 0) {
      if (!strip::exp::ParseUint64(arg.substr(7), &seed)) {
        std::fprintf(stderr, "strip_replay: malformed number in %s\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--chrome-trace=", 0) == 0) {
      chrome_trace_path = arg.substr(15);
      if (chrome_trace_path.empty()) {
        std::fprintf(stderr, "strip_replay: --chrome-trace= needs a path\n");
        return 2;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "strip_replay: unknown flag %s\n", arg.c_str());
      return 2;
    } else if (!trace_path.empty()) {
      std::fprintf(stderr,
                   "strip_replay: one trace file only, got %s and %s\n",
                   trace_path.c_str(), arg.c_str());
      return 2;
    } else {
      trace_path = arg;
    }
  }
  if (trace_path.empty()) {
    std::fprintf(stderr,
                 "usage: strip_replay <trace-file> [--name=value ...]\n");
    return 2;
  }

  std::ifstream in(trace_path);
  if (!in) {
    std::fprintf(stderr, "strip_replay: cannot open %s\n",
                 trace_path.c_str());
    return 1;
  }
  std::vector<strip::workload::TraceReplay::Record> records;
  if (const auto error = strip::workload::TraceReplay::Parse(in, &records)) {
    std::fprintf(stderr, "strip_replay: %s: %s\n", trace_path.c_str(),
                 error->c_str());
    return 1;
  }
  if (records.empty()) {
    std::fprintf(stderr, "strip_replay: trace is empty\n");
    return 1;
  }

  if (!sim_seconds_set) {
    // Run until one second past the last arrival (or the latest
    // transaction deadline, so nothing is cut off mid-flight).
    double end = 0;
    for (const auto& record : records) {
      if (const auto* update =
              std::get_if<strip::db::Update>(&record)) {
        end = std::max(end, update->arrival_time);
      } else {
        end = std::max(
            end,
            std::get<strip::txn::Transaction::Params>(record).deadline);
      }
    }
    config.sim_seconds = end + 1.0;
  }

  if (const auto invalid = config.Validate()) {
    std::fprintf(stderr, "strip_replay: invalid configuration: %s\n",
                 invalid->c_str());
    return 2;
  }

  strip::sim::Simulator simulator;
  strip::core::ShardedConfig one_shard;
  one_shard.base = config;
  strip::core::Cluster cluster(&simulator, one_shard,
                               strip::base::RngSeed(seed));
  strip::tools::RunOutputs outputs;
  outputs.tool = "strip_replay";
  outputs.chrome_trace_path = chrome_trace_path;
  // Declared after the Cluster: the recorders it owns detach first.
  const strip::exp::RunFinisher finish =
      strip::tools::AttachRunOutputs(cluster, outputs);

  strip::workload::TraceReplay replay(
      &simulator, records,
      [&](const strip::db::Update& u) { cluster.InjectUpdate(u); },
      [&](const strip::txn::Transaction::Params& p) {
        cluster.InjectTransaction(p);
      });

  const strip::core::RunMetrics metrics = cluster.Run();
  if (finish) finish(metrics);
  if (!quiet) {
    std::printf("replayed %zu records from %s under %s/%s\n\n",
                replay.size(), trace_path.c_str(),
                strip::core::PolicyKindName(config.policy),
                strip::db::StalenessCriterionName(config.staleness));
  }
  std::fputs(metrics.ToString().c_str(), stdout);
  return 0;
}
