// strip_sim: command-line runner for one simulation configuration.
//
// Any Config parameter can be set as --name=value (see --help for the
// full list), including the cluster-level flags (--shards=,
// --placement=, --shard_ips=, --feed_hot_shard=, ...); runner flags:
//   --seed=N    base random seed            (default 1)
//   --reps=N    replications                (default 1)
//   --telemetry=PATH   write run telemetry JSON (first replication;
//               sharded runs write one document per shard, suffixed
//               PATH.shard0, PATH.shard1, ...)
//   --chrome-trace=PATH   write a Chrome trace-event JSON lifecycle
//               trace of the first replication (open in Perfetto /
//               chrome://tracing; inspect with strip_trace --chrome=);
//               sharded runs land every shard in the one file, one
//               process ("shard N") per shard
//   --audit     attach the invariant auditor (src/check) to every
//               replication (sharded runs: one per shard plus the
//               cross-shard ClusterAuditor); violations print to
//               stderr and the run exits 3. Output is bit-identical
//               to a non-audit run.
//   --print-config   echo the resolved configuration and exit
//   --quiet     print only the summary line
//
// Every run is a core::Cluster run; the default --shards=1 is the
// paper's uniprocessor model. The recorders and the artifact naming
// come from tools/run_outputs.h, shared with strip_sweep and
// strip_replay.
//
// Examples:
//   strip_sim --policy=OD --lambda_t=15 --sim_seconds=300
//   strip_sim --policy=TF --staleness=UU --abort_on_stale=true --reps=5
//   strip_sim --policy=OD --shards=4 --placement=range --audit
//   strip_sim --config=baseline.cfg --lambda_t=20   # file, then overrides
//
// --config=FILE reads name=value lines ('#' comments allowed); flags
// given after it override the file.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "core/metrics.h"
#include "exp/config_flags.h"
#include "exp/experiment.h"
#include "run_outputs.h"
#include "sim/stats.h"

namespace {

[[noreturn]] void PrintHelpAndExit() {
  std::printf("usage: strip_sim [--name=value ...]\n\n");
  std::printf(
      "runner flags: --seed=N --reps=N --telemetry=PATH "
      "--chrome-trace=PATH --audit --print-config --quiet\n\n");
  std::printf("model parameters (defaults are the paper's baseline):\n");
  std::fputs(strip::exp::ConfigFlagsHelp().c_str(), stdout);
  std::exit(0);
}

void PrintSummary(const std::vector<strip::core::RunMetrics>& runs) {
  struct Line {
    const char* name;
    double (strip::core::RunMetrics::*fn)() const;
  };
  const Line lines[] = {
      {"p_MD", &strip::core::RunMetrics::p_md},
      {"p_success", &strip::core::RunMetrics::p_success},
      {"p_suc|nontardy", &strip::core::RunMetrics::p_suc_nontardy},
      {"AV", &strip::core::RunMetrics::av},
      {"rho_t", &strip::core::RunMetrics::rho_t},
      {"rho_u", &strip::core::RunMetrics::rho_u},
  };
  std::printf("%-16s %10s %10s\n", "metric", "mean", "ci95");
  for (const Line& line : lines) {
    std::vector<double> samples;
    samples.reserve(runs.size());
    for (const auto& run : runs) samples.push_back((run.*line.fn)());
    const strip::sim::Summary s = strip::sim::Summary::FromSamples(samples);
    std::printf("%-16s %10.4f %10.4f\n", line.name, s.mean, s.ci95);
  }
  std::vector<double> fold_low, fold_high;
  for (const auto& run : runs) {
    fold_low.push_back(run.f_old_low);
    fold_high.push_back(run.f_old_high);
  }
  const strip::sim::Summary low =
      strip::sim::Summary::FromSamples(fold_low);
  const strip::sim::Summary high =
      strip::sim::Summary::FromSamples(fold_high);
  std::printf("%-16s %10.4f %10.4f\n", "f_old_l", low.mean, low.ci95);
  std::printf("%-16s %10.4f %10.4f\n", "f_old_h", high.mean, high.ci95);
}

}  // namespace

namespace {

// Applies name=value lines from a file; '#' starts a comment. Files
// may set cluster-level parameters (shards=, placement=, ...) next to
// base ones.
bool ApplyConfigFile(const std::string& path,
                     strip::core::ShardedConfig& config) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "strip_sim: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    if (const auto error = strip::exp::ApplyConfigFlag(line, config)) {
      std::fprintf(stderr, "strip_sim: %s:%d: %s\n", path.c_str(),
                   line_number, error->c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  strip::core::ShardedConfig sharded;
  strip::core::Config& config = sharded.base;
  // First pass: a --config file establishes the base...
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--config=", 9) == 0) {
      if (!ApplyConfigFile(argv[i] + 9, sharded)) return 2;
    }
  }
  // ...then the command-line flags override it.
  std::vector<std::string> rest;
  const std::optional<std::string> error =
      strip::exp::ApplyConfigFlags(argc, argv, sharded, &rest);
  if (error.has_value()) {
    std::fprintf(stderr, "strip_sim: %s\n", error->c_str());
    return 2;
  }

  std::uint64_t seed = 1;
  int reps = 1;
  bool print_config = false;
  bool quiet = false;
  bool audit = false;
  std::string telemetry_path;
  std::string chrome_trace_path;
  for (const std::string& arg : rest) {
    if (arg.rfind("--seed=", 0) == 0) {
      if (!strip::exp::ParseUint64(arg.substr(7), &seed)) {
        std::fprintf(stderr, "strip_sim: malformed number in %s\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--reps=", 0) == 0) {
      if (!strip::exp::ParseInt(arg.substr(7), &reps)) {
        std::fprintf(stderr, "strip_sim: malformed number in %s\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      telemetry_path = arg.substr(12);
    } else if (arg.rfind("--chrome-trace=", 0) == 0) {
      chrome_trace_path = arg.substr(15);
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--print-config") {
      print_config = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintHelpAndExit();
    } else if (arg.rfind("--config=", 0) == 0) {
      // Already applied in the first pass.
    } else {
      std::fprintf(stderr, "strip_sim: unknown flag %s (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }

  if (const std::optional<std::string> invalid = sharded.Validate()) {
    std::fprintf(stderr, "strip_sim: invalid configuration: %s\n",
                 invalid->c_str());
    return 2;
  }
  if (print_config) {
    // Single-shard output stays byte-identical to the pre-sharding
    // tool; shards > 1 appends the cluster-level parameters.
    std::fputs(sharded.single_shard()
                   ? strip::exp::ConfigToString(config).c_str()
                   : strip::exp::ConfigToString(sharded).c_str(),
               stdout);
    return 0;
  }
  if (reps < 1) {
    std::fprintf(stderr, "strip_sim: --reps must be at least 1\n");
    return 2;
  }

  // The first replication carries the --telemetry / --chrome-trace
  // recorders and writes their documents once its run completes (the
  // Chrome trace streams while the run executes); --audit attaches the
  // auditors to every replication. The auditors are read-only, so
  // audited output stays byte-identical; violations exit 3.
  std::atomic<bool> audit_failed{false};
  const strip::exp::ClusterRunHook hook =
      [&](strip::core::Cluster& cluster,
          const strip::exp::RunContext& context) {
        strip::tools::RunOutputs outputs;
        outputs.tool = "strip_sim";
        outputs.run_label =
            "replication " + std::to_string(context.replication);
        outputs.seed = context.seed;
        if (context.replication == 0) {
          outputs.telemetry_path = telemetry_path;
          outputs.chrome_trace_path = chrome_trace_path;
        }
        outputs.audit = audit;
        outputs.audit_failed = &audit_failed;
        return strip::tools::AttachRunOutputs(cluster, outputs);
      };
  const std::vector<strip::core::RunMetrics> runs =
      strip::exp::Replicate(sharded, reps, seed, hook);

  if (audit_failed.load()) return 3;
  if (!quiet) {
    std::printf("policy=%s staleness=%s lambda_t=%g lambda_u=%g "
                "seconds=%g reps=%d",
                strip::core::PolicyKindName(config.policy),
                strip::db::StalenessCriterionName(config.staleness),
                config.lambda_t, config.lambda_u, config.sim_seconds,
                reps);
    if (!sharded.single_shard()) {
      std::printf(" shards=%d placement=%s", sharded.shards,
                  strip::db::PlacementKindName(sharded.placement));
    }
    std::printf("\n\n");
    std::fputs(runs[0].ToString().c_str(), stdout);
    std::printf("\n");
  }
  PrintSummary(runs);
  return 0;
}
