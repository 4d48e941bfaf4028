// strip_sweep: run an arbitrary parameter sweep from the command line.
//
//   strip_sweep --x=lambda_t --values=5,10,15,20,25
//               --policies=UF,TF,SU,OD --metrics=av,p_success
//               [--name=value ...] [--reps=N] [--seed=N] [--csv]
//               [--jobs=N] [--pin-cores] [--progress=MODE]
//               [--json=PATH] [--telemetry-dir=DIR] [--flight-dir=DIR]
//               [--out-dir=DIR] [--resume] [--cell-timeout=S] [--audit]
//
// Grid cells are dispatched to a pool of --jobs worker threads (0 =
// one per hardware core, the default; --pin-cores pins worker i to
// core i on Linux). Every worker
// runs fully isolated Simulation/RNG state, so cell files, telemetry,
// flight dumps, and the aggregate tables are byte-identical for any
// job count. --progress=MODE (auto|on|off, default auto: on when
// stderr is a terminal) reports "cells done / total" on stderr from a
// single mutex-guarded section that is also where cell files are
// written — the progress line never interleaves with a cell write.
//
// --audit attaches the invariant auditor (src/check) to every run of
// every cell; violations print to stderr (with the cell and
// replication) and the sweep exits 3. Audited output is bit-identical
// to a non-audit sweep.
//
// --telemetry-dir=DIR writes one telemetry JSON document per sweep
// cell (first replication only) into DIR, named
// <policy>_<x-index>.json; DIR must already exist.
//
// --flight-dir=DIR attaches a flight recorder (obs/trace) to the
// first replication of every cell and, for cells where an anomaly
// predicate trips (deadline-miss burst, stale fraction, update-queue
// depth spike, outage recovery), writes the post-mortem window to
// DIR/flight_<policy>_<x-index>.txt for strip_trace to dissect.
//
// Crash-safe grids: --out-dir=DIR persists every finished cell as
// DIR/cell_<policy>_<x-index>.json (schema strip.sweep-cell/v1, all
// replications' metrics) the moment the cell completes. Every file in
// this tool is written atomically (tmp + rename), so a killed sweep
// leaves only whole cell files behind; --resume skips cells whose
// file already exists (and clears stale *.tmp leftovers), re-running
// just the missing ones — the resumed grid is byte-identical to an
// uninterrupted run. --cell-timeout=S bounds each cell's wall-clock
// time across its replications; on overrun the cell is finalized
// early and marked "timed_out" in its file.
//
// Any Config parameter (see strip_sim --help) can be fixed with
// --name=value and any numeric one swept with --x/--values. This is
// the same machinery the figures tool (bench/figures.cc) uses, exposed
// for ad-hoc exploration; --metrics= names come from exp::FindMetric.
//
// Every cell is a core::Cluster run; the default --shards=1 is the
// paper's uniprocessor model. Cluster-level flags (--shards=,
// --placement=, --shard_faults=, ...) make every cell an M-shard
// cluster run: each cell's swept Config becomes the per-shard base,
// --audit adds the cross-shard ClusterAuditor census on top of the
// per-shard auditors, and --telemetry-dir writes one document per
// shard (<cell>.json.shard<k>). The recorders and the artifact naming
// come from tools/run_outputs.h, shared with strip_sim and
// strip_replay.
//
// Cluster-level parameters are themselves sweepable: --x=shards or
// --x=link_latency_us applies each value to the cell's cluster shape
// instead of the per-shard base, so one grid can compare cluster
// sizes or interconnect latencies directly (see
// examples/run_telemetry.cpp and EXPERIMENTS.md):
//
//   strip_sweep --x=shards --values=1,2,4,8 --metrics=av,response_p95
//   strip_sweep --shards=4 --x=link_latency_us --values=0,100,1000,5000

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/atomic_io.h"
#include "core/cluster.h"
#include "core/config.h"
#include "core/sharded_config.h"
#include "exp/config_flags.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "exp/sweep_cell.h"
#include "run_outputs.h"

namespace {

using strip::core::PolicyKind;
using strip::core::RunMetrics;
using strip::exp::ParseDouble;
using strip::exp::ParseInt;
using strip::exp::ParseUint64;

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) {
      items.push_back(list.substr(start));
      break;
    }
    items.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "strip_sweep: %s\n", message.c_str());
  std::exit(2);
}

// The value of a PATH or DIR flag: `arg` past its first `prefix_length`
// characters. An empty one would silently write nothing, so it exits 2
// naming the flag.
std::string PathOrFail(const std::string& arg, std::size_t prefix_length) {
  std::string path = arg.substr(prefix_length);
  if (path.empty()) Fail(arg + " needs a path");
  return path;
}

PolicyKind ParsePolicy(const std::string& name) {
  for (PolicyKind kind :
       {PolicyKind::kUpdateFirst, PolicyKind::kTransactionFirst,
        PolicyKind::kSplitUpdates, PolicyKind::kOnDemand,
        PolicyKind::kFixedFraction}) {
    if (name == strip::core::PolicyKindName(kind)) return kind;
  }
  Fail("unknown policy: " + name);
}

// Cell naming and the strip.sweep-cell/v1 document live in the exp
// library (exp/sweep_cell.h) so obs/report reads the same format this
// tool writes.
using strip::exp::SweepCellJson;
using strip::exp::SweepCellName;

// Writes a string atomically; any failure aborts the sweep (a silent
// half-written grid is worse than a loud stop).
void WriteOrFail(const std::string& path, const std::string& contents) {
  if (const auto error = strip::base::WriteFileAtomic(path, contents)) {
    Fail(*error);
  }
}

}  // namespace

int main(int argc, char** argv) {
  strip::core::ShardedConfig cluster;
  strip::core::Config& base = cluster.base;
  std::vector<std::string> rest;
  if (const auto error =
          strip::exp::ApplyConfigFlags(argc, argv, cluster, &rest)) {
    Fail(*error);
  }

  std::string x_name;
  std::vector<double> x_values;
  std::vector<PolicyKind> policies = {
      PolicyKind::kUpdateFirst, PolicyKind::kTransactionFirst,
      PolicyKind::kSplitUpdates, PolicyKind::kOnDemand};
  std::vector<std::string> metric_names = {"av", "p_success"};
  int reps = 2;
  std::uint64_t seed = 42;
  strip::exp::ParallelOptions parallel;
  std::string progress = "auto";
  bool csv = false;
  std::string json_path;
  std::string telemetry_dir;
  std::string flight_dir;
  std::string out_dir;
  bool resume = false;
  bool audit = false;
  double cell_timeout = 0;

  for (const std::string& arg : rest) {
    if (arg.rfind("--x=", 0) == 0) {
      x_name = arg.substr(4);
    } else if (arg.rfind("--values=", 0) == 0) {
      for (const std::string& v : SplitCommas(arg.substr(9))) {
        double x = 0;
        if (!ParseDouble(v, &x)) Fail("malformed number in " + arg);
        x_values.push_back(x);
      }
    } else if (arg.rfind("--policies=", 0) == 0) {
      policies.clear();
      for (const std::string& p : SplitCommas(arg.substr(11))) {
        policies.push_back(ParsePolicy(p));
      }
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metric_names = SplitCommas(arg.substr(10));
    } else if (arg.rfind("--reps=", 0) == 0) {
      if (!ParseInt(arg.substr(7), &reps)) Fail("malformed number in " + arg);
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!ParseUint64(arg.substr(7), &seed)) {
        Fail("malformed number in " + arg);
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!ParseInt(arg.substr(7), &parallel.jobs)) {
        Fail("malformed number in " + arg);
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      Fail("--threads= was removed; use --jobs=" + arg.substr(10));
    } else if (arg == "--pin-cores") {
      parallel.pin_cores = true;
    } else if (arg.rfind("--progress=", 0) == 0) {
      progress = arg.substr(11);
      if (progress != "auto" && progress != "on" && progress != "off") {
        Fail("--progress needs auto, on, or off");
      }
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = PathOrFail(arg, 7);
    } else if (arg.rfind("--telemetry-dir=", 0) == 0) {
      telemetry_dir = PathOrFail(arg, 16);
    } else if (arg.rfind("--flight-dir=", 0) == 0) {
      flight_dir = PathOrFail(arg, 13);
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = PathOrFail(arg, 10);
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg.rfind("--cell-timeout=", 0) == 0) {
      if (!ParseDouble(arg.substr(15), &cell_timeout)) {
        Fail("malformed number in " + arg);
      }
      if (cell_timeout <= 0) Fail("--cell-timeout needs seconds > 0");
    } else {
      Fail("unknown flag: " + arg + " (config flags need --name=value)");
    }
  }
  if (x_name.empty() || x_values.empty()) {
    Fail("need --x=<param> and --values=v1,v2,...");
  }
  if (reps < 1) Fail("--reps must be at least 1");
  if (resume && out_dir.empty()) Fail("--resume needs --out-dir=DIR");

  strip::exp::SweepSpec spec;
  spec.base = base;
  spec.cluster = cluster;
  spec.policies = policies;
  spec.x_name = x_name;
  spec.x_values = x_values;
  spec.replications = reps;
  spec.base_seed = seed;
  spec.parallel = parallel;
  // Every x name, base or cluster-level (--x=shards,
  // --x=link_latency_us, ...), applies to the cell's cluster shape.
  spec.apply_x_cluster = [x_name](strip::core::ShardedConfig& config,
                                  double x) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", x);
    const auto error =
        strip::exp::ApplyConfigFlag(x_name + "=" + value, config);
    if (error.has_value()) Fail(*error);
  };
  spec.budget.wall_seconds = cell_timeout;

  // Progress reporting rides the sweep's serialized completion
  // section (see SweepSpec::on_progress), so the line never
  // interleaves with a cell-file write or a second progress line. On
  // a terminal the line rewrites itself in place; piped, each cell
  // appends one full line.
  const bool stderr_tty = isatty(fileno(stderr)) != 0;
  if (progress == "on" || (progress == "auto" && stderr_tty)) {
    spec.on_progress = [stderr_tty](std::size_t done, std::size_t total) {
      if (stderr_tty) {
        std::fprintf(stderr, "\rstrip_sweep: %zu/%zu cells done", done,
                     total);
        if (done == total) std::fputc('\n', stderr);
      } else {
        std::fprintf(stderr, "strip_sweep: %zu/%zu cells done\n", done,
                     total);
      }
      std::fflush(stderr);
    };
  }

  if (!out_dir.empty()) {
    // Persist every finished cell immediately; an interrupted sweep
    // keeps everything completed so far.
    spec.on_cell_done = [&spec, out_dir](
                            std::size_t p, std::size_t x,
                            const std::vector<RunMetrics>& runs,
                            bool timed_out) {
      const std::string path =
          out_dir + "/cell_" + SweepCellName(spec.policies[p], x) + ".json";
      WriteOrFail(path, SweepCellJson(spec, p, x, runs, timed_out));
    };
    if (resume) {
      for (const std::string& name :
           strip::base::RemoveStaleTmpFiles(out_dir)) {
        std::fprintf(stderr,
                     "strip_sweep: removed stale partial write %s\n",
                     name.c_str());
      }
      spec.skip_cell = [&spec, out_dir](std::size_t p, std::size_t x) {
        return strip::base::FileExists(
            out_dir + "/cell_" + SweepCellName(spec.policies[p], x) + ".json");
      };
    }
  }

  // Validate the x parameter name and one full config up front, before
  // launching the fleet, the cluster shape against the swept base
  // included (per-shard override lengths, skew).
  {
    strip::core::ShardedConfig probe = cluster;
    spec.apply_x_cluster(probe, x_values.front());
    if (const auto invalid = probe.Validate()) Fail(*invalid);
  }

  std::atomic<bool> audit_failed{false};

  // Per-cell recorders: the first replication of every (policy, x)
  // cell carries the telemetry and flight recorders, --audit attaches
  // the auditors to every replication. The hook runs on worker
  // threads; each cell writes its own files, so the only shared state
  // is the failure flag. A flight dump is only written for cells where
  // an anomaly predicate actually tripped. A grid over a cluster-level
  // x axis (or with --shards > 1) names its files per shard.
  bool per_shard = cluster.shards > 1;
  for (const std::string& name : strip::exp::ShardedConfigFlagNames()) {
    per_shard = per_shard || name == x_name;
  }
  spec.on_cluster_run = [&spec, telemetry_dir, flight_dir, audit, per_shard,
                         &audit_failed](strip::core::Cluster& cell_cluster,
                                        const strip::exp::RunContext& context) {
    const std::string cell =
        SweepCellName(spec.policies[context.policy_index], context.x_index);
    strip::tools::RunOutputs outputs;
    outputs.tool = "strip_sweep";
    outputs.run_label =
        "cell " + cell + ", replication " + std::to_string(context.replication);
    outputs.seed = context.seed;
    if (context.replication == 0 && !telemetry_dir.empty()) {
      outputs.telemetry_path = telemetry_dir + "/" + cell + ".json";
    }
    if (context.replication == 0 && !flight_dir.empty()) {
      outputs.flight_stem = flight_dir + "/flight_" + cell;
    }
    outputs.audit = audit;
    outputs.per_shard = per_shard;
    outputs.audit_failed = &audit_failed;
    return strip::tools::AttachRunOutputs(cell_cluster, outputs);
  };

  // With --resume, previously-finished cells are not re-run: their
  // authoritative results live in their cell files, and their rows in
  // the summary tables below are zeros.
  if (resume && spec.skip_cell) {
    std::size_t skipped = 0;
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
        if (spec.skip_cell(p, x)) ++skipped;
      }
    }
    if (skipped > 0) {
      std::fprintf(stderr,
                   "strip_sweep: resume: %zu cell(s) already done, "
                   "skipping (summary tables cover re-run cells only; "
                   "cell files are authoritative)\n",
                   skipped);
    }
  }

  const strip::exp::SweepResult result = strip::exp::RunSweep(spec);
  std::vector<std::string> json_series;
  for (const std::string& metric_name : metric_names) {
    const strip::exp::MetricFn* metric = strip::exp::FindMetric(metric_name);
    if (metric == nullptr) Fail("unknown metric: " + metric_name);
    strip::exp::PrintSeries(std::cout, spec, result, metric_name, *metric,
                            /*with_ci=*/reps > 1);
    if (csv) {
      strip::exp::PrintSeriesCsv(std::cout, spec, result, metric_name,
                                 *metric);
    }
    if (!json_path.empty()) {
      std::ostringstream series;
      strip::exp::PrintSeriesJson(series, spec, result, metric_name,
                                  *metric);
      json_series.push_back(series.str());
    }
  }
  if (!json_path.empty()) {
    WriteOrFail(json_path, strip::exp::SeriesDocument(json_series));
  }
  return audit_failed.load() ? 3 : 0;
}
