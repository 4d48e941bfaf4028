// Experiment driving: single runs, replication, and parameter sweeps.
//
// A sweep is the unit the paper's figures are made of: one x-axis
// parameter swept over a set of values, crossed with a set of
// scheduling policies, each cell replicated over several seeds. Cells
// are independent, so the sweep runs them on a thread pool; results are
// deterministic for a given spec (seeds are fixed per replication
// index, giving common random numbers across cells for variance
// reduction).

#ifndef STRIP_EXP_EXPERIMENT_H_
#define STRIP_EXP_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "core/sharded_config.h"
#include "exp/parallel_runner.h"
#include "sim/stats.h"

namespace strip::core {
class Cluster;
class System;
}  // namespace strip::core

namespace strip::exp {

// Extracts one scalar metric from a run.
using MetricFn = std::function<double(const core::RunMetrics&)>;

// Adapts a RunMetrics member directly to a MetricFn, so call sites can
// write Metric(&RunMetrics::av) or Metric(&RunMetrics::f_old_low)
// instead of a lambda.
inline MetricFn Metric(double (core::RunMetrics::*fn)() const) {
  return [fn](const core::RunMetrics& m) { return (m.*fn)(); };
}
template <typename T>
MetricFn Metric(T core::RunMetrics::*field) {
  return [field](const core::RunMetrics& m) {
    return static_cast<double>(m.*field);
  };
}

// Which run of an experiment a hook fires for. For bare RunOnce /
// Replicate calls the sweep indexes stay 0.
struct RunContext {
  std::size_t policy_index = 0;
  std::size_t x_index = 0;
  int replication = 0;
  std::uint64_t seed = 0;
  // Cluster shape of the run: 1 for the uniprocessor model. Hooks that
  // attach per-shard sinks read this to size their fan-out.
  int shards = 1;
};

// Called with the run's metrics after Run() completes, while the
// System is still alive.
using RunFinisher = std::function<void(const core::RunMetrics&)>;

// Observation hook for a one-shard sweep cell (SweepSpec::on_run):
// called with the freshly wired System (the one shard of the run's
// Cluster) before Run() — attach observers (telemetry, trace writers)
// here; they must stay alive for the run, e.g. owned by the returned
// finisher. The returned finisher (may be null) runs after Run() with
// the run's metrics. Never called for multi-shard runs. Sweeps call
// hooks concurrently from worker threads; hooks must not share mutable
// state across runs without synchronization.
using RunHook =
    std::function<RunFinisher(core::System&, const RunContext&)>;

// Cluster variant, for any shard count: receives the freshly wired
// Cluster before Run() — attach observers per shard
// (cluster.shard(s).AddObserver) or on all shards. The returned
// finisher (may be null) runs after Run() with the *aggregate*
// metrics; per-shard metrics stay readable through the Cluster
// reference for the finisher's lifetime.
using ClusterRunHook =
    std::function<RunFinisher(core::Cluster&, const RunContext&)>;

// Wall-clock budget for one run (or one sweep cell across its
// replications). wall_seconds <= 0 means unbudgeted: the run executes
// exactly like the historical single-call path, with identical
// results. With a budget, the simulation advances in slices of
// slice_sim_seconds simulated seconds, checking the wall clock
// between slices; on overrun the run is finalized early at the point
// reached (slicing itself never changes results — the event sequence
// is identical to an unsliced run).
struct RunBudget {
  double wall_seconds = 0;
  double slice_sim_seconds = 5.0;
};

// Runs one configuration to completion with one seed and returns the
// aggregate metrics. Every run is a core::Cluster run; the core::Config
// overload runs a one-shard Cluster on `config` (seed- and
// metric-identical to a bare System). The optional hook observes the
// run (see ClusterRunHook).
core::RunMetrics RunOnce(const core::Config& config, std::uint64_t seed);
core::RunMetrics RunOnce(const core::ShardedConfig& config,
                         std::uint64_t seed);
core::RunMetrics RunOnce(const core::ShardedConfig& config,
                         std::uint64_t seed, const ClusterRunHook& hook,
                         const RunContext& context);
// Budgeted variant: on wall-clock overrun the run is cut short
// (metrics cover the simulated time actually reached) and *timed_out
// (optional) is set.
core::RunMetrics RunOnce(const core::ShardedConfig& config,
                         std::uint64_t seed, const ClusterRunHook& hook,
                         const RunContext& context, const RunBudget& budget,
                         bool* timed_out);

// Runs one configuration over several seeds; returns all runs. The
// optional hook observes every replication.
std::vector<core::RunMetrics> Replicate(const core::Config& config,
                                        int replications,
                                        std::uint64_t base_seed);
std::vector<core::RunMetrics> Replicate(const core::ShardedConfig& config,
                                        int replications,
                                        std::uint64_t base_seed);
std::vector<core::RunMetrics> Replicate(const core::ShardedConfig& config,
                                        int replications,
                                        std::uint64_t base_seed,
                                        const ClusterRunHook& hook);

struct SweepSpec {
  // Base configuration; policy and the x parameter are overwritten per
  // cell.
  core::Config base;
  // Policies to compare (columns).
  std::vector<core::PolicyKind> policies = {
      core::PolicyKind::kUpdateFirst, core::PolicyKind::kTransactionFirst,
      core::PolicyKind::kSplitUpdates, core::PolicyKind::kOnDemand};
  // Name of the swept parameter, for table headers (e.g., "lambda_t").
  std::string x_name;
  // X-axis values (rows).
  std::vector<double> x_values;
  // Applies one x value to a config. May be null when apply_x_cluster
  // is set.
  std::function<void(core::Config&, double)> apply_x;
  // Cluster-scoped x application: when set, the x value is applied to
  // the cell's cluster shape (after `cluster.base` has been filled in
  // with the cell's base + policy config, and after apply_x) — this is
  // how `shards` or `link_latency_us` become sweep axes.
  std::function<void(core::ShardedConfig&, double)> apply_x_cluster;
  // Independent replications per cell.
  int replications = 3;
  std::uint64_t base_seed = 42;
  // Worker-pool shape: jobs (0 = one per hardware core) and optional
  // worker-to-core pinning. Results are byte-identical for any job
  // count (see exp/parallel_runner.h's determinism contract).
  ParallelOptions parallel;
  // Observation hook, called (from worker threads) for every run of a
  // one-shard cell with its cell coordinates; may be null. See RunHook.
  // Ignored for multi-shard cells and whenever on_cluster_run is set.
  RunHook on_run;
  // Cluster shape of every cell: each cell run constructs a Cluster
  // from this shape with the cell's config (base + policy + x value) as
  // its base; `cluster.base` itself is ignored. The default
  // (shards == 1) is the uniprocessor model.
  core::ShardedConfig cluster;
  // Observation hook for every cell, whatever its shard count; may be
  // null. Takes precedence over on_run. See ClusterRunHook.
  ClusterRunHook on_cluster_run;
  // Per-cell wall-clock budget, shared across a cell's replications
  // (crash-safe sweeps). On overrun the in-flight replication is cut
  // short and the cell's remaining replications are skipped (their
  // metrics stay default-constructed); the cell is reported timed-out.
  RunBudget budget;
  // Optional cell filter (--resume): return true to skip a cell
  // entirely — its runs stay default-constructed and on_cell_done is
  // NOT called for it.
  std::function<bool(std::size_t policy_index, std::size_t x_index)>
      skip_cell;
  // Optional per-cell completion callback: write the cell's results to
  // durable storage here so an interrupted sweep keeps everything
  // finished so far. Called as each cell finishes (in no particular
  // cell order), serialized across workers together with on_progress —
  // cell writes and progress reporting never interleave.
  std::function<void(std::size_t policy_index, std::size_t x_index,
                     const std::vector<core::RunMetrics>& runs,
                     bool timed_out)>
      on_cell_done;
  // Optional progress callback, fired after each cell (after its
  // on_cell_done) with the number of cells finished so far and the
  // total scheduled (skipped cells excluded). Serialized with
  // on_cell_done under one mutex.
  std::function<void(std::size_t done, std::size_t total)> on_progress;
};

class SweepResult {
 public:
  SweepResult(std::size_t n_policies, std::size_t n_x, int replications);

  // All runs of one cell.
  const std::vector<core::RunMetrics>& cell(std::size_t policy_index,
                                            std::size_t x_index) const;
  std::vector<core::RunMetrics>& mutable_cell(std::size_t policy_index,
                                              std::size_t x_index);

  // Mean of `metric` over a cell's replications.
  double Mean(std::size_t policy_index, std::size_t x_index,
              const MetricFn& metric) const;

  // Mean and 95% CI of `metric` over a cell's replications.
  sim::Summary Aggregate(std::size_t policy_index, std::size_t x_index,
                         const MetricFn& metric) const;

  std::size_t n_policies() const { return n_policies_; }
  std::size_t n_x() const { return n_x_; }

 private:
  std::size_t n_policies_;
  std::size_t n_x_;
  std::vector<std::vector<core::RunMetrics>> cells_;
};

// Runs every (policy, x, replication) of the spec.
SweepResult RunSweep(const SweepSpec& spec);

}  // namespace strip::exp

#endif  // STRIP_EXP_EXPERIMENT_H_
