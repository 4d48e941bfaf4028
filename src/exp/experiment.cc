#include "exp/experiment.h"

#include <chrono>

#include "base/check.h"
#include "core/cluster.h"
#include "sim/simulator.h"

namespace strip::exp {

namespace {

using Clock = std::chrono::steady_clock;

core::ShardedConfig OneShard(const core::Config& config) {
  core::ShardedConfig sharded;
  sharded.base = config;
  return sharded;
}

// A RunHook observes the single System of a one-shard Cluster; it is
// not called for multi-shard runs.
ClusterRunHook ShardZeroHook(const RunHook& hook) {
  if (!hook) return nullptr;
  return [hook](core::Cluster& cluster,
                const RunContext& context) -> RunFinisher {
    if (cluster.shards() != 1) return nullptr;
    return hook(cluster.shard(0), context);
  };
}

Clock::time_point DeadlineAfter(double wall_seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double>(wall_seconds));
}

// The one run loop. Without a deadline the Cluster runs to completion
// in one call. With one — absolute, so a sweep cell can share it across
// its replications — it advances in slices of `slice_sim_seconds`,
// checking the wall clock between slices. Slicing replays the exact
// event sequence of an unsliced run (Simulator::RunUntil dispatches
// each event once across successive calls), so results are identical
// unless the deadline actually fires.
core::RunMetrics RunCluster(const core::ShardedConfig& config,
                            std::uint64_t seed, const ClusterRunHook& hook,
                            const RunContext& context,
                            const Clock::time_point* deadline,
                            double slice_sim_seconds, bool* timed_out) {
  sim::Simulator simulator;
  core::Cluster cluster(&simulator, config, base::RngSeed(seed));
  // The finisher is declared after the Cluster so its destruction (and
  // with it any observers it owns) happens first, while the buses the
  // observers detach from are still alive.
  RunFinisher finish;
  if (hook) finish = hook(cluster, context);
  core::RunMetrics metrics;
  if (deadline == nullptr) {
    metrics = cluster.Run();
  } else {
    if (slice_sim_seconds <= 0) slice_sim_seconds = 5.0;
    while (true) {
      if (cluster.RunSlice(slice_sim_seconds)) {
        metrics = cluster.metrics();
        break;
      }
      if (std::chrono::steady_clock::now() >= *deadline) {
        metrics = cluster.HaltEarly();
        if (timed_out != nullptr) *timed_out = true;
        break;
      }
    }
  }
  if (finish) finish(metrics);
  return metrics;
}

}  // namespace

core::RunMetrics RunOnce(const core::Config& config, std::uint64_t seed) {
  return RunOnce(OneShard(config), seed);
}

core::RunMetrics RunOnce(const core::Config& config, std::uint64_t seed,
                         const RunHook& hook, const RunContext& context) {
  return RunOnce(OneShard(config), seed, ShardZeroHook(hook), context);
}

core::RunMetrics RunOnce(const core::Config& config, std::uint64_t seed,
                         const RunHook& hook, const RunContext& context,
                         const RunBudget& budget, bool* timed_out) {
  return RunOnce(OneShard(config), seed, ShardZeroHook(hook), context, budget,
                 timed_out);
}

core::RunMetrics RunOnce(const core::ShardedConfig& config,
                         std::uint64_t seed) {
  return RunOnce(config, seed, nullptr, RunContext{});
}

core::RunMetrics RunOnce(const core::ShardedConfig& config,
                         std::uint64_t seed, const ClusterRunHook& hook,
                         const RunContext& context) {
  return RunCluster(config, seed, hook, context, nullptr, 0, nullptr);
}

core::RunMetrics RunOnce(const core::ShardedConfig& config,
                         std::uint64_t seed, const ClusterRunHook& hook,
                         const RunContext& context, const RunBudget& budget,
                         bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  if (budget.wall_seconds <= 0) return RunOnce(config, seed, hook, context);
  const Clock::time_point deadline = DeadlineAfter(budget.wall_seconds);
  return RunCluster(config, seed, hook, context, &deadline,
                    budget.slice_sim_seconds, timed_out);
}

std::vector<core::RunMetrics> Replicate(const core::Config& config,
                                        int replications,
                                        std::uint64_t base_seed) {
  return Replicate(OneShard(config), replications, base_seed, nullptr);
}

std::vector<core::RunMetrics> Replicate(const core::Config& config,
                                        int replications,
                                        std::uint64_t base_seed,
                                        const RunHook& hook) {
  return Replicate(OneShard(config), replications, base_seed,
                   ShardZeroHook(hook));
}

std::vector<core::RunMetrics> Replicate(const core::ShardedConfig& config,
                                        int replications,
                                        std::uint64_t base_seed) {
  return Replicate(config, replications, base_seed, nullptr);
}

std::vector<core::RunMetrics> Replicate(const core::ShardedConfig& config,
                                        int replications,
                                        std::uint64_t base_seed,
                                        const ClusterRunHook& hook) {
  STRIP_CHECK_MSG(replications > 0, "need at least one replication");
  std::vector<core::RunMetrics> runs;
  runs.reserve(replications);
  for (int r = 0; r < replications; ++r) {
    RunContext context;
    context.replication = r;
    context.seed = base_seed + static_cast<std::uint64_t>(r);
    context.shards = config.shards;
    runs.push_back(RunOnce(config, context.seed, hook, context));
  }
  return runs;
}

SweepResult::SweepResult(std::size_t n_policies, std::size_t n_x,
                         int replications)
    : n_policies_(n_policies), n_x_(n_x), cells_(n_policies * n_x) {
  for (auto& cell : cells_) {
    cell.resize(static_cast<std::size_t>(replications));
  }
}

const std::vector<core::RunMetrics>& SweepResult::cell(
    std::size_t policy_index, std::size_t x_index) const {
  STRIP_CHECK(policy_index < n_policies_ && x_index < n_x_);
  return cells_[policy_index * n_x_ + x_index];
}

std::vector<core::RunMetrics>& SweepResult::mutable_cell(
    std::size_t policy_index, std::size_t x_index) {
  STRIP_CHECK(policy_index < n_policies_ && x_index < n_x_);
  return cells_[policy_index * n_x_ + x_index];
}

double SweepResult::Mean(std::size_t policy_index, std::size_t x_index,
                         const MetricFn& metric) const {
  return Aggregate(policy_index, x_index, metric).mean;
}

sim::Summary SweepResult::Aggregate(std::size_t policy_index,
                                    std::size_t x_index,
                                    const MetricFn& metric) const {
  std::vector<double> samples;
  for (const core::RunMetrics& run : cell(policy_index, x_index)) {
    samples.push_back(metric(run));
  }
  return sim::Summary::FromSamples(samples);
}

SweepResult RunSweep(const SweepSpec& spec) {
  STRIP_CHECK_MSG(!spec.policies.empty(), "sweep needs at least one policy");
  STRIP_CHECK_MSG(!spec.x_values.empty(), "sweep needs at least one x value");
  STRIP_CHECK_MSG(spec.apply_x != nullptr || spec.apply_x_cluster != nullptr,
                  "sweep needs an apply_x or apply_x_cluster");
  STRIP_CHECK_MSG(spec.replications > 0, "sweep needs replications");

  SweepResult result(spec.policies.size(), spec.x_values.size(),
                     spec.replications);

  // Tasks are whole cells (policy, x): a cell's replications run
  // sequentially on one worker so the cell shares one wall-clock
  // budget and finishes as a unit — on_cell_done sees all of its runs
  // together, which is what lets a runner persist cell files
  // atomically for --resume. Every worker runs fully isolated
  // Simulation/RNG state (a fresh Simulator + Cluster per run, seeded
  // from the spec), and results land in index-addressed SweepResult
  // cells, so the merged result is byte-identical for any job count.
  struct Task {
    std::size_t policy_index;
    std::size_t x_index;
  };
  std::vector<Task> tasks;
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
      if (spec.skip_cell && spec.skip_cell(p, x)) continue;
      tasks.push_back({p, x});
    }
  }

  // on_cluster_run observes every cell; without it, on_run observes
  // the one-shard cells.
  const ClusterRunHook hook =
      spec.on_cluster_run ? spec.on_cluster_run : ShardZeroHook(spec.on_run);

  ParallelRunner runner(spec.parallel);
  std::size_t cells_done = 0;
  runner.Run(tasks.size(), [&](std::size_t i) {
    const Task& task = tasks[i];
    // Every cell is a Cluster run: the spec's cluster shape around the
    // cell's config (base + policy + x value). At the default
    // shards == 1 that is the uniprocessor model.
    const double x = spec.x_values[task.x_index];
    core::ShardedConfig config = spec.cluster;
    config.base = spec.base;
    config.base.policy = spec.policies[task.policy_index];
    if (spec.apply_x) spec.apply_x(config.base, x);
    if (spec.apply_x_cluster) spec.apply_x_cluster(config, x);
    std::vector<core::RunMetrics>& runs =
        result.mutable_cell(task.policy_index, task.x_index);
    // The cell's wall-clock budget is per-worker: it starts when a
    // worker picks the cell up, not when the sweep was launched, so
    // queueing behind other cells never eats a cell's allowance.
    const bool budgeted = spec.budget.wall_seconds > 0;
    const Clock::time_point deadline =
        DeadlineAfter(budgeted ? spec.budget.wall_seconds : 0.0);
    bool cell_timed_out = false;
    for (int r = 0; r < spec.replications; ++r) {
      // Once the cell's budget fires, later replications are not
      // started — their metrics stay default-constructed.
      if (cell_timed_out) break;
      RunContext context;
      context.policy_index = task.policy_index;
      context.x_index = task.x_index;
      context.replication = r;
      context.seed = spec.base_seed + static_cast<std::uint64_t>(r);
      context.shards = config.shards;
      runs[static_cast<std::size_t>(r)] =
          RunCluster(config, context.seed, hook, context,
                     budgeted ? &deadline : nullptr,
                     spec.budget.slice_sim_seconds, &cell_timed_out);
    }
    if (spec.on_cell_done || spec.on_progress) {
      // Durable cell writes and progress share one serialized
      // section, so a progress line can never interleave with a cell
      // file hitting disk.
      runner.Serialized([&] {
        if (spec.on_cell_done) {
          spec.on_cell_done(task.policy_index, task.x_index, runs,
                            cell_timed_out);
        }
        ++cells_done;
        if (spec.on_progress) spec.on_progress(cells_done, tasks.size());
      });
    }
  });
  return result;
}

}  // namespace strip::exp
