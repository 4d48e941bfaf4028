#include "exp/experiment.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace strip::exp {
namespace {

core::Config QuickConfig() {
  core::Config config;
  config.sim_seconds = 10.0;
  return config;
}

TEST(RunOnceTest, ProducesPlausibleMetrics) {
  const core::RunMetrics m = RunOnce(QuickConfig(), 1);
  EXPECT_DOUBLE_EQ(m.observed_seconds, 10.0);
  EXPECT_GT(m.txns_arrived, 0u);
}

TEST(RunOnceTest, DeterministicBySeed) {
  const core::RunMetrics a = RunOnce(QuickConfig(), 5);
  const core::RunMetrics b = RunOnce(QuickConfig(), 5);
  EXPECT_DOUBLE_EQ(a.value_committed, b.value_committed);
  EXPECT_EQ(a.updates_installed, b.updates_installed);
}

TEST(ReplicateTest, ReturnsOneRunPerSeed) {
  const auto runs = Replicate(QuickConfig(), 3, 42);
  ASSERT_EQ(runs.size(), 3u);
  // Different seeds give different randomness.
  EXPECT_NE(runs[0].value_committed, runs[1].value_committed);
}

TEST(ReplicateTest, FirstRunMatchesRunOnce) {
  const auto runs = Replicate(QuickConfig(), 2, 42);
  const core::RunMetrics direct = RunOnce(QuickConfig(), 42);
  EXPECT_DOUBLE_EQ(runs[0].value_committed, direct.value_committed);
}

SweepSpec QuickSweep() {
  SweepSpec spec;
  spec.base = QuickConfig();
  spec.policies = {core::PolicyKind::kUpdateFirst,
                   core::PolicyKind::kOnDemand};
  spec.x_name = "lambda_t";
  spec.x_values = {5, 15};
  spec.apply_x = [](core::Config& c, double x) { c.lambda_t = x; };
  spec.replications = 2;
  spec.base_seed = 42;
  return spec;
}

TEST(SweepTest, ShapeMatchesSpec) {
  const SweepResult result = RunSweep(QuickSweep());
  EXPECT_EQ(result.n_policies(), 2u);
  EXPECT_EQ(result.n_x(), 2u);
  EXPECT_EQ(result.cell(0, 0).size(), 2u);
  EXPECT_EQ(result.cell(1, 1).size(), 2u);
}

TEST(SweepTest, CellsApplyPolicyAndX) {
  const SweepResult result = RunSweep(QuickSweep());
  // Higher lambda_t means more arrivals, whatever the policy.
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_GT(result.cell(p, 1)[0].txns_arrived,
              result.cell(p, 0)[0].txns_arrived);
  }
}

TEST(SweepTest, MatchesDirectRunsCellByCell) {
  const SweepSpec spec = QuickSweep();
  const SweepResult result = RunSweep(spec);
  core::Config config = spec.base;
  config.policy = core::PolicyKind::kOnDemand;
  config.lambda_t = 15;
  const core::RunMetrics direct = RunOnce(config, 43);  // replication 1
  EXPECT_DOUBLE_EQ(result.cell(1, 1)[1].value_committed,
                   direct.value_committed);
}

TEST(SweepTest, SingleThreadMatchesParallel) {
  SweepSpec spec = QuickSweep();
  spec.parallel.jobs = 1;
  const SweepResult serial = RunSweep(spec);
  spec.parallel.jobs = 4;
  const SweepResult parallel = RunSweep(spec);
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t x = 0; x < 2; ++x) {
      for (int r = 0; r < 2; ++r) {
        EXPECT_DOUBLE_EQ(serial.cell(p, x)[r].value_committed,
                         parallel.cell(p, x)[r].value_committed);
      }
    }
  }
}

TEST(SweepTest, AggregateComputesMeanAndCi) {
  const SweepResult result = RunSweep(QuickSweep());
  const MetricFn metric = [](const core::RunMetrics& m) { return m.av(); };
  const sim::Summary summary = result.Aggregate(0, 0, metric);
  EXPECT_EQ(summary.samples, 2);
  const double manual = (metric(result.cell(0, 0)[0]) +
                         metric(result.cell(0, 0)[1])) /
                        2.0;
  EXPECT_DOUBLE_EQ(summary.mean, manual);
  EXPECT_DOUBLE_EQ(result.Mean(0, 0, metric), manual);
}

TEST(SweepTest, SkipCellLeavesDefaultRunsAndSkipsCallback) {
  SweepSpec spec = QuickSweep();
  std::vector<std::pair<std::size_t, std::size_t>> done;
  spec.skip_cell = [](std::size_t p, std::size_t x) {
    return p == 0 && x == 0;
  };
  spec.on_cell_done = [&done](std::size_t p, std::size_t x,
                              const std::vector<core::RunMetrics>&,
                              bool timed_out) {
    EXPECT_FALSE(timed_out);
    done.emplace_back(p, x);
  };
  spec.parallel.jobs = 1;
  const SweepResult result = RunSweep(spec);
  // The skipped cell holds default-constructed metrics...
  EXPECT_EQ(result.cell(0, 0)[0].txns_arrived, 0u);
  // ...every other cell ran and was reported exactly once.
  EXPECT_GT(result.cell(0, 1)[0].txns_arrived, 0u);
  EXPECT_GT(result.cell(1, 0)[0].txns_arrived, 0u);
  ASSERT_EQ(done.size(), 3u);
  for (const auto& [p, x] : done) {
    EXPECT_FALSE(p == 0 && x == 0);
  }
}

TEST(SweepTest, ProgressReportsEveryCellMonotonically) {
  // on_progress is serialized with on_cell_done: `done` must step
  // 1..total with no repeats or gaps even under a parallel pool.
  SweepSpec spec = QuickSweep();
  spec.parallel.jobs = 4;
  std::vector<std::size_t> dones;
  std::size_t reported_total = 0;
  spec.on_progress = [&](std::size_t done, std::size_t total) {
    dones.push_back(done);
    reported_total = total;
  };
  RunSweep(spec);
  ASSERT_EQ(dones.size(), 4u);  // 2 policies x 2 x-values
  EXPECT_EQ(reported_total, 4u);
  for (std::size_t i = 0; i < dones.size(); ++i) {
    EXPECT_EQ(dones[i], i + 1);
  }
}

TEST(SweepTest, ProgressCountsSkipTheSkippedCells) {
  SweepSpec spec = QuickSweep();
  spec.parallel.jobs = 2;
  spec.skip_cell = [](std::size_t p, std::size_t x) {
    return p == 0 && x == 0;
  };
  std::size_t calls = 0;
  std::size_t last_total = 0;
  spec.on_progress = [&](std::size_t, std::size_t total) {
    ++calls;
    last_total = total;
  };
  RunSweep(spec);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(last_total, 3u);
}

TEST(SweepTest, CellTimeoutAppliesPerCellUnderParallelJobs) {
  // Each worker arms the wall-clock budget when it picks the cell up,
  // so a tiny timeout truncates every cell rather than only the ones
  // unlucky enough to start late.
  SweepSpec spec = QuickSweep();
  spec.base.sim_seconds = 10000.0;
  spec.parallel.jobs = 4;
  spec.budget.wall_seconds = 0.05;
  spec.budget.slice_sim_seconds = 1.0;
  std::size_t timed_out_cells = 0;
  spec.on_cell_done = [&](std::size_t, std::size_t,
                          const std::vector<core::RunMetrics>& runs,
                          bool timed_out) {
    if (timed_out) ++timed_out_cells;
    ASSERT_FALSE(runs.empty());
    EXPECT_LT(runs[0].observed_seconds, spec.base.sim_seconds);
  };
  RunSweep(spec);
  EXPECT_EQ(timed_out_cells, 4u);
}

TEST(SweepTest, UnbudgetedRunMatchesBudgetedWithRoomToSpare) {
  // A generous wall-clock budget must not perturb results: the sliced
  // execution replays the identical event sequence.
  SweepSpec plain = QuickSweep();
  SweepSpec budgeted = QuickSweep();
  budgeted.budget.wall_seconds = 3600.0;
  budgeted.budget.slice_sim_seconds = 0.5;
  bool any_timeout = false;
  budgeted.on_cell_done = [&any_timeout](std::size_t, std::size_t,
                                         const std::vector<core::RunMetrics>&,
                                         bool timed_out) {
    any_timeout |= timed_out;
  };
  const SweepResult a = RunSweep(plain);
  const SweepResult b = RunSweep(budgeted);
  EXPECT_FALSE(any_timeout);
  for (std::size_t p = 0; p < a.n_policies(); ++p) {
    for (std::size_t x = 0; x < a.n_x(); ++x) {
      for (std::size_t r = 0; r < a.cell(p, x).size(); ++r) {
        EXPECT_EQ(a.cell(p, x)[r].ToString(), b.cell(p, x)[r].ToString());
      }
    }
  }
}

TEST(RunOnceTest, BudgetTimeoutHaltsEarly) {
  core::ShardedConfig config;
  config.base = QuickConfig();
  config.base.sim_seconds = 10000.0;  // far more than the budget allows
  RunBudget budget;
  budget.wall_seconds = 0.05;
  budget.slice_sim_seconds = 1.0;
  bool timed_out = false;
  const core::RunMetrics m =
      RunOnce(config, 1, nullptr, {}, budget, &timed_out);
  EXPECT_TRUE(timed_out);
  EXPECT_LT(m.observed_seconds, config.base.sim_seconds);
  EXPECT_GT(m.observed_seconds, 0.0);
}

TEST(SweepDeathTest, InvalidSpecsDie) {
  SweepSpec spec = QuickSweep();
  spec.policies.clear();
  EXPECT_DEATH(RunSweep(spec), "policy");
  spec = QuickSweep();
  spec.x_values.clear();
  EXPECT_DEATH(RunSweep(spec), "x value");
  spec = QuickSweep();
  spec.apply_x = nullptr;
  EXPECT_DEATH(RunSweep(spec), "apply_x");
  spec = QuickSweep();
  spec.replications = 0;
  EXPECT_DEATH(RunSweep(spec), "replications");
}

TEST(SweepResultDeathTest, OutOfRangeCellDies) {
  const SweepResult result = RunSweep(QuickSweep());
  EXPECT_DEATH(result.cell(2, 0), "");
  EXPECT_DEATH(result.cell(0, 2), "");
}

}  // namespace
}  // namespace strip::exp
