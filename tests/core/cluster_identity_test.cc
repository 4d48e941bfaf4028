// The sharded API's backward-compatibility contract: a Cluster with
// shards == 1 is the uniprocessor model, bit-for-bit. Every policy and
// every staleness criterion must produce metrics equal — and a
// ToString summary byte-identical — to driving the System directly
// with the same Config and seed. This is what lets every existing
// caller move to the Cluster API without changing a single result.

#include <string>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/config.h"
#include "core/system.h"
#include "sim/simulator.h"

namespace strip::core {
namespace {

Config BaselineConfig(PolicyKind policy, db::StalenessCriterion staleness) {
  Config config;
  config.policy = policy;
  config.staleness = staleness;
  config.sim_seconds = 20.0;
  return config;
}

constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::kUpdateFirst,  PolicyKind::kTransactionFirst,
    PolicyKind::kSplitUpdates, PolicyKind::kOnDemand,
    PolicyKind::kFixedFraction,
};

constexpr db::StalenessCriterion kAllCriteria[] = {
    db::StalenessCriterion::kMaxAge,
    db::StalenessCriterion::kMaxAgeArrival,
    db::StalenessCriterion::kUnappliedUpdate,
    db::StalenessCriterion::kCombined,
};

TEST(ClusterIdentityTest, SingleShardMatchesSystemForEveryPolicyAndCriterion) {
  for (const PolicyKind policy : kAllPolicies) {
    for (const db::StalenessCriterion staleness : kAllCriteria) {
      const Config config = BaselineConfig(policy, staleness);
      SCOPED_TRACE(std::string(PolicyKindName(policy)) + "/" +
                   db::StalenessCriterionName(staleness));

      sim::Simulator direct_sim;
      System system(&direct_sim, config, base::RngSeed(/*seed=*/7));
      const RunMetrics direct = system.Run();

      ShardedConfig sharded;
      sharded.base = config;
      sharded.shards = 1;
      sim::Simulator cluster_sim;
      Cluster cluster(&cluster_sim, sharded, base::RngSeed(/*seed=*/7));
      const RunMetrics via_cluster = cluster.Run();

      // Byte-identical summary catches any drift in any rendered
      // metric at once; the spot checks below make failures readable.
      EXPECT_EQ(direct.ToString(), via_cluster.ToString());
      EXPECT_EQ(direct.txns_arrived, via_cluster.txns_arrived);
      EXPECT_EQ(direct.txns_committed, via_cluster.txns_committed);
      EXPECT_EQ(direct.updates_arrived, via_cluster.updates_arrived);
      EXPECT_EQ(direct.updates_installed, via_cluster.updates_installed);
      EXPECT_EQ(direct.value_committed, via_cluster.value_committed);
      EXPECT_EQ(direct.cpu_txn_seconds, via_cluster.cpu_txn_seconds);
      EXPECT_EQ(direct.cpu_update_seconds, via_cluster.cpu_update_seconds);
      EXPECT_EQ(direct.f_old_low, via_cluster.f_old_low);
      EXPECT_EQ(direct.f_old_high, via_cluster.f_old_high);
      EXPECT_EQ(direct.response_mean, via_cluster.response_mean);
      EXPECT_EQ(via_cluster.txns_cross_shard, 0u);
      EXPECT_EQ(via_cluster.remote_reads_issued, 0u);

      // The single shard's own metrics are the aggregate, verbatim.
      EXPECT_EQ(cluster.shards(), 1);
      EXPECT_EQ(cluster.shard_metrics(0).ToString(),
                via_cluster.ToString());
    }
  }
}

TEST(ClusterIdentityTest, SingleShardSliceAndHaltMatchSystem) {
  const Config config =
      BaselineConfig(PolicyKind::kOnDemand, db::StalenessCriterion::kMaxAge);

  sim::Simulator direct_sim;
  System system(&direct_sim, config, base::RngSeed(/*seed=*/3));
  const RunMetrics direct = system.Run();

  ShardedConfig sharded;
  sharded.base = config;
  sim::Simulator cluster_sim;
  Cluster cluster(&cluster_sim, sharded, base::RngSeed(/*seed=*/3));
  int slices = 0;
  while (!cluster.RunSlice(1.5)) ++slices;
  EXPECT_GE(slices, 12);
  EXPECT_EQ(direct.ToString(), cluster.metrics().ToString());
}

TEST(ClusterIdentityTest, SingleShardHaltEarlyMatchesSystem) {
  const Config config =
      BaselineConfig(PolicyKind::kOnDemand, db::StalenessCriterion::kMaxAge);

  sim::Simulator direct_sim;
  System system(&direct_sim, config, base::RngSeed(/*seed=*/3));
  ShardedConfig sharded;
  sharded.base = config;
  sim::Simulator cluster_sim;
  Cluster cluster(&cluster_sim, sharded, base::RngSeed(/*seed=*/3));
  for (int i = 0; i < 5; ++i) {
    ASSERT_FALSE(system.RunSlice(1.5));
    ASSERT_FALSE(cluster.RunSlice(1.5));
  }
  const RunMetrics direct = system.HaltEarly();
  const RunMetrics halted = cluster.HaltEarly();
  EXPECT_EQ(direct.observed_seconds, 7.5);
  EXPECT_EQ(direct.ToString(), halted.ToString());
  EXPECT_EQ(cluster.shard_metrics(0).ToString(), halted.ToString());
}

// Halting a run at T finalizes it exactly as a run whose horizon is T.
// At three shards T is the first slice boundary at which a shard holds
// a parked remote read, so the halt has to release it.
TEST(ClusterIdentityTest, HaltAtTMatchesRunOfLengthT) {
  for (const int shards : {1, 3}) {
    SCOPED_TRACE(shards);
    ShardedConfig sharded;
    sharded.base =
        BaselineConfig(PolicyKind::kOnDemand, db::StalenessCriterion::kMaxAge);
    sharded.shards = shards;

    sim::Simulator halt_sim;
    Cluster halted(&halt_sim, sharded, base::RngSeed(/*seed=*/3));
    if (shards == 1) {
      for (int i = 0; i < 5; ++i) ASSERT_FALSE(halted.RunSlice(1.5));
      EXPECT_EQ(halt_sim.now(), 7.5);
    } else {
      bool parked = false;
      while (!parked) {
        ASSERT_FALSE(halted.RunSlice(0.01));
        for (int s = 0; s < shards; ++s) {
          parked = parked || halted.shard(s).remote_waiting();
        }
      }
    }
    const sim::Time halt_at = halt_sim.now();
    const RunMetrics at_halt = halted.HaltEarly();

    sharded.base.sim_seconds = halt_at;
    sim::Simulator run_sim;
    Cluster whole(&run_sim, sharded, base::RngSeed(/*seed=*/3));
    const RunMetrics run_to_t = whole.Run();

    EXPECT_EQ(at_halt.ToString(), run_to_t.ToString());
    for (int s = 0; s < shards; ++s) {
      EXPECT_EQ(halted.shard_metrics(s).ToString(),
                whole.shard_metrics(s).ToString());
    }
  }
}

TEST(ClusterIdentityTest, ShardedSliceMatchesShardedRun) {
  ShardedConfig sharded;
  sharded.base =
      BaselineConfig(PolicyKind::kOnDemand, db::StalenessCriterion::kMaxAge);
  sharded.shards = 3;

  sim::Simulator run_sim;
  Cluster whole(&run_sim, sharded, base::RngSeed(/*seed=*/11));
  const RunMetrics unsliced = whole.Run();

  sim::Simulator slice_sim;
  Cluster sliced(&slice_sim, sharded, base::RngSeed(/*seed=*/11));
  while (!sliced.RunSlice(0.7)) {
  }
  EXPECT_EQ(unsliced.ToString(), sliced.metrics().ToString());
  for (int s = 0; s < sharded.shards; ++s) {
    EXPECT_EQ(whole.shard_metrics(s).ToString(),
              sliced.shard_metrics(s).ToString());
  }
}

TEST(ClusterIdentityTest, ShardedRunIsDeterministic) {
  ShardedConfig sharded;
  sharded.base = BaselineConfig(PolicyKind::kTransactionFirst,
                                db::StalenessCriterion::kUnappliedUpdate);
  sharded.shards = 4;
  sharded.placement = db::PlacementKind::kRange;

  sim::Simulator sim_a;
  Cluster a(&sim_a, sharded, base::RngSeed(/*seed=*/5));
  const RunMetrics first = a.Run();

  sim::Simulator sim_b;
  Cluster b(&sim_b, sharded, base::RngSeed(/*seed=*/5));
  const RunMetrics second = b.Run();

  EXPECT_EQ(first.ToString(), second.ToString());
  EXPECT_EQ(a.remote_requests_issued(), b.remote_requests_issued());
  for (int s = 0; s < sharded.shards; ++s) {
    EXPECT_EQ(a.shard_metrics(s).ToString(), b.shard_metrics(s).ToString());
  }
}

}  // namespace
}  // namespace strip::core
