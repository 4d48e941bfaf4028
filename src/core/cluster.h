// A sharded (multiprocessor) STRIP run: M shard engines on one clock.
//
// The paper models a single CPU multiplexed between the update process
// and transactions (Section 3.1). Cluster generalizes that model to M
// such controllers — each shard a full System with its own CPU, queues,
// staleness tracker, policy instance, and governor state — sharing one
// deterministic sim::Simulator, one global update feed, and one global
// transaction workload:
//
//   * the object space is split across shards by a db::ObjectPlacement
//     (hash striping or range blocks); the cluster's feed draws global
//     object ids and routes each update to its owner shard;
//   * each transaction is admitted on its *home* shard (the owner of
//     its first view read); reads of objects owned elsewhere become
//     cross-shard reads, executed by a two-phase hold rendezvous: the
//     transaction keeps its claim on the home CPU while the request is
//     serviced as a priority segment on the peer's CPU (see
//     DESIGN.md, "Sharded model");
//   * per-shard heterogeneity (CPU speed, switch cost, fault schedule)
//     and feed skew (a hot shard absorbing a configurable fraction of
//     the feed) come from the ShardedConfig.
//
// shards == 1 constructs exactly one System from config.base verbatim
// with the cluster's seed; Run()/RunSlice()/HaltEarly() drive the
// simulator and finalize it exactly as System's own do — byte-identical,
// metric-identical output to using System directly (pinned by
// tests/core/cluster_identity_test.cc).
//
// Typical use:
//   sim::Simulator simulator;
//   core::ShardedConfig config;
//   config.shards = 4;
//   core::Cluster cluster(&simulator, config, base::RngSeed(1));
//   core::RunMetrics aggregate = cluster.Run();
//   const core::RunMetrics& shard0 = cluster.shard_metrics(0);

#ifndef STRIP_CORE_CLUSTER_H_
#define STRIP_CORE_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/interconnect.h"
#include "core/metrics.h"
#include "core/sharded_config.h"
#include "core/system.h"
#include "db/placement.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "workload/txn_source.h"
#include "workload/update_stream.h"

namespace strip::core {

class Cluster {
 public:
  // Wires M shard engines onto `simulator`. `config` must validate;
  // `seed` determines every random draw (for shards == 1 the run is
  // seed-compatible with System(simulator, config.base, seed)). The
  // simulator must outlive the Cluster.
  Cluster(sim::Simulator* simulator, const ShardedConfig& config,
          base::RngSeed seed);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Runs to config.base.sim_seconds and returns the aggregate metrics.
  // Callable once.
  RunMetrics Run();

  // Incremental alternative to Run() (crash-safe sweeps): advances the
  // whole cluster by at most `max_slice` simulated seconds. Returns
  // true when the run completed (metrics finalized).
  bool RunSlice(sim::Duration max_slice);

  // Abandons an unfinished sliced run: finalizes every shard at the
  // current simulated time and returns the aggregate. The Cluster is
  // spent afterwards.
  RunMetrics HaltEarly();

  // Aggregate metrics across shards; valid after finalization. Event
  // counters, value, and CPU seconds are summed; stale fractions are
  // weighted by each shard's owned object counts; response percentiles
  // are the worst (max) across shards with commits — an upper bound,
  // since exact cluster percentiles would need the merged samples;
  // queue-length averages are means across shards. Note rho_* divide
  // the summed CPU seconds by the single observation window, so the
  // cluster-wide rho_total can approach M (M busy CPUs).
  const RunMetrics& metrics() const { return aggregate_; }

  // One shard's finalized metrics; valid after finalization.
  const RunMetrics& shard_metrics(int shard) const;

  // The shard engines, for attaching observers and probing state.
  int shards() const { return static_cast<int>(systems_.size()); }
  System& shard(int shard) { return *systems_[shard]; }
  const System& shard(int shard) const { return *systems_[shard]; }

  // Registers an observer on every shard engine (per-shard sinks
  // attach via shard(s).AddObserver instead).
  void AddObserverToAllShards(SystemObserver* observer);

  const ShardedConfig& config() const { return config_; }
  const db::ObjectPlacement& placement() const { return placement_; }
  sim::Simulator* simulator() const { return simulator_; }

  // Cross-shard read requests issued so far (the auditors' census
  // denominator).
  std::uint64_t remote_requests_issued() const { return last_request_id_; }

  // External-workload injection (config.base.external_workload):
  // arrivals in *global* object-id space, routed by placement to the
  // owning shard — same contract as System::InjectUpdate /
  // InjectTransaction otherwise.
  void InjectUpdate(const db::Update& update) { RouteUpdate(update); }
  void InjectTransaction(const txn::Transaction::Params& params) {
    RouteTransaction(params);
  }

 private:
  // Routes one update (global id) to its owner shard, applying feed
  // skew first.
  void RouteUpdate(const db::Update& update);
  // Rewrites a transaction's read set into owner-local ids, computes
  // read owners and the home shard, and injects it there.
  void RouteTransaction(const txn::Transaction::Params& params);
  void FinalizeAll(sim::Time end);
  void Aggregate();

  sim::Simulator* simulator_;
  ShardedConfig config_;
  db::ObjectPlacement placement_;
  std::vector<std::unique_ptr<System>> systems_;

  // The link model every cross-shard request/reply travels over (null
  // at shards == 1). Inert — synchronous pass-through, no events, no
  // RNG draws — unless a link knob or cluster_faults is set.
  std::unique_ptr<Interconnect> interconnect_;

  // Global workload generators (null under base.external_workload or
  // at shards == 1, where the single System runs its own).
  std::unique_ptr<workload::UpdateStream> update_stream_;
  std::unique_ptr<workload::TxnSource> txn_source_;
  // Draws for the feed-skew redirect.
  sim::RandomStream skew_random_;

  // Cluster-unique request ids, handed to shard engines via ShardLink.
  std::uint64_t last_request_id_ = 0;
  // Home shard for transactions with an empty read set.
  std::uint64_t txn_round_robin_ = 0;

  std::vector<RunMetrics> shard_metrics_;
  RunMetrics aggregate_;
  bool finalized_ = false;
};

}  // namespace strip::core

#endif  // STRIP_CORE_CLUSTER_H_
