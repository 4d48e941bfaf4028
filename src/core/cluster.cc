#include "core/cluster.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "base/check.h"

namespace strip::core {

Cluster::Cluster(sim::Simulator* simulator, const ShardedConfig& config,
                 base::RngSeed seed)
    : simulator_(simulator),
      config_(config),
      placement_(config.placement, std::max(config.shards, 1),
                 config.base.n_low, config.base.n_high),
      // Re-seeded below for multi-shard runs; never drawn at shards==1.
      skew_random_(seed) {
  STRIP_CHECK(simulator != nullptr);
  const std::optional<std::string> error = config_.Validate();
  STRIP_CHECK_MSG(!error.has_value(),
                  error.has_value() ? error->c_str() : "");

  if (config_.single_shard()) {
    // The uniprocessor model: one System from base, the cluster's seed
    // verbatim — byte-identical to constructing the System directly.
    systems_.push_back(
        std::make_unique<System>(simulator_, config_.base, seed));
    return;
  }

  // Seed derivation mirrors System's own (stream seeds first), then
  // one independent seed per shard engine.
  sim::RandomStream master(seed);
  const base::RngSeed update_seed = master.Fork();
  const base::RngSeed txn_seed = master.Fork();
  skew_random_ = sim::RandomStream(master.Fork());

  systems_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    systems_.push_back(std::make_unique<System>(
        simulator_, config_.ShardConfig(s), master.Fork()));
    System::ShardLink link;
    link.shard_id = base::ShardId(s);
    link.shards = config_.shards;
    // Requests/replies travel over the interconnect: with every link
    // knob at zero they are delivered at the same simulated instant
    // (the service itself takes simulated CPU time on the receiver);
    // otherwise delivery is a delayed — possibly dropped — event.
    link.send_request = [this](const RemoteRead& read) {
      interconnect_->SendRequest(read);
    };
    link.send_reply = [this](const RemoteRead& read) {
      interconnect_->SendReply(read);
    };
    link.next_request_id = [this] { return ++last_request_id_; };
    systems_.back()->set_shard_link(std::move(link));
  }

  // The interconnect's RNG stream forks after every shard engine's, so
  // perfect-fabric runs keep the historical per-shard seeds.
  Interconnect::Params net;
  net.shards = config_.shards;
  net.latency_s = config_.link_latency_us * 1e-6;
  net.jitter_s = config_.link_jitter_us * 1e-6;
  net.loss_p = config_.link_loss_p;
  if (!config_.cluster_faults.empty()) {
    std::string fault_error;
    std::optional<fault::FaultSchedule> schedule =
        fault::FaultSchedule::Parse(config_.cluster_faults, &fault_error);
    STRIP_CHECK_MSG(schedule.has_value(), fault_error.c_str());
    net.schedule = *std::move(schedule);
  }
  interconnect_ = std::make_unique<Interconnect>(
      simulator_, net, master.Fork(),
      [this](const RemoteRead& read) {
        systems_[static_cast<std::size_t>(read.peer_shard.value())]
            ->ReceiveRemoteRequest(read);
      },
      [this](const RemoteRead& read) {
        systems_[static_cast<std::size_t>(read.home_shard.value())]
            ->ReceiveRemoteReply(read);
      });
  interconnect_->set_on_drop([this](const RemoteRead& read, bool reply_leg) {
    // Losses surface on the home shard's bus: that is where the
    // timeout that eventually notices them is armed.
    systems_[static_cast<std::size_t>(read.home_shard.value())]
        ->observer_bus()
        .Notify(&SystemObserver::OnShardRemoteDropped, simulator_->now(), read,
                reply_leg);
  });
  if (!net.schedule.empty()) {
    interconnect_->ScheduleWindowEvents(
        [this](const fault::FaultWindow& window, bool begin) {
          for (const std::unique_ptr<System>& system : systems_) {
            system->OnClusterFaultBoundary(window, begin);
          }
        });
  }

  if (!config_.base.external_workload) {
    // One global feed and one global transaction source, drawing in
    // the global object space and routed by placement. Constructed
    // after the shard engines so their first arrivals land behind the
    // engines' own setup events at t = 0.
    workload::UpdateStream::Params update_params =
        config_.base.UpdateStreamParams();
    update_stream_ = std::make_unique<workload::UpdateStream>(
        simulator_, update_params, update_seed,
        [this](const db::Update& u) { RouteUpdate(u); });
    workload::TxnSource::Params txn_params = config_.base.TxnSourceParams();
    txn_source_ = std::make_unique<workload::TxnSource>(
        simulator_, txn_params, txn_seed,
        [this](const txn::Transaction::Params& p) { RouteTransaction(p); });
  }
}

void Cluster::RouteUpdate(const db::Update& update) {
  db::Update routed = update;
  if (config_.feed_hot_fraction > 0 &&
      skew_random_.WithProbability(config_.feed_hot_fraction)) {
    // Hot feed: redirect to a uniformly drawn object of the same
    // importance class owned by the hot shard.
    const base::ShardId hot(config_.feed_hot_shard);
    const int owned = placement_.OwnedCount(hot, routed.object.cls);
    const db::ObjectId local{routed.object.cls,
                             skew_random_.UniformInt(0, owned - 1)};
    routed.object =
        placement_.ToGlobal(hot, db::LocalObjectId(local)).value();
  }
  const base::ShardId shard =
      placement_.ShardOf(db::GlobalObjectId(routed.object));
  routed.object = placement_.ToLocal(db::GlobalObjectId(routed.object)).value();
  systems_[static_cast<std::size_t>(shard.value())]->InjectUpdate(routed);
}

void Cluster::RouteTransaction(const txn::Transaction::Params& params) {
  txn::Transaction::Params routed = params;
  const int home =
      routed.read_set.empty()
          ? static_cast<int>(txn_round_robin_++ %
                             static_cast<std::uint64_t>(shards()))
          : placement_.ShardOf(db::GlobalObjectId(routed.read_set.front()))
                .value();
  routed.read_owners.resize(routed.read_set.size());
  for (std::size_t i = 0; i < routed.read_set.size(); ++i) {
    const db::GlobalObjectId global(routed.read_set[i]);
    routed.read_owners[i] = placement_.ShardOf(global);
    routed.read_set[i] = placement_.ToLocal(global).value();
  }
  systems_[static_cast<std::size_t>(home)]->InjectTransaction(routed);
}

RunMetrics Cluster::Run() {
  STRIP_CHECK_MSG(!finalized_, "Cluster::Run called twice");
  simulator_->RunUntil(config_.base.sim_seconds);
  FinalizeAll(config_.base.sim_seconds);
  return aggregate_;
}

bool Cluster::RunSlice(sim::Duration max_slice) {
  STRIP_CHECK_MSG(!finalized_, "Cluster::RunSlice after finalization");
  STRIP_CHECK_MSG(max_slice > 0, "slice must be positive");
  const sim::Time target =
      std::min(simulator_->now() + max_slice, config_.base.sim_seconds);
  // Repeated RunUntil calls dispatch each event exactly once, so a
  // sliced cluster run replays the identical event sequence as Run().
  simulator_->RunUntil(target);
  if (target >= config_.base.sim_seconds) {
    FinalizeAll(config_.base.sim_seconds);
    return true;
  }
  return false;
}

RunMetrics Cluster::HaltEarly() {
  STRIP_CHECK_MSG(!finalized_, "Cluster::HaltEarly after finalization");
  FinalizeAll(simulator_->now());
  return aggregate_;
}

const RunMetrics& Cluster::shard_metrics(int shard) const {
  STRIP_CHECK_MSG(finalized_, "shard_metrics before finalization");
  return shard_metrics_[static_cast<std::size_t>(shard)];
}

void Cluster::AddObserverToAllShards(SystemObserver* observer) {
  for (const std::unique_ptr<System>& system : systems_) {
    system->AddObserver(observer);
  }
}

void Cluster::FinalizeAll(sim::Time end) {
  finalized_ = true;
  if (update_stream_ != nullptr) update_stream_->Stop();
  if (txn_source_ != nullptr) txn_source_->Stop();
  shard_metrics_.clear();
  shard_metrics_.reserve(systems_.size());
  for (const std::unique_ptr<System>& system : systems_) {
    system->Finalize(end);
    shard_metrics_.push_back(system->metrics());
  }
  Aggregate();
  if (interconnect_ != nullptr) {
    // Cluster-level robustness accounting: the interconnect is shared,
    // so these live only on the aggregate (never on a shard).
    aggregate_.link_messages_lost = interconnect_->messages_lost();
    aggregate_.partition_windows = interconnect_->PartitionWindows(end);
    aggregate_.partition_seconds = interconnect_->PartitionSeconds(end);
    aggregate_.time_to_reconnect = interconnect_->time_to_reconnect();
  }
}

void Cluster::Aggregate() {
  if (shard_metrics_.size() == 1) {
    // The uniprocessor model: the aggregate IS the shard's metrics.
    aggregate_ = shard_metrics_[0];
    return;
  }
  RunMetrics total;
  std::uint64_t commits = 0;
  for (std::size_t s = 0; s < shard_metrics_.size(); ++s) {
    const RunMetrics& m = shard_metrics_[s];
    total.observed_seconds = std::max(total.observed_seconds,
                                      m.observed_seconds);
    total.txns_arrived += m.txns_arrived;
    total.txns_committed += m.txns_committed;
    total.txns_committed_fresh += m.txns_committed_fresh;
    total.txns_missed_deadline += m.txns_missed_deadline;
    total.txns_infeasible += m.txns_infeasible;
    total.txns_stale_aborted += m.txns_stale_aborted;
    total.txns_overload_dropped += m.txns_overload_dropped;
    total.txns_inflight_at_end += m.txns_inflight_at_end;
    total.txns_committed_stale += m.txns_committed_stale;
    total.value_committed += m.value_committed;
    for (int c = 0; c < 2; ++c) {
      total.txns_arrived_by_class[c] += m.txns_arrived_by_class[c];
      total.txns_committed_by_class[c] += m.txns_committed_by_class[c];
      total.value_committed_by_class[c] += m.value_committed_by_class[c];
      total.updates_shed_by_class[c] += m.updates_shed_by_class[c];
    }
    total.updates_arrived += m.updates_arrived;
    total.updates_dropped_os_full += m.updates_dropped_os_full;
    total.updates_dropped_uq_overflow += m.updates_dropped_uq_overflow;
    total.updates_dropped_expired += m.updates_dropped_expired;
    total.updates_installed += m.updates_installed;
    total.updates_unworthy += m.updates_unworthy;
    total.updates_dropped_superseded += m.updates_dropped_superseded;
    total.updates_applied_on_demand += m.updates_applied_on_demand;
    total.triggers_fired += m.triggers_fired;
    total.io_stalls += m.io_stalls;
    total.cpu_txn_seconds += m.cpu_txn_seconds;
    total.cpu_update_seconds += m.cpu_update_seconds;
    // Cluster stale fractions weight each shard by its owned slice of
    // the class, so the aggregate matches a global object census.
    total.f_old_low +=
        m.f_old_low *
        placement_.OwnedCount(base::ShardId(static_cast<int>(s)),
                              db::ObjectClass::kLowImportance) /
        config_.base.n_low;
    total.f_old_high +=
        m.f_old_high *
        placement_.OwnedCount(base::ShardId(static_cast<int>(s)),
                              db::ObjectClass::kHighImportance) /
        config_.base.n_high;
    // Commit-weighted mean; percentiles are the worst shard's (an
    // upper bound — exact values would need the merged samples).
    total.response_mean +=
        m.response_mean * static_cast<double>(m.txns_committed);
    commits += m.txns_committed;
    if (m.txns_committed > 0) {
      total.response_p50 = std::max(total.response_p50, m.response_p50);
      total.response_p95 = std::max(total.response_p95, m.response_p95);
      total.response_p99 = std::max(total.response_p99, m.response_p99);
    }
    total.uq_length_avg += m.uq_length_avg;
    total.uq_length_max = std::max(total.uq_length_max, m.uq_length_max);
    total.os_length_avg += m.os_length_avg;
    total.fault_windows += m.fault_windows;
    total.updates_lost_fault += m.updates_lost_fault;
    total.updates_duplicated_fault += m.updates_duplicated_fault;
    total.updates_reordered_fault += m.updates_reordered_fault;
    total.updates_outage_deferred += m.updates_outage_deferred;
    total.governor_engagements += m.governor_engagements;
    total.governor_engaged_seconds += m.governor_engaged_seconds;
    total.outage_recovery_seconds = std::max(total.outage_recovery_seconds,
                                             m.outage_recovery_seconds);
    total.max_stale_excursion =
        std::max(total.max_stale_excursion, m.max_stale_excursion);
    total.txns_missed_in_fault += m.txns_missed_in_fault;
    total.txns_cross_shard += m.txns_cross_shard;
    total.remote_reads_issued += m.remote_reads_issued;
    total.remote_reads_served += m.remote_reads_served;
    total.remote_replies_orphaned += m.remote_replies_orphaned;
    total.remote_heals += m.remote_heals;
    total.remote_stale_replies += m.remote_stale_replies;
    total.remote_wait_seconds += m.remote_wait_seconds;
    total.cpu_remote_seconds += m.cpu_remote_seconds;
    total.remote_retries += m.remote_retries;
    total.remote_timeouts += m.remote_timeouts;
    total.remote_degraded_reads += m.remote_degraded_reads;
    total.txns_remote_unavailable += m.txns_remote_unavailable;
  }
  total.response_mean =
      commits > 0 ? total.response_mean / static_cast<double>(commits) : 0;
  const double n_shards = static_cast<double>(shard_metrics_.size());
  total.uq_length_avg /= n_shards;
  total.os_length_avg /= n_shards;

  // True cluster percentiles: bucket-merge the per-shard response
  // histograms (same layout on every shard — one shared base config).
  // The worst-shard response_p50/p95/p99 above remain as the upper
  // bound; these are the honest cluster-level order statistics. Left
  // at the -1 sentinel if a layout mismatch ever makes a merge fail.
  if (!systems_.empty()) {
    sim::Histogram merged = systems_[0]->response_times();
    bool merge_ok = true;
    for (std::size_t s = 1; s < systems_.size(); ++s) {
      if (!merged.Merge(systems_[s]->response_times())) {
        merge_ok = false;
        break;
      }
    }
    if (merge_ok && merged.count() > 0) {
      total.response_p50_cluster = merged.Quantile(0.50);
      total.response_p95_cluster = merged.Quantile(0.95);
      total.response_p99_cluster = merged.Quantile(0.99);
    }
  }
  aggregate_ = total;
}

}  // namespace strip::core
