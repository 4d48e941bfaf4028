#include "core/system.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/check.h"
#include "sim/random.h"

namespace strip::core {

namespace {

// Process ids for context-switch accounting.
constexpr std::uint64_t kNoProcess = 0;
constexpr std::uint64_t kUpdaterProcess = 1;

std::uint64_t TxnProcessId(const txn::Transaction& t) {
  return t.id().value() + 1;
}

SystemObserver::DispatchKind StepDispatchKind(
    txn::Transaction::NextStep::Kind kind) {
  switch (kind) {
    case txn::Transaction::NextStep::Kind::kCompute:
      return SystemObserver::DispatchKind::kTxnCompute;
    case txn::Transaction::NextStep::Kind::kViewRead:
      return SystemObserver::DispatchKind::kTxnViewRead;
    case txn::Transaction::NextStep::Kind::kOdScan:
      return SystemObserver::DispatchKind::kTxnOdScan;
    case txn::Transaction::NextStep::Kind::kOdApply:
      return SystemObserver::DispatchKind::kTxnOdApply;
    case txn::Transaction::NextStep::Kind::kDone:
      break;
  }
  STRIP_CHECK_MSG(false, "no dispatch kind for a finished step");
  return SystemObserver::DispatchKind::kTxnCompute;
}

}  // namespace

System::System(sim::Simulator* simulator, const Config& config,
               base::RngSeed seed)
    : simulator_(simulator),
      config_(config),
      policy_(MakePolicy(config)),
      system_random_(base::RngSeed(seed.value() ^ 0xa5a5a5a5a5a5a5a5ull)),
      database_(config.n_low, config.n_high, config.n_attributes),
      tracker_(simulator, config.staleness, config.alpha, config.n_low,
               config.n_high),
      update_queue_(static_cast<std::size_t>(config.uq_max)),
      os_queue_(static_cast<std::size_t>(config.os_max)),
      // Response times are bounded by slack + execution; the paper
      // baseline tops out well under 2 s, and overflow is clamped.
      response_times_(0.0, 2.0 * (config.s_max + 1.0), 400) {
  STRIP_CHECK(simulator != nullptr);
  const std::optional<std::string> error = config.Validate();
  STRIP_CHECK_MSG(!error.has_value(),
                  error.has_value() ? error->c_str() : "");

  if (config_.history_depth > 0) {
    history_ = std::make_unique<db::HistoryStore>(
        config_.n_low, config_.n_high, config_.history_depth);
  }

  if (!config_.faults.empty()) {
    std::string fault_error;
    std::optional<fault::FaultSchedule> schedule =
        fault::FaultSchedule::Parse(config_.faults, &fault_error);
    STRIP_CHECK_MSG(schedule.has_value(), fault_error.c_str());
    fault_schedule_ =
        std::make_unique<fault::FaultSchedule>(*std::move(schedule));
  }

  sim::RandomStream master(seed);
  if (!config_.external_workload) {
    const base::RngSeed update_seed = master.Fork();
    const base::RngSeed txn_seed = master.Fork();
    // With a fault schedule, the stream feeds the injector and the
    // injector feeds the system; without one, the stream feeds the
    // system directly (identical draws either way — the fault seed is
    // forked only after the stream seeds, so fault-free runs keep the
    // historical random sequence).
    update_stream_ = std::make_unique<workload::UpdateStream>(
        simulator_, config_.UpdateStreamParams(), update_seed,
        [this](const db::Update& u) {
          if (fault_injector_ != nullptr) {
            fault_injector_->Offer(u);
          } else {
            OnUpdateArrival(u);
          }
        });
    txn_source_ = std::make_unique<workload::TxnSource>(
        simulator_, config_.TxnSourceParams(), txn_seed,
        [this](const txn::Transaction::Params& p) { OnTxnArrival(p); });
  }
  if (fault_schedule_ != nullptr) {
    fault::FaultInjector::Hooks hooks;
    hooks.deliver = [this](const db::Update& u) { OnUpdateArrival(u); };
    hooks.set_rate_factor = [this](double f) {
      if (update_stream_ != nullptr) update_stream_->SetRateFactor(f);
    };
    hooks.set_cpu_factor = [this](double f) { SetCpuFactor(f); };
    hooks.on_window = [this](const fault::FaultWindow& w, bool begin) {
      OnFaultWindowBoundary(w, begin);
    };
    fault_injector_ = std::make_unique<fault::FaultInjector>(
        simulator_, *fault_schedule_, master.Fork(), config_.lambda_u,
        std::move(hooks));
  }

  uq_length_.StartAt(simulator_->now(), 0.0);
  os_length_.StartAt(simulator_->now(), 0.0);
  observation_start_ = simulator_->now();

  if (config_.warmup_seconds > 0) {
    simulator_->ScheduleAfter(config_.warmup_seconds,
                              [this] { ResetObservation(); });
  }
}

RunMetrics System::Run() {
  STRIP_CHECK_MSG(!finalized_, "System::Run called twice");
  simulator_->RunUntil(config_.sim_seconds);
  Finalize(config_.sim_seconds);
  return metrics_;
}

bool System::RunSlice(sim::Duration max_slice) {
  STRIP_CHECK_MSG(!finalized_, "System::RunSlice after finalization");
  STRIP_CHECK_MSG(max_slice > 0, "slice must be positive");
  const sim::Time target =
      std::min(simulator_->now() + max_slice, config_.sim_seconds);
  // Repeated RunUntil calls dispatch each event exactly once, so a
  // sliced run replays the identical event sequence as one Run().
  simulator_->RunUntil(target);
  if (target >= config_.sim_seconds) {
    Finalize(config_.sim_seconds);
    return true;
  }
  return false;
}

RunMetrics System::HaltEarly() {
  STRIP_CHECK_MSG(!finalized_, "System::HaltEarly after finalization");
  Finalize(simulator_->now());
  return metrics_;
}

// --- accounting helpers -----------------------------------------------------

void System::ChargeSegmentCpu() {
  const sim::Time start = std::max(segment_start_, observation_start_);
  const sim::Duration elapsed = simulator_->now() - start;
  if (elapsed <= 0) return;
  if (cpu_owner_ == CpuOwner::kRemote) {
    metrics_.cpu_remote_seconds += elapsed;
  } else if (segment_is_update_work_) {
    metrics_.cpu_update_seconds += elapsed;
  } else {
    metrics_.cpu_txn_seconds += elapsed;
  }
}

double System::ScanCostInstructions() const {
  if (config_.indexed_update_queue) return config_.x_scan;
  return config_.x_scan * static_cast<double>(update_queue_.size());
}

double System::QueueOpCostInstructions(std::size_t queue_size) const {
  const double n = static_cast<double>(std::max<std::size_t>(queue_size, 1));
  return config_.x_queue * std::log(n);
}

double System::MaybeIoStallInstructions() {
  if (config_.buffer_hit_ratio >= 1.0 || config_.io_seconds <= 0) return 0;
  if (system_random_.WithProbability(config_.buffer_hit_ratio)) return 0;
  ++metrics_.io_stalls;
  return config_.io_seconds * config_.ips;
}

double System::MaybeTriggerInstructions() {
  if (config_.trigger_probability <= 0 || config_.x_trigger <= 0) return 0;
  if (!system_random_.WithProbability(config_.trigger_probability)) return 0;
  ++metrics_.triggers_fired;
  return config_.x_trigger;
}

void System::NoteUqLength() {
  const std::uint64_t size = update_queue_.size();
  uq_length_.Set(simulator_->now(), static_cast<double>(size));
  uq_length_max_ = std::max(uq_length_max_, size);
}

void System::NoteOsLength() {
  os_length_.Set(simulator_->now(), static_cast<double>(os_queue_.size()));
}

void System::ResetObservation() {
  metrics_ = RunMetrics{};
  // Work already in flight at the warm-up boundary will reach its
  // outcome inside the observed window; count it as arrived so the
  // conservation identities hold over the window.
  metrics_.txns_arrived = live_txns_.size();
  for (const auto& [id, live] : live_txns_) {
    ++metrics_.txns_arrived_by_class[static_cast<int>(
        live.transaction->cls())];
  }
  metrics_.updates_arrived = os_queue_.size() + update_queue_.size();
  if (cpu_owner_ == CpuOwner::kUpdater) {
    // One more is mid-install on the CPU.
    ++metrics_.updates_arrived;
  }
  response_times_ =
      sim::Histogram(0.0, 2.0 * (config_.s_max + 1.0), 400);
  observation_start_ = simulator_->now();
  tracker_.ResetObservation();
  uq_length_.StartAt(simulator_->now(),
                     static_cast<double>(update_queue_.size()));
  os_length_.StartAt(simulator_->now(),
                     static_cast<double>(os_queue_.size()));
  uq_length_max_ = update_queue_.size();
  bus_.Notify(&SystemObserver::OnPhase, simulator_->now(),
              SystemObserver::Phase::kWarmupEnd);
}

void System::Finalize(sim::Time end) {
  STRIP_CHECK(!finalized_);
  finalized_ = true;
  // A segment still on the CPU at the end of the run is charged up to
  // the cut-off so utilization fractions are exact. Advancing
  // segment_start_ keeps the Cpu*SecondsNow probes from counting the
  // settled remainder twice.
  if (cpu_owner_ != CpuOwner::kIdle) {
    ChargeSegmentCpu();
    segment_start_ = end;
  }
  if (update_stream_ != nullptr) update_stream_->Stop();
  if (txn_source_ != nullptr) txn_source_->Stop();
  // A transaction still parked on a remote read at the cut-off: its
  // wait so far counts toward the window.
  if (remote_waiting_ != nullptr) ReleaseRemoteHold(end);
  metrics_.observed_seconds = end - observation_start_;
  metrics_.f_old_low =
      tracker_.FractionStaleAverage(db::ObjectClass::kLowImportance, end);
  metrics_.f_old_high =
      tracker_.FractionStaleAverage(db::ObjectClass::kHighImportance, end);
  metrics_.uq_length_avg = uq_length_.Average(end);
  metrics_.uq_length_max = uq_length_max_;
  metrics_.os_length_avg = os_length_.Average(end);
  metrics_.txns_inflight_at_end = live_txns_.size();
  metrics_.response_mean = response_times_.mean();
  metrics_.response_p50 = response_times_.Quantile(0.50);
  metrics_.response_p95 = response_times_.Quantile(0.95);
  metrics_.response_p99 = response_times_.Quantile(0.99);
  if (fault_injector_ != nullptr) {
    // Injector activity is whole-run (the injector sits upstream of
    // the system, so its counters are not reset at warm-up).
    const fault::FaultCounts& counts = fault_injector_->counts();
    metrics_.updates_lost_fault = counts.lost;
    metrics_.updates_duplicated_fault = counts.duplicated;
    metrics_.updates_reordered_fault = counts.reordered;
    metrics_.updates_outage_deferred = counts.outage_deferred;
  }
  if (governor_engaged_) {
    metrics_.governor_engaged_seconds +=
        end - std::max(governor_engage_time_, observation_start_);
  }
  bus_.Notify(&SystemObserver::OnPhase, end, SystemObserver::Phase::kRunEnd);
}

sim::Duration System::CpuTxnSecondsNow() const {
  sim::Duration seconds = metrics_.cpu_txn_seconds;
  if (cpu_owner_ == CpuOwner::kTxn && !segment_is_update_work_) {
    seconds += simulator_->now() - std::max(segment_start_,
                                            observation_start_);
  }
  return seconds;
}

sim::Duration System::CpuUpdateSecondsNow() const {
  sim::Duration seconds = metrics_.cpu_update_seconds;
  // OD scan/apply segments run inside a transaction's slice but are
  // charged as update work, matching ChargeSegmentCpu.
  if (cpu_owner_ != CpuOwner::kIdle && segment_is_update_work_) {
    seconds += simulator_->now() - std::max(segment_start_,
                                            observation_start_);
  }
  return seconds;
}

// --- arrivals ------------------------------------------------------------

void System::InjectUpdate(const db::Update& update) {
  if (fault_injector_ != nullptr) {
    fault_injector_->Offer(update);
  } else {
    OnUpdateArrival(update);
  }
}

void System::OnUpdateArrival(const db::Update& update) {
  // The updater reads the object's slot when it dispatches this update
  // (the worthiness check) and its slot and tracker state when the
  // install completes: start those loads now, so that they overlap the
  // work in between instead of stalling it.
  database_.Prefetch(update.object);
  tracker_.Prefetch(update.object);
  ++metrics_.updates_arrived;
  bus_.Notify(&SystemObserver::OnUpdateArrival, simulator_->now(), update);
  if (!os_queue_.Push(update)) {
    ++metrics_.updates_dropped_os_full;
    bus_.Notify(&SystemObserver::OnUpdateDropped, simulator_->now(), update,
                SystemObserver::DropReason::kOsQueueFull);
    return;
  }
  if (update.object.cls == db::ObjectClass::kHighImportance) {
    ++os_pending_high_;
  }
  NoteOsLength();

  if (policy_->InstallOnArrival(update)) {
    if (cpu_owner_ == CpuOwner::kTxn) {
      // Receive immediately: preempt the running transaction. The
      // 2·x_switch receive penalty is charged to the update work about
      // to start (Section 3.3, step 2).
      if (!bus_.empty()) {
        bus_.Notify(&SystemObserver::OnPolicyDecision, simulator_->now(),
                    config_.policy,
                    SystemObserver::SchedulerChoice::kInstallOnArrival,
                    policy_->ArrivalReason(update));
      }
      PreemptRunningTxn(SystemObserver::PreemptReason::kUpdateArrival);
      StartUpdaterJob(/*preempting=*/true);
    } else if (cpu_owner_ == CpuOwner::kIdle) {
      ScheduleNext();
    }
    // If the updater is already on the CPU the new arrival waits in
    // the OS queue; the updater keeps priority and drains it next.
  } else if (cpu_owner_ == CpuOwner::kIdle) {
    ScheduleNext();
  }
}

void System::OnTxnArrival(const txn::Transaction::Params& params) {
  ++metrics_.txns_arrived;
  ++metrics_.txns_arrived_by_class[static_cast<int>(params.cls)];
  if (config_.admission_limit > 0 &&
      static_cast<int>(ready_.size()) >= config_.admission_limit) {
    // Admission control: the backlog is full; reject at the door
    // rather than competing for the CPU.
    ++metrics_.txns_overload_dropped;
    if (!bus_.empty()) {
      txn::Transaction rejected(params);
      rejected.set_outcome(txn::TxnOutcome::kOverloadDrop);
      rejected.set_completion_time(simulator_->now());
      bus_.Notify(&SystemObserver::OnTransactionTerminal, simulator_->now(),
                  rejected);
    }
    return;
  }
  auto transaction = std::make_unique<txn::Transaction>(params);
  txn::Transaction* t = transaction.get();
  const base::TxnId id = t->id();
  LiveTxn entry;
  entry.transaction = std::move(transaction);
  entry.deadline_event = simulator_->ScheduleAt(
      t->deadline(), [this, id] { OnDeadline(id); });
  live_txns_.emplace(id, std::move(entry));
  ready_.Add(t);
  bus_.Notify(&SystemObserver::OnTxnAdmitted, simulator_->now(), *t);
  if (sharded_) {
    for (const base::ShardId owner : params.read_owners) {
      if (owner != shard_link_.shard_id) {
        ++metrics_.txns_cross_shard;
        break;
      }
    }
  }

  if (cpu_owner_ == CpuOwner::kIdle) {
    ScheduleNext();
  } else if (cpu_owner_ == CpuOwner::kTxn && config_.txn_preemption &&
             txn::HigherPriority(*t, *running_, config_.txn_sched,
                                 EffectiveIps())) {
    PreemptRunningTxn(SystemObserver::PreemptReason::kHigherPriorityTxn);
    ScheduleNext();
  }
}

void System::OnDeadline(base::TxnId txn_id) {
  auto it = live_txns_.find(txn_id);
  if (it == live_txns_.end()) return;  // already terminal
  txn::Transaction* t = it->second.transaction.get();
  if (t == running_) {
    // Firm deadline: the transaction is cut down mid-flight, which
    // closes its open dispatch span.
    CutSegmentShort();
    bus_.Notify(&SystemObserver::OnPreempt, simulator_->now(), *t,
                SystemObserver::PreemptReason::kDeadline);
    ExitRunningTxn(txn::TxnOutcome::kMissedDeadline);
    return;
  }
  if (t == remote_waiting_) {
    // Parked on a remote read: the firm deadline releases the hold (the
    // peer's reply, if it ever arrives, resolves as orphaned).
    ReleaseRemoteHold(simulator_->now());
  } else if (t == remote_resume_) {
    // Reply arrived but the resume never got the CPU back in time.
    remote_resume_ = nullptr;
  } else {
    const bool was_ready = ready_.Remove(t);
    STRIP_CHECK_MSG(was_ready, "pending txn neither ready nor running");
    Terminate(t, txn::TxnOutcome::kMissedDeadline);
    return;
  }
  Terminate(t, txn::TxnOutcome::kMissedDeadline);
  if (cpu_owner_ == CpuOwner::kIdle) ScheduleNext();
}

// --- the scheduler ----------------------------------------------------------

UpdaterContext System::MakeUpdaterContext() const {
  UpdaterContext context;
  context.now = simulator_->now();
  context.os_pending = static_cast<int>(os_queue_.size());
  context.os_pending_high = os_pending_high_;
  context.uq_pending = static_cast<int>(update_queue_.size());
  context.updater_cpu_seconds = metrics_.cpu_update_seconds;
  context.observation_start = observation_start_;
  return context;
}

void System::ScheduleNext() {
  STRIP_CHECK(cpu_owner_ == CpuOwner::kIdle);
  PurgeExpired();
  if (fault_schedule_ != nullptr &&
      (fault_windows_active_ > 0 || outage_recovering_)) {
    SampleStaleExcursion();
  }
  if (config_.overload_governor) MaybeToggleGovernor();
  if (config_.feasible_deadline) {
    for (txn::Transaction* t :
         ready_.ExtractInfeasible(simulator_->now(), EffectiveIps())) {
      Terminate(t, txn::TxnOutcome::kInfeasible);
    }
  }
  if (sharded_) {
    // Cross-shard service outranks all local work: a shard whose own
    // transaction is parked on a peer still serves its peers' reads, so
    // circular rendezvous always drain (no cross-shard deadlock).
    if (!remote_queue_.empty()) {
      bus_.Notify(&SystemObserver::OnPolicyDecision, simulator_->now(),
                  config_.policy, SystemObserver::SchedulerChoice::kServeRemote,
                  "remote-pending");
      StartRemoteService();
      return;
    }
    if (remote_resume_ != nullptr) {
      // The reply for the parked transaction arrived while the CPU was
      // busy; it still owns its claim — resume it first.
      txn::Transaction* t = remote_resume_;
      remote_resume_ = nullptr;
      StartTxnSegment(t);
      return;
    }
    // Two-phase hold: a transaction parked on a remote read keeps its
    // claim on this CPU, so no other local work may take it.
    if (remote_waiting_ != nullptr) return;
  }
  // Receiving takes precedence whenever the controller has the CPU:
  // arrivals are moved out of the small kernel buffer — transferred to
  // the update queue, or installed directly under UF (all updates) and
  // SU (high-importance updates). Section 3.3: transactions are not
  // *interrupted* to receive, but once the controller gets control the
  // accumulated arrivals are received at once.
  if (!os_queue_.empty()) {
    bus_.Notify(&SystemObserver::OnPolicyDecision, simulator_->now(),
                config_.policy, SystemObserver::SchedulerChoice::kReceive,
                "os-pending");
    StartUpdaterJob(/*preempting=*/false);
    return;
  }
  // Installing from the update queue is what the policies disagree on:
  // TF/OD/SU only when no transaction is ready, FCF while below its
  // CPU share.
  const bool install_work =
      policy_->UsesUpdateQueue() && !update_queue_.empty();
  if (install_work &&
      (ready_.empty() || policy_->UpdaterHasPriority(MakeUpdaterContext()))) {
    if (!bus_.empty()) {
      bus_.Notify(&SystemObserver::OnPolicyDecision, simulator_->now(),
                  config_.policy, SystemObserver::SchedulerChoice::kInstall,
                  ready_.empty()
                      ? "system-idle"
                      : policy_->PriorityReason(MakeUpdaterContext()));
    }
    StartUpdaterJob(/*preempting=*/false);
    return;
  }
  if (!ready_.empty()) {
    if (!bus_.empty()) {
      bus_.Notify(&SystemObserver::OnPolicyDecision, simulator_->now(),
                  config_.policy,
                  SystemObserver::SchedulerChoice::kRunTransaction,
                  install_work ? policy_->PriorityReason(MakeUpdaterContext())
                               : "txn-ready");
    }
    txn::Transaction* t = ready_.PopBest(EffectiveIps(), config_.txn_sched);
    STRIP_CHECK(t != nullptr);
    StartTxnSegment(t);
    return;
  }
  // Otherwise: idle until the next arrival.
  bus_.Notify(&SystemObserver::OnPolicyDecision, simulator_->now(),
              config_.policy, SystemObserver::SchedulerChoice::kIdle,
              "no-work");
}

// --- update process -----------------------------------------------------------

void System::PurgeExpired() {
  // Generation-based expiry only: under UU nothing expires, and under
  // arrival-based MA an old-generation update may still have arrived
  // recently, so the generation-ordered queue cannot be purged from
  // the front.
  if (config_.staleness != db::StalenessCriterion::kMaxAge &&
      config_.staleness != db::StalenessCriterion::kCombined) {
    return;
  }
  const sim::Time cutoff = simulator_->now() - config_.alpha;
  if (cutoff <= 0) return;
  const std::vector<db::Update> purged =
      update_queue_.PurgeGeneratedBefore(cutoff);
  if (purged.empty()) return;
  // Identifying expired updates is constant time (the queue is in
  // generation order), but each removal is still a queue operation;
  // its cost accrues as a debt charged to the update process's next
  // CPU slice.
  std::size_t size_before = update_queue_.size() + purged.size();
  for (const db::Update& u : purged) {
    tracker_.OnRemovedFromQueue(u);
    ++metrics_.updates_dropped_expired;
    purge_debt_instructions_ += QueueOpCostInstructions(size_before--);
    bus_.Notify(&SystemObserver::OnUpdateDropped, simulator_->now(), u,
                SystemObserver::DropReason::kExpired);
  }
  NoteUqLength();
}

System::UpdaterJob System::SelectUpdaterJob() {
  UpdaterJob job;
  if (!os_queue_.empty()) {
    const std::optional<db::Update> u = os_queue_.Pop();
    STRIP_CHECK(u.has_value());
    if (u->object.cls == db::ObjectClass::kHighImportance) {
      --os_pending_high_;
    }
    NoteOsLength();
    job.update = *u;
    if (!policy_->UsesUpdateQueue() || policy_->InstallOnArrival(*u)) {
      // UF installs everything straight from the OS queue; SU installs
      // high-importance updates directly.
      job.kind = SystemObserver::DispatchKind::kUpdaterInstallOs;
      const bool worthy = database_.IsWorthy(*u);
      job.cost_instructions =
          config_.x_lookup + MaybeIoStallInstructions() +
          (worthy ? config_.x_update + MaybeTriggerInstructions() : 0.0);
    } else {
      job.kind = SystemObserver::DispatchKind::kUpdaterTransfer;
      job.cost_instructions =
          QueueOpCostInstructions(update_queue_.size() + 1);
    }
    return job;
  }
  STRIP_CHECK_MSG(policy_->UsesUpdateQueue() && !update_queue_.empty(),
                  "updater started with no work");
  const std::size_t size_before = update_queue_.size();
  // While the overload governor is engaged the updater triages:
  // newest-first (LIFO freshens objects fastest per install) and
  // high-importance before low, regardless of the configured
  // discipline.
  const bool fifo =
      config_.queue_discipline == QueueDiscipline::kFifo &&
      !governor_engaged_;
  std::optional<db::Update> u;
  if (config_.split_importance_queues || governor_engaged_) {
    // Drain queued high-importance updates before low-importance
    // ones (split-queue extension).
    u = fifo ? update_queue_.PopOldestOfClass(
                   db::ObjectClass::kHighImportance)
             : update_queue_.PopNewestOfClass(
                   db::ObjectClass::kHighImportance);
    if (!u.has_value()) {
      u = fifo ? update_queue_.PopOldestOfClass(
                     db::ObjectClass::kLowImportance)
               : update_queue_.PopNewestOfClass(
                     db::ObjectClass::kLowImportance);
    }
  } else {
    u = fifo ? update_queue_.PopOldest() : update_queue_.PopNewest();
  }
  STRIP_CHECK(u.has_value());
  tracker_.OnRemovedFromQueue(*u);
  NoteUqLength();
  job.kind = SystemObserver::DispatchKind::kUpdaterInstallUq;
  job.update = *u;
  const bool worthy = database_.IsWorthy(*u);
  job.cost_instructions =
      QueueOpCostInstructions(size_before) + config_.x_lookup +
      MaybeIoStallInstructions() +
      (worthy ? config_.x_update + MaybeTriggerInstructions() : 0.0);
  return job;
}

void System::StartUpdaterJob(bool preempting) {
  STRIP_CHECK(cpu_owner_ == CpuOwner::kIdle);
  PurgeExpired();
  updater_job_ = SelectUpdaterJob();
  // The slice also pays the purge debt accrued since the last one.
  const double switch_charge = SwitchCharge(kUpdaterProcess);
  const double extra = std::exchange(purge_debt_instructions_, 0.0) +
                       (preempting ? 2 * config_.x_switch : switch_charge);
  SystemObserver::DispatchInfo dispatch;
  dispatch.kind = updater_job_.kind;
  dispatch.update = &updater_job_.update;
  BeginSegment(CpuOwner::kUpdater, dispatch, updater_job_.cost_instructions,
               extra, /*update_work=*/true);
}

bool System::DedupAgainstQueue(const db::Update& update) {
  // The hash table of Section 4.2 keeps at most one update per object:
  // discard everything the incoming update supersedes, or the incoming
  // update itself if something newer is already queued. Hash-assisted,
  // so the removals are free in the cost model.
  while (true) {
    const std::optional<db::Update> existing =
        update_queue_.PeekNewestFor(update.object);
    if (!existing.has_value()) return true;
    if (existing->generation_time >= update.generation_time) {
      ++metrics_.updates_dropped_superseded;
      bus_.Notify(&SystemObserver::OnUpdateDropped, simulator_->now(),
                  update, SystemObserver::DropReason::kSuperseded);
      return false;
    }
    const bool removed = update_queue_.Remove(*existing);
    STRIP_CHECK(removed);
    tracker_.OnRemovedFromQueue(*existing);
    ++metrics_.updates_dropped_superseded;
    bus_.Notify(&SystemObserver::OnUpdateDropped, simulator_->now(),
                *existing, SystemObserver::DropReason::kSuperseded);
  }
}

bool System::ShedForIncoming(const db::Update& incoming) {
  // Victim order: stalest (oldest-generation) low-importance update
  // first; a high-importance arrival may displace queued high work as
  // a last resort, but a low-importance arrival never does.
  std::optional<db::Update> victim =
      update_queue_.PopOldestOfClass(db::ObjectClass::kLowImportance);
  if (!victim.has_value() &&
      incoming.object.cls == db::ObjectClass::kHighImportance) {
    victim = update_queue_.PopOldestOfClass(db::ObjectClass::kHighImportance);
  }
  const db::Update& shed = victim.has_value() ? *victim : incoming;
  if (victim.has_value()) tracker_.OnRemovedFromQueue(*victim);
  ++metrics_.updates_shed_by_class[static_cast<int>(shed.object.cls)];
  bus_.Notify(&SystemObserver::OnUpdateDropped, simulator_->now(), shed,
              SystemObserver::DropReason::kOverloadShed);
  return victim.has_value();
}

void System::InstallNow(const db::Update& update,
                        const txn::Transaction* on_demand_by) {
  if (database_.Apply(update)) {
    // The tracker follows the *effective* generation — identical to
    // the update's own timestamp for complete updates, the oldest
    // attribute's for partial ones. The arrival time feeds the
    // arrival-based MA variant.
    tracker_.OnApply(update.object,
                     database_.generation_time(update.object),
                     update.arrival_time);
    if (history_ != nullptr) {
      history_->Record(update.object,
                       database_.generation_time(update.object),
                       database_.value(update.object));
    }
    ++metrics_.updates_installed;
    bus_.Notify(&SystemObserver::OnUpdateInstalled, simulator_->now(), update,
                on_demand_by);
    if (fault_windows_active_ > 0 || outage_recovering_) {
      // Installs are what heal freshness — check the recovery clock at
      // each one so time-to-fresh is measured at the healing install,
      // not the next scheduler pass.
      SampleStaleExcursion();
    }
  } else {
    ++metrics_.updates_unworthy;
    bus_.Notify(&SystemObserver::OnUpdateDropped, simulator_->now(), update,
                SystemObserver::DropReason::kUnworthy);
  }
}

void System::InstallFromQueue(const db::Update& update,
                              const txn::Transaction* on_demand_by) {
  const bool removed = update_queue_.Remove(update);
  STRIP_CHECK(removed);
  tracker_.OnRemovedFromQueue(update);
  NoteUqLength();
  InstallNow(update, on_demand_by);
}

void System::OnUpdaterJobComplete() {
  cpu_owner_ = CpuOwner::kIdle;
  const db::Update& update = updater_job_.update;
  switch (updater_job_.kind) {
    case SystemObserver::DispatchKind::kUpdaterTransfer: {
      if (config_.dedup_update_queue && !DedupAgainstQueue(update)) {
        // A newer update for the same object is already queued: this
        // one is worthless (complete updates to snapshot views) and is
        // dropped at receive.
        break;
      }
      if (config_.shed_by_importance &&
          update_queue_.size() >= update_queue_.max_size() &&
          !ShedForIncoming(update)) {
        // The queue is full of higher-importance work than this
        // low-importance arrival: shed the arrival itself.
        break;
      }
      const std::vector<db::Update> evicted = update_queue_.Push(update);
      tracker_.OnEnqueued(update);
      bus_.Notify(&SystemObserver::OnUpdateEnqueued, simulator_->now(),
                  update);
      for (const db::Update& e : evicted) {
        tracker_.OnRemovedFromQueue(e);
        ++metrics_.updates_dropped_uq_overflow;
        bus_.Notify(&SystemObserver::OnUpdateDropped, simulator_->now(), e,
                    SystemObserver::DropReason::kQueueOverflow);
      }
      NoteUqLength();
      break;
    }
    case SystemObserver::DispatchKind::kUpdaterInstallOs:
    case SystemObserver::DispatchKind::kUpdaterInstallUq:
      InstallNow(update);
      break;
    default:
      STRIP_CHECK_MSG(false, "updater job of a transaction kind");
      break;
  }
  ScheduleNext();
}

// --- CPU segments -----------------------------------------------------------

double System::SwitchCharge(std::uint64_t process) {
  const bool switched =
      last_process_ != process && last_process_ != kNoProcess;
  last_process_ = process;
  return switched ? config_.x_switch : 0.0;
}

void System::BeginSegment(CpuOwner owner,
                          const SystemObserver::DispatchInfo& dispatch,
                          double work_instructions, double extra_instructions,
                          bool update_work) {
  cpu_owner_ = owner;
  segment_start_ = simulator_->now();
  segment_extra_instructions_ = extra_instructions;
  segment_is_update_work_ = update_work;
  segment_ips_ = EffectiveIps();
  dispatch_ = dispatch;
  dispatch_.instructions = work_instructions + extra_instructions;
  bus_.Notify(&SystemObserver::OnDispatch, simulator_->now(), dispatch_);
  completion_ = simulator_->ScheduleAfter(
      sim::InstructionsToSeconds(dispatch_.instructions, segment_ips_),
      [this] { EndSegment(); });
}

void System::EndSegment() {
  bus_.Notify(&SystemObserver::OnSegmentComplete, simulator_->now(),
              dispatch_);
  ChargeSegmentCpu();
  switch (cpu_owner_) {
    case CpuOwner::kUpdater:
      OnUpdaterJobComplete();
      return;
    case CpuOwner::kTxn:
      OnTxnSegmentComplete();
      return;
    case CpuOwner::kRemote:
      OnRemoteServiceComplete();
      return;
    case CpuOwner::kIdle:
      break;
  }
  STRIP_CHECK_MSG(false, "segment completed on an idle CPU");
}

void System::CutSegmentShort() {
  ChargeSegmentCpu();
  const double executed = std::max(
      0.0, (simulator_->now() - segment_start_) * segment_ips_ -
               segment_extra_instructions_);
  running_->ChargePartial(
      std::min(executed, running_->next_step().instructions));
  simulator_->Cancel(completion_);
}

// --- transaction processes -------------------------------------------------

void System::StartTxnSegment(txn::Transaction* transaction) {
  STRIP_CHECK(cpu_owner_ == CpuOwner::kIdle);
  STRIP_CHECK(transaction != nullptr);
  cpu_owner_ = CpuOwner::kTxn;
  running_ = transaction;
  ScheduleTxnStep(SwitchCharge(TxnProcessId(*transaction)));
}

void System::ScheduleTxnStep(double extra_instructions) {
  txn::Transaction* t = running_;
  STRIP_CHECK(t != nullptr);
  const txn::Transaction::NextStep step = t->next_step();
  if (step.kind == txn::Transaction::NextStep::Kind::kDone) {
    // Nothing left to run (its last step just completed, or it never
    // had any work): the transaction commits.
    ExitRunningTxn(txn::TxnOutcome::kCommitted);
    return;
  }
  if (step.kind == txn::Transaction::NextStep::Kind::kViewRead) {
    if (sharded_ && step.owner_shard != base::kNoShard &&
        step.owner_shard != shard_link_.shard_id) {
      // The object lives on a peer shard: park the transaction and send
      // the read there (two-phase hold). The lookup cost — including
      // any buffer-miss stall — is charged on the peer, not here.
      EnterRemoteWait(t, step);
      return;
    }
    // Disk-residence extension: the view read may stall on a buffer
    // miss; the stall is wait, not transaction work, so it rides in
    // the extra-instruction slot. (A read resumed after preemption
    // re-probes the buffer — the page may have been evicted since.)
    extra_instructions += MaybeIoStallInstructions();
  }
  SystemObserver::DispatchInfo dispatch;
  dispatch.kind = StepDispatchKind(step.kind);
  dispatch.transaction = t;
  BeginSegment(CpuOwner::kTxn, dispatch, step.instructions, extra_instructions,
               step.kind == txn::Transaction::NextStep::Kind::kOdScan ||
                   step.kind == txn::Transaction::NextStep::Kind::kOdApply);
}

void System::OnTxnSegmentComplete() {
  txn::Transaction* t = running_;
  STRIP_CHECK(t != nullptr);
  const txn::Transaction::NextStep step = t->next_step();
  switch (step.kind) {
    case txn::Transaction::NextStep::Kind::kCompute:
      t->CompleteStep();
      break;
    case txn::Transaction::NextStep::Kind::kViewRead:
      HandleViewRead(t, step.object);
      break;
    case txn::Transaction::NextStep::Kind::kOdScan:
      t->CompleteStep();
      ResolveOdScan(t, step.object);
      break;
    case txn::Transaction::NextStep::Kind::kOdApply:
      t->CompleteStep();
      PerformOdApply(t, step.object);
      break;
    case txn::Transaction::NextStep::Kind::kDone:
      STRIP_CHECK_MSG(false, "segment completed on a finished txn");
      break;
  }
  // A stale-read abort inside a handler frees the transaction (and may
  // already have handed the CPU to someone else), so `t` must not be
  // dereferenced unless it still owns the CPU.
  if (running_ == t) ScheduleTxnStep(0);
}

bool System::FitsBeforeDeadline(double instructions,
                                sim::Time deadline) const {
  return !config_.feasible_deadline ||
         simulator_->now() +
                 sim::InstructionsToSeconds(instructions, EffectiveIps()) <=
             deadline;
}

void System::HandleViewRead(txn::Transaction* transaction,
                            db::ObjectId object) {
  transaction->CompleteStep();
  if (policy_->AppliesOnDemand()) {
    const bool timestamped = db::DetectableByTimestamp(config_.staleness);
    // Under the MA family the timestamp reveals staleness for free and
    // the queue is searched only when the value actually is stale;
    // under UU (and MA+UU) the search *is* the staleness check, so
    // every read needs one. Either way, a search the transaction
    // cannot afford without blowing its firm deadline is pointless —
    // the feasible-deadline principle (Section 3.4) says not to burn
    // CPU on doomed work — so an unaffordable search is skipped and
    // the read proceeds as it would under TF.
    if (timestamped && !tracker_.IsStale(object)) return;
    // Under the MA family staleness is *detected* here, before the
    // queue search that may yet heal the read — the OnStaleRead event
    // fires at detection time, whether or not an on-demand install
    // follows. (Metrics still only count reads that stay stale.)
    if (timestamped) {
      bus_.Notify(&SystemObserver::OnStaleRead, simulator_->now(),
                  *transaction, object);
    }
    const double scan_cost = ScanCostInstructions();
    if (FitsBeforeDeadline(
            scan_cost + transaction->remaining_base_instructions(),
            transaction->deadline())) {
      transaction->PushExtraStep(
          {txn::Transaction::NextStep::Kind::kOdScan, scan_cost, object});
      return;
    }
    if (tracker_.IsStale(object)) {
      // Under the MA family the system knows the data is stale
      // (timestamp); under UU the staleness went undetected — the
      // simulator still records it for the metrics, but the system
      // cannot act on it.
      RecordStaleRead(transaction, object, /*detected=*/timestamped,
                      /*notify=*/!timestamped);
    }
    return;
  }
  if (tracker_.IsStale(object)) {
    RecordStaleRead(transaction, object);
  }
}

bool System::UpdateCouldFreshen(const db::Update& update) const {
  switch (config_.staleness) {
    case db::StalenessCriterion::kMaxAge:
    case db::StalenessCriterion::kCombined:
      return simulator_->now() - update.generation_time < config_.alpha;
    case db::StalenessCriterion::kMaxAgeArrival:
      return simulator_->now() - update.arrival_time < config_.alpha;
    case db::StalenessCriterion::kUnappliedUpdate:
      return true;
  }
  return true;
}

std::optional<db::Update> System::OnDemandCandidate(
    db::ObjectId object) const {
  std::optional<db::Update> candidate = update_queue_.PeekNewestFor(object);
  if (!candidate.has_value() || !database_.IsWorthy(*candidate) ||
      !UpdateCouldFreshen(*candidate)) {
    return std::nullopt;
  }
  return candidate;
}

void System::ResolveOdScan(txn::Transaction* transaction,
                           db::ObjectId object) {
  // Under UU (and MA+UU) the queue search *is* the staleness check:
  // detection happens as the scan completes, so the OnStaleRead event
  // fires here — even when the apply that follows heals the read. The
  // MA-family path already fired it at the timestamp check.
  if (!db::DetectableByTimestamp(config_.staleness) &&
      tracker_.IsStale(object)) {
    bus_.Notify(&SystemObserver::OnStaleRead, simulator_->now(),
                *transaction, object);
  }
  if (OnDemandCandidate(object).has_value()) {
    const double cost =
        config_.x_update + QueueOpCostInstructions(update_queue_.size());
    transaction->PushExtraStep(
        {txn::Transaction::NextStep::Kind::kOdApply, cost, object});
    return;
  }
  if (tracker_.IsStale(object)) {
    RecordStaleRead(transaction, object, /*detected=*/true,
                    /*notify=*/false);
  }
}

void System::PerformOdApply(txn::Transaction* transaction,
                            db::ObjectId object) {
  if (const std::optional<db::Update> candidate = OnDemandCandidate(object)) {
    InstallFromQueue(*candidate, transaction);
    ++metrics_.updates_applied_on_demand;
  }
  if (tracker_.IsStale(object)) {
    RecordStaleRead(transaction, object, /*detected=*/true,
                    /*notify=*/false);
  }
}

bool System::RecordStaleRead(txn::Transaction* transaction,
                             db::ObjectId object, bool detected,
                             bool notify) {
  transaction->MarkStaleRead();
  if (notify) {
    bus_.Notify(&SystemObserver::OnStaleRead, simulator_->now(),
                *transaction, object);
  }
  if (!config_.abort_on_stale || !detected) return false;
  STRIP_CHECK(transaction == running_);
  ExitRunningTxn(txn::TxnOutcome::kStaleAbort);
  return true;
}

void System::PreemptRunningTxn(SystemObserver::PreemptReason reason) {
  STRIP_CHECK(cpu_owner_ == CpuOwner::kTxn);
  STRIP_CHECK(running_ != nullptr);
  bus_.Notify(&SystemObserver::OnPreempt, simulator_->now(), *running_,
              reason);
  CutSegmentShort();
  ready_.Add(TakeRunningTxn());
}

txn::Transaction* System::TakeRunningTxn() {
  cpu_owner_ = CpuOwner::kIdle;
  return std::exchange(running_, nullptr);
}

void System::ExitRunningTxn(txn::TxnOutcome outcome) {
  Terminate(TakeRunningTxn(), outcome);
  ScheduleNext();
}

void System::Terminate(txn::Transaction* transaction,
                       txn::TxnOutcome outcome) {
  transaction->set_outcome(outcome);
  transaction->set_completion_time(simulator_->now());
  bus_.Notify(&SystemObserver::OnTransactionTerminal, simulator_->now(),
              *transaction);
  // A miss while a fault is active, or an outage recovery is still
  // pending, is attributed to the fault.
  const bool in_fault = fault_windows_active_ > 0 || outage_recovering_;
  const int cls = static_cast<int>(transaction->cls());
  switch (outcome) {
    case txn::TxnOutcome::kCommitted:
      ++metrics_.txns_committed;
      ++metrics_.txns_committed_by_class[cls];
      metrics_.value_committed_by_class[cls] += transaction->value();
      response_times_.Add(simulator_->now() - transaction->arrival_time());
      if (transaction->read_stale_data()) {
        ++metrics_.txns_committed_stale;
      } else {
        ++metrics_.txns_committed_fresh;
      }
      metrics_.value_committed += transaction->value();
      break;
    case txn::TxnOutcome::kMissedDeadline:
      ++metrics_.txns_missed_deadline;
      if (in_fault) ++metrics_.txns_missed_in_fault;
      break;
    case txn::TxnOutcome::kInfeasible:
      ++metrics_.txns_infeasible;
      if (in_fault) ++metrics_.txns_missed_in_fault;
      break;
    case txn::TxnOutcome::kStaleAbort:
      ++metrics_.txns_stale_aborted;
      break;
    case txn::TxnOutcome::kRemoteUnavailable:
      ++metrics_.txns_remote_unavailable;
      if (in_fault) ++metrics_.txns_missed_in_fault;
      break;
    default:
      STRIP_CHECK_MSG(false, "Terminate with non-terminal outcome");
  }
  auto it = live_txns_.find(transaction->id());
  STRIP_CHECK(it != live_txns_.end());
  simulator_->Cancel(it->second.deadline_event);
  live_txns_.erase(it);
}

// --- cross-shard rendezvous (sharded model) ----------------------------------

void System::set_shard_link(ShardLink link) {
  STRIP_CHECK(link.shards >= 1);
  STRIP_CHECK(link.shard_id.value() >= 0 &&
              link.shard_id.value() < link.shards);
  sharded_ = link.shards > 1;
  if (sharded_) {
    STRIP_CHECK(link.send_request != nullptr);
    STRIP_CHECK(link.send_reply != nullptr);
    STRIP_CHECK(link.next_request_id != nullptr);
  }
  shard_link_ = std::move(link);
}

void System::EnterRemoteWait(txn::Transaction* transaction,
                             const txn::Transaction::NextStep& step) {
  STRIP_CHECK(cpu_owner_ == CpuOwner::kTxn && transaction == running_);
  STRIP_CHECK_MSG(remote_waiting_ == nullptr,
                  "second remote wait on one shard");
  RemoteRead read;
  read.request_id = shard_link_.next_request_id();
  read.txn_id = transaction->id();
  read.home_shard = shard_link_.shard_id;
  read.peer_shard = step.owner_shard;
  read.object = step.object;
  read.deadline = transaction->deadline();
  // The transaction keeps its claim on this CPU but runs nothing while
  // the request is in flight: the wait is not CPU work, so no segment
  // is dispatched (any pending switch charge dissolves — the CPU's
  // process does not change during the hold).
  remote_waiting_ = TakeRunningTxn();
  remote_wait_start_ = simulator_->now();
  remote_attempt_ = 1;
  IssueRemoteRead(read);
}

void System::IssueRemoteRead(const RemoteRead& read) {
  remote_inflight_ = read;
  ++metrics_.remote_reads_issued;
  bus_.Notify(&SystemObserver::OnShardRemoteIssued, simulator_->now(), read);
  // Arm before sending: a synchronous loopback reply cancels the timer
  // inside the send.
  ArmRemoteTimer();
  shard_link_.send_request(read);
  // The hold blocks local work, but peer requests queued here must
  // still be served (deadlock avoidance) — let the scheduler see them.
  if (cpu_owner_ == CpuOwner::kIdle) ScheduleNext();
}

txn::Transaction* System::ReleaseRemoteHold(sim::Time end) {
  CancelRemoteTimer();
  metrics_.remote_wait_seconds +=
      end - std::max(remote_wait_start_, observation_start_);
  return std::exchange(remote_waiting_, nullptr);
}

void System::ResumeOrCommit(txn::Transaction* transaction) {
  if (transaction->finished()) {
    Terminate(transaction, txn::TxnOutcome::kCommitted);
  } else {
    // Resume on the CPU the transaction still holds; if a remote
    // service segment occupies it right now, resume at the next settle
    // point.
    remote_resume_ = transaction;
  }
  if (cpu_owner_ == CpuOwner::kIdle) ScheduleNext();
}

void System::ReceiveRemoteRequest(const RemoteRead& read) {
  STRIP_CHECK(sharded_);
  remote_queue_.push_back(read);
  bus_.Notify(&SystemObserver::OnShardRemoteQueued, simulator_->now(), read);
  if (cpu_owner_ == CpuOwner::kIdle) ScheduleNext();
}

void System::StartRemoteService() {
  STRIP_CHECK(cpu_owner_ == CpuOwner::kIdle);
  STRIP_CHECK(!remote_queue_.empty());
  remote_job_ = RemoteJob{};
  remote_job_.read = remote_queue_.front();
  remote_queue_.pop_front();
  const db::ObjectId object = remote_job_.read.object;
  double cost = config_.x_lookup + MaybeIoStallInstructions();
  // On Demand heals remote reads too: search the local update queue
  // for a fresher value before answering, exactly as a local read
  // would (HandleViewRead), if the search fits before the deadline
  // carried in the request.
  if (policy_->AppliesOnDemand() &&
      (!db::DetectableByTimestamp(config_.staleness) ||
       tracker_.IsStale(object))) {
    const double scan_cost = ScanCostInstructions();
    if (FitsBeforeDeadline(cost + scan_cost, remote_job_.read.deadline)) {
      remote_job_.scan_planned = true;
      cost += scan_cost;
      // The update queue cannot change while this segment holds the
      // CPU, so the heal decision is safe to make at dispatch.
      if (const std::optional<db::Update> candidate =
              OnDemandCandidate(object)) {
        remote_job_.apply = true;
        remote_job_.candidate = *candidate;
        cost += config_.x_update +
                QueueOpCostInstructions(update_queue_.size());
      }
    }
  }
  SystemObserver::DispatchInfo dispatch;
  dispatch.kind = SystemObserver::DispatchKind::kRemoteService;
  dispatch.remote = &remote_job_.read;
  // The service runs in the update process's context.
  BeginSegment(CpuOwner::kRemote, dispatch, cost,
               SwitchCharge(kUpdaterProcess), /*update_work=*/false);
}

void System::OnRemoteServiceComplete() {
  cpu_owner_ = CpuOwner::kIdle;
  RemoteRead reply = remote_job_.read;
  if (remote_job_.apply) {
    InstallFromQueue(remote_job_.candidate, /*on_demand_by=*/nullptr);
    ++metrics_.remote_heals;
    reply.healed = true;
  }
  reply.stale = tracker_.IsStale(reply.object);
  // Under the MA family the peer's timestamp check detects staleness
  // for free; under UU only a performed scan counts as detection.
  reply.detected =
      db::DetectableByTimestamp(config_.staleness) || remote_job_.scan_planned;
  ++metrics_.remote_reads_served;
  bus_.Notify(&SystemObserver::OnShardRemoteServiced, simulator_->now(),
              reply);
  shard_link_.send_reply(reply);
  // The reply can loop back synchronously: the home shard may resume
  // its transaction, reach another cross-shard read, and post it to
  // *this* shard — whose idle CPU then starts the next remote service
  // before the send returns. Only settle if the CPU is still free.
  if (cpu_owner_ == CpuOwner::kIdle) ScheduleNext();
}

void System::ReceiveRemoteReply(const RemoteRead& read) {
  // A reply resolves the parked transaction only if it answers the
  // *current* request: after a timeout re-issue (or a fallback, or the
  // firm deadline) a late reply for an earlier request id has no home.
  // With the perfect interconnect delivery is synchronous, so the
  // request-id test never fails while the transaction is parked.
  const bool txn_live = remote_waiting_ != nullptr &&
                        remote_waiting_->id() == read.txn_id &&
                        remote_inflight_.request_id == read.request_id;
  bus_.Notify(&SystemObserver::OnShardRemoteResolved, simulator_->now(), read,
              txn_live);
  if (!txn_live) {
    // The firm deadline fired during the wait; the reply has no home.
    ++metrics_.remote_replies_orphaned;
    return;
  }
  txn::Transaction* t = ReleaseRemoteHold(simulator_->now());
  t->CompleteStep();
  if (read.stale) {
    ++metrics_.remote_stale_replies;
    // The read stayed stale on the peer. Recorded against the
    // transaction directly: the object id is peer-local, so the home
    // bus's OnStaleRead (whose observers resolve objects against the
    // local database) must not fire — observers see the staleness via
    // OnShardRemoteResolved above.
    t->MarkStaleRead();
    if (config_.abort_on_stale && read.detected) {
      Terminate(t, txn::TxnOutcome::kStaleAbort);
      if (cpu_owner_ == CpuOwner::kIdle) ScheduleNext();
      return;
    }
  }
  ResumeOrCommit(t);
}

void System::ArmRemoteTimer() {
  if (config_.remote_timeout_s <= 0) return;
  remote_timeout_current_ =
      remote_attempt_ == 1
          ? config_.remote_timeout_s
          : remote_timeout_current_ * config_.remote_retry_backoff;
  remote_timeout_event_ = simulator_->ScheduleAfter(
      remote_timeout_current_, [this] { OnRemoteTimeout(); });
  remote_timer_armed_ = true;
}

void System::CancelRemoteTimer() {
  if (!remote_timer_armed_) return;
  simulator_->Cancel(remote_timeout_event_);
  remote_timer_armed_ = false;
}

void System::OnRemoteTimeout() {
  remote_timer_armed_ = false;
  if (remote_waiting_ == nullptr) return;  // resolved at this instant
  txn::Transaction* t = remote_waiting_;
  // Retry while the budget lasts *and* a full backed-off wait still
  // fits before the firm deadline — a retry whose timer cannot fire in
  // time would just die waiting, so fall back now instead and give the
  // degraded read a chance to commit.
  const double next_timeout =
      remote_timeout_current_ * config_.remote_retry_backoff;
  if (remote_attempt_ <= config_.remote_retry_max &&
      simulator_->now() + next_timeout <= t->deadline()) {
    bus_.Notify(&SystemObserver::OnRemoteTimeout, simulator_->now(),
                remote_inflight_, remote_attempt_, /*will_retry=*/true);
    bus_.Notify(&SystemObserver::OnPolicyDecision, simulator_->now(),
                config_.policy, SystemObserver::SchedulerChoice::kRemoteRetry,
                "remote-timeout");
    ++metrics_.remote_retries;
    ++remote_attempt_;
    // Re-issue under a fresh request id: the census tracks each issue
    // separately, and a late reply to the old id resolves as orphaned.
    RemoteRead read = remote_inflight_;
    read.request_id = shard_link_.next_request_id();
    IssueRemoteRead(read);
    return;
  }
  // Budget exhausted: the peer is unreachable as far as this
  // transaction is concerned. Release the hold and fall back.
  ++metrics_.remote_timeouts;
  bus_.Notify(&SystemObserver::OnRemoteTimeout, simulator_->now(),
              remote_inflight_, remote_attempt_, /*will_retry=*/false);
  ReleaseRemoteHold(simulator_->now());
  if (config_.remote_fallback == RemoteFallback::kStale) {
    // Degraded-mode read: proceed on the locally cached last-installed
    // value. By construction it may be arbitrarily old, so it counts
    // as a stale read; it deliberately does *not* trigger
    // abort-on-stale (the whole point of the fallback is to commit
    // something rather than nothing).
    ++metrics_.remote_degraded_reads;
    bus_.Notify(&SystemObserver::OnDegradedRead, simulator_->now(),
                remote_inflight_);
    bus_.Notify(&SystemObserver::OnPolicyDecision, simulator_->now(),
                config_.policy,
                SystemObserver::SchedulerChoice::kRemoteDegrade,
                "retries-exhausted");
    t->MarkStaleRead();
    t->CompleteStep();
    ResumeOrCommit(t);
    return;
  }
  bus_.Notify(&SystemObserver::OnPolicyDecision, simulator_->now(),
              config_.policy, SystemObserver::SchedulerChoice::kRemoteAbort,
              "retries-exhausted");
  Terminate(t, txn::TxnOutcome::kRemoteUnavailable);
  if (cpu_owner_ == CpuOwner::kIdle) ScheduleNext();
}

// --- fault handling ----------------------------------------------------------

double System::CombinedStaleFraction() const {
  const int stale =
      tracker_.StaleCount(db::ObjectClass::kLowImportance) +
      tracker_.StaleCount(db::ObjectClass::kHighImportance);
  return static_cast<double>(stale) /
         static_cast<double>(config_.n_low + config_.n_high);
}

void System::OnFaultWindowBoundary(const fault::FaultWindow& window,
                                   bool begin) {
  if (begin) {
    ++fault_windows_active_;
    ++metrics_.fault_windows;
    if (window.kind == fault::FaultKind::kOutage) {
      // The recovery target: freshness as it stood when the feed went
      // down. A new outage restarts any pending recovery clock.
      pre_outage_stale_ = CombinedStaleFraction();
      outage_recovering_ = false;
    }
  } else {
    --fault_windows_active_;
    if (window.kind == fault::FaultKind::kOutage) {
      outage_recovering_ = true;
      outage_end_time_ = simulator_->now();
    }
  }
  SampleStaleExcursion();
  if (!bus_.empty()) {
    bus_.Notify(&SystemObserver::OnFaultWindow, simulator_->now(),
                MakeFaultWindowInfo(window, begin));
  }
}

void System::OnClusterFaultBoundary(const fault::FaultWindow& window,
                                    bool begin) {
  // Interconnect windows feed fault attribution (a deadline missed
  // while the links are degraded counts as missed-in-fault) but not
  // this shard's own fault_windows counter — the cluster-level
  // partition metrics own these windows, and summing per-shard
  // counters across the cluster must not multiply-count them.
  fault_windows_active_ += begin ? 1 : -1;
  if (!bus_.empty()) {
    bus_.Notify(&SystemObserver::OnFaultWindow, simulator_->now(),
                MakeFaultWindowInfo(window, begin));
  }
}

SystemObserver::FaultWindowInfo System::MakeFaultWindowInfo(
    const fault::FaultWindow& window, bool begin) const {
  SystemObserver::FaultWindowInfo info;
  info.kind = fault::FaultKindName(window.kind);
  info.label = window.label.c_str();
  info.begin = begin;
  info.start = window.start;
  info.end = window.end();
  if (sharded_) info.shard = shard_link_.shard_id.value();
  return info;
}

void System::SampleStaleExcursion() {
  if (fault_windows_active_ <= 0 && !outage_recovering_) return;
  const double fraction = CombinedStaleFraction();
  metrics_.max_stale_excursion =
      std::max(metrics_.max_stale_excursion, fraction);
  if (outage_recovering_ && fraction <= pre_outage_stale_) {
    metrics_.outage_recovery_seconds =
        simulator_->now() - outage_end_time_;
    outage_recovering_ = false;
  }
}

void System::MaybeToggleGovernor() {
  const double capacity = static_cast<double>(config_.uq_max);
  const double depth = static_cast<double>(update_queue_.size());
  double stale = 0;
  if (config_.governor_stale_threshold > 0) {
    stale = std::max(
        tracker_.FractionStaleNow(db::ObjectClass::kLowImportance),
        tracker_.FractionStaleNow(db::ObjectClass::kHighImportance));
  }
  if (!governor_engaged_) {
    const char* reason = nullptr;
    if (depth >= config_.governor_high_watermark * capacity) {
      reason = "uq-high-watermark";
    } else if (config_.governor_stale_threshold > 0 &&
               stale >= config_.governor_stale_threshold) {
      reason = "stale-threshold";
    }
    if (reason == nullptr) return;
    governor_engaged_ = true;
    governor_engage_time_ = simulator_->now();
    ++metrics_.governor_engagements;
    bus_.Notify(&SystemObserver::OnPolicyDecision, simulator_->now(),
                config_.policy,
                SystemObserver::SchedulerChoice::kGovernorEngage, reason);
    return;
  }
  // Hysteresis: disengage only once the depth has drained past the low
  // watermark AND staleness is strictly below its threshold.
  if (depth > config_.governor_low_watermark * capacity) return;
  if (config_.governor_stale_threshold > 0 &&
      stale >= config_.governor_stale_threshold) {
    return;
  }
  governor_engaged_ = false;
  metrics_.governor_engaged_seconds +=
      simulator_->now() -
      std::max(governor_engage_time_, observation_start_);
  bus_.Notify(&SystemObserver::OnPolicyDecision, simulator_->now(),
              config_.policy,
              SystemObserver::SchedulerChoice::kGovernorDisengage,
              "recovered");
}

}  // namespace strip::core
