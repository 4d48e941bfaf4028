// The RTDB controller: ties the whole model together.
//
// Implements the conceptual architecture of Section 3.1 — a controller
// process that multiplexes one simulated CPU between the single update
// process and many transaction processes, under a pluggable scheduling
// Policy (Section 4). It owns the database, the OS queue, the update
// queue, the staleness tracker, the workload generators, and the
// metrics collectors; one System instance models one run.
//
// Execution is event-driven: every update arrival, transaction arrival,
// CPU segment completion, firm deadline, and MA expiry is a simulator
// event. CPU work is charged in instructions and converted to simulated
// seconds at `ips`; context-switch costs are charged to the activity
// being started (2·x_switch when an arrival preempts a transaction to
// receive an update, x_switch for ordinary process switches).
//
// Typical use:
//   sim::Simulator simulator;
//   core::Config config;                 // paper baseline
//   config.policy = core::PolicyKind::kOnDemand;
//   core::System system(&simulator, config, /*seed=*/1);
//   core::RunMetrics metrics = system.Run();

#ifndef STRIP_CORE_SYSTEM_H_
#define STRIP_CORE_SYSTEM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "base/strong_types.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/observer.h"
#include "core/observer_bus.h"
#include "core/policy.h"
#include "core/remote.h"
#include "db/database.h"
#include "db/history_store.h"
#include "db/os_queue.h"
#include "db/staleness.h"
#include "db/update_queue.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "txn/ready_queue.h"
#include "txn/transaction.h"

namespace strip::core {

class System {
 public:
  // Wires the model onto `simulator` and schedules the first arrivals.
  // `config` must validate; `seed` determines every random draw of the
  // run. The simulator must outlive the System.
  System(sim::Simulator* simulator, const Config& config,
         base::RngSeed seed);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Runs the simulation to config.sim_seconds and returns the metrics
  // for the observation window (warm-up excluded). Callable once.
  RunMetrics Run();

  // Incremental alternative to Run() for callers that need to check a
  // wall-clock budget between slices (crash-safe sweeps): advances the
  // simulation by at most `max_slice` simulated seconds. Returns true
  // when the run reached config.sim_seconds (metrics finalized — read
  // them with HaltEarly()'s return or keep the value from the final
  // RunSlice caller side via metrics()); false when more slices remain.
  bool RunSlice(sim::Duration max_slice);

  // Abandons an unfinished sliced run: finalizes metrics at the
  // current simulated time and returns them. The System is spent
  // afterwards (like after Run()).
  RunMetrics HaltEarly();

  // The metrics finalized by Run() / the last RunSlice; valid only
  // after finalization.
  const RunMetrics& metrics() const { return metrics_; }
  // The raw commit response-time histogram behind the percentile
  // metrics; the cluster bucket-merges these for true cluster-level
  // percentiles.
  const sim::Histogram& response_times() const { return response_times_; }

  // Registers an observer notified of discrete outcomes (transaction
  // terminals, update installs/drops, stale reads, phase boundaries).
  // Any number of observers can be attached; they are notified in
  // registration order and must outlive their registration.
  void AddObserver(SystemObserver* observer) { bus_.Add(observer); }

  // Unregisters an observer. Returns false if it was not registered.
  // Safe to call from inside an observer callback.
  bool RemoveObserver(SystemObserver* observer) {
    return bus_.Remove(observer);
  }

  // The underlying bus, for RAII registration (core::ScopedObserver).
  // (The deprecated single-observer set_observer shim was removed
  // after its one-release grace period; use AddObserver/ScopedObserver.)
  ObserverBus& observer_bus() { return bus_; }

  // --- sharded-model integration (core/cluster.h) ---------------------------

  // Wiring that makes this System one shard engine of a Cluster. The
  // callbacks route cross-shard read requests/replies between shard
  // engines (delivered via ReceiveRemoteRequest / ReceiveRemoteReply
  // on the target engine, at the same simulated instant — service
  // itself takes simulated CPU time on the peer). With no link set (or
  // shards == 1) none of the remote machinery runs and the System is
  // byte-identical to the pre-sharding uniprocessor model.
  struct ShardLink {
    base::ShardId shard_id{0};
    int shards = 1;
    std::function<void(const RemoteRead&)> send_request;
    std::function<void(const RemoteRead&)> send_reply;
    // Cluster-unique request ids (the auditors' census key).
    std::function<std::uint64_t()> next_request_id;
  };

  // Must be called before the first event runs.
  void set_shard_link(ShardLink link);
  base::ShardId shard_id() const { return shard_link_.shard_id; }

  // Peer-side entry: queues a remote read for service on this shard's
  // CPU (serviced ahead of all other work at the next settle point).
  void ReceiveRemoteRequest(const RemoteRead& read);
  // Home-side entry: resolves a read this shard issued earlier.
  void ReceiveRemoteReply(const RemoteRead& read);

  // Probes for the cluster auditor's end-of-run census.
  std::size_t remote_queue_depth() const { return remote_queue_.size(); }
  bool remote_in_service() const {
    return cpu_owner_ == CpuOwner::kRemote;
  }
  // A transaction is parked on (or resuming from) a remote read.
  bool remote_waiting() const {
    return remote_waiting_ != nullptr || remote_resume_ != nullptr;
  }

  // External-workload injection (config.external_workload): delivers
  // an arrival *at the current simulation time*. Call from simulator
  // events scheduled at the desired arrival instants — e.g., the sinks
  // of a workload::TraceReplay — before or during Run(). Injected
  // updates pass through the fault layer when the run has a --faults
  // schedule.
  void InjectUpdate(const db::Update& update);
  void InjectTransaction(const txn::Transaction::Params& params) {
    OnTxnArrival(params);
  }

  // --- inspection (tests, examples) ---------------------------------------

  const Config& config() const { return config_; }
  // The simulator this run executes on (observers that schedule their
  // own probe events — e.g. obs::PeriodicSampler — ride on it).
  sim::Simulator* simulator() const { return simulator_; }
  const db::Database& database() const { return database_; }
  const db::StalenessTracker& staleness() const { return tracker_; }
  const db::UpdateQueue& update_queue() const { return update_queue_; }
  const db::OsQueue& os_queue() const { return os_queue_; }
  const txn::ReadyQueue& ready_queue() const { return ready_; }
  const Policy& policy() const { return *policy_; }
  // Version history of installed values; nullptr unless
  // config.history_depth > 0.
  const db::HistoryStore* history() const { return history_.get(); }
  // The fault injector; nullptr unless config.faults is non-empty.
  const fault::FaultInjector* fault_injector() const {
    return fault_injector_.get();
  }
  // Whether the overload governor is currently engaged.
  bool governor_engaged() const { return governor_engaged_; }

  // --- live probes (observability; see src/obs) ----------------------------

  // Transactions currently in the system (running or ready).
  std::size_t live_txn_count() const { return live_txns_.size(); }
  // Start of the current observation window (0, or the warm-up end).
  sim::Time observation_start() const { return observation_start_; }
  // CPU seconds charged to transactions / the update process so far in
  // the observation window, including the segment currently on the CPU
  // (unlike RunMetrics, which is settled only at segment boundaries).
  sim::Duration CpuTxnSecondsNow() const;
  sim::Duration CpuUpdateSecondsNow() const;

 private:
  friend class Cluster;  // finalizes its shards (FinalizeAll)

  enum class CpuOwner { kIdle, kTxn, kUpdater, kRemote };

  // One unit of update-process work: a transfer (OS queue head ->
  // update queue), or an install from the OS queue (UF, SU-high) or
  // from the update queue.
  struct UpdaterJob {
    SystemObserver::DispatchKind kind =
        SystemObserver::DispatchKind::kUpdaterTransfer;
    db::Update update;
    double cost_instructions = 0;
  };

  struct LiveTxn {
    std::unique_ptr<txn::Transaction> transaction;
    sim::EventQueue::Handle deadline_event;
  };

  // One remote read being serviced on this shard's CPU (peer side).
  // The heal decision is made at dispatch: the update queue cannot
  // change while the service segment occupies the CPU.
  struct RemoteJob {
    RemoteRead read;
    bool scan_planned = false;  // OD queue scan folded into the segment
    bool apply = false;         // a usable queued update will be installed
    db::Update candidate;       // the update to install when `apply`
  };

  // --- arrival handlers -----------------------------------------------------
  void OnUpdateArrival(const db::Update& update);
  void OnTxnArrival(const txn::Transaction::Params& params);
  void OnDeadline(base::TxnId txn_id);

  // --- the scheduler ---------------------------------------------------------
  // Decides what runs next. Precondition: the CPU is idle.
  void ScheduleNext();
  UpdaterContext MakeUpdaterContext() const;

  // --- CPU segments ----------------------------------------------------------
  // Every unit of CPU work — an updater job, a transaction step, a
  // remote service — is one segment with the same life: BeginSegment
  // dispatches it, and it either runs to EndSegment or (a transaction
  // step only) is cut short by CutSegmentShort.
  //
  // Puts `dispatch` on the CPU for `owner`: `work_instructions` of the
  // activity plus `extra_instructions` of switch, receive and stall
  // charges. `update_work` charges the segment's CPU time to the update
  // process (updater jobs and OD scan/apply steps).
  void BeginSegment(CpuOwner owner,
                    const SystemObserver::DispatchInfo& dispatch,
                    double work_instructions, double extra_instructions,
                    bool update_work);
  // The completion event: settles the segment and hands the CPU back to
  // its owner's continuation.
  void EndSegment();
  // The firm deadline or a preemption takes the running transaction
  // off the CPU mid-segment: charges the CPU time used and the part of
  // the step executed, and cancels the completion event.
  void CutSegmentShort();
  // The x_switch charge for giving the CPU to `process`, which becomes
  // the last process to have held it.
  double SwitchCharge(std::uint64_t process);

  // --- update process --------------------------------------------------------
  // Starts one updater job. `preempting` means an arrival just
  // preempted a running transaction, which costs 2·x_switch charged to
  // this job (otherwise an ordinary x_switch applies when the CPU
  // changes process). Precondition: the CPU is idle and work exists.
  void StartUpdaterJob(bool preempting);
  UpdaterJob SelectUpdaterJob();
  void OnUpdaterJobComplete();
  // Installs `update` into the database with tracker bookkeeping.
  // `on_demand_by` is the transaction whose stale read demanded the
  // install (OD), or nullptr for an ordinary update-process install.
  void InstallNow(const db::Update& update,
                  const txn::Transaction* on_demand_by = nullptr);
  // Takes a queued `update` out of the update queue and installs it
  // (an on-demand install for a local or a peer's read).
  void InstallFromQueue(const db::Update& update,
                        const txn::Transaction* on_demand_by);
  // Dedup extension: discards queued updates `update` supersedes.
  // Returns false if `update` itself is superseded (and dropped).
  bool DedupAgainstQueue(const db::Update& update);
  // Importance-aware shedding (shed_by_importance): makes room for
  // `incoming` in the full update queue by evicting the oldest queued
  // low-importance update (or, for a high-importance arrival, the
  // oldest high one as a last resort). Returns false when `incoming`
  // itself should be dropped instead (a low-importance arrival never
  // displaces queued high-importance work).
  bool ShedForIncoming(const db::Update& incoming);
  // Drops updates whose generation age exceeds alpha from the update
  // queue (free bookkeeping; see DESIGN.md).
  void PurgeExpired();

  // --- transaction processes ---------------------------------------------------
  void StartTxnSegment(txn::Transaction* transaction);
  // Schedules the running transaction's current step on the CPU, or
  // commits it when no step is left; `extra_instructions` carries
  // context-switch charges.
  void ScheduleTxnStep(double extra_instructions);
  void OnTxnSegmentComplete();
  void HandleViewRead(txn::Transaction* transaction, db::ObjectId object);
  void ResolveOdScan(txn::Transaction* transaction, db::ObjectId object);
  void PerformOdApply(txn::Transaction* transaction, db::ObjectId object);
  // Records a stale read of `object`; under abort-on-stale terminates
  // the running transaction (only if the *system* detected the
  // staleness — an undetected one is recorded for the metrics but
  // cannot trigger an abort). Returns true if the transaction was
  // aborted. `notify` suppresses the OnStaleRead observer event when
  // the OD path already fired it at detection time.
  bool RecordStaleRead(txn::Transaction* transaction, db::ObjectId object,
                       bool detected = true, bool notify = true);
  // Can `instructions` more of work run and still finish by `deadline`?
  // Always true unless config.feasible_deadline screens doomed work
  // (an OD queue search, locally or for a peer's read).
  bool FitsBeforeDeadline(double instructions, sim::Time deadline) const;
  // Would installing `update` leave its object fresh under the active
  // criterion?
  bool UpdateCouldFreshen(const db::Update& update) const;
  // The queued update an on-demand read of `object` would install: the
  // object's newest queued update, if it is worthy and could freshen
  // the object; nullopt otherwise.
  std::optional<db::Update> OnDemandCandidate(db::ObjectId object) const;
  // Moves the running transaction back to the ready queue; `reason`
  // feeds the OnPreempt observer hook.
  void PreemptRunningTxn(SystemObserver::PreemptReason reason);
  // Releases the CPU the running transaction holds and returns it.
  txn::Transaction* TakeRunningTxn();
  // The running transaction leaves the system with `outcome`, and the
  // scheduler picks the CPU's next work.
  void ExitRunningTxn(txn::TxnOutcome outcome);
  // The one exit: removes a transaction from the system with the given
  // terminal outcome (commit included), settling its metrics.
  void Terminate(txn::Transaction* transaction, txn::TxnOutcome outcome);

  // --- accounting --------------------------------------------------------------
  // Charges the CPU interval [segment_start_, now] to the right bucket
  // (clamped to the observation window).
  void ChargeSegmentCpu();
  double ScanCostInstructions() const;
  double QueueOpCostInstructions(std::size_t queue_size_after) const;
  // Disk-residence extension: draws a buffer-pool outcome for one
  // object lookup; returns the stall expressed in instructions (0 on a
  // hit, and always 0 at the main-memory baseline).
  double MaybeIoStallInstructions();
  // Trigger extension: draws whether a database write fires a rule;
  // returns the recomputation cost in instructions.
  double MaybeTriggerInstructions();

  // --- cross-shard rendezvous (sharded model) --------------------------------
  // Parks the running transaction on a remote read: it keeps its claim
  // on this CPU (two-phase hold) while the request travels to the peer
  // named by `step.owner_shard`.
  void EnterRemoteWait(txn::Transaction* transaction,
                       const txn::Transaction::NextStep& step);
  // Sends `read` (a first issue or a retry) as the parked
  // transaction's in-flight request.
  void IssueRemoteRead(const RemoteRead& read);
  // Ends the two-phase hold at `end`: cancels the timer, counts the
  // wait, and returns the transaction that was parked.
  txn::Transaction* ReleaseRemoteHold(sim::Time end);
  // A transaction back from a remote read commits if that was its last
  // step, or else resumes on its held CPU at the next settle point.
  void ResumeOrCommit(txn::Transaction* transaction);
  // Timeout/retry/fallback for the in-flight remote read (armed only
  // when config.remote_timeout_s > 0; see the knobs in core/config.h).
  void ArmRemoteTimer();
  void CancelRemoteTimer();
  void OnRemoteTimeout();
  // Dispatches the head of the remote queue as one service segment
  // (lookup + optional on-demand heal). Precondition: CPU idle,
  // queue non-empty.
  void StartRemoteService();
  void OnRemoteServiceComplete();
  void NoteUqLength();
  void NoteOsLength();
  void ResetObservation();
  void Finalize(sim::Time end);

  // --- fault handling (src/fault integration) --------------------------------
  // CPU speed with any active cpu-degradation fault window applied.
  // Exactly config_.ips when no fault is active, so fault-free runs
  // are bit-identical to builds without the fault layer.
  double EffectiveIps() const {
    return cpu_factor_ == 1.0 ? config_.ips : config_.ips * cpu_factor_;
  }
  void SetCpuFactor(double factor) { cpu_factor_ = factor; }
  // Fired by the injector at every fault-window boundary.
  void OnFaultWindowBoundary(const fault::FaultWindow& window, bool begin);
  // Fired by the Cluster at every cluster-scoped (interconnect) fault
  // window boundary, on every shard. Feeds fault attribution and the
  // observer bus, but not this shard's own fault_windows metric — the
  // cluster-level counters (partition_windows, partition_seconds) own
  // those windows.
  void OnClusterFaultBoundary(const fault::FaultWindow& window, bool begin);
  // What observers see of a fault-window boundary on this shard.
  SystemObserver::FaultWindowInfo MakeFaultWindowInfo(
      const fault::FaultWindow& window, bool begin) const;
  // Tracks the staleness excursion and the time-to-fresh recovery
  // clock while faults are active or an outage recovery is pending.
  void SampleStaleExcursion();
  double CombinedStaleFraction() const;
  // Engages / disengages the overload governor with hysteresis.
  void MaybeToggleGovernor();

  sim::Simulator* simulator_;
  Config config_;
  std::unique_ptr<Policy> policy_;
  ObserverBus bus_;
  // Draws for the system-side stochastic extensions (buffer misses,
  // trigger firings); independent of the workload streams.
  sim::RandomStream system_random_;

  db::Database database_;
  db::StalenessTracker tracker_;
  db::UpdateQueue update_queue_;
  db::OsQueue os_queue_;
  std::unique_ptr<db::HistoryStore> history_;
  txn::ReadyQueue ready_;

  std::unique_ptr<workload::UpdateStream> update_stream_;
  std::unique_ptr<workload::TxnSource> txn_source_;

  // Fault injection (both null when config.faults is empty).
  std::unique_ptr<fault::FaultSchedule> fault_schedule_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  // CPU-degradation factor from an active cpu fault window.
  double cpu_factor_ = 1.0;
  // The ips the segment currently on the CPU was dispatched at, so
  // partial-execution accounting (deadline cuts, preemptions) matches
  // the rate the completion event was scheduled with even if a cpu
  // fault toggled mid-segment.
  double segment_ips_ = 0;
  // Fault-attribution state for the recovery metrics.
  int fault_windows_active_ = 0;
  bool outage_recovering_ = false;
  sim::Time outage_end_time_ = 0;
  double pre_outage_stale_ = 0;
  // Overload-governor state.
  bool governor_engaged_ = false;
  sim::Time governor_engage_time_ = 0;

  std::unordered_map<base::TxnId, LiveTxn> live_txns_;

  // CPU state.
  CpuOwner cpu_owner_ = CpuOwner::kIdle;
  txn::Transaction* running_ = nullptr;
  UpdaterJob updater_job_;
  sim::EventQueue::Handle completion_;
  sim::Time segment_start_ = 0;
  // Switch/receive charge embedded at the front of the current segment
  // (not part of the activity's own work).
  double segment_extra_instructions_ = 0;
  // The CPU-time bucket, set at dispatch: update work (updater jobs, OD
  // scan/apply steps), else transaction work — or remote service, when
  // cpu_owner_ is kRemote.
  bool segment_is_update_work_ = false;
  // The segment on the CPU as observers see it at dispatch and
  // completion.
  SystemObserver::DispatchInfo dispatch_;
  // Last process that held the CPU, for x_switch charging:
  // 0 = none, 1 = the update process, txn id + 1 otherwise.
  std::uint64_t last_process_ = 0;

  // Sharded-model state (inert at shards=1 / no link).
  ShardLink shard_link_;
  bool sharded_ = false;  // link set with shards > 1
  // Remote reads awaiting service on this shard's CPU, FIFO.
  std::deque<RemoteRead> remote_queue_;
  RemoteJob remote_job_;
  // The transaction holding this CPU while a remote read is in flight.
  txn::Transaction* remote_waiting_ = nullptr;
  sim::Time remote_wait_start_ = 0;
  // Reply arrived while the CPU was busy servicing a peer: resume this
  // transaction at the next settle point.
  txn::Transaction* remote_resume_ = nullptr;
  // Timeout/retry state for the read remote_waiting_ is parked on. The
  // in-flight copy keeps the *current* request id: a reply for an
  // earlier (timed-out, re-issued) request resolves as orphaned.
  RemoteRead remote_inflight_;
  sim::EventQueue::Handle remote_timeout_event_;
  bool remote_timer_armed_ = false;
  int remote_attempt_ = 0;
  double remote_timeout_current_ = 0;

  int os_pending_high_ = 0;
  // Queue-removal cost of expiry purges, accrued as bookkeeping and
  // charged to the update process's next CPU slice.
  double purge_debt_instructions_ = 0;

  // Metrics.
  RunMetrics metrics_;
  // Commit response times (completion − arrival).
  sim::Histogram response_times_;
  sim::Time observation_start_ = 0;
  sim::TimeWeighted uq_length_;
  sim::TimeWeighted os_length_;
  std::uint64_t uq_length_max_ = 0;
  bool finalized_ = false;
};

}  // namespace strip::core

#endif  // STRIP_CORE_SYSTEM_H_
