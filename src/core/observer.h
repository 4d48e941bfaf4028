// Observation hooks into a running System.
//
// An observer receives the System's discrete outcomes as they happen —
// transaction completions/aborts, update installs/drops, stale reads,
// and run-phase boundaries — without perturbing the model. Any number
// of observers can be attached through the System's ObserverBus
// (core/observer_bus.h); used by the observability layer (src/obs),
// the auditors (src/check), and available to applications for custom
// monitoring (e.g., alerting on stale reads in the control-room
// example).
//
// Two tiers of hooks:
//
//  - *Outcome* hooks (OnTransactionTerminal, OnUpdateInstalled,
//    OnUpdateDropped, OnStaleRead, OnPhase) fire at the model's
//    discrete results — enough for metrics, telemetry, and alerting.
//  - *Lifecycle* hooks (OnTxnAdmitted, OnUpdateArrival,
//    OnUpdateEnqueued, OnDispatch, OnSegmentComplete, OnPreempt,
//    OnPolicyDecision) fire at every scheduler decision point, so a
//    causal tracer (src/obs/trace) can reconstruct the full history
//    of each transaction and update: arrive → dispatch → segments →
//    preemptions → stale reads → commit/abort, and arrive → enqueue →
//    dedup/drop → install.
//
// Every OnDispatch is closed by exactly one OnSegmentComplete (the
// segment ran to its scheduled end) or OnPreempt (it was cut short),
// so dispatch/complete pairs nest into clean spans. With no observers
// attached none of the hooks cost anything (a single emptiness test
// in the bus).

#ifndef STRIP_CORE_OBSERVER_H_
#define STRIP_CORE_OBSERVER_H_

#include "core/config.h"
#include "core/remote.h"
#include "db/update.h"
#include "sim/sim_time.h"
#include "txn/transaction.h"

namespace strip::core {

class SystemObserver {
 public:
  virtual ~SystemObserver() = default;

  // A run-phase boundary the System crossed.
  enum class Phase {
    kWarmupEnd = 0,  // warm-up elapsed; statistics were just reset
    kRunEnd,         // simulation reached sim_seconds; metrics final
  };

  // Why an update left the system without being installed.
  enum class DropReason {
    kOsQueueFull = 0,   // kernel buffer overflow on arrival
    kQueueOverflow,     // update-queue bound exceeded
    kExpired,           // older than alpha (MA expiry purge)
    kUnworthy,          // database already held a newer value
    kSuperseded,        // a newer update for the same object exists
                        // (dedup_update_queue extension)
    kOverloadShed,      // importance-aware shedding evicted it to
                        // admit newer work (shed_by_importance)
  };

  // What the scheduler placed on the simulated CPU.
  enum class DispatchKind {
    kTxnCompute = 0,     // a transaction's computation step
    kTxnViewRead,        // a transaction's view-object read
    kTxnOdScan,          // On Demand: update-queue search (txn slice)
    kTxnOdApply,         // On Demand: install found update (txn slice)
    kUpdaterTransfer,    // receive: OS queue head -> update queue
    kUpdaterInstallOs,   // install straight from the OS queue (UF, SU)
    kUpdaterInstallUq,   // install from the update queue
    kRemoteService,      // peer shard serving a remote read (sharded
                         // model; lookup + optional on-demand heal)
  };

  // Why a running transaction lost the CPU before its segment ended.
  enum class PreemptReason {
    kUpdateArrival = 0,  // UF/SU receive-on-arrival took the CPU
    kHigherPriorityTxn,  // txn_preemption and a better arrival
    kDeadline,           // the firm deadline cut the segment down
  };

  // The scheduler's choice at a decision point.
  enum class SchedulerChoice {
    kReceive = 0,       // drain the OS buffer (transfer or install)
    kInstall,           // install from the update queue
    kRunTransaction,    // run the best ready transaction
    kIdle,              // no work: wait for the next arrival
    kInstallOnArrival,  // policy decision 1: preempting receive at
                        // update arrival (UF all, SU high-importance)
    kGovernorEngage,    // overload governor switched to triage mode
    kGovernorDisengage, // overload drained; normal service restored
    kServeRemote,       // serve a peer shard's read request (sharded
                        // model; outranks all local work)
    kRemoteRetry,       // remote read timed out; re-issued with backoff
    kRemoteDegrade,     // retries exhausted; degraded local read
    kRemoteAbort,       // retries exhausted; transaction aborted
  };

  // A fault window boundary (fault injection; src/fault). Both string
  // pointers have the lifetime of the run (they point into the
  // System's FaultSchedule).
  struct FaultWindowInfo {
    const char* kind = nullptr;   // "outage", "burst", "loss", ...
    const char* label = nullptr;  // the window's spec token
    bool begin = false;           // true at window start, false at end
    double start = 0;             // window [start, end) in sim seconds
    double end = 0;
    // Shard whose bus is reporting the boundary (cluster-scoped
    // windows are reported once per shard). -1 at shards=1.
    int shard = -1;
  };

  // One unit of dispatched CPU work, as seen at OnDispatch and at the
  // matching OnSegmentComplete. Exactly one of `transaction` / `update`
  // / `remote` is non-null (`transaction` for kTxn* kinds, `update` for
  // kUpdater* kinds, `remote` for kRemoteService); the pointers are
  // valid only for the duration of the callback.
  struct DispatchInfo {
    DispatchKind kind = DispatchKind::kTxnCompute;
    // The transaction owning the segment (kTxn* kinds), else nullptr.
    const txn::Transaction* transaction = nullptr;
    // The update being moved or installed (kUpdater* kinds), else
    // nullptr.
    const db::Update* update = nullptr;
    // The remote read being serviced (kRemoteService), else nullptr.
    // The serviced transaction lives on another shard, so only its id
    // (remote->txn_id) is available here.
    const RemoteRead* remote = nullptr;
    // Instructions scheduled on the CPU, including embedded context-
    // switch / purge-debt charges.
    double instructions = 0;
  };

  // --- outcome hooks -------------------------------------------------------

  // A transaction reached a terminal state (outcome() is set; the
  // object is destroyed after this call returns).
  virtual void OnTransactionTerminal(sim::Time now,
                                     const txn::Transaction& transaction) {
    (void)now;
    (void)transaction;
  }

  // An update was written to the database. `on_demand_by` is the
  // transaction whose stale read demanded the install (OD policy), or
  // nullptr for an ordinary update-process install; the pointer is
  // valid only for the duration of the callback.
  virtual void OnUpdateInstalled(sim::Time now, const db::Update& update,
                                 const txn::Transaction* on_demand_by) {
    (void)now;
    (void)update;
    (void)on_demand_by;
  }

  // An update left the system without being installed.
  virtual void OnUpdateDropped(sim::Time now, const db::Update& update,
                               DropReason reason) {
    (void)now;
    (void)update;
    (void)reason;
  }

  // A view read encountered stale data (under any criterion; fires
  // whether or not the system itself could detect the staleness).
  // Under OD the on-demand machinery may install a fresh value before
  // the transaction proceeds — the hook still fires at detection, and
  // the causally linked OnUpdateInstalled(on_demand_by=&transaction)
  // follows if the install succeeds. The transaction's own stale-read
  // counter (and the run metrics) only count reads that *stayed*
  // stale. The transaction is still live — under abort-on-stale the
  // abort happens *after* this call.
  virtual void OnStaleRead(sim::Time now, const txn::Transaction& transaction,
                           db::ObjectId object) {
    (void)now;
    (void)transaction;
    (void)object;
  }

  // The run crossed a phase boundary: warm-up ended (statistics reset)
  // or the simulation ended (metrics finalized). Lets samplers and
  // exporters align to the observation window without polling hacks.
  virtual void OnPhase(sim::Time now, Phase phase) {
    (void)now;
    (void)phase;
  }

  // --- lifecycle hooks (scheduler decision points) -------------------------

  // A transaction was admitted into the system (overload-dropped
  // arrivals fire OnTransactionTerminal with kOverloadDrop instead).
  virtual void OnTxnAdmitted(sim::Time now,
                             const txn::Transaction& transaction) {
    (void)now;
    (void)transaction;
  }

  // An update arrived from the stream (before the OS-queue bound is
  // checked; a full buffer fires OnUpdateDropped(kOsQueueFull) next).
  virtual void OnUpdateArrival(sim::Time now, const db::Update& update) {
    (void)now;
    (void)update;
  }

  // An update was received into the controller's update queue.
  virtual void OnUpdateEnqueued(sim::Time now, const db::Update& update) {
    (void)now;
    (void)update;
  }

  // The scheduler placed `dispatch` on the CPU. Closed by exactly one
  // OnSegmentComplete or OnPreempt.
  virtual void OnDispatch(sim::Time now, const DispatchInfo& dispatch) {
    (void)now;
    (void)dispatch;
  }

  // The dispatched segment ran to its scheduled end. Fires before the
  // segment's outcome is handled (so e.g. a stale-abort's
  // OnTransactionTerminal follows it).
  virtual void OnSegmentComplete(sim::Time now,
                                 const DispatchInfo& dispatch) {
    (void)now;
    (void)dispatch;
  }

  // The running transaction's segment was cut short.
  virtual void OnPreempt(sim::Time now, const txn::Transaction& transaction,
                         PreemptReason reason) {
    (void)now;
    (void)transaction;
    (void)reason;
  }

  // The scheduler consulted the policy and chose. `reason` is a short
  // stable token naming why (policy-specific; see Policy::
  // ArrivalReason / PriorityReason) with static storage duration.
  virtual void OnPolicyDecision(sim::Time now, PolicyKind policy,
                                SchedulerChoice choice, const char* reason) {
    (void)now;
    (void)policy;
    (void)choice;
    (void)reason;
  }

  // A fault window began or ended (fault injection; only fires when
  // the run has a non-empty --faults schedule).
  virtual void OnFaultWindow(sim::Time now, const FaultWindowInfo& window) {
    (void)now;
    (void)window;
  }

  // --- sharded-model hooks (core/cluster.h; never fire at shards=1) --------
  //
  // A cross-shard view read's life, as four instants: the home shard
  // issues the request and holds its CPU (OnShardRemoteIssued, home
  // bus), the peer receives it into its remote queue
  // (OnShardRemoteQueued, peer bus), the peer finishes the service
  // segment and sends the reply (OnShardRemoteServiced, peer bus; the
  // reply fields of `read` are filled in), and the home shard resolves
  // it (OnShardRemoteResolved, home bus; `txn_live` is false when the
  // transaction's firm deadline fired during the wait). The peer's
  // service CPU segment additionally appears as a normal
  // OnDispatch/OnSegmentComplete span of kind kRemoteService.

  virtual void OnShardRemoteIssued(sim::Time now, const RemoteRead& read) {
    (void)now;
    (void)read;
  }

  virtual void OnShardRemoteQueued(sim::Time now, const RemoteRead& read) {
    (void)now;
    (void)read;
  }

  virtual void OnShardRemoteServiced(sim::Time now, const RemoteRead& read) {
    (void)now;
    (void)read;
  }

  virtual void OnShardRemoteResolved(sim::Time now, const RemoteRead& read,
                                     bool txn_live) {
    (void)now;
    (void)read;
    (void)txn_live;
  }

  // With a non-perfect interconnect (core/interconnect.h) three more
  // hooks cover the robustness paths, all on the home shard's bus:
  //
  //  - OnShardRemoteDropped: the interconnect lost the message on the
  //    request leg (reply_leg=false) or the reply leg (true). The home
  //    shard keeps waiting until its timeout fires.
  //  - OnRemoteTimeout: a parked remote read's timer expired after
  //    `attempt` issues. `will_retry` is true when the read is being
  //    re-issued (with a fresh request id and a backed-off timer),
  //    false when the retry budget is exhausted and the fallback
  //    (degraded read or abort) happens next.
  //  - OnDegradedRead: retries exhausted under --remote_fallback=stale;
  //    the transaction proceeds on the locally cached value, counted
  //    as a stale read.

  virtual void OnShardRemoteDropped(sim::Time now, const RemoteRead& read,
                                    bool reply_leg) {
    (void)now;
    (void)read;
    (void)reply_leg;
  }

  virtual void OnRemoteTimeout(sim::Time now, const RemoteRead& read,
                               int attempt, bool will_retry) {
    (void)now;
    (void)read;
    (void)attempt;
    (void)will_retry;
  }

  virtual void OnDegradedRead(sim::Time now, const RemoteRead& read) {
    (void)now;
    (void)read;
  }
};

// Printable name for a drop reason.
const char* DropReasonName(SystemObserver::DropReason reason);

// Printable name for a phase ("warmup_end" / "run_end").
const char* PhaseName(SystemObserver::Phase phase);

// Printable name for a dispatch kind ("compute", "view-read",
// "od-scan", "od-apply", "transfer", "install-os", "install-uq",
// "remote-service").
const char* DispatchKindName(SystemObserver::DispatchKind kind);

// Printable name for a preempt reason ("update-arrival",
// "higher-priority-txn", "deadline").
const char* PreemptReasonName(SystemObserver::PreemptReason reason);

// Printable name for a scheduler choice ("receive", "install",
// "run-txn", "idle", "install-on-arrival", "governor-engage",
// "governor-disengage", "serve-remote", "remote-retry",
// "remote-degrade", "remote-abort").
const char* SchedulerChoiceName(SystemObserver::SchedulerChoice choice);

}  // namespace strip::core

#endif  // STRIP_CORE_OBSERVER_H_
