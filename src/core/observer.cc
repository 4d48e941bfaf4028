#include "core/observer.h"

namespace strip::core {

const char* DropReasonName(SystemObserver::DropReason reason) {
  switch (reason) {
    case SystemObserver::DropReason::kOsQueueFull:
      return "os-full";
    case SystemObserver::DropReason::kQueueOverflow:
      return "queue-overflow";
    case SystemObserver::DropReason::kExpired:
      return "expired";
    case SystemObserver::DropReason::kUnworthy:
      return "unworthy";
    case SystemObserver::DropReason::kSuperseded:
      return "superseded";
    case SystemObserver::DropReason::kOverloadShed:
      return "overload-shed";
  }
  return "?";
}

const char* PhaseName(SystemObserver::Phase phase) {
  switch (phase) {
    case SystemObserver::Phase::kWarmupEnd:
      return "warmup_end";
    case SystemObserver::Phase::kRunEnd:
      return "run_end";
  }
  return "?";
}

const char* DispatchKindName(SystemObserver::DispatchKind kind) {
  switch (kind) {
    case SystemObserver::DispatchKind::kTxnCompute:
      return "compute";
    case SystemObserver::DispatchKind::kTxnViewRead:
      return "view-read";
    case SystemObserver::DispatchKind::kTxnOdScan:
      return "od-scan";
    case SystemObserver::DispatchKind::kTxnOdApply:
      return "od-apply";
    case SystemObserver::DispatchKind::kUpdaterTransfer:
      return "transfer";
    case SystemObserver::DispatchKind::kUpdaterInstallOs:
      return "install-os";
    case SystemObserver::DispatchKind::kUpdaterInstallUq:
      return "install-uq";
    case SystemObserver::DispatchKind::kRemoteService:
      return "remote-service";
  }
  return "?";
}

const char* PreemptReasonName(SystemObserver::PreemptReason reason) {
  switch (reason) {
    case SystemObserver::PreemptReason::kUpdateArrival:
      return "update-arrival";
    case SystemObserver::PreemptReason::kHigherPriorityTxn:
      return "higher-priority-txn";
    case SystemObserver::PreemptReason::kDeadline:
      return "deadline";
  }
  return "?";
}

const char* SchedulerChoiceName(SystemObserver::SchedulerChoice choice) {
  switch (choice) {
    case SystemObserver::SchedulerChoice::kReceive:
      return "receive";
    case SystemObserver::SchedulerChoice::kInstall:
      return "install";
    case SystemObserver::SchedulerChoice::kRunTransaction:
      return "run-txn";
    case SystemObserver::SchedulerChoice::kIdle:
      return "idle";
    case SystemObserver::SchedulerChoice::kInstallOnArrival:
      return "install-on-arrival";
    case SystemObserver::SchedulerChoice::kGovernorEngage:
      return "governor-engage";
    case SystemObserver::SchedulerChoice::kGovernorDisengage:
      return "governor-disengage";
    case SystemObserver::SchedulerChoice::kServeRemote:
      return "serve-remote";
    case SystemObserver::SchedulerChoice::kRemoteRetry:
      return "remote-retry";
    case SystemObserver::SchedulerChoice::kRemoteDegrade:
      return "remote-degrade";
    case SystemObserver::SchedulerChoice::kRemoteAbort:
      return "remote-abort";
  }
  return "?";
}

}  // namespace strip::core
