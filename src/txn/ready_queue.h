// The set of transactions waiting for the CPU.
//
// The paper schedules transactions by *value density* — value divided
// by remaining processing time (Section 3.4) — and, under the feasible-
// deadline policy, screens out transactions that can no longer meet
// their deadline so no further CPU is wasted on them.
//
// A waiting transaction's value density is constant (its remaining
// work does not shrink while it waits), so an ordered structure buys
// little; the queue is a small vector with linear selection, which is
// simple, allows O(1) removal by identity, and is exact.

#ifndef STRIP_TXN_READY_QUEUE_H_
#define STRIP_TXN_READY_QUEUE_H_

#include <cstddef>
#include <vector>

#include "sim/sim_time.h"
#include "txn/transaction.h"

namespace strip::txn {

// How the next transaction is chosen from the ready queue. The paper
// fixes value density (Section 3.4); earliest-deadline-first and
// first-come-first-served are the classic alternatives, provided for
// comparison (see `figures abl_txn_sched`).
enum class TxnSchedPolicy {
  kValueDensity = 0,   // max value / remaining processing time
  kEarliestDeadline,   // min deadline
  kFcfs,               // min arrival time
};

// Printable name ("VD" / "EDF" / "FCFS").
const char* TxnSchedPolicyName(TxnSchedPolicy policy);

// True if `a` should run before `b` under `policy` (strictly higher
// priority; ties are NOT higher).
bool HigherPriority(const Transaction& a, const Transaction& b,
                    TxnSchedPolicy policy, double ips);

class ReadyQueue {
 public:
  // Adds a transaction. The queue does not own it.
  void Add(Transaction* transaction);

  // Removes a specific transaction (e.g., its deadline fired while it
  // waited). Returns true if it was present.
  bool Remove(const Transaction* transaction);

  // Removes and returns every waiting transaction that cannot meet its
  // deadline even if run immediately and uninterrupted from `now`.
  // Callers abort these (the feasible-deadline policy).
  std::vector<Transaction*> ExtractInfeasible(sim::Time now, double ips);

  // Highest-priority waiting transaction under `policy`, or nullptr if
  // empty. Ties break toward the lowest id for determinism.
  Transaction* PeekBest(double ips, TxnSchedPolicy policy =
                                        TxnSchedPolicy::kValueDensity) const;

  // Removes and returns the best transaction (nullptr if empty).
  Transaction* PopBest(double ips, TxnSchedPolicy policy =
                                       TxnSchedPolicy::kValueDensity);

  std::size_t size() const { return waiting_.size(); }
  bool empty() const { return waiting_.empty(); }

  // The raw waiting set (unspecified order); for metrics/inspection.
  const std::vector<Transaction*>& waiting() const { return waiting_; }

 private:
  std::vector<Transaction*> waiting_;
};

}  // namespace strip::txn

#endif  // STRIP_TXN_READY_QUEUE_H_
