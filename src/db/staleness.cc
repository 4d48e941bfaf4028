#include "db/staleness.h"

#include <algorithm>

#include "base/check.h"

namespace strip::db {
namespace {

// Heap order for the out-of-order expiries: the earliest on top.
constexpr auto kLaterExpiry = [](const auto& a, const auto& b) {
  return b.key < a.key;
};

}  // namespace

const char* StalenessCriterionName(StalenessCriterion criterion) {
  switch (criterion) {
    case StalenessCriterion::kMaxAge:
      return "MA";
    case StalenessCriterion::kUnappliedUpdate:
      return "UU";
    case StalenessCriterion::kCombined:
      return "MA+UU";
    case StalenessCriterion::kMaxAgeArrival:
      return "MA-arrival";
  }
  return "?";
}

bool DetectableByTimestamp(StalenessCriterion criterion) {
  return criterion == StalenessCriterion::kMaxAge ||
         criterion == StalenessCriterion::kMaxAgeArrival;
}

StalenessTracker::StalenessTracker(sim::Simulator* simulator,
                                   StalenessCriterion criterion,
                                   sim::Duration max_age, int n_low,
                                   int n_high)
    : simulator_(simulator),
      criterion_(criterion),
      max_age_(max_age),
      low_(n_low),
      high_(n_high) {
  STRIP_CHECK(simulator != nullptr);
  if (UsesMaxAge()) {
    STRIP_CHECK_MSG(max_age > 0, "max age must be positive under MA");
  }
  for (int c = 0; c < kNumObjectClasses; ++c) {
    stale_fraction_[c].StartAt(simulator_->now(), 0.0);
  }
  if (UsesMaxAge()) {
    // All objects start with generation time 0 and will expire at
    // alpha unless refreshed first.
    run_.reserve(static_cast<std::size_t>(n_low) + n_high);
    for (int i = 0; i < n_low; ++i) {
      ScheduleExpiry({ObjectClass::kLowImportance, i});
    }
    for (int i = 0; i < n_high; ++i) {
      ScheduleExpiry({ObjectClass::kHighImportance, i});
    }
  }
}

StalenessTracker::ObjectState& StalenessTracker::state(ObjectId id) {
  auto& partition = id.cls == ObjectClass::kLowImportance ? low_ : high_;
  STRIP_CHECK_MSG(
      id.index >= 0 && id.index < static_cast<int>(partition.size()),
      "object index out of range");
  return partition[id.index];
}

const StalenessTracker::ObjectState& StalenessTracker::state(
    ObjectId id) const {
  return const_cast<StalenessTracker*>(this)->state(id);
}

bool StalenessTracker::ComputeStale(const ObjectState& s) const {
  // >= so the flag flips when the expiry fires at freshness + max_age
  // (the boundary itself has measure zero). Rounding can leave
  // fl(freshness + max_age) - freshness just under max_age; the flag
  // then stays fresh until the object's next refresh.
  const bool ma_stale = simulator_->now() - s.freshness >= max_age_;
  const bool uu_stale =
      !s.queued.empty() && s.queued.back().first > s.db_generation;
  switch (criterion_) {
    case StalenessCriterion::kMaxAge:
    case StalenessCriterion::kMaxAgeArrival:
      return ma_stale;
    case StalenessCriterion::kUnappliedUpdate:
      return uu_stale;
    case StalenessCriterion::kCombined:
      return ma_stale || uu_stale;
  }
  return false;
}

void StalenessTracker::Refresh(ObjectId id) {
  ObjectState& s = state(id);
  const bool now_stale = ComputeStale(s);
  if (now_stale == s.stale) return;
  s.stale = now_stale;
  sim::TimeWeighted& signal = stale_fraction_[static_cast<int>(id.cls)];
  signal.Set(simulator_->now(), signal.value() + (now_stale ? 1.0 : -1.0));
}

void StalenessTracker::ScheduleExpiry(ObjectId id) {
  ObjectState& s = state(id);
  const sim::Time expiry_time = s.freshness + max_age_;
  if (expiry_time <= simulator_->now()) {
    // Already older than alpha — stale immediately; no expiry needed.
    s.expiry_sequence = kNoExpiry;
    Refresh(id);
    return;
  }
  // The sequence a per-object ScheduleAt would have taken keeps this
  // expiry's place among events at its instant.
  s.expiry_sequence = simulator_->ReserveSequence();
  const Expiry expiry{{expiry_time, s.expiry_sequence}, id};
  // Sequences only grow, so an expiry no earlier than the run's last
  // one also sorts after it.
  if (run_.empty() || expiry_time >= run_.back().key.at) {
    // Drop the consumed prefix once it is half the run: each entry is
    // moved at most once per entry consumed before it.
    if (run_head_ > 0 && run_head_ * 2 >= run_.size()) {
      run_.erase(run_.begin(),
                 run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
      run_head_ = 0;
    }
    run_.push_back(expiry);
  } else {
    out_of_order_.push_back(expiry);
    std::push_heap(out_of_order_.begin(), out_of_order_.end(), kLaterExpiry);
  }
  ArmTimer(expiry.key);
}

const StalenessTracker::Expiry* StalenessTracker::EarliestExpiry() {
  const auto superseded = [this](const Expiry& e) {
    return state(e.object).expiry_sequence != e.key.sequence;
  };
  while (run_head_ < run_.size() && superseded(run_[run_head_])) {
    PopExpiry(&run_[run_head_]);
  }
  while (!out_of_order_.empty() && superseded(out_of_order_.front())) {
    PopExpiry(&out_of_order_.front());
  }
  const Expiry* run = run_head_ < run_.size() ? &run_[run_head_] : nullptr;
  const Expiry* heap =
      out_of_order_.empty() ? nullptr : &out_of_order_.front();
  if (run == nullptr) return heap;
  if (heap == nullptr) return run;
  return heap->key < run->key ? heap : run;
}

void StalenessTracker::PopExpiry(const Expiry* expiry) {
  if (!out_of_order_.empty() && expiry == &out_of_order_.front()) {
    std::pop_heap(out_of_order_.begin(), out_of_order_.end(), kLaterExpiry);
    out_of_order_.pop_back();
    return;
  }
  STRIP_CHECK(run_head_ < run_.size() && expiry == &run_[run_head_]);
  if (++run_head_ == run_.size()) {
    run_.clear();
    run_head_ = 0;
  }
}

void StalenessTracker::ArmTimer(const ExpiryKey& key) {
  if (!timers_.empty() && !(key < timers_.back())) return;
  timers_.push_back(key);
  simulator_->ScheduleReserved(key.at, key.sequence,
                               [this] { OnExpiryTimer(); });
}

void StalenessTracker::OnExpiryTimer() {
  STRIP_CHECK(!timers_.empty());
  const ExpiryKey fired = timers_.back();
  timers_.pop_back();
  const sim::Time now = simulator_->now();
  STRIP_CHECK(fired.at == now);
  while (const Expiry* next = EarliestExpiry()) {
    STRIP_CHECK_MSG(!(next->key < fired), "MA expiry passed its timer");
    // The expiry at this timer's key is due now. A later one at this
    // instant is due too when no other pending event would be
    // dispatched first; anything else waits for its own timer.
    if (!(next->key == fired) &&
        (next->key.at != now ||
         simulator_->HasPendingBefore(now, next->key.sequence))) {
      ArmTimer(next->key);
      return;
    }
    const ObjectId id = next->object;
    PopExpiry(next);
    Refresh(id);
  }
}

void StalenessTracker::ResetObservation() {
  for (int c = 0; c < kNumObjectClasses; ++c) {
    const double current = stale_fraction_[c].value();
    stale_fraction_[c].StartAt(simulator_->now(), current);
  }
}

void StalenessTracker::OnApply(ObjectId id, sim::Time generation_time,
                               sim::Time arrival_time) {
  ObjectState& s = state(id);
  STRIP_CHECK_MSG(generation_time >= s.db_generation,
                  "database generation moved backwards");
  s.db_generation = generation_time;
  s.freshness = criterion_ == StalenessCriterion::kMaxAgeArrival
                    ? arrival_time
                    : generation_time;
  if (UsesMaxAge()) {
    ScheduleExpiry(id);
  }
  Refresh(id);
}

void StalenessTracker::OnEnqueued(const Update& update) {
  ObjectState& s = state(update.object);
  const std::pair<sim::Time, std::uint64_t> key{update.generation_time,
                                                update.id.value()};
  s.queued.insert(std::upper_bound(s.queued.begin(), s.queued.end(), key),
                  key);
  Refresh(update.object);
}

void StalenessTracker::OnRemovedFromQueue(const Update& update) {
  ObjectState& s = state(update.object);
  const std::pair<sim::Time, std::uint64_t> key{update.generation_time,
                                                update.id.value()};
  const auto it = std::lower_bound(s.queued.begin(), s.queued.end(), key);
  STRIP_CHECK_MSG(it != s.queued.end() && *it == key,
                  "removed update was not tracked as queued");
  s.queued.erase(it);
  Refresh(update.object);
}

bool StalenessTracker::IsStale(ObjectId id) const {
  return ComputeStale(state(id));
}

double StalenessTracker::FractionStaleNow(ObjectClass cls) const {
  const auto& partition = cls == ObjectClass::kLowImportance ? low_ : high_;
  if (partition.empty()) return 0.0;
  return stale_fraction_[static_cast<int>(cls)].value() /
         static_cast<double>(partition.size());
}

double StalenessTracker::FractionStaleAverage(ObjectClass cls,
                                              sim::Time end) const {
  const auto& partition = cls == ObjectClass::kLowImportance ? low_ : high_;
  if (partition.empty()) return 0.0;
  return stale_fraction_[static_cast<int>(cls)].Average(end) /
         static_cast<double>(partition.size());
}

}  // namespace strip::db
