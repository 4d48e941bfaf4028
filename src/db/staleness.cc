#include "db/staleness.h"

#include <algorithm>

#include "base/check.h"

namespace strip::db {
namespace {

// Heap order for the out-of-order expiries: the earliest on top.
constexpr auto kLaterExpiry = [](const auto& a, const auto& b) {
  return b.key < a.key;
};

// How many entries at the top of the heap Advance prefetches after
// each pop: the new front and its two children, one of which is
// the front after the next pop.
constexpr std::size_t kExpiryLookahead = 3;

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
    : simulator_(simulator), criterion_(criterion), max_age_(max_age) {
  static_assert(sizeof(ObjectState) == 16);
  STRIP_CHECK(simulator != nullptr);
  STRIP_CHECK_MSG(n_low >= 0 && n_high >= 0, "negative partition size");
  if (UsesMaxAge()) {
    STRIP_CHECK_MSG(max_age > 0, "max age must be positive under MA");
  }
  // All objects start with generation time 0, so under MA they expire
  // together at alpha unless refreshed first: the run's implicit
  // initial wave, on sequences reserved in object order. A tracker
  // that starts at or after alpha starts with every object stale.
  const sim::Time now = simulator_->now();
  const bool initially_stale = UsesMaxAge() && max_age_ <= now;
  if (UsesMaxAge() && !initially_stale) {
    initial_size_ = static_cast<std::size_t>(n_low) + n_high;
    initial_sequence_ = simulator_->ReserveSequence(initial_size_);
  }
  std::uint64_t sequence = initial_sequence_;
  const int sizes[kNumObjectClasses] = {n_low, n_high};
  for (int c = 0; c < kNumObjectClasses; ++c) {
    ClassState& cls = classes_[c];
    cls.objects.reserve(sizes[c]);
    for (int i = 0; i < sizes[c]; ++i) {
      cls.objects.push_back(
          {.expiry_sequence = initial_size_ > 0 ? sequence++ : kNoExpiry});
    }
    cls.stale.assign(sizes[c], initially_stale);
    if (criterion_ == StalenessCriterion::kMaxAgeArrival) {
      cls.arrival.resize(sizes[c]);
    }
    cls.stale_count.StartAt(now, initially_stale ? sizes[c] : 0);
  }
}

int StalenessTracker::CheckedIndex(ObjectId id) const {
  const int size = static_cast<int>(class_state(id.cls).objects.size());
  STRIP_CHECK_MSG(id.index >= 0 && id.index < size,
                  "object index out of range");
  return id.index;
}

StalenessTracker::ObjectState& StalenessTracker::state(ObjectId id) {
  return class_state(id.cls).objects[CheckedIndex(id)];
}

const StalenessTracker::ObjectState& StalenessTracker::state(
    ObjectId id) const {
  return class_state(id.cls).objects[CheckedIndex(id)];
}

std::vector<StalenessTracker::QueuedKey>& StalenessTracker::QueuedKeys(
    ObjectId id) {
  ClassState& cls = class_state(id.cls);
  if (cls.queued.empty()) cls.queued.resize(cls.objects.size());
  return cls.queued[CheckedIndex(id)];
}

sim::Time StalenessTracker::Freshness(ObjectId id,
                                      const ObjectState& s) const {
  if (criterion_ == StalenessCriterion::kMaxAgeArrival) {
    return class_state(id.cls).arrival[id.index];
  }
  return s.db_generation;
}

bool StalenessTracker::ComputeStale(ObjectId id, sim::Time at) const {
  const ObjectState& s = state(id);
  // >= so the flag flips when the expiry is applied at freshness +
  // max_age (the boundary itself has measure zero). Rounding can leave
  // fl(freshness + max_age) - freshness just under max_age; the flag
  // then stays fresh until the object's next refresh.
  const bool ma_stale = at - Freshness(id, s) >= max_age_;
  const auto uu_stale = [&] {
    const auto& queued = class_state(id.cls).queued;
    if (queued.empty()) return false;
    const std::vector<QueuedKey>& keys = queued[id.index];
    return !keys.empty() && keys.back().first > s.db_generation;
  };
  switch (criterion_) {
    case StalenessCriterion::kMaxAge:
    case StalenessCriterion::kMaxAgeArrival:
      return ma_stale;
    case StalenessCriterion::kUnappliedUpdate:
      return uu_stale();
    case StalenessCriterion::kCombined:
      return ma_stale || uu_stale();
  }
  return false;
}

void StalenessTracker::Refresh(ObjectId id, sim::Time at) const {
  const bool stale = ComputeStale(id, at);
  const ClassState& cls = class_state(id.cls);
  if (stale == cls.stale[id.index]) return;
  cls.stale[id.index] = stale;
  cls.stale_count.Set(at, cls.stale_count.value() + (stale ? 1.0 : -1.0));
}

void StalenessTracker::ScheduleExpiry(ObjectId id) {
  ObjectState& s = state(id);
  const sim::Time expiry_time = Freshness(id, s) + max_age_;
  if (expiry_time <= simulator_->now()) {
    // Already older than alpha — stale immediately; no expiry needed.
    s.expiry_sequence = kNoExpiry;
    Refresh(id, simulator_->now());
    return;
  }
  // The sequence a per-object ScheduleAt would have taken keeps this
  // expiry's place among events at its instant.
  s.expiry_sequence = simulator_->ReserveSequence();
  const Expiry expiry{{expiry_time, s.expiry_sequence}, id};
  // Sequences only grow, so an expiry no earlier than the run's last
  // one also sorts after it. The initial wave, at alpha, ends the run
  // until something is appended.
  const bool in_order =
      RunEmpty() ||
      expiry_time >= (run_.empty() ? max_age_ : run_.back().key.at);
  if (in_order) {
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
}

StalenessTracker::Expiry StalenessTracker::RunFront() const {
  if (initial_head_ == initial_size_) return run_[run_head_];
  const std::size_t k = initial_head_;
  const std::size_t n_low =
      class_state(ObjectClass::kLowImportance).objects.size();
  const ObjectId id =
      k < n_low ? ObjectId{ObjectClass::kLowImportance, static_cast<int>(k)}
                : ObjectId{ObjectClass::kHighImportance,
                           static_cast<int>(k - n_low)};
  return {{max_age_, initial_sequence_ + k}, id};
}

void StalenessTracker::PopRunFront() const {
  if (initial_head_ < initial_size_) {
    ++initial_head_;
    return;
  }
  if (++run_head_ == run_.size()) {
    run_.clear();
    run_head_ = 0;
  }
}

void StalenessTracker::PopHeapFront() const {
  std::pop_heap(out_of_order_.begin(), out_of_order_.end(), kLaterExpiry);
  out_of_order_.pop_back();
}

void StalenessTracker::Advance() const {
  const ExpiryKey due{simulator_->now(), simulator_->current_sequence()};
  const auto superseded = [this](const Expiry& e) {
    return state(e.object).expiry_sequence != e.key.sequence;
  };
  for (;;) {
    while (!RunEmpty() && superseded(RunFront())) PopRunFront();
    while (!out_of_order_.empty() && superseded(out_of_order_.front())) {
      PopHeapFront();
    }
    const bool from_heap =
        !out_of_order_.empty() &&
        (RunEmpty() || out_of_order_.front().key < RunFront().key);
    if (!from_heap && RunEmpty()) return;
    const Expiry next = from_heap ? out_of_order_.front() : RunFront();
    if (!(next.key < due)) return;
    if (from_heap) {
      PopHeapFront();
    } else {
      PopRunFront();
    }
    // The heap's next fronts are among its top entries, and the next
    // supersession check and Refresh read their states: start those
    // loads now.
    const std::size_t ahead =
        std::min(out_of_order_.size(), kExpiryLookahead);
    for (std::size_t i = 0; i < ahead; ++i) {
      Prefetch(out_of_order_[i].object);
    }
    Refresh(next.object, next.key.at);
  }
}

void StalenessTracker::ResetObservation() {
  Advance();
  for (ClassState& cls : classes_) {
    cls.stale_count.StartAt(simulator_->now(), cls.stale_count.value());
  }
}

void StalenessTracker::OnApply(ObjectId id, sim::Time generation_time,
                               sim::Time arrival_time) {
  Advance();
  ObjectState& s = state(id);
  STRIP_CHECK_MSG(generation_time >= s.db_generation,
                  "database generation moved backwards");
  s.db_generation = generation_time;
  if (criterion_ == StalenessCriterion::kMaxAgeArrival) {
    class_state(id.cls).arrival[id.index] = arrival_time;
  }
  if (UsesMaxAge()) {
    ScheduleExpiry(id);
  }
  Refresh(id, simulator_->now());
}

void StalenessTracker::OnEnqueued(const Update& update) {
  Advance();
  std::vector<QueuedKey>& keys = QueuedKeys(update.object);
  const QueuedKey key{update.generation_time, update.id.value()};
  keys.insert(std::upper_bound(keys.begin(), keys.end(), key), key);
  Refresh(update.object, simulator_->now());
}

void StalenessTracker::OnRemovedFromQueue(const Update& update) {
  Advance();
  std::vector<QueuedKey>& keys = QueuedKeys(update.object);
  const QueuedKey key{update.generation_time, update.id.value()};
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  STRIP_CHECK_MSG(it != keys.end() && *it == key,
                  "removed update was not tracked as queued");
  keys.erase(it);
  Refresh(update.object, simulator_->now());
}

bool StalenessTracker::IsStale(ObjectId id) const {
  return ComputeStale(id, simulator_->now());
}

double StalenessTracker::FractionStaleNow(ObjectClass cls) const {
  Advance();
  const ClassState& c = class_state(cls);
  if (c.objects.empty()) return 0.0;
  return c.stale_count.value() / static_cast<double>(c.objects.size());
}

double StalenessTracker::FractionStaleAverage(ObjectClass cls,
                                              sim::Time end) const {
  Advance();
  const ClassState& c = class_state(cls);
  if (c.objects.empty()) return 0.0;
  return c.stale_count.Average(end) / static_cast<double>(c.objects.size());
}

}  // namespace strip::db
