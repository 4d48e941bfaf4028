// Staleness criteria and exact stale-set tracking.
//
// The paper defines two criteria (Section 2):
//
//  - Maximum Age (MA): an object is stale when the age of its current
//    value — now minus its generation timestamp — exceeds a maximum
//    age alpha. Even an unchanged object goes stale if not refreshed.
//  - Unapplied Update (UU): an object is fresh unless the update queue
//    holds an update for it that is newer than the database value.
//    (The strict reading — "any unapplied update in the queue" —
//    would count an object as stale even when the database already
//    holds a newer value than everything queued for it, e.g. after a
//    LIFO install; we use the semantic reading, and the worthiness
//    check discards such worthless queued updates when popped.)
//  - Combined (extension, sketched in Section 2): stale under either.
//
// The tracker maintains the stale set *event-wise*: every database
// write, queue insert/remove, and MA expiry updates a per-object flag
// and a time-weighted stale count, so the staleness fraction f_old of
// Section 3.5 is an exact integral rather than a sampled estimate.
//
// MA expiries live in an index the tracker owns, not in the simulator.
// Each reserves the event sequence a ScheduleAt would have taken, which
// keys it (time, sequence) where its own event would have been
// dispatched. Every mutator and count reader first applies, each at
// its own time, the expiries keyed before the simulator's current
// (now, sequence): the ones such events would already have fired.

#ifndef STRIP_DB_STALENESS_H_
#define STRIP_DB_STALENESS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/huge_pages.h"
#include "base/prefetch.h"
#include "db/object.h"
#include "db/update.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace strip::db {

enum class StalenessCriterion {
  kMaxAge = 0,
  kUnappliedUpdate = 1,
  kCombined = 2,
  // Section 2's variation: "in the MA staleness definition we could
  // replace generation time by arrival time" — an object is stale when
  // the *arrival* of its current value is older than alpha, i.e.,
  // every object should receive an update at least every alpha
  // seconds, regardless of network aging.
  kMaxAgeArrival = 3,
};

// Printable name ("MA" / "UU" / "MA+UU" / "MA-arrival").
const char* StalenessCriterionName(StalenessCriterion criterion);

// True if staleness under `criterion` can be checked from the object's
// timestamp alone (no update-queue search needed): the MA family.
bool DetectableByTimestamp(StalenessCriterion criterion);

class StalenessTracker {
 public:
  // `max_age` is alpha; it is ignored under kUnappliedUpdate. All
  // objects start with generation time 0 (matching Database's initial
  // state): fresh, or stale under MA when the simulator's clock has
  // already reached alpha. The tracker keys its MA expiries on
  // `simulator`'s dispatch order and applies them by its clock, so
  // `simulator` must outlive it and share its thread.
  StalenessTracker(sim::Simulator* simulator, StalenessCriterion criterion,
                   sim::Duration max_age, int n_low, int n_high);

  StalenessTracker(const StalenessTracker&) = delete;
  StalenessTracker& operator=(const StalenessTracker&) = delete;

  // Restarts the time-weighted statistics at the current simulation
  // time, carrying the current stale set forward. Used to exclude a
  // warm-up period.
  void ResetObservation();

  // The database wrote `id` with generation time `generation_time`;
  // the installed update arrived at `arrival_time` (used by the
  // arrival-based MA criterion). The two-argument form treats the
  // value as arriving the moment it was generated.
  void OnApply(ObjectId id, sim::Time generation_time,
               sim::Time arrival_time);
  void OnApply(ObjectId id, sim::Time generation_time) {
    OnApply(id, generation_time, generation_time);
  }

  // `update` entered the controller's update queue.
  void OnEnqueued(const Update& update);

  // `update` left the update queue (installed, expired, or evicted).
  void OnRemovedFromQueue(const Update& update);

  // Is the object stale right now, under this tracker's criterion?
  bool IsStale(ObjectId id) const;

  // Starts loading `id`'s state into cache ahead of an OnApply or an
  // expiry on it. A hint only: it changes nothing observable, and an
  // id out of range is ignored rather than checked. Always inlined, as
  // base/prefetch.h explains.
  [[gnu::always_inline]] void Prefetch(ObjectId id) const {
    const auto& objects = class_state(id.cls).objects;
    if (id.index >= 0 &&
        static_cast<std::size_t>(id.index) < objects.size()) {
      base::PrefetchForRead(&objects[id.index]);
    }
  }

  // Number of currently stale objects in a partition.
  int StaleCount(ObjectClass cls) const {
    Advance();
    return static_cast<int>(class_state(cls).stale_count.value());
  }

  // Fraction of the partition currently stale.
  double FractionStaleNow(ObjectClass cls) const;

  // Time-averaged stale fraction over [observation start, end] — the
  // paper's f_old_l / f_old_h.
  double FractionStaleAverage(ObjectClass cls, sim::Time end) const;

  StalenessCriterion criterion() const { return criterion_; }
  sim::Duration max_age() const { return max_age_; }

 private:
  // 16 bytes per object: the stale flag, the arrival time and the
  // queued generations live beside the objects, in ClassState. MA-style
  // aging runs on the generation time, except under kMaxAgeArrival.
  struct ObjectState {
    sim::Time db_generation = 0;
    // Sequence of the object's current MA expiry; index entries under
    // any other sequence are superseded and skipped.
    std::uint64_t expiry_sequence = kNoExpiry;
  };

  // Generation time and update id of one queued update.
  using QueuedKey = std::pair<sim::Time, std::uint64_t>;

  // Every array here is indexed by object and sits on huge pages once
  // it reaches 2 MiB (base/huge_pages.h).
  struct ClassState {
    base::HugePageVector<ObjectState> objects;
    // One stale flag per object (mutable: see Advance).
    mutable base::HugePageVector<bool> stale;
    // Per object, the arrival time of its current value: the timestamp
    // MA-arrival aging runs on. Allocated only under kMaxAgeArrival.
    base::HugePageVector<sim::Time> arrival;
    // Per object, the generation times of its queued updates, kept
    // sorted ascending (ties broken by update id, so keys are unique).
    // A flat vector beats a node-based set here: the per-object backlog
    // is small — usually zero or one entry, bounded by the queue depth —
    // so ordered insert/erase are a short memmove with no allocation,
    // and the UU check reads the max straight off the back. Sized to
    // the class at its first OnEnqueued, so a run that never queues
    // (Update First) never allocates it.
    base::HugePageVector<std::vector<QueuedKey>> queued;
    // Stale count, integrated over time.
    mutable sim::TimeWeighted stale_count;
  };

  static constexpr std::uint64_t kNoExpiry = ~std::uint64_t{0};

  // Where an MA expiry sits in the simulator's dispatch order: its
  // time, then the event sequence reserved when it was scheduled.
  struct ExpiryKey {
    sim::Time at = 0;
    std::uint64_t sequence = 0;

    friend bool operator==(const ExpiryKey&, const ExpiryKey&) = default;
    friend bool operator<(const ExpiryKey& a, const ExpiryKey& b) {
      return a.at != b.at ? a.at < b.at : a.sequence < b.sequence;
    }
  };

  struct Expiry {
    ExpiryKey key;
    ObjectId object;
  };

  ClassState& class_state(ObjectClass cls) {
    return classes_[static_cast<int>(cls)];
  }
  const ClassState& class_state(ObjectClass cls) const {
    return classes_[static_cast<int>(cls)];
  }
  int CheckedIndex(ObjectId id) const;
  ObjectState& state(ObjectId id);
  const ObjectState& state(ObjectId id) const;
  // The object's queued keys; sizes the class's table on first use.
  std::vector<QueuedKey>& QueuedKeys(ObjectId id);

  // The timestamp MA-style aging runs on: the generation time, or the
  // arrival time under kMaxAgeArrival. `s` is state(id).
  sim::Time Freshness(ObjectId id, const ObjectState& s) const;

  // Is `id` stale at time `at`, by its state as it stands?
  bool ComputeStale(ObjectId id, sim::Time at) const;

  // Re-evaluates one object's flag at time `at` and folds any change
  // into the stale-count signal.
  void Refresh(ObjectId id, sim::Time at) const;

  // (Re)schedules the MA expiry for one object, superseding any
  // earlier one.
  void ScheduleExpiry(ObjectId id);

  // The run is the initial wave, then `run_` from `run_head_` on.
  bool RunEmpty() const {
    return initial_head_ == initial_size_ && run_head_ == run_.size();
  }
  Expiry RunFront() const;
  void PopRunFront() const;
  void PopHeapFront() const;

  // Applies, in key order and each at its own time, every current
  // expiry keyed before (now, current sequence): the expiries an event
  // per object would already have fired. Superseded entries on the
  // index fronts are dropped on the way.
  void Advance() const;

  bool UsesMaxAge() const {
    return criterion_ != StalenessCriterion::kUnappliedUpdate;
  }

  sim::Simulator* simulator_;
  StalenessCriterion criterion_;
  sim::Duration max_age_;
  ClassState classes_[kNumObjectClasses];
  // The expiry index, in (at, sequence) order. An expiry no earlier
  // than the run's last one is appended to the run; the rest (most
  // steady-state expiries under generation-time MA, since update ages
  // vary) go to a min-heap, which only ever holds expiries due within
  // alpha.
  //
  // The run starts with the initial wave, which is implicit: entry k
  // of [initial_head_, initial_size_) is (alpha, initial_sequence_ + k)
  // for the k-th object, low class first. Appended entries sort after
  // it: while any of it is pending, only an expiry due at or after
  // alpha is appended, and its sequence is later. They are stored in
  // `run_` and read from `run_head_` on; every expiry under MA-arrival
  // goes there.
  //
  // The mutable members (these fronts, each class's stale flags and
  // stale count) change outside the mutators only in Advance, which
  // applies expiries already due: a const reader sees what an event per
  // expiry would have left.
  std::uint64_t initial_sequence_ = 0;
  mutable std::size_t initial_head_ = 0;
  std::size_t initial_size_ = 0;
  mutable std::vector<Expiry> run_;
  mutable std::size_t run_head_ = 0;
  mutable std::vector<Expiry> out_of_order_;
};

}  // namespace strip::db

#endif  // STRIP_DB_STALENESS_H_
