// The controller's update queue (Figure 2, step 3).
//
// Unapplied updates wait here, ordered by *generation* time — not
// arrival time — so the system can install in generation order despite
// network jitter and can discard expired updates from the front in
// O(1) amortized (Section 3.3). The queue is bounded: pushing beyond
// `max_size` evicts the oldest-generation entries (Section 4.2).
//
// Removal supports both queueing disciplines the paper studies:
// PopOldest (FIFO) and PopNewest (LIFO), plus the per-object access
// needed by the On Demand policy (PeekNewestFor / Remove).
//
// Implementation note: each fact is stored once.
//  - Updates live in a pooled slab (slots recycled through a free
//    list).
//  - The only orderings are the two per-class indexes: flat sorted
//    vectors of packed (generation_time, id, slot) keys with a head
//    offset, so front pops and Maximum-Age purges are O(1) amortized
//    with batched compaction, and inserts/erases shift whichever side
//    of the vector is shorter. Whole-queue service (PopOldest,
//    PopNewest, overflow eviction, purges) compares the two class
//    fronts or backs by (time, id); ids are unique, so this is the
//    order one global index would give.
//  - The per-object index is an intrusive chain through the pool:
//    each entry links to the next newer and next older update for its
//    object, and one head (the newest) per object is kept per class in
//    a vector indexed by object index, grown on demand. Arrivals come
//    in near generation order, so a push links at or next to the head;
//    every removal unlinks in O(1); PeekNewestFor reads the head.
// The *simulated* cost of a scan is charged separately by the
// controller (x_scan · queue size for the plain queue of the paper;
// the dedup and indexed-queue options of Sections 4.2/4.4 are System
// behaviour built on PeekNewestFor / Remove); the data structure itself
// is cost-model agnostic.

#ifndef STRIP_DB_UPDATE_QUEUE_H_
#define STRIP_DB_UPDATE_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "db/object.h"
#include "db/update.h"
#include "sim/sim_time.h"

namespace strip::db {

class UpdateQueue {
 public:
  // A queue holding at most `max_size` updates.
  explicit UpdateQueue(std::size_t max_size);

  // Inserts `update`, evicting oldest-generation entries if the queue
  // would exceed its bound. Returns the evicted updates (usually empty;
  // possibly containing `update` itself if it is older than everything
  // in a full queue).
  std::vector<Update> Push(const Update& update);

  // Removes and returns the oldest-generation update (FIFO service).
  std::optional<Update> PopOldest();

  // Removes and returns the newest-generation update (LIFO service).
  std::optional<Update> PopNewest();

  // Class-filtered variants, for split-importance queue service (the
  // TF enhancement sketched in Section 4.2): oldest / newest update
  // targeting the given partition, or nullopt if none is queued.
  std::optional<Update> PopOldestOfClass(ObjectClass cls);
  std::optional<Update> PopNewestOfClass(ObjectClass cls);

  // Number of queued updates targeting the given partition.
  std::size_t SizeOfClass(ObjectClass cls) const {
    return by_class_[static_cast<int>(cls)].size();
  }

  // Removes and returns every update with generation_time < cutoff
  // (expired under Maximum Age). Ordered oldest first.
  std::vector<Update> PurgeGeneratedBefore(sim::Time cutoff);

  // Newest queued update for `object`, if any. Does not remove it.
  std::optional<Update> PeekNewestFor(ObjectId object) const;

  // Removes the specific update identified by `update.id`. Returns
  // true if it was present.
  bool Remove(const Update& update);

  // True if any update for `object` is queued.
  bool HasUpdateFor(ObjectId object) const;

  std::size_t size() const {
    return by_class_[0].size() + by_class_[1].size();
  }
  bool empty() const { return by_class_[0].empty() && by_class_[1].empty(); }
  std::size_t max_size() const { return max_size_; }

  // Generation time of the oldest / newest queued update.
  // Precondition: !empty().
  sim::Time OldestGeneration() const;
  sim::Time NewestGeneration() const;

  // Lifetime eviction count (overflow drops).
  std::uint64_t overflow_drops() const { return overflow_drops_; }

 private:
  static_assert(kNumObjectClasses == 2,
                "whole-queue service merges exactly two class indexes");

  // Orders by generation time, then by creation id for determinism.
  // `slot` locates the update in the pool and does not participate in
  // ordering.
  struct Key {
    sim::Time time;
    std::uint64_t id;
    std::uint32_t slot;
  };

  static bool KeyLess(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  }
  static bool KeySame(const Key& a, const Key& b) {
    return a.time == b.time && a.id == b.id;
  }

  // A sorted key sequence backed by a flat vector with a head offset:
  // front pops just advance the head (compacted in batches), and
  // middle insert/erase shifts whichever side is shorter, so both FIFO
  // and LIFO service are O(1) amortized.
  class FlatKeyIndex {
   public:
    std::size_t size() const { return keys_.size() - head_; }
    bool empty() const { return head_ == keys_.size(); }
    const Key& front() const { return keys_[head_]; }
    const Key& back() const { return keys_.back(); }
    // i-th key from the front (0-based).
    const Key& at(std::size_t i) const { return keys_[head_ + i]; }

    // Inserts maintaining order. Returns false (and inserts nothing)
    // if a key with the same (time, id) is already present.
    bool Insert(const Key& key);
    // Removes the key with `key`'s (time, id), if present. When found,
    // `*slot` receives the stored slot index.
    bool Erase(const Key& key, std::uint32_t* slot);

    void PopFront();
    void PopBack() { keys_.pop_back(); }
    // Number of leading keys with time < cutoff.
    std::size_t CountBefore(sim::Time cutoff) const;
    // Drops the first n keys in one batch.
    void DropFront(std::size_t n);

   private:
    // Absolute index of the first key not less than `key`.
    std::size_t LowerBound(const Key& key) const;
    void MaybeCompact();

    std::vector<Key> keys_;
    std::size_t head_ = 0;
  };

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  // A pooled update plus its links in its object's chain (pool slots,
  // or kNoSlot at either end).
  struct Entry {
    Update update;
    std::uint32_t newer = kNoSlot;
    std::uint32_t older = kNoSlot;
  };

  // The class whose index holds the oldest (front) / newest (back)
  // key of the whole queue. Precondition: !empty().
  ObjectClass OldestClass() const;
  ObjectClass NewestClass() const;

  // Slot of `object`'s newest queued update, or kNoSlot.
  std::uint32_t HeadOf(ObjectId object) const;

  std::uint32_t AcquireSlot(const Update& update);
  // Links a freshly acquired slot into its object's chain, newest
  // first.
  void Link(std::uint32_t slot);
  // Unlinks `slot` from its object's chain and frees it; returns the
  // stored update. The caller removes its class-index key.
  Update Detach(std::uint32_t slot);

  std::size_t max_size_;
  // Pooled update storage; `free_slots_` holds recyclable entries.
  std::vector<Entry> pool_;
  std::vector<std::uint32_t> free_slots_;
  // Per-class ordering; together they hold every queued update once.
  FlatKeyIndex by_class_[kNumObjectClasses];
  // Per-class chain heads by object index: the slot of the object's
  // newest queued update, or kNoSlot.
  std::vector<std::uint32_t> heads_[kNumObjectClasses];
  std::uint64_t overflow_drops_ = 0;
};

}  // namespace strip::db

#endif  // STRIP_DB_UPDATE_QUEUE_H_
