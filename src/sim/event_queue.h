// A cancellable future-event list for discrete-event simulation.
//
// Events are (time, callback) pairs ordered by time, with FIFO ordering
// among events scheduled for the same instant (stable tie-breaking by
// insertion sequence). Cancellation is O(1): the slot is reclaimed
// immediately and the heap key is lazily skipped when it reaches the
// top.
//
// Implementation: event records live in a slab (a vector of pooled
// slots recycled through an intrusive free list), so steady-state
// scheduling performs zero allocations — the callback's captures are
// stored inline in the slot (see sim/inline_callback.h) and the
// ordering structure is a flat 4-ary min-heap of packed
// (time, sequence, slot) keys, which keeps comparisons inside one or
// two cache lines instead of chasing per-event heap allocations.
// Handles carry the slot's generation stamp (the event's globally
// unique sequence number), so Cancel and pending() are O(1) array
// probes with no reference counting.
//
// Example:
//   EventQueue q;
//   auto h = q.Schedule(3.0, [] { ... });
//   q.Cancel(h);                 // nothing fires
//   while (auto ev = q.PopNext()) { now = ev->time; ev->callback(); }

#ifndef STRIP_SIM_EVENT_QUEUE_H_
#define STRIP_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/sim_time.h"

namespace strip::sim {

class EventQueue {
 public:
  using Callback = InlineCallback;

  // A fired event, as returned by PopNext().
  struct Fired {
    Time time = 0;
    // The sequence the event was scheduled under: its place among
    // events at the same instant.
    std::uint64_t sequence = 0;
    Callback callback;
  };

  // Refers to a scheduled event so it can be cancelled. Handles are
  // cheap to copy and remain safe to use after the event has fired or
  // been cancelled (Cancel simply returns false then), as long as the
  // queue itself is still alive. A default-constructed handle refers
  // to nothing.
  class Handle {
   public:
    Handle() = default;

    // True if the event has neither fired nor been cancelled.
    bool pending() const;

   private:
    friend class EventQueue;
    Handle(const EventQueue* queue, std::uint32_t slot, std::uint64_t sequence)
        : queue_(queue), slot_(slot), sequence_(sequence) {}
    const EventQueue* queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t sequence_ = 0;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `callback` to fire at time `at`. Times must be
  // non-negative; ordering with respect to the caller's clock is the
  // Simulator's responsibility.
  Handle Schedule(Time at, Callback callback);

  // Takes the sequence number the next Schedule would have used,
  // without scheduling anything. The sequence fixes a place among
  // events at the same instant: after those scheduled before the
  // reservation and before those scheduled after it, as Fired::sequence
  // shows. A client keys work of its own there without scheduling an
  // event. With `count` > 1 it takes that many consecutive sequences
  // and returns the first.
  std::uint64_t ReserveSequence(std::uint64_t count = 1);

  // Cancels a scheduled event. Returns true if the event was still
  // pending (and is now guaranteed not to fire), false if it had
  // already fired or been cancelled.
  bool Cancel(const Handle& handle);

  // Removes and returns the earliest pending event, or nullopt if none
  // remain. Cancelled keys encountered on the way are discarded.
  std::optional<Fired> PopNext();

  // Bounded pop, fusing the dispatch loop's peek + pop into one queue
  // operation: removes and returns the earliest pending event if its
  // time is <= `limit`, or returns nullopt (leaving the queue
  // untouched) when the earliest event lies beyond `limit` or none
  // remain. One stale sweep and one root probe per dispatched event,
  // where peek-then-pop pays both twice.
  std::optional<Fired> PopNextBefore(Time limit);

  // Time of the earliest pending event, or nullopt if none.
  std::optional<Time> PeekNextTime();

  // Number of pending (non-cancelled) events.
  std::size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

 private:
  // The heap key packs (sequence, slot) into one word: 24 bits of slot
  // index (16M concurrent events) under 40 bits of sequence (1T events
  // per queue lifetime). That makes the key 16 bytes — four children
  // per cache line or two — and turns the FIFO tie-break into a single
  // integer compare, since sequences are unique and occupy the high
  // bits.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNoSlot = kSlotMask;
  static constexpr std::uint64_t kMaxSequence = std::uint64_t{1}
                                                << (64 - kSlotBits);
  // Generation stamp of a free slot; real sequences never reach this.
  static constexpr std::uint64_t kFreeSlot = ~std::uint64_t{0};

  // One pooled event record. `sequence` doubles as the generation
  // stamp handles and heap keys are validated against.
  struct Slot {
    Time time = 0;
    std::uint64_t sequence = kFreeSlot;
    Callback callback;
    std::uint32_t next_free = kNoSlot;
  };

  struct HeapKey {
    Time time;
    std::uint64_t packed;  // sequence << kSlotBits | slot

    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(packed) & kSlotMask;
    }
    std::uint64_t sequence() const { return packed >> kSlotBits; }
  };

  static bool KeyBefore(const HeapKey& a, const HeapKey& b) {
    // Short-circuit on time: ties are rare, so the branch predicts
    // well and the packed tie-break is almost never evaluated.
    if (a.time != b.time) return a.time < b.time;
    return a.packed < b.packed;
  }

  // True if `handle`'s event is still scheduled in this queue.
  bool IsLive(std::uint32_t slot, std::uint64_t sequence) const {
    return slot < slots_.size() && slots_[slot].sequence == sequence;
  }

  // True if the heap key refers to a cancelled (or already freed and
  // recycled) slot.
  bool IsStale(const HeapKey& key) const {
    return slots_[key.slot()].sequence != key.sequence();
  }

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t slot);

  // 4-ary heap primitives over heap_.
  void HeapPush(HeapKey key);
  void HeapPopRoot();
  // Shared tail of the pop paths: moves the root's slot out into
  // `fired`, frees it, and re-heapifies.
  void PopRootInto(std::optional<Fired>& fired);
  // Drops stale keys off the heap top; rebuilds the heap wholesale
  // when stale keys dominate it.
  void DropStaleRoot();
  // Rebuild guard, inlined so the Cancel fast path pays two loads and
  // a branch, not a call: compaction only runs when stale keys
  // dominate a non-trivial heap, amortizing the O(n) sweep against
  // the cancels that created them.
  void MaybeCompact() {
    if (heap_.size() >= 64 && heap_stale_ * 2 >= heap_.size()) CompactNow();
  }
  void CompactNow();

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::vector<HeapKey> heap_;
  // Number of heap keys whose event was cancelled (lazily deleted).
  std::size_t heap_stale_ = 0;
  std::uint64_t next_sequence_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace strip::sim

#endif  // STRIP_SIM_EVENT_QUEUE_H_
