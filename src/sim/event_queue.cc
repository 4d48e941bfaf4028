#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace strip::sim {

bool EventQueue::Handle::pending() const {
  return queue_ != nullptr && queue_->IsLive(slot_, sequence_);
}

std::uint32_t EventQueue::AcquireSlot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  STRIP_CHECK_MSG(slots_.size() < kNoSlot, "event slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::ReleaseSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.sequence = kFreeSlot;
  s.callback = nullptr;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::HeapPush(HeapKey key) {
  // Hole-based sift-up: shift ancestors down into the hole and write
  // the new key exactly once.
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!KeyBefore(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventQueue::HeapPopRoot() {
  const HeapKey last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  // Bottom-up (Wegener) sift-down: drive the root hole straight to a
  // leaf, always promoting the smallest child, then sift `last` up
  // from that leaf. The replacement key comes from the bottom of the
  // heap — in a DES it is typically a recently scheduled far-future
  // event — so it nearly always belongs back near a leaf: the
  // top-down variant's extra compare-against-last at every level (to
  // early-exit) is almost always wasted, while the sift-up here is
  // usually zero or one step. Net: ~3 comparisons per level instead
  // of 4. The key order is a strict total order (sequences are
  // unique), so pop order — and with it every simulation result — is
  // unchanged.
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (KeyBefore(heap_[c], heap_[best])) best = c;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!KeyBefore(last, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = last;
}

void EventQueue::CompactNow() {
  std::size_t out = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (!IsStale(heap_[i])) heap_[out++] = heap_[i];
  }
  heap_.resize(out);
  heap_stale_ = 0;
  if (heap_.size() < 2) return;
  // Floyd heapify: sift down every internal node, deepest first.
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
    const std::size_t n = heap_.size();
    std::size_t j = i;
    for (;;) {
      const std::size_t first_child = 4 * j + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (KeyBefore(heap_[c], heap_[best])) best = c;
      }
      if (!KeyBefore(heap_[best], heap_[j])) break;
      std::swap(heap_[j], heap_[best]);
      j = best;
    }
  }
}

void EventQueue::DropStaleRoot() {
  while (!heap_.empty() && IsStale(heap_.front())) {
    HeapPopRoot();
    STRIP_CHECK(heap_stale_ > 0);
    --heap_stale_;
  }
}

std::uint64_t EventQueue::ReserveSequence(std::uint64_t count) {
  STRIP_CHECK_MSG(count <= kMaxSequence - next_sequence_,
                  "event sequence exhausted");
  const std::uint64_t first = next_sequence_;
  next_sequence_ += count;
  return first;
}

EventQueue::Handle EventQueue::Schedule(Time at, Callback callback) {
  STRIP_CHECK_MSG(at >= 0, "event scheduled at negative time");
  STRIP_CHECK_MSG(callback != nullptr, "event scheduled with null callback");
  const std::uint64_t sequence = ReserveSequence();
  const std::uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.time = at;
  s.sequence = sequence;
  s.callback = std::move(callback);
  HeapPush({at, sequence << kSlotBits | slot});
  ++live_count_;
  return Handle(this, slot, sequence);
}

bool EventQueue::Cancel(const Handle& handle) {
  if (handle.queue_ != this || !IsLive(handle.slot_, handle.sequence_)) {
    return false;
  }
  // The slot is reclaimed now (releasing the callback's captures
  // eagerly); the heap key goes stale and is skipped lazily.
  ReleaseSlot(handle.slot_);
  ++heap_stale_;
  STRIP_CHECK(live_count_ > 0);
  --live_count_;
  MaybeCompact();
  return true;
}

void EventQueue::PopRootInto(std::optional<Fired>& fired) {
  const HeapKey key = heap_.front();
  Slot& s = slots_[key.slot()];
  fired.emplace();
  fired->time = s.time;
  fired->sequence = s.sequence;
  fired->callback = std::move(s.callback);
  // Freeing the slot invalidates outstanding handles (pending() goes
  // false and Cancel() after the fact is a no-op).
  ReleaseSlot(key.slot());
  HeapPopRoot();
  STRIP_CHECK(live_count_ > 0);
  --live_count_;
}

std::optional<EventQueue::Fired> EventQueue::PopNext() {
  // NRVO: build the optional in the caller's storage so the callback
  // is moved exactly once (slot -> result).
  std::optional<Fired> fired;
  DropStaleRoot();
  if (heap_.empty()) return fired;
  PopRootInto(fired);
  return fired;
}

std::optional<EventQueue::Fired> EventQueue::PopNextBefore(Time limit) {
  std::optional<Fired> fired;
  DropStaleRoot();
  if (heap_.empty() || heap_.front().time > limit) return fired;
  PopRootInto(fired);
  return fired;
}

std::optional<Time> EventQueue::PeekNextTime() {
  DropStaleRoot();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().time;
}

}  // namespace strip::sim
