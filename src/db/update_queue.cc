#include "db/update_queue.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/check.h"

namespace strip::db {

// ---------------------------------------------------------------------------
// FlatKeyIndex

std::size_t UpdateQueue::FlatKeyIndex::LowerBound(const Key& key) const {
  std::size_t lo = head_;
  std::size_t hi = keys_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (KeyLess(keys_[mid], key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool UpdateQueue::FlatKeyIndex::Insert(const Key& key) {
  const std::size_t pos = LowerBound(key);
  if (pos < keys_.size() && KeySame(keys_[pos], key)) return false;
  const std::size_t dist_front = pos - head_;
  const std::size_t dist_back = keys_.size() - pos;
  if (head_ > 0 && dist_front <= dist_back) {
    // Shift the (shorter) prefix one left into the head gap. Key is
    // trivially copyable, so memmove is fine.
    std::memmove(keys_.data() + head_ - 1, keys_.data() + head_,
                 dist_front * sizeof(Key));
    --head_;
    keys_[pos - 1] = key;
  } else {
    keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(pos), key);
  }
  return true;
}

bool UpdateQueue::FlatKeyIndex::Erase(const Key& key, std::uint32_t* slot) {
  const std::size_t pos = LowerBound(key);
  if (pos == keys_.size() || !KeySame(keys_[pos], key)) return false;
  if (slot != nullptr) *slot = keys_[pos].slot;
  const std::size_t dist_front = pos - head_;
  const std::size_t dist_back = keys_.size() - pos - 1;
  if (dist_front <= dist_back) {
    // Shift the (shorter) prefix one right over the erased key.
    std::memmove(keys_.data() + head_ + 1, keys_.data() + head_,
                 dist_front * sizeof(Key));
    ++head_;
    MaybeCompact();
  } else {
    keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return true;
}

void UpdateQueue::FlatKeyIndex::PopFront() {
  ++head_;
  MaybeCompact();
}

std::size_t UpdateQueue::FlatKeyIndex::CountBefore(sim::Time cutoff) const {
  // First key not less than (cutoff, id 0) == first key with
  // time >= cutoff, since ids only refine equal times.
  return LowerBound(Key{cutoff, 0, 0}) - head_;
}

void UpdateQueue::FlatKeyIndex::DropFront(std::size_t n) {
  head_ += n;
  MaybeCompact();
}

void UpdateQueue::FlatKeyIndex::MaybeCompact() {
  // Reclaim the dead prefix once it dominates the buffer; batching the
  // memmove keeps front pops O(1) amortized.
  if (head_ >= 1024 && head_ * 2 >= keys_.size()) {
    keys_.erase(keys_.begin(), keys_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

// ---------------------------------------------------------------------------
// UpdateQueue

UpdateQueue::UpdateQueue(std::size_t max_size) : max_size_(max_size) {
  STRIP_CHECK_MSG(max_size > 0, "update queue bound must be positive");
}

std::uint32_t UpdateQueue::AcquireSlot(const Update& update) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = update;
    return slot;
  }
  pool_.push_back(update);
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

Update UpdateQueue::DetachFromSecondary(const Key& key) {
  Update update = pool_[key.slot];
  auto obj_it = by_object_.find(update.object);
  STRIP_CHECK_MSG(obj_it != by_object_.end(), "object index out of sync");
  std::vector<Key>& keys = obj_it->second;
  const auto pos = std::lower_bound(keys.begin(), keys.end(), key, KeyLess);
  STRIP_CHECK_MSG(pos != keys.end() && KeySame(*pos, key),
                  "object index out of sync");
  keys.erase(pos);
  if (keys.empty()) by_object_.erase(obj_it);
  const bool in_class =
      by_class_[static_cast<int>(update.object.cls)].Erase(key, nullptr);
  STRIP_CHECK_MSG(in_class, "class index out of sync");
  ReleaseSlot(key.slot);
  return update;
}

std::vector<Update> UpdateQueue::Push(const Update& update) {
  const std::uint32_t slot = AcquireSlot(update);
  const Key key{update.generation_time, update.id.value(), slot};
  const bool inserted = by_generation_.Insert(key);
  STRIP_CHECK_MSG(inserted, "duplicate update id pushed");
  std::vector<Key>& obj_keys = by_object_[update.object];
  obj_keys.insert(
      std::lower_bound(obj_keys.begin(), obj_keys.end(), key, KeyLess), key);
  by_class_[static_cast<int>(update.object.cls)].Insert(key);
  std::vector<Update> evicted;
  while (by_generation_.size() > max_size_) {
    const Key oldest = by_generation_.front();
    by_generation_.PopFront();
    evicted.push_back(DetachFromSecondary(oldest));
    ++overflow_drops_;
  }
  return evicted;
}

std::optional<Update> UpdateQueue::PopOldest() {
  if (by_generation_.empty()) return std::nullopt;
  const Key key = by_generation_.front();
  by_generation_.PopFront();
  return DetachFromSecondary(key);
}

std::optional<Update> UpdateQueue::PopNewest() {
  if (by_generation_.empty()) return std::nullopt;
  const Key key = by_generation_.back();
  by_generation_.PopBack();
  return DetachFromSecondary(key);
}

std::optional<Update> UpdateQueue::PopOldestOfClass(ObjectClass cls) {
  FlatKeyIndex& keys = by_class_[static_cast<int>(cls)];
  if (keys.empty()) return std::nullopt;
  // DetachFromSecondary removes the class entry itself (front, so the
  // erase is an O(1) head advance); the primary index is removed here.
  const Key key = keys.front();
  const bool in_primary = by_generation_.Erase(key, nullptr);
  STRIP_CHECK_MSG(in_primary, "generation index out of sync");
  return DetachFromSecondary(key);
}

std::optional<Update> UpdateQueue::PopNewestOfClass(ObjectClass cls) {
  FlatKeyIndex& keys = by_class_[static_cast<int>(cls)];
  if (keys.empty()) return std::nullopt;
  const Key key = keys.back();
  const bool in_primary = by_generation_.Erase(key, nullptr);
  STRIP_CHECK_MSG(in_primary, "generation index out of sync");
  return DetachFromSecondary(key);
}

std::vector<Update> UpdateQueue::PurgeGeneratedBefore(sim::Time cutoff) {
  const std::size_t n = by_generation_.CountBefore(cutoff);
  std::vector<Update> purged;
  purged.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Each purged key is the current front of its class index, so the
    // secondary erases are head advances; the primary index is dropped
    // in one batch below.
    purged.push_back(DetachFromSecondary(by_generation_.at(i)));
  }
  by_generation_.DropFront(n);
  return purged;
}

std::optional<Update> UpdateQueue::PeekNewestFor(ObjectId object) const {
  auto it = by_object_.find(object);
  if (it == by_object_.end()) return std::nullopt;
  STRIP_CHECK(!it->second.empty());
  return pool_[it->second.back().slot];
}

bool UpdateQueue::Remove(const Update& update) {
  std::uint32_t slot = 0;
  if (!by_generation_.Erase(Key{update.generation_time, update.id.value(), 0},
                            &slot)) {
    return false;
  }
  DetachFromSecondary(Key{update.generation_time, update.id.value(), slot});
  return true;
}

bool UpdateQueue::HasUpdateFor(ObjectId object) const {
  return by_object_.find(object) != by_object_.end();
}

sim::Time UpdateQueue::OldestGeneration() const {
  STRIP_CHECK_MSG(!empty(), "OldestGeneration on empty queue");
  return by_generation_.front().time;
}

sim::Time UpdateQueue::NewestGeneration() const {
  STRIP_CHECK_MSG(!empty(), "NewestGeneration on empty queue");
  return by_generation_.back().time;
}

}  // namespace strip::db
