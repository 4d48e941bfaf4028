#include "db/update_queue.h"

#include <cstring>

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

ObjectClass UpdateQueue::OldestClass() const {
  const FlatKeyIndex& low = by_class_[0];
  const FlatKeyIndex& high = by_class_[1];
  return low.empty() || (!high.empty() && KeyLess(high.front(), low.front()))
             ? ObjectClass::kHighImportance
             : ObjectClass::kLowImportance;
}

ObjectClass UpdateQueue::NewestClass() const {
  const FlatKeyIndex& low = by_class_[0];
  const FlatKeyIndex& high = by_class_[1];
  return low.empty() || (!high.empty() && KeyLess(low.back(), high.back()))
             ? ObjectClass::kHighImportance
             : ObjectClass::kLowImportance;
}

std::uint32_t UpdateQueue::HeadOf(ObjectId object) const {
  const auto& heads = heads_[static_cast<int>(object.cls)];
  const auto index = static_cast<std::size_t>(object.index);
  return index < heads.size() ? heads[index] : kNoSlot;
}

std::uint32_t UpdateQueue::AcquireSlot(const Update& update) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot].update = update;
    return slot;
  }
  pool_.push_back(Entry{update});
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void UpdateQueue::Link(std::uint32_t slot) {
  Entry& entry = pool_[slot];
  const ObjectId object = entry.update.object;
  STRIP_CHECK_MSG(object.index >= 0, "negative object index");
  auto& heads = heads_[static_cast<int>(object.cls)];
  const auto index = static_cast<std::size_t>(object.index);
  if (index >= heads.size()) heads.resize(index + 1, kNoSlot);
  const Key key{entry.update.generation_time, entry.update.id.value(), slot};
  // Walk from the newest past every entry newer than this one.
  std::uint32_t newer = kNoSlot;
  std::uint32_t older = heads[index];
  while (older != kNoSlot) {
    const Update& u = pool_[older].update;
    if (KeyLess(Key{u.generation_time, u.id.value(), older}, key)) break;
    newer = older;
    older = pool_[older].older;
  }
  entry.newer = newer;
  entry.older = older;
  if (newer == kNoSlot) {
    heads[index] = slot;
  } else {
    pool_[newer].older = slot;
  }
  if (older != kNoSlot) pool_[older].newer = slot;
}

Update UpdateQueue::Detach(std::uint32_t slot) {
  const Entry& entry = pool_[slot];
  if (entry.newer == kNoSlot) {
    std::uint32_t& head = heads_[static_cast<int>(entry.update.object.cls)]
                                [static_cast<std::size_t>(
                                    entry.update.object.index)];
    STRIP_CHECK_MSG(head == slot, "object index out of sync");
    head = entry.older;
  } else {
    STRIP_CHECK_MSG(pool_[entry.newer].older == slot,
                    "object index out of sync");
    pool_[entry.newer].older = entry.older;
  }
  if (entry.older != kNoSlot) {
    STRIP_CHECK_MSG(pool_[entry.older].newer == slot,
                    "object index out of sync");
    pool_[entry.older].newer = entry.newer;
  }
  free_slots_.push_back(slot);
  return entry.update;
}

std::vector<Update> UpdateQueue::Push(const Update& update) {
  const std::uint32_t slot = AcquireSlot(update);
  const bool inserted = by_class_[static_cast<int>(update.object.cls)].Insert(
      Key{update.generation_time, update.id.value(), slot});
  STRIP_CHECK_MSG(inserted, "duplicate update id pushed");
  Link(slot);
  std::vector<Update> evicted;
  while (size() > max_size_) {
    evicted.push_back(*PopOldest());
    ++overflow_drops_;
  }
  return evicted;
}

std::optional<Update> UpdateQueue::PopOldest() {
  if (empty()) return std::nullopt;
  return PopOldestOfClass(OldestClass());
}

std::optional<Update> UpdateQueue::PopNewest() {
  if (empty()) return std::nullopt;
  return PopNewestOfClass(NewestClass());
}

std::optional<Update> UpdateQueue::PopOldestOfClass(ObjectClass cls) {
  FlatKeyIndex& keys = by_class_[static_cast<int>(cls)];
  if (keys.empty()) return std::nullopt;
  const std::uint32_t slot = keys.front().slot;
  keys.PopFront();
  return Detach(slot);
}

std::optional<Update> UpdateQueue::PopNewestOfClass(ObjectClass cls) {
  FlatKeyIndex& keys = by_class_[static_cast<int>(cls)];
  if (keys.empty()) return std::nullopt;
  const std::uint32_t slot = keys.back().slot;
  keys.PopBack();
  return Detach(slot);
}

std::vector<Update> UpdateQueue::PurgeGeneratedBefore(sim::Time cutoff) {
  FlatKeyIndex& low = by_class_[0];
  FlatKeyIndex& high = by_class_[1];
  const bool low_due = !low.empty() && low.front().time < cutoff;
  const bool high_due = !high.empty() && high.front().time < cutoff;
  if (!low_due && !high_due) return {};
  const std::size_t n_low = low_due ? low.CountBefore(cutoff) : 0;
  const std::size_t n_high = high_due ? high.CountBefore(cutoff) : 0;
  std::vector<Update> purged;
  purged.reserve(n_low + n_high);
  // Merge the two expired prefixes, oldest first; both are dropped
  // from their indexes in one batch below.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < n_low || j < n_high) {
    const bool take_low =
        j == n_high || (i < n_low && KeyLess(low.at(i), high.at(j)));
    purged.push_back(Detach(take_low ? low.at(i++).slot : high.at(j++).slot));
  }
  low.DropFront(n_low);
  high.DropFront(n_high);
  return purged;
}

std::optional<Update> UpdateQueue::PeekNewestFor(ObjectId object) const {
  const std::uint32_t head = HeadOf(object);
  if (head == kNoSlot) return std::nullopt;
  return pool_[head].update;
}

bool UpdateQueue::Remove(const Update& update) {
  std::uint32_t slot = 0;
  if (!by_class_[static_cast<int>(update.object.cls)].Erase(
          Key{update.generation_time, update.id.value(), 0}, &slot)) {
    return false;
  }
  Detach(slot);
  return true;
}

bool UpdateQueue::HasUpdateFor(ObjectId object) const {
  return HeadOf(object) != kNoSlot;
}

sim::Time UpdateQueue::OldestGeneration() const {
  STRIP_CHECK_MSG(!empty(), "OldestGeneration on empty queue");
  return by_class_[static_cast<int>(OldestClass())].front().time;
}

sim::Time UpdateQueue::NewestGeneration() const {
  STRIP_CHECK_MSG(!empty(), "NewestGeneration on empty queue");
  return by_class_[static_cast<int>(NewestClass())].back().time;
}

}  // namespace strip::db
