// Randomized churn: the pooled UpdateQueue against a naive reference
// model (a flat vector re-scanned per operation). Hundreds of
// thousands of mixed push / pop / class-pop / purge / remove / peek
// operations on a small bounded queue, so overflow eviction and
// compaction fire constantly.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "db/object.h"
#include "db/update.h"
#include "db/update_queue.h"

namespace strip::db {
namespace {

bool Earlier(const Update& a, const Update& b) {
  if (a.generation_time != b.generation_time) {
    return a.generation_time < b.generation_time;
  }
  return a.id < b.id;
}

// The naive model: every queued update in one vector, every operation
// a linear scan — trivially correct.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(std::size_t max_size) : max_size_(max_size) {}

  std::vector<Update> Push(const Update& update) {
    updates_.push_back(update);
    std::vector<Update> evicted;
    while (updates_.size() > max_size_) {
      evicted.push_back(*PopOldest());
      ++overflow_drops_;
    }
    return evicted;
  }

  std::optional<Update> PopOldest() { return Take(OldestIndex(nullptr)); }
  std::optional<Update> PopNewest() { return Take(NewestIndex(nullptr)); }
  std::optional<Update> PopOldestOfClass(ObjectClass cls) {
    return Take(OldestIndex(&cls));
  }
  std::optional<Update> PopNewestOfClass(ObjectClass cls) {
    return Take(NewestIndex(&cls));
  }

  std::size_t SizeOfClass(ObjectClass cls) const {
    std::size_t n = 0;
    for (const Update& u : updates_) n += u.object.cls == cls ? 1 : 0;
    return n;
  }

  std::vector<Update> PurgeGeneratedBefore(double cutoff) {
    std::vector<Update> purged;
    for (const Update& u : updates_) {
      if (u.generation_time < cutoff) purged.push_back(u);
    }
    std::sort(purged.begin(), purged.end(), Earlier);
    updates_.erase(std::remove_if(updates_.begin(), updates_.end(),
                                  [cutoff](const Update& u) {
                                    return u.generation_time < cutoff;
                                  }),
                   updates_.end());
    return purged;
  }

  std::optional<Update> PeekNewestFor(ObjectId object) const {
    std::optional<Update> newest;
    for (const Update& u : updates_) {
      if (u.object == object && (!newest || Earlier(*newest, u))) newest = u;
    }
    return newest;
  }

  bool Remove(const Update& update) {
    for (std::size_t i = 0; i < updates_.size(); ++i) {
      if (updates_[i].id == update.id) {
        updates_.erase(updates_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  bool HasUpdateFor(ObjectId object) const {
    for (const Update& u : updates_) {
      if (u.object == object) return true;
    }
    return false;
  }

  std::size_t size() const { return updates_.size(); }
  std::uint64_t overflow_drops() const { return overflow_drops_; }

  double OldestGeneration() const {
    return updates_[*OldestIndex(nullptr)].generation_time;
  }
  double NewestGeneration() const {
    return updates_[*NewestIndex(nullptr)].generation_time;
  }

  const Update& At(std::size_t i) const { return updates_[i]; }

 private:
  std::optional<std::size_t> OldestIndex(const ObjectClass* cls) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < updates_.size(); ++i) {
      if (cls != nullptr && updates_[i].object.cls != *cls) continue;
      if (!best || Earlier(updates_[i], updates_[*best])) best = i;
    }
    return best;
  }

  std::optional<std::size_t> NewestIndex(const ObjectClass* cls) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < updates_.size(); ++i) {
      if (cls != nullptr && updates_[i].object.cls != *cls) continue;
      if (!best || Earlier(updates_[*best], updates_[i])) best = i;
    }
    return best;
  }

  std::optional<Update> Take(std::optional<std::size_t> index) {
    if (!index.has_value()) return std::nullopt;
    const Update update = updates_[*index];
    updates_.erase(updates_.begin() + static_cast<std::ptrdiff_t>(*index));
    return update;
  }

  std::size_t max_size_;
  std::vector<Update> updates_;
  std::uint64_t overflow_drops_ = 0;
};

void ExpectSameUpdate(const std::optional<Update>& actual,
                      const std::optional<Update>& expected) {
  ASSERT_EQ(actual.has_value(), expected.has_value());
  if (actual.has_value()) {
    EXPECT_EQ(actual->id, expected->id);
    EXPECT_EQ(actual->generation_time, expected->generation_time);
    EXPECT_EQ(actual->object, expected->object);
    EXPECT_EQ(actual->attribute, expected->attribute);
    EXPECT_EQ(actual->arrival_time, expected->arrival_time);
    EXPECT_EQ(actual->value, expected->value);
  }
}

void ExpectSameUpdates(const std::vector<Update>& actual,
                       const std::vector<Update>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ExpectSameUpdate(actual[i], expected[i]);
  }
}

TEST(UpdateQueueChurnTest, MatchesReferenceOverRandomizedChurn) {
  // Small bound: overflow eviction triggers thousands of times.
  constexpr std::size_t kBound = 96;
  UpdateQueue queue(kBound);
  ReferenceQueue reference(kBound);
  std::mt19937_64 rng(20260806);

  std::uint64_t next_id = 1;
  double now = 0;

  constexpr int kOps = 120000;
  for (int op = 0; op < kOps; ++op) {
    now += 0.01;
    const int roll = static_cast<int>(rng() % 100);
    if (roll < 50) {
      // Push. Coarse time quantization makes generation-time ties
      // common; times within [now - 2, now] mix near-sorted and
      // out-of-order arrivals.
      Update update;
      update.id = base::UpdateId(next_id++);
      update.object = {rng() % 2 == 0 ? ObjectClass::kLowImportance
                                      : ObjectClass::kHighImportance,
                       static_cast<int>(rng() % 40)};
      update.generation_time =
          now - static_cast<double>(rng() % 16) * 0.125;
      update.arrival_time = now;
      update.value = static_cast<double>(update.id.value());
      ExpectSameUpdates(queue.Push(update), reference.Push(update));
    } else if (roll < 60) {
      ExpectSameUpdate(queue.PopOldest(), reference.PopOldest());
    } else if (roll < 66) {
      ExpectSameUpdate(queue.PopNewest(), reference.PopNewest());
    } else if (roll < 72) {
      const auto cls = rng() % 2 == 0 ? ObjectClass::kLowImportance
                                      : ObjectClass::kHighImportance;
      ExpectSameUpdate(queue.PopOldestOfClass(cls),
                       reference.PopOldestOfClass(cls));
    } else if (roll < 78) {
      const auto cls = rng() % 2 == 0 ? ObjectClass::kLowImportance
                                      : ObjectClass::kHighImportance;
      ExpectSameUpdate(queue.PopNewestOfClass(cls),
                       reference.PopNewestOfClass(cls));
    } else if (roll < 84) {
      // Maximum-Age purge of a random-depth prefix.
      const double cutoff = now - static_cast<double>(rng() % 20) * 0.1;
      ExpectSameUpdates(queue.PurgeGeneratedBefore(cutoff),
                        reference.PurgeGeneratedBefore(cutoff));
    } else if (roll < 92) {
      // Peek / membership for a random object.
      const ObjectId object = {rng() % 2 == 0 ? ObjectClass::kLowImportance
                                              : ObjectClass::kHighImportance,
                               static_cast<int>(rng() % 40)};
      ExpectSameUpdate(queue.PeekNewestFor(object),
                       reference.PeekNewestFor(object));
      EXPECT_EQ(queue.HasUpdateFor(object), reference.HasUpdateFor(object));
    } else if (reference.size() > 0) {
      // Remove a random resident update, then the same one again (the
      // second attempt must fail).
      const Update victim = reference.At(rng() % reference.size());
      EXPECT_TRUE(queue.Remove(victim));
      EXPECT_TRUE(reference.Remove(victim));
      EXPECT_FALSE(queue.Remove(victim));
    }

    ASSERT_EQ(queue.size(), reference.size());
    EXPECT_EQ(queue.overflow_drops(), reference.overflow_drops());
    EXPECT_EQ(queue.SizeOfClass(ObjectClass::kLowImportance),
              reference.SizeOfClass(ObjectClass::kLowImportance));
    EXPECT_EQ(queue.SizeOfClass(ObjectClass::kHighImportance),
              reference.SizeOfClass(ObjectClass::kHighImportance));
    if (!queue.empty()) {
      EXPECT_EQ(queue.OldestGeneration(), reference.OldestGeneration());
      EXPECT_EQ(queue.NewestGeneration(), reference.NewestGeneration());
    }
  }

  // Drain in FIFO order; every remaining update must match.
  while (auto popped = queue.PopOldest()) {
    ExpectSameUpdate(popped, reference.PopOldest());
  }
  EXPECT_EQ(reference.size(), 0u);
}

// Exact generation-time ties across the two classes: every time and
// purge cutoff is a multiple of 0.5 within a few seconds of the clock,
// so whole-queue pops, overflow evictions and purges keep meeting
// equal-time fronts and backs in both class indexes and must break
// them by id. Three objects per class, with indexes far apart, keep
// every per-object chain several updates deep and its head table
// sparse; out-of-order pushes walk into the chain.
TEST(UpdateQueueChurnTest, TieHeavyChurn) {
  constexpr std::size_t kBound = 24;
  constexpr std::array<int, 3> kIndexes = {0, 1, 100000};
  UpdateQueue queue(kBound);
  ReferenceQueue reference(kBound);
  std::mt19937_64 rng(20261017);
  auto random_class = [&rng] {
    return rng() % 2 == 0 ? ObjectClass::kLowImportance
                          : ObjectClass::kHighImportance;
  };
  auto random_object = [&] {
    return ObjectId{random_class(), kIndexes[rng() % kIndexes.size()]};
  };

  std::uint64_t next_id = 1;
  constexpr int kOps = 200000;
  for (int op = 0; op < kOps; ++op) {
    // The clock advances half a second every eight operations.
    const double now = 0.5 * static_cast<double>(op / 8);
    const int roll = static_cast<int>(rng() % 100);
    if (roll < 45) {
      Update update;
      update.id = base::UpdateId(next_id++);
      update.object = random_object();
      update.attribute = static_cast<int>(rng() % 4) - 1;
      update.generation_time = now - 0.5 * static_cast<double>(rng() % 10);
      update.arrival_time = now + 0.25 * static_cast<double>(rng() % 4);
      update.value = static_cast<double>(rng() % 1000) / 8;
      ExpectSameUpdates(queue.Push(update), reference.Push(update));
    } else if (roll < 53) {
      ExpectSameUpdate(queue.PopOldest(), reference.PopOldest());
    } else if (roll < 61) {
      ExpectSameUpdate(queue.PopNewest(), reference.PopNewest());
    } else if (roll < 66) {
      const ObjectClass cls = random_class();
      ExpectSameUpdate(queue.PopOldestOfClass(cls),
                       reference.PopOldestOfClass(cls));
    } else if (roll < 71) {
      const ObjectClass cls = random_class();
      ExpectSameUpdate(queue.PopNewestOfClass(cls),
                       reference.PopNewestOfClass(cls));
    } else if (roll < 79) {
      const double cutoff = now - 0.5 * static_cast<double>(rng() % 12);
      ExpectSameUpdates(queue.PurgeGeneratedBefore(cutoff),
                        reference.PurgeGeneratedBefore(cutoff));
    } else if (roll < 91) {
      const ObjectId object = random_object();
      ExpectSameUpdate(queue.PeekNewestFor(object),
                       reference.PeekNewestFor(object));
      EXPECT_EQ(queue.HasUpdateFor(object), reference.HasUpdateFor(object));
    } else if (reference.size() > 0) {
      // Remove a resident update from anywhere in its chain, then the
      // same one again.
      const Update victim = reference.At(rng() % reference.size());
      EXPECT_TRUE(queue.Remove(victim));
      EXPECT_TRUE(reference.Remove(victim));
      EXPECT_FALSE(queue.Remove(victim));
    }

    ASSERT_EQ(queue.size(), reference.size());
    EXPECT_EQ(queue.overflow_drops(), reference.overflow_drops());
    EXPECT_EQ(queue.SizeOfClass(ObjectClass::kLowImportance),
              reference.SizeOfClass(ObjectClass::kLowImportance));
    EXPECT_EQ(queue.SizeOfClass(ObjectClass::kHighImportance),
              reference.SizeOfClass(ObjectClass::kHighImportance));
    if (!queue.empty()) {
      EXPECT_EQ(queue.OldestGeneration(), reference.OldestGeneration());
      EXPECT_EQ(queue.NewestGeneration(), reference.NewestGeneration());
    }
  }

  // Drain newest first; every remaining update must match.
  while (auto popped = queue.PopNewest()) {
    ExpectSameUpdate(popped, reference.PopNewest());
  }
  EXPECT_EQ(reference.size(), 0u);
}

// A sustained near-sorted FIFO stream (the paper's workload shape):
// ids must come out in generation order and evictions must count.
TEST(UpdateQueueChurnTest, SortedStreamOverflowKeepsNewest) {
  constexpr std::size_t kBound = 64;
  UpdateQueue queue(kBound);
  std::uint64_t id = 0;
  for (int i = 0; i < 100000; ++i) {
    Update update;
    update.id = base::UpdateId(++id);
    update.object = {ObjectClass::kLowImportance, static_cast<int>(i % 10)};
    update.generation_time = static_cast<double>(i);
    const auto evicted = queue.Push(update);
    if (i < static_cast<int>(kBound)) {
      EXPECT_TRUE(evicted.empty());
    } else {
      ASSERT_EQ(evicted.size(), 1u);
      EXPECT_EQ(evicted[0].id.value(), id - kBound);
    }
  }
  EXPECT_EQ(queue.size(), kBound);
  EXPECT_EQ(queue.overflow_drops(), 100000 - kBound);
  // The survivors are exactly the newest kBound, in order.
  for (std::uint64_t expect = 100000 - kBound + 1; expect <= 100000;
       ++expect) {
    auto popped = queue.PopOldest();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->id.value(), expect);
  }
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace strip::db
