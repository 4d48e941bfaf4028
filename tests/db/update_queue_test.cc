#include "db/update_queue.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.h"

namespace strip::db {
namespace {

Update MakeUpdate(std::uint64_t id, sim::Time generation,
                  ObjectId object = {ObjectClass::kLowImportance, 0}) {
  Update u;
  u.id = base::UpdateId(id);
  u.object = object;
  u.generation_time = generation;
  u.arrival_time = generation + 0.1;
  u.value = static_cast<double>(id);
  return u;
}

TEST(UpdateQueueTest, StartsEmpty) {
  UpdateQueue queue(10);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.PopOldest().has_value());
  EXPECT_FALSE(queue.PopNewest().has_value());
}

TEST(UpdateQueueTest, PopOldestFollowsGenerationOrder) {
  UpdateQueue queue(10);
  queue.Push(MakeUpdate(1, 3.0));
  queue.Push(MakeUpdate(2, 1.0));
  queue.Push(MakeUpdate(3, 2.0));
  EXPECT_EQ(queue.PopOldest()->id.value(), 2u);
  EXPECT_EQ(queue.PopOldest()->id.value(), 3u);
  EXPECT_EQ(queue.PopOldest()->id.value(), 1u);
}

TEST(UpdateQueueTest, PopNewestIsReverseGenerationOrder) {
  UpdateQueue queue(10);
  queue.Push(MakeUpdate(1, 3.0));
  queue.Push(MakeUpdate(2, 1.0));
  queue.Push(MakeUpdate(3, 2.0));
  EXPECT_EQ(queue.PopNewest()->id.value(), 1u);
  EXPECT_EQ(queue.PopNewest()->id.value(), 3u);
  EXPECT_EQ(queue.PopNewest()->id.value(), 2u);
}

TEST(UpdateQueueTest, GenerationTiesBreakById) {
  UpdateQueue queue(10);
  queue.Push(MakeUpdate(5, 1.0));
  queue.Push(MakeUpdate(3, 1.0));
  queue.Push(MakeUpdate(7, 1.0));
  EXPECT_EQ(queue.PopOldest()->id.value(), 3u);
  EXPECT_EQ(queue.PopOldest()->id.value(), 5u);
  EXPECT_EQ(queue.PopOldest()->id.value(), 7u);
}

TEST(UpdateQueueTest, OverflowEvictsOldestGeneration) {
  UpdateQueue queue(3);
  queue.Push(MakeUpdate(1, 1.0));
  queue.Push(MakeUpdate(2, 2.0));
  queue.Push(MakeUpdate(3, 3.0));
  const std::vector<Update> evicted = queue.Push(MakeUpdate(4, 4.0));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id.value(), 1u);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.overflow_drops(), 1u);
}

TEST(UpdateQueueTest, OverflowCanEvictThePushedUpdateItself) {
  UpdateQueue queue(2);
  queue.Push(MakeUpdate(1, 5.0));
  queue.Push(MakeUpdate(2, 6.0));
  // Older than everything in a full queue: it is the one dropped.
  const std::vector<Update> evicted = queue.Push(MakeUpdate(3, 1.0));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id.value(), 3u);
  EXPECT_EQ(queue.OldestGeneration(), 5.0);
}

TEST(UpdateQueueTest, PurgeRemovesStrictlyOlderGenerations) {
  UpdateQueue queue(10);
  queue.Push(MakeUpdate(1, 1.0));
  queue.Push(MakeUpdate(2, 2.0));
  queue.Push(MakeUpdate(3, 3.0));
  const std::vector<Update> purged = queue.PurgeGeneratedBefore(2.0);
  ASSERT_EQ(purged.size(), 1u);
  EXPECT_EQ(purged[0].id.value(), 1u);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.OldestGeneration(), 2.0);
}

TEST(UpdateQueueTest, PurgeReturnsOldestFirst) {
  UpdateQueue queue(10);
  queue.Push(MakeUpdate(1, 3.0));
  queue.Push(MakeUpdate(2, 1.0));
  queue.Push(MakeUpdate(3, 2.0));
  const std::vector<Update> purged = queue.PurgeGeneratedBefore(10.0);
  ASSERT_EQ(purged.size(), 3u);
  EXPECT_EQ(purged[0].id.value(), 2u);
  EXPECT_EQ(purged[1].id.value(), 3u);
  EXPECT_EQ(purged[2].id.value(), 1u);
  EXPECT_TRUE(queue.empty());
}

TEST(UpdateQueueTest, PeekNewestForObject) {
  UpdateQueue queue(10);
  const ObjectId a{ObjectClass::kLowImportance, 1};
  const ObjectId b{ObjectClass::kLowImportance, 2};
  queue.Push(MakeUpdate(1, 1.0, a));
  queue.Push(MakeUpdate(2, 3.0, a));
  queue.Push(MakeUpdate(3, 2.0, b));
  const auto newest_a = queue.PeekNewestFor(a);
  ASSERT_TRUE(newest_a.has_value());
  EXPECT_EQ(newest_a->id.value(), 2u);
  EXPECT_EQ(queue.size(), 3u);  // peek does not remove
  EXPECT_EQ(queue.PeekNewestFor(b)->id.value(), 3u);
  EXPECT_FALSE(
      queue.PeekNewestFor({ObjectClass::kHighImportance, 1}).has_value());
}

TEST(UpdateQueueTest, HasUpdateFor) {
  UpdateQueue queue(10);
  const ObjectId a{ObjectClass::kLowImportance, 1};
  EXPECT_FALSE(queue.HasUpdateFor(a));
  queue.Push(MakeUpdate(1, 1.0, a));
  EXPECT_TRUE(queue.HasUpdateFor(a));
  queue.PopOldest();
  EXPECT_FALSE(queue.HasUpdateFor(a));
}

TEST(UpdateQueueTest, RemoveSpecificUpdate) {
  UpdateQueue queue(10);
  const ObjectId a{ObjectClass::kLowImportance, 1};
  const Update u1 = MakeUpdate(1, 1.0, a);
  const Update u2 = MakeUpdate(2, 2.0, a);
  queue.Push(u1);
  queue.Push(u2);
  EXPECT_TRUE(queue.Remove(u1));
  EXPECT_FALSE(queue.Remove(u1));  // already gone
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.PeekNewestFor(a)->id.value(), 2u);
}

TEST(UpdateQueueTest, OldestNewestGeneration) {
  UpdateQueue queue(10);
  queue.Push(MakeUpdate(1, 5.0));
  queue.Push(MakeUpdate(2, 2.0));
  EXPECT_DOUBLE_EQ(queue.OldestGeneration(), 2.0);
  EXPECT_DOUBLE_EQ(queue.NewestGeneration(), 5.0);
}

TEST(UpdateQueueTest, ClassFilteredPops) {
  UpdateQueue queue(10);
  const ObjectId low{ObjectClass::kLowImportance, 1};
  const ObjectId high{ObjectClass::kHighImportance, 1};
  queue.Push(MakeUpdate(1, 1.0, low));
  queue.Push(MakeUpdate(2, 2.0, high));
  queue.Push(MakeUpdate(3, 3.0, low));
  queue.Push(MakeUpdate(4, 4.0, high));
  EXPECT_EQ(queue.SizeOfClass(ObjectClass::kLowImportance), 2u);
  EXPECT_EQ(queue.SizeOfClass(ObjectClass::kHighImportance), 2u);
  EXPECT_EQ(queue.PopOldestOfClass(ObjectClass::kHighImportance)->id.value(), 2u);
  EXPECT_EQ(queue.PopNewestOfClass(ObjectClass::kHighImportance)->id.value(), 4u);
  EXPECT_FALSE(
      queue.PopOldestOfClass(ObjectClass::kHighImportance).has_value());
  EXPECT_EQ(queue.PopNewestOfClass(ObjectClass::kLowImportance)->id.value(), 3u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(UpdateQueueDeathTest, InvalidUse) {
  EXPECT_DEATH(UpdateQueue(0), "positive");
  UpdateQueue queue(4);
  EXPECT_DEATH(queue.OldestGeneration(), "empty");
  EXPECT_DEATH(queue.NewestGeneration(), "empty");
  // Re-pushing a queued update dies, whether its key sits at the front,
  // in the middle or at the back of its class index.
  const ObjectId low{ObjectClass::kLowImportance, 3};
  const Update first = MakeUpdate(1, 1.0, low);
  const Update middle = MakeUpdate(2, 2.0, low);
  const Update last = MakeUpdate(3, 3.0, low);
  queue.Push(first);
  queue.Push(MakeUpdate(4, 2.0, {ObjectClass::kHighImportance, 3}));
  queue.Push(middle);
  queue.Push(last);
  for (const Update& u : {first, middle, last}) {
    EXPECT_DEATH(queue.Push(u), "duplicate update id pushed");
  }
}

// Property test: random pushes/pops/purges/removes agree with a
// reference model, and the per-object index never goes out of sync.
TEST(UpdateQueueTest, RandomOpsAgreeWithReferenceModel) {
  UpdateQueue queue(50);
  sim::RandomStream random(base::RngSeed(11));
  std::map<std::pair<sim::Time, std::uint64_t>, Update> model;
  std::uint64_t next_id = 0;

  auto model_erase_oldest = [&] {
    Update u = model.begin()->second;
    model.erase(model.begin());
    return u;
  };

  for (int step = 0; step < 4000; ++step) {
    const int op = random.UniformInt(0, 4);
    if (op <= 1 || model.empty()) {  // push
      Update u = MakeUpdate(
          ++next_id, random.Uniform(0, 100),
          {random.WithProbability(0.5) ? ObjectClass::kLowImportance
                                       : ObjectClass::kHighImportance,
           random.UniformInt(0, 9)});
      const auto evicted = queue.Push(u);
      model.emplace(std::make_pair(u.generation_time, u.id.value()), u);
      while (model.size() > 50) {
        const Update dropped = model_erase_oldest();
        ASSERT_EQ(evicted.size(), 1u);
        EXPECT_EQ(evicted[0].id, dropped.id);
      }
    } else if (op == 2) {  // pop oldest or newest
      if (random.WithProbability(0.5)) {
        const auto popped = queue.PopOldest();
        ASSERT_TRUE(popped.has_value());
        EXPECT_EQ(popped->id, model.begin()->second.id);
        model.erase(model.begin());
      } else {
        const auto popped = queue.PopNewest();
        ASSERT_TRUE(popped.has_value());
        EXPECT_EQ(popped->id, std::prev(model.end())->second.id);
        model.erase(std::prev(model.end()));
      }
    } else if (op == 3) {  // purge a random cutoff
      const sim::Time cutoff = random.Uniform(0, 100);
      const auto purged = queue.PurgeGeneratedBefore(cutoff);
      std::size_t expected = 0;
      while (!model.empty() && model.begin()->first.first < cutoff) {
        EXPECT_EQ(purged[expected].id, model.begin()->second.id);
        model.erase(model.begin());
        ++expected;
      }
      EXPECT_EQ(purged.size(), expected);
    } else {  // peek-newest-for consistency on a random object
      const ObjectId object{random.WithProbability(0.5)
                                ? ObjectClass::kLowImportance
                                : ObjectClass::kHighImportance,
                            random.UniformInt(0, 9)};
      const auto peeked = queue.PeekNewestFor(object);
      // Reference: newest matching entry in the model.
      const Update* expected = nullptr;
      for (const auto& [key, u] : model) {
        if (u.object == object) expected = &u;
      }
      if (expected == nullptr) {
        EXPECT_FALSE(peeked.has_value());
      } else {
        ASSERT_TRUE(peeked.has_value());
        EXPECT_EQ(peeked->id, expected->id);
      }
    }
    EXPECT_EQ(queue.size(), model.size());
  }
}

}  // namespace
}  // namespace strip::db
