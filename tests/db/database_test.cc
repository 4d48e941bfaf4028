#include "db/database.h"

#include <gtest/gtest.h>

namespace strip::db {
namespace {

Update MakeUpdate(ObjectId object, sim::Time generation, double value = 1.0) {
  static std::uint64_t next_id = 0;
  Update u;
  u.id = base::UpdateId(++next_id);
  u.object = object;
  u.generation_time = generation;
  u.arrival_time = generation + 0.1;
  u.value = value;
  return u;
}

TEST(DatabaseTest, SizesMatchConstruction) {
  Database db(500, 300);
  EXPECT_EQ(db.size(ObjectClass::kLowImportance), 500);
  EXPECT_EQ(db.size(ObjectClass::kHighImportance), 300);
  EXPECT_EQ(db.total_size(), 800);
}

TEST(DatabaseTest, ObjectsStartAtGenerationZero) {
  Database db(10, 10);
  EXPECT_DOUBLE_EQ(db.generation_time({ObjectClass::kLowImportance, 0}), 0.0);
  EXPECT_DOUBLE_EQ(db.generation_time({ObjectClass::kHighImportance, 9}),
                   0.0);
  EXPECT_DOUBLE_EQ(db.value({ObjectClass::kLowImportance, 3}), 0.0);
}

TEST(DatabaseTest, ApplyWritesNewerValue) {
  Database db(10, 10);
  const ObjectId id{ObjectClass::kLowImportance, 4};
  EXPECT_TRUE(db.Apply(MakeUpdate(id, 5.0, 42.0)));
  EXPECT_DOUBLE_EQ(db.generation_time(id), 5.0);
  EXPECT_DOUBLE_EQ(db.value(id), 42.0);
  EXPECT_EQ(db.writes(), 1u);
  EXPECT_EQ(db.skipped_writes(), 0u);
}

TEST(DatabaseTest, WorthinessCheckSkipsOlderUpdate) {
  Database db(10, 10);
  const ObjectId id{ObjectClass::kHighImportance, 2};
  ASSERT_TRUE(db.Apply(MakeUpdate(id, 5.0, 1.0)));
  EXPECT_FALSE(db.Apply(MakeUpdate(id, 3.0, 2.0)));
  EXPECT_DOUBLE_EQ(db.generation_time(id), 5.0);
  EXPECT_DOUBLE_EQ(db.value(id), 1.0);
  EXPECT_EQ(db.skipped_writes(), 1u);
}

TEST(DatabaseTest, WorthinessCheckSkipsEqualGeneration) {
  Database db(10, 10);
  const ObjectId id{ObjectClass::kLowImportance, 0};
  ASSERT_TRUE(db.Apply(MakeUpdate(id, 5.0, 1.0)));
  EXPECT_FALSE(db.Apply(MakeUpdate(id, 5.0, 2.0)));
  EXPECT_DOUBLE_EQ(db.value(id), 1.0);
}

TEST(DatabaseTest, PartitionsAreIndependent) {
  Database db(10, 10);
  ASSERT_TRUE(db.Apply(MakeUpdate({ObjectClass::kLowImportance, 3}, 5.0)));
  EXPECT_DOUBLE_EQ(db.generation_time({ObjectClass::kHighImportance, 3}),
                   0.0);
}

TEST(DatabaseTest, AgeAt) {
  Database db(10, 10);
  const ObjectId id{ObjectClass::kLowImportance, 1};
  ASSERT_TRUE(db.Apply(MakeUpdate(id, 4.0)));
  EXPECT_DOUBLE_EQ(db.AgeAt(id, 10.0), 6.0);
}

TEST(DatabaseTest, SequenceOfNewerUpdatesAllApply) {
  Database db(10, 10);
  const ObjectId id{ObjectClass::kLowImportance, 7};
  for (int i = 1; i <= 10; ++i) {
    EXPECT_TRUE(db.Apply(MakeUpdate(id, i, i * 1.0)));
  }
  EXPECT_EQ(db.writes(), 10u);
  EXPECT_DOUBLE_EQ(db.value(id), 10.0);
}

TEST(DatabaseDeathTest, OutOfRangeIndexDies) {
  Database db(10, 10);
  EXPECT_DEATH(db.generation_time({ObjectClass::kLowImportance, 10}),
               "out of range");
  EXPECT_DEATH(db.generation_time({ObjectClass::kLowImportance, -1}),
               "out of range");
  EXPECT_DEATH(db.Apply(MakeUpdate({ObjectClass::kHighImportance, 99}, 1.0)),
               "out of range");
}

TEST(DatabaseDeathTest, NegativePartitionSizeDies) {
  EXPECT_DEATH(Database(-1, 10), "negative partition size");
  EXPECT_DEATH(Database(10, -1), "negative partition size");
}

// ---------- partial updates (multi-attribute objects) -----------------------

Update MakePartial(ObjectId object, int attribute, sim::Time generation,
                   double value = 1.0) {
  Update u = MakeUpdate(object, generation, value);
  u.attribute = attribute;
  return u;
}

TEST(PartialUpdateTest, SingleAttributeDatabaseByDefault) {
  Database db(4, 4);
  EXPECT_EQ(db.n_attributes(), 1);
  EXPECT_DOUBLE_EQ(
      db.attribute_generation({ObjectClass::kLowImportance, 0}, 0), 0.0);
}

TEST(PartialUpdateTest, EffectiveGenerationIsOldestAttribute) {
  Database db(4, 4, /*n_attributes=*/3);
  const ObjectId id{ObjectClass::kLowImportance, 1};
  EXPECT_TRUE(db.Apply(MakePartial(id, 0, 5.0)));
  EXPECT_TRUE(db.Apply(MakePartial(id, 1, 7.0)));
  // Attribute 2 still at generation 0 -> object effectively at 0.
  EXPECT_DOUBLE_EQ(db.generation_time(id), 0.0);
  EXPECT_TRUE(db.Apply(MakePartial(id, 2, 6.0)));
  EXPECT_DOUBLE_EQ(db.generation_time(id), 5.0);
  EXPECT_DOUBLE_EQ(db.attribute_generation(id, 1), 7.0);
}

TEST(PartialUpdateTest, WorthinessIsPerAttribute) {
  Database db(4, 4, 2);
  const ObjectId id{ObjectClass::kLowImportance, 0};
  ASSERT_TRUE(db.Apply(MakePartial(id, 0, 5.0)));
  // Older than attribute 0 -> unworthy for attribute 0...
  EXPECT_FALSE(db.IsWorthy(MakePartial(id, 0, 4.0)));
  // ...but worthy for attribute 1, which is still at 0.
  EXPECT_TRUE(db.IsWorthy(MakePartial(id, 1, 4.0)));
  EXPECT_TRUE(db.Apply(MakePartial(id, 1, 4.0)));
  EXPECT_DOUBLE_EQ(db.generation_time(id), 4.0);
}

TEST(PartialUpdateTest, CompleteUpdateRefreshesEveryAttribute) {
  Database db(4, 4, 3);
  const ObjectId id{ObjectClass::kLowImportance, 2};
  ASSERT_TRUE(db.Apply(MakePartial(id, 0, 3.0)));
  Update complete = MakeUpdate(id, 8.0, 99.0);  // attribute = -1
  EXPECT_TRUE(db.Apply(complete));
  EXPECT_DOUBLE_EQ(db.generation_time(id), 8.0);
  for (int a = 0; a < 3; ++a) {
    EXPECT_DOUBLE_EQ(db.attribute_generation(id, a), 8.0);
  }
  // A complete update older than the effective generation is unworthy.
  EXPECT_FALSE(db.IsWorthy(MakeUpdate(id, 7.0)));
}

TEST(PartialUpdateTest, EffectiveGenerationIsMonotone) {
  Database db(4, 4, 2);
  const ObjectId id{ObjectClass::kLowImportance, 3};
  double last = db.generation_time(id);
  for (int i = 1; i <= 20; ++i) {
    db.Apply(MakePartial(id, i % 2, static_cast<double>(i)));
    EXPECT_GE(db.generation_time(id), last);
    last = db.generation_time(id);
  }
}

TEST(PartialUpdateDeathTest, AttributeOutOfRangeDies) {
  Database db(4, 4, 2);
  const ObjectId id{ObjectClass::kLowImportance, 0};
  EXPECT_DEATH(db.Apply(MakePartial(id, 2, 1.0)), "attribute");
  EXPECT_DEATH(db.attribute_generation(id, 5), "attribute");
}

// Prefetch is a hint: on a valid, an out-of-range or a negative id it
// never check-fails and leaves every observable as it was.
TEST(DatabaseTest, PrefetchChangesNothingObservable) {
  Database db(10, 10);
  const ObjectId id{ObjectClass::kLowImportance, 4};
  ASSERT_TRUE(db.Apply(MakeUpdate(id, 5.0, 42.0)));
  ASSERT_FALSE(db.Apply(MakeUpdate(id, 3.0, 7.0)));
  db.Prefetch(id);
  db.Prefetch({ObjectClass::kHighImportance, 10});
  db.Prefetch({ObjectClass::kLowImportance, -1});
  EXPECT_DOUBLE_EQ(db.generation_time(id), 5.0);
  EXPECT_DOUBLE_EQ(db.value(id), 42.0);
  EXPECT_EQ(db.writes(), 1u);
  EXPECT_EQ(db.skipped_writes(), 1u);
  for (const ObjectClass cls :
       {ObjectClass::kLowImportance, ObjectClass::kHighImportance}) {
    for (int i = 0; i < db.size(cls); ++i) {
      const ObjectId other{cls, i};
      if (other == id) continue;
      EXPECT_DOUBLE_EQ(db.generation_time(other), 0.0);
      EXPECT_DOUBLE_EQ(db.value(other), 0.0);
    }
  }
  // An empty partition has no slot to load.
  const Database empty(0, 0);
  empty.Prefetch({ObjectClass::kLowImportance, 0});
  EXPECT_EQ(empty.total_size(), 0);
}

TEST(ObjectClassTest, Names) {
  EXPECT_STREQ(ObjectClassName(ObjectClass::kLowImportance), "low");
  EXPECT_STREQ(ObjectClassName(ObjectClass::kHighImportance), "high");
}

TEST(ObjectIdTest, EqualityAndHash) {
  const ObjectId a{ObjectClass::kLowImportance, 3};
  const ObjectId b{ObjectClass::kLowImportance, 3};
  const ObjectId c{ObjectClass::kHighImportance, 3};
  const ObjectId d{ObjectClass::kLowImportance, 4};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  ObjectIdHash hash;
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));
}

}  // namespace
}  // namespace strip::db
