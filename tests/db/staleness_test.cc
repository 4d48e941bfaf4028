#include "db/staleness.h"

#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace strip::db {
namespace {

constexpr ObjectId kObj{ObjectClass::kLowImportance, 0};
constexpr ObjectId kHighObj{ObjectClass::kHighImportance, 0};

Update MakeUpdate(std::uint64_t id, sim::Time generation,
                  ObjectId object = kObj) {
  Update u;
  u.id = base::UpdateId(id);
  u.object = object;
  u.generation_time = generation;
  u.arrival_time = generation;
  return u;
}

TEST(StalenessNamesTest, CriterionNames) {
  EXPECT_STREQ(StalenessCriterionName(StalenessCriterion::kMaxAge), "MA");
  EXPECT_STREQ(StalenessCriterionName(StalenessCriterion::kUnappliedUpdate),
               "UU");
  EXPECT_STREQ(StalenessCriterionName(StalenessCriterion::kCombined),
               "MA+UU");
}

// ---------- Maximum Age -----------------------------------------------------

TEST(MaxAgeTest, FreshUntilAlpha) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAge, 7.0, 2, 2);
  EXPECT_FALSE(tracker.IsStale(kObj));
  sim.RunUntil(6.9);
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(MaxAgeTest, ObjectExpiresAtAlpha) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAge, 7.0, 2, 2);
  sim.RunUntil(7.5);
  EXPECT_TRUE(tracker.IsStale(kObj));
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 2);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kHighImportance), 2);
}

TEST(MaxAgeTest, ApplyRefreshesAndReschedulesExpiry) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAge, 7.0, 2, 2);
  sim.RunUntil(5.0);
  tracker.OnApply(kObj, 5.0);  // fresh value generated right now
  sim.RunUntil(11.0);          // 5 + 7 = 12 > 11: still fresh
  EXPECT_FALSE(tracker.IsStale(kObj));
  sim.RunUntil(12.5);
  EXPECT_TRUE(tracker.IsStale(kObj));
}

TEST(MaxAgeTest, ApplyOfAgedValueCanLeaveObjectStale) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAge, 7.0, 2, 2);
  sim.RunUntil(20.0);
  tracker.OnApply(kObj, 10.0);  // value already 10 seconds old
  EXPECT_TRUE(tracker.IsStale(kObj));
  tracker.OnApply(kObj, 19.0);
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(MaxAgeTest, StaleCountTracksPerPartition) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAge, 7.0, 3, 1);
  sim.RunUntil(8.0);  // everything stale
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 3);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kHighImportance), 1);
  tracker.OnApply({ObjectClass::kLowImportance, 1}, 8.0);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 2);
  EXPECT_DOUBLE_EQ(tracker.FractionStaleNow(ObjectClass::kLowImportance),
                   2.0 / 3.0);
}

TEST(MaxAgeTest, TrackerBuiltBeforeAlphaExpiresEveryObjectAtAlpha) {
  sim::Simulator sim;
  sim.RunUntil(3.0);
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAge, 7.0, 3, 2);
  tracker.OnApply({ObjectClass::kHighImportance, 1}, 3.0);
  sim.RunUntil(7.0);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 3);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kHighImportance), 1);
  sim.RunUntil(10.0);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kHighImportance), 2);
}

TEST(MaxAgeTest, TrackerBuiltAtAlphaStartsStale) {
  sim::Simulator sim;
  sim.RunUntil(7.0);
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAge, 7.0, 3, 2);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_TRUE(tracker.IsStale(kObj));
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 3);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kHighImportance), 2);
  tracker.OnApply(kObj, 7.0);
  EXPECT_FALSE(tracker.IsStale(kObj));
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 2);
  sim.RunUntil(10.0);
  EXPECT_NEAR(tracker.FractionStaleAverage(ObjectClass::kHighImportance, 10.0),
              1.0, 1e-12);
}

TEST(MaxAgeTest, FractionStaleAverageIsExactIntegral) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAge, 5.0, 1, 1);
  // The single low object: fresh [0,5), stale [5,8), fresh [8,13),
  // stale [13,20]. OnApply at t=8 with generation 8.
  sim.RunUntil(8.0);
  tracker.OnApply({ObjectClass::kLowImportance, 0}, 8.0);
  sim.RunUntil(20.0);
  // Stale time: (8-5) + (20-13) = 10 of 20.
  EXPECT_NEAR(tracker.FractionStaleAverage(ObjectClass::kLowImportance, 20.0),
              0.5, 1e-12);
}

TEST(MaxAgeTest, ResetObservationDropsHistory) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAge, 5.0, 1, 1);
  sim.RunUntil(10.0);  // stale since t=5
  tracker.ResetObservation();
  sim.RunUntil(20.0);  // stale for the whole observed window
  EXPECT_NEAR(tracker.FractionStaleAverage(ObjectClass::kLowImportance, 20.0),
              1.0, 1e-12);
}

// ---------- Unapplied Update ------------------------------------------------

TEST(UnappliedUpdateTest, FreshWithEmptyQueue) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kUnappliedUpdate, 0.0,
                           2, 2);
  sim.RunUntil(100.0);  // no max-age under UU: stays fresh forever
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(UnappliedUpdateTest, NewerQueuedUpdateMakesStale) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kUnappliedUpdate, 0.0,
                           2, 2);
  sim.RunUntil(1.0);
  tracker.OnEnqueued(MakeUpdate(1, 0.5));
  EXPECT_TRUE(tracker.IsStale(kObj));
  EXPECT_FALSE(tracker.IsStale({ObjectClass::kLowImportance, 1}));
}

TEST(UnappliedUpdateTest, ApplyingTheUpdateMakesFresh) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kUnappliedUpdate, 0.0,
                           2, 2);
  const Update u = MakeUpdate(1, 0.5);
  tracker.OnEnqueued(u);
  tracker.OnRemovedFromQueue(u);
  tracker.OnApply(kObj, u.generation_time);
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(UnappliedUpdateTest, OlderQueuedUpdateDoesNotMakeStale) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kUnappliedUpdate, 0.0,
                           2, 2);
  tracker.OnApply(kObj, 5.0);
  tracker.OnEnqueued(MakeUpdate(1, 3.0));  // older than the DB value
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(UnappliedUpdateTest, LifoApplyLeavesOnlyWorthlessQueuedUpdates) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kUnappliedUpdate, 0.0,
                           2, 2);
  const Update older = MakeUpdate(1, 1.0);
  const Update newer = MakeUpdate(2, 2.0);
  tracker.OnEnqueued(older);
  tracker.OnEnqueued(newer);
  EXPECT_TRUE(tracker.IsStale(kObj));
  // LIFO: the newest is applied first; the older queued update cannot
  // make the data fresher, so the object is semantically fresh.
  tracker.OnRemovedFromQueue(newer);
  tracker.OnApply(kObj, newer.generation_time);
  EXPECT_FALSE(tracker.IsStale(kObj));
  // Discarding the worthless leftover changes nothing.
  tracker.OnRemovedFromQueue(older);
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(UnappliedUpdateTest, DiscardingOnlyPendingUpdateMakesFresh) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kUnappliedUpdate, 0.0,
                           2, 2);
  const Update u = MakeUpdate(1, 1.0);
  tracker.OnEnqueued(u);
  EXPECT_TRUE(tracker.IsStale(kObj));
  tracker.OnRemovedFromQueue(u);  // dropped, not applied
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(UnappliedUpdateTest, FractionAverageIntegratesQueueResidence) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kUnappliedUpdate, 0.0,
                           1, 1);
  const Update u = MakeUpdate(1, 1.0);
  sim.RunUntil(2.0);
  tracker.OnEnqueued(u);
  sim.RunUntil(6.0);
  tracker.OnRemovedFromQueue(u);
  tracker.OnApply({ObjectClass::kLowImportance, 0}, 1.0);
  sim.RunUntil(10.0);
  // Stale during [2,6] of [0,10].
  EXPECT_NEAR(tracker.FractionStaleAverage(ObjectClass::kLowImportance, 10.0),
              0.4, 1e-12);
}

// ---------- Maximum Age on arrival time --------------------------------------

TEST(MaxAgeArrivalTest, NamesAndDetectability) {
  EXPECT_STREQ(StalenessCriterionName(StalenessCriterion::kMaxAgeArrival),
               "MA-arrival");
  EXPECT_TRUE(DetectableByTimestamp(StalenessCriterion::kMaxAge));
  EXPECT_TRUE(DetectableByTimestamp(StalenessCriterion::kMaxAgeArrival));
  EXPECT_FALSE(
      DetectableByTimestamp(StalenessCriterion::kUnappliedUpdate));
  EXPECT_FALSE(DetectableByTimestamp(StalenessCriterion::kCombined));
}

TEST(MaxAgeArrivalTest, AgesOnArrivalNotGeneration) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAgeArrival, 7.0, 2,
                           2);
  sim.RunUntil(10.0);
  // Value generated at 2 but arrived at 10: under generation-MA it
  // would already be stale (age 8 > 7); under arrival-MA it is fresh
  // until 17.
  tracker.OnApply(kObj, /*generation_time=*/2.0, /*arrival_time=*/10.0);
  EXPECT_FALSE(tracker.IsStale(kObj));
  sim.RunUntil(16.9);
  EXPECT_FALSE(tracker.IsStale(kObj));
  sim.RunUntil(17.5);
  EXPECT_TRUE(tracker.IsStale(kObj));
}

TEST(MaxAgeArrivalTest, InitialObjectsExpireAtAlpha) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAgeArrival, 5.0, 2,
                           2);
  sim.RunUntil(5.5);
  EXPECT_TRUE(tracker.IsStale(kObj));
}

TEST(MaxAgeArrivalTest, TwoArgOnApplyTreatsArrivalAsGeneration) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAgeArrival, 7.0, 2,
                           2);
  sim.RunUntil(10.0);
  tracker.OnApply(kObj, 2.0);  // arrival defaults to generation: age 8 > 7
  EXPECT_TRUE(tracker.IsStale(kObj));
}

// ---------- Combined -----------------------------------------------------------

TEST(CombinedTest, StaleUnderEitherCriterion) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kCombined, 7.0, 2, 2);
  // UU-stale before alpha.
  sim.RunUntil(1.0);
  tracker.OnEnqueued(MakeUpdate(1, 0.5));
  EXPECT_TRUE(tracker.IsStale(kObj));
  // Other object: MA-stale after alpha even with empty queue.
  EXPECT_FALSE(tracker.IsStale({ObjectClass::kLowImportance, 1}));
  sim.RunUntil(8.0);
  EXPECT_TRUE(tracker.IsStale({ObjectClass::kLowImportance, 1}));
}

TEST(CombinedTest, FreshRequiresBoth) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kCombined, 7.0, 2, 2);
  sim.RunUntil(8.0);
  const Update u = MakeUpdate(1, 7.9);
  tracker.OnEnqueued(u);
  EXPECT_TRUE(tracker.IsStale(kObj));  // stale under both
  tracker.OnRemovedFromQueue(u);
  tracker.OnApply(kObj, u.generation_time);
  EXPECT_FALSE(tracker.IsStale(kObj));
}

// ---------- misc ------------------------------------------------------------------

TEST(StalenessTrackerTest, HighPartitionIsIndependent) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kUnappliedUpdate, 0.0,
                           2, 2);
  tracker.OnEnqueued(MakeUpdate(1, 1.0, kHighObj));
  EXPECT_TRUE(tracker.IsStale(kHighObj));
  EXPECT_FALSE(tracker.IsStale(kObj));
  EXPECT_DOUBLE_EQ(tracker.FractionStaleNow(ObjectClass::kHighImportance),
                   0.5);
  EXPECT_DOUBLE_EQ(tracker.FractionStaleNow(ObjectClass::kLowImportance),
                   0.0);
}

// Prefetch is a hint: on a valid, an out-of-range or a negative id it
// never check-fails and leaves every observable as it was, the pending
// expiries included.
TEST(StalenessTrackerTest, PrefetchChangesNothingObservable) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAge, 7.0, 2, 2);
  sim.RunUntil(7.5);
  tracker.OnApply(kObj, 7.0);
  const auto observe = [&] {
    return std::vector<double>{
        static_cast<double>(tracker.StaleCount(ObjectClass::kLowImportance)),
        static_cast<double>(tracker.StaleCount(ObjectClass::kHighImportance)),
        static_cast<double>(tracker.IsStale(kObj)),
        static_cast<double>(tracker.IsStale(kHighObj)),
        tracker.FractionStaleAverage(ObjectClass::kLowImportance, 8.0),
        tracker.FractionStaleAverage(ObjectClass::kHighImportance, 8.0)};
  };
  const std::vector<double> before = observe();
  tracker.Prefetch(kObj);
  tracker.Prefetch({ObjectClass::kHighImportance, 2});
  tracker.Prefetch({ObjectClass::kLowImportance, -1});
  EXPECT_EQ(observe(), before);
  EXPECT_FALSE(tracker.IsStale(kObj));
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 1);
  // The refreshed object still expires alpha after its generation.
  sim.RunUntil(14.5);
  EXPECT_TRUE(tracker.IsStale(kObj));
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 2);
}

TEST(StalenessTrackerDeathTest, InvalidUse) {
  sim::Simulator sim;
  EXPECT_DEATH(
      StalenessTracker(&sim, StalenessCriterion::kMaxAge, 0.0, 2, 2),
      "max age");
  StalenessTracker tracker(&sim, StalenessCriterion::kUnappliedUpdate, 0.0,
                           2, 2);
  EXPECT_DEATH(tracker.OnRemovedFromQueue(MakeUpdate(1, 1.0)),
               "not tracked");
  EXPECT_DEATH(tracker.IsStale({ObjectClass::kLowImportance, 9}),
               "out of range");
}

TEST(StalenessTrackerDeathTest, NegativePartitionSizeDies) {
  sim::Simulator sim;
  EXPECT_DEATH(
      StalenessTracker(&sim, StalenessCriterion::kMaxAge, 7.0, -1, 2),
      "negative partition size");
  EXPECT_DEATH(StalenessTracker(&sim, StalenessCriterion::kUnappliedUpdate,
                                0.0, 2, -1),
               "negative partition size");
}

TEST(StalenessTrackerTest, AccessorsExposeConfiguration) {
  sim::Simulator sim;
  StalenessTracker tracker(&sim, StalenessCriterion::kMaxAge, 7.0, 2, 2);
  EXPECT_EQ(tracker.criterion(), StalenessCriterion::kMaxAge);
  EXPECT_DOUBLE_EQ(tracker.max_age(), 7.0);
}

}  // namespace
}  // namespace strip::db
