#include "sim/simulator.h"

#include <vector>

#include <gtest/gtest.h>

namespace strip::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(SimulatorTest, RunUntilAdvancesClockToEnd) {
  Simulator sim;
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(SimulatorTest, EventSeesItsOwnTimestamp) {
  Simulator sim;
  double seen = -1;
  sim.ScheduleAt(3.5, [&] { seen = sim.now(); });
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(seen, 3.5);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  double seen = -1;
  sim.ScheduleAt(2.0, [&] {
    sim.ScheduleAfter(1.5, [&] { seen = sim.now(); });
  });
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(seen, 3.5);
}

TEST(SimulatorTest, EventsBeyondEndAreNotDispatched) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(11.0, [&] { fired = true; });
  sim.RunUntil(10.0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(SimulatorTest, EventExactlyAtEndIsDispatched) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(10.0, [&] { fired = true; });
  sim.RunUntil(10.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunUntilCanBeResumed) {
  Simulator sim;
  std::vector<double> fires;
  sim.ScheduleAt(5.0, [&] { fires.push_back(sim.now()); });
  sim.ScheduleAt(15.0, [&] { fires.push_back(sim.now()); });
  sim.RunUntil(10.0);
  EXPECT_EQ(fires.size(), 1u);
  sim.RunUntil(20.0);
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_DOUBLE_EQ(fires[1], 15.0);
}

TEST(SimulatorTest, StopHaltsDispatchMidRun) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] {
    ++fired;
    sim.Stop();
  });
  sim.ScheduleAt(2.0, [&] { ++fired; });
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 1);
  // Clock stays at the stopping event's time.
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(SimulatorTest, RunDrainsEverything) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(100.0, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(SimulatorTest, CountsDispatchedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.ScheduleAt(i, [] {});
  auto handle = sim.ScheduleAt(2.5, [] {});
  sim.Cancel(handle);
  sim.RunUntil(10.0);
  EXPECT_EQ(sim.events_dispatched(), 5u);
}

TEST(SimulatorTest, SelfReschedulingStreamRespectsEnd) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    sim.ScheduleAfter(1.0, tick);
  };
  sim.ScheduleAt(1.0, tick);
  sim.RunUntil(10.0);
  // Fires at t = 1..10 inclusive.
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, CancelInsideEvent) {
  Simulator sim;
  bool fired = false;
  EventQueue::Handle victim = sim.ScheduleAt(5.0, [&] { fired = true; });
  sim.ScheduleAt(1.0, [&] { EXPECT_TRUE(sim.Cancel(victim)); });
  sim.RunUntil(10.0);
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, ReservedEventKeepsItsSameInstantPlace) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(2.0, [&] { order.push_back(1); });
  const std::uint64_t reserved = sim.ReserveSequence();
  sim.ScheduleAt(1.0, [&] {
    sim.ScheduleAt(2.0, [&] { order.push_back(3); });
    sim.ScheduleReserved(2.0, reserved, [&] { order.push_back(2); });
  });
  sim.RunUntil(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_dispatched(), 4u);
}

TEST(SimulatorTest, HasPendingBeforeSeesEventsAtTheCurrentInstant) {
  Simulator sim;
  bool checked = false;
  sim.ScheduleAt(1.0, [&] {
    const std::uint64_t mine = sim.ReserveSequence();
    EXPECT_FALSE(sim.HasPendingBefore(sim.now(), mine));
    sim.ScheduleAfter(0.0, [] {});
    EXPECT_FALSE(sim.HasPendingBefore(sim.now(), mine));
    EXPECT_TRUE(sim.HasPendingBefore(sim.now(), sim.ReserveSequence()));
    checked = true;
  });
  sim.RunUntil(10.0);
  EXPECT_TRUE(checked);
}

TEST(SimulatorDeathTest, ScheduleReservedInThePastDies) {
  Simulator sim;
  const std::uint64_t reserved = sim.ReserveSequence();
  sim.RunUntil(5.0);
  EXPECT_DEATH(sim.ScheduleReserved(4.0, reserved, [] {}), "past");
}

TEST(SimulatorDeathTest, ScheduleReservedUnreservedSequenceDies) {
  Simulator sim;
  EXPECT_DEATH(sim.ScheduleReserved(1.0, 7, [] {}), "never reserved");
}

TEST(SimulatorDeathTest, SchedulingInThePastDies) {
  Simulator sim;
  sim.RunUntil(5.0);
  EXPECT_DEATH(sim.ScheduleAt(4.0, [] {}), "past");
}

TEST(SimulatorDeathTest, NegativeDelayDies) {
  Simulator sim;
  EXPECT_DEATH(sim.ScheduleAfter(-0.5, [] {}), "negative delay");
}

TEST(SimulatorDeathTest, RunUntilBackwardsDies) {
  Simulator sim;
  sim.RunUntil(5.0);
  EXPECT_DEATH(sim.RunUntil(4.0), "past");
}

}  // namespace
}  // namespace strip::sim
