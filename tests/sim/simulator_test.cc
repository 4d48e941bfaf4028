#include "sim/simulator.h"

#include <cstdint>
#include <limits>
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

constexpr std::uint64_t kAllDispatched =
    std::numeric_limits<std::uint64_t>::max();

TEST(SimulatorTest, CurrentSequenceBeforeAnyRunIsTheLargest) {
  Simulator sim;
  EXPECT_EQ(sim.current_sequence(), kAllDispatched);
  sim.RunUntil(3.0);
  EXPECT_EQ(sim.current_sequence(), kAllDispatched);
}

TEST(SimulatorTest, CurrentSequenceInsideCallbackIsTheDispatchingEvents) {
  Simulator sim;
  std::vector<std::uint64_t> seen;
  const auto record = [&] { seen.push_back(sim.current_sequence()); };
  sim.ScheduleAt(2.0, record);
  const std::uint64_t reserved = sim.ReserveSequence();
  sim.ScheduleAt(2.0, record);
  sim.ScheduleAt(1.0, record);
  sim.RunUntil(5.0);
  // A reserved key sits between the same-instant events scheduled
  // around it: the first sees it ahead, the second behind.
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{reserved + 2, reserved - 1,
                                              reserved + 1}));
  EXPECT_EQ(sim.current_sequence(), kAllDispatched);
}

TEST(SimulatorTest, CurrentSequenceAfterStopIsTheStoppingEvents) {
  Simulator sim;
  std::uint64_t stopper = 0;
  std::uint64_t resumed = 0;
  sim.ScheduleAt(1.0, [&] {
    stopper = sim.current_sequence();
    sim.Stop();
  });
  sim.ScheduleAt(1.0, [&] { resumed = sim.current_sequence(); });
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.current_sequence(), stopper);
  sim.RunUntil(10.0);
  EXPECT_EQ(resumed, stopper + 1);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_EQ(sim.current_sequence(), kAllDispatched);
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
