#include "sim/event_queue.h"

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.h"

namespace strip::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.PopNext().has_value());
  EXPECT_FALSE(queue.PeekNextTime().has_value());
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(3.0, [&] { order.push_back(3); });
  queue.Schedule(1.0, [&] { order.push_back(1); });
  queue.Schedule(2.0, [&] { order.push_back(2); });
  while (auto event = queue.PopNext()) event->callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (auto event = queue.PopNext()) event->callback();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, PopReturnsTime) {
  EventQueue queue;
  queue.Schedule(7.25, [] {});
  auto event = queue.PopNext();
  ASSERT_TRUE(event.has_value());
  EXPECT_DOUBLE_EQ(event->time, 7.25);
}

TEST(EventQueueTest, PeekDoesNotRemove) {
  EventQueue queue;
  queue.Schedule(2.0, [] {});
  EXPECT_EQ(queue.PeekNextTime(), std::optional<Time>(2.0));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue.PopNext().has_value());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  auto handle = queue.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(queue.Cancel(handle));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.PopNext().has_value());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse) {
  EventQueue queue;
  auto handle = queue.Schedule(1.0, [] {});
  EXPECT_TRUE(queue.Cancel(handle));
  EXPECT_FALSE(queue.Cancel(handle));
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue queue;
  auto handle = queue.Schedule(1.0, [] {});
  ASSERT_TRUE(queue.PopNext().has_value());
  EXPECT_FALSE(queue.Cancel(handle));
}

TEST(EventQueueTest, DefaultHandleIsNotPending) {
  EventQueue::Handle handle;
  EXPECT_FALSE(handle.pending());
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(handle));
}

TEST(EventQueueTest, HandlePendingTracksLifecycle) {
  EventQueue queue;
  auto handle = queue.Schedule(1.0, [] {});
  EXPECT_TRUE(handle.pending());
  queue.Cancel(handle);
  EXPECT_FALSE(handle.pending());

  auto handle2 = queue.Schedule(2.0, [] {});
  EXPECT_TRUE(handle2.pending());
  queue.PopNext();
  EXPECT_FALSE(handle2.pending());
}

TEST(EventQueueTest, CancelledEventSkippedAmongOthers) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(1.0, [&] { order.push_back(1); });
  auto handle = queue.Schedule(2.0, [&] { order.push_back(2); });
  queue.Schedule(3.0, [&] { order.push_back(3); });
  queue.Cancel(handle);
  EXPECT_EQ(queue.size(), 2u);
  while (auto event = queue.PopNext()) event->callback();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, PeekSkipsCancelledFront) {
  EventQueue queue;
  auto handle = queue.Schedule(1.0, [] {});
  queue.Schedule(2.0, [] {});
  queue.Cancel(handle);
  EXPECT_EQ(queue.PeekNextTime(), std::optional<Time>(2.0));
}

TEST(EventQueueTest, SizeCountsOnlyLiveEvents) {
  EventQueue queue;
  auto a = queue.Schedule(1.0, [] {});
  queue.Schedule(2.0, [] {});
  EXPECT_EQ(queue.size(), 2u);
  queue.Cancel(a);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueueTest, ZeroTimeEventAllowed) {
  EventQueue queue;
  bool fired = false;
  queue.Schedule(0.0, [&] { fired = true; });
  auto event = queue.PopNext();
  ASSERT_TRUE(event.has_value());
  event->callback();
  EXPECT_TRUE(fired);
}

TEST(EventQueueDeathTest, NegativeTimeRejected) {
  EventQueue queue;
  EXPECT_DEATH(queue.Schedule(-1.0, [] {}), "negative time");
}

TEST(EventQueueDeathTest, NullCallbackRejected) {
  EventQueue queue;
  EXPECT_DEATH(queue.Schedule(1.0, nullptr), "null callback");
}

TEST(EventQueueTest, ReservedEventFiresInItsReservedPlace) {
  EventQueue queue;
  std::vector<char> order;
  queue.Schedule(5.0, [&] { order.push_back('a'); });
  const std::uint64_t reserved = queue.ReserveSequence();
  queue.Schedule(5.0, [&] { order.push_back('c'); });
  queue.Schedule(4.0, [&] { order.push_back('0'); });
  // Scheduled last, but ordered as if scheduled at the reservation.
  queue.ScheduleReserved(5.0, reserved, [&] { order.push_back('b'); });
  EXPECT_EQ(queue.size(), 4u);
  while (auto event = queue.PopNext()) event->callback();
  EXPECT_EQ(order, (std::vector<char>{'0', 'a', 'b', 'c'}));
}

TEST(EventQueueTest, ReservedBlockIsConsecutive) {
  EventQueue queue;
  const std::uint64_t first = queue.ReserveSequence(3);
  EXPECT_EQ(queue.ReserveSequence(), first + 3);
  std::vector<char> order;
  queue.Schedule(1.0, [&] { order.push_back('c'); });
  queue.ScheduleReserved(1.0, first + 2, [&] { order.push_back('b'); });
  queue.ScheduleReserved(1.0, first, [&] { order.push_back('a'); });
  while (auto event = queue.PopNext()) event->callback();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(EventQueueTest, ReservedEventCanBeCancelled) {
  EventQueue queue;
  auto handle = queue.ScheduleReserved(1.0, queue.ReserveSequence(), [] {});
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(queue.Cancel(handle));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, HasPendingBeforeBreaksTimeTiesBySequence) {
  EventQueue queue;
  EXPECT_FALSE(queue.HasPendingBefore(1.0, 0));
  const std::uint64_t before = queue.ReserveSequence();
  queue.Schedule(3.0, [] {});
  const std::uint64_t after = queue.ReserveSequence();
  EXPECT_FALSE(queue.HasPendingBefore(3.0, before));
  EXPECT_TRUE(queue.HasPendingBefore(3.0, after));
  EXPECT_FALSE(queue.HasPendingBefore(2.5, after));
  EXPECT_TRUE(queue.HasPendingBefore(3.5, before));
}

TEST(EventQueueTest, HasPendingBeforeSkipsCancelledKeys) {
  EventQueue queue;
  auto early = queue.Schedule(1.0, [] {});
  queue.Schedule(2.0, [] {});
  const std::uint64_t probe = queue.ReserveSequence();
  EXPECT_TRUE(queue.HasPendingBefore(1.5, probe));
  queue.Cancel(early);
  EXPECT_FALSE(queue.HasPendingBefore(1.5, probe));
  EXPECT_TRUE(queue.HasPendingBefore(2.0, probe));
  EXPECT_EQ(queue.PeekNextTime(), std::optional<Time>(2.0));
}

TEST(EventQueueDeathTest, ScheduleReservedRejectsUnreservedSequence) {
  EventQueue queue;
  EXPECT_DEATH(queue.ScheduleReserved(1.0, 0, [] {}), "never reserved");
  const std::uint64_t reserved = queue.ReserveSequence();
  EXPECT_DEATH(queue.ScheduleReserved(1.0, reserved + 1, [] {}),
               "never reserved");
}

// Property test: a random mix of schedule / cancel / pop operations
// must agree with a reference model (a multimap ordered by (time,
// sequence)).
TEST(EventQueueTest, RandomOpsAgreeWithReferenceModel) {
  EventQueue queue;
  RandomStream random(base::RngSeed(2024));
  struct Ref {
    double time;
    std::uint64_t seq;
    bool live = true;
  };
  std::vector<Ref> refs;
  std::vector<EventQueue::Handle> handles;
  std::uint64_t seq = 0;
  std::size_t live = 0;

  for (int step = 0; step < 5000; ++step) {
    const int op = random.UniformInt(0, 2);
    if (op == 0 || live == 0) {  // schedule
      const double t = random.Uniform(0, 100);
      handles.push_back(queue.Schedule(t, [] {}));
      refs.push_back({t, seq++, true});
      ++live;
    } else if (op == 1) {  // cancel a random (possibly dead) handle
      const int i = random.UniformInt(0, static_cast<int>(refs.size()) - 1);
      const bool expect = refs[i].live;
      EXPECT_EQ(queue.Cancel(handles[i]), expect);
      if (refs[i].live) {
        refs[i].live = false;
        --live;
      }
    } else {  // pop: must match the earliest live (time, seq)
      auto event = queue.PopNext();
      ASSERT_TRUE(event.has_value());
      std::size_t best = refs.size();
      for (std::size_t i = 0; i < refs.size(); ++i) {
        if (!refs[i].live) continue;
        if (best == refs.size() || refs[i].time < refs[best].time ||
            (refs[i].time == refs[best].time &&
             refs[i].seq < refs[best].seq)) {
          best = i;
        }
      }
      ASSERT_NE(best, refs.size());
      EXPECT_DOUBLE_EQ(event->time, refs[best].time);
      refs[best].live = false;
      --live;
    }
    EXPECT_EQ(queue.size(), live);
  }
}

}  // namespace
}  // namespace strip::sim
