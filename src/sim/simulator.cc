#include "sim/simulator.h"

#include <utility>

#include "base/check.h"

namespace strip::sim {

EventQueue::Handle Simulator::ScheduleAt(Time at,
                                         EventQueue::Callback callback) {
  STRIP_CHECK_MSG(at >= now_, "event scheduled in the past");
  return queue_.Schedule(at, std::move(callback));
}

EventQueue::Handle Simulator::ScheduleReserved(Time at,
                                               std::uint64_t sequence,
                                               EventQueue::Callback callback) {
  STRIP_CHECK_MSG(at >= now_, "event scheduled in the past");
  return queue_.ScheduleReserved(at, sequence, std::move(callback));
}

EventQueue::Handle Simulator::ScheduleAfter(Duration delay,
                                            EventQueue::Callback callback) {
  STRIP_CHECK_MSG(delay >= 0, "event scheduled with negative delay");
  return queue_.Schedule(now_ + delay, std::move(callback));
}

void Simulator::RunUntil(Time end) {
  STRIP_CHECK_MSG(end >= now_, "RunUntil target is in the past");
  stop_requested_ = false;
  // The bounded pop dispatches each event with a single queue
  // operation; the historical peek-then-pop pair swept the stale root
  // and probed the heap top twice per event.
  while (!stop_requested_) {
    std::optional<EventQueue::Fired> event = queue_.PopNextBefore(end);
    if (!event.has_value()) break;
    now_ = event->time;
    ++events_dispatched_;
    event->callback();
  }
  if (!stop_requested_) now_ = end;
}

void Simulator::Run() {
  stop_requested_ = false;
  while (!stop_requested_) {
    std::optional<EventQueue::Fired> event = queue_.PopNext();
    if (!event.has_value()) break;
    now_ = event->time;
    ++events_dispatched_;
    event->callback();
  }
}

}  // namespace strip::sim
