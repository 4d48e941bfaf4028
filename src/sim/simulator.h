// The discrete-event simulation driver: a clock plus an event queue.
//
// This replaces the DeNet simulation language used by the paper
// [Liv90]. Components schedule callbacks at future simulated times;
// RunUntil() dispatches them in time order, advancing the clock to each
// event's timestamp. Events scheduled for the same instant fire in the
// order they were scheduled.
//
// Example:
//   Simulator sim;
//   sim.ScheduleAfter(1.5, [&] { std::puts("fires at t=1.5"); });
//   sim.RunUntil(10.0);   // clock ends at exactly 10.0

#ifndef STRIP_SIM_SIMULATOR_H_
#define STRIP_SIM_SIMULATOR_H_

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/sim_time.h"

namespace strip::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  Time now() const { return now_; }

  // Schedules `callback` at absolute time `at` (must be >= now()).
  EventQueue::Handle ScheduleAt(Time at, EventQueue::Callback callback);

  // Schedules `callback` `delay` seconds from now (delay must be >= 0).
  EventQueue::Handle ScheduleAfter(Duration delay,
                                   EventQueue::Callback callback);

  // Takes the sequence number the next ScheduleAt would use, or
  // `count` consecutive ones starting there, without scheduling
  // anything (see EventQueue::ReserveSequence).
  std::uint64_t ReserveSequence(std::uint64_t count = 1) {
    return queue_.ReserveSequence(count);
  }

  // Schedules `callback` at absolute time `at` (must be >= now()) in
  // the same-instant place of a sequence from ReserveSequence().
  EventQueue::Handle ScheduleReserved(Time at, std::uint64_t sequence,
                                      EventQueue::Callback callback);

  // True if a pending event would be dispatched before one keyed
  // (at, sequence); see EventQueue::HasPendingBefore.
  bool HasPendingBefore(Time at, std::uint64_t sequence) {
    return queue_.HasPendingBefore(at, sequence);
  }

  // Cancels a previously scheduled event. Returns true if it was still
  // pending.
  bool Cancel(const EventQueue::Handle& handle) {
    return queue_.Cancel(handle);
  }

  // Dispatches events in time order until the queue is empty, Stop()
  // is called, or the next event lies strictly beyond `end`. On
  // return the clock reads exactly `end` unless Stop() cut the run
  // short (then it reads the time of the last dispatched event).
  // Events at exactly `end` are dispatched.
  void RunUntil(Time end);

  // Dispatches events until the queue is empty or Stop() is called.
  void Run();

  // Requests that the run loop return after the current event. Callable
  // from inside event callbacks only.
  void Stop() { stop_requested_ = true; }

  // Number of events dispatched so far (cancelled events excluded).
  std::uint64_t events_dispatched() const { return events_dispatched_; }

  // Number of events still pending.
  std::size_t events_pending() const { return queue_.size(); }

 private:
  EventQueue queue_;
  Time now_ = 0;
  bool stop_requested_ = false;
  std::uint64_t events_dispatched_ = 0;
};

}  // namespace strip::sim

#endif  // STRIP_SIM_SIMULATOR_H_
