// Fan-out of SystemObserver callbacks to any number of observers.
//
// The trace writer, the observability layer's sampler and telemetry
// recorder (src/obs), the auditors (src/check) and application monitors
// can all listen to one run at once. Observers are notified in
// registration order through one entry point, Notify, which names the
// hook to call:
//
//   bus.Notify(&SystemObserver::OnPhase, now, SystemObserver::Phase::kRunEnd);
//
// The arguments convert to the hook's parameter types exactly as in a
// direct call. With no observers attached Notify is a single inline
// emptiness test — no allocation, no virtual call — so the simulation
// core's hot path stays zero-alloc. A caller whose arguments cost work
// to build (a policy's reason string, a FaultWindowInfo) still tests
// empty() first.
//
// Dispatch is reentrancy-safe: an observer may add or remove observers
// (including itself) from inside a callback. Observers removed during
// a dispatch stop receiving events immediately; observers added during
// a dispatch first hear the *next* event.
//
// ScopedObserver provides RAII registration:
//
//   obs::PeriodicSampler sampler(...);
//   core::ScopedObserver scoped(&system.observer_bus(), &sampler);
//   system.Run();   // sampler detaches when `scoped` dies

#ifndef STRIP_CORE_OBSERVER_BUS_H_
#define STRIP_CORE_OBSERVER_BUS_H_

#include <cstddef>
#include <type_traits>
#include <vector>

#include "base/check.h"
#include "core/observer.h"

namespace strip::core {

class ObserverBus {
 public:
  ObserverBus() = default;
  ObserverBus(const ObserverBus&) = delete;
  ObserverBus& operator=(const ObserverBus&) = delete;

  // Registers `observer` (must be non-null and outlive its
  // registration). Registering the same observer twice is an error.
  void Add(SystemObserver* observer);

  // Unregisters `observer`. Returns false if it was not registered.
  // Safe to call from inside a dispatch.
  bool Remove(SystemObserver* observer);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Calls `hook` with `args` on every registered observer.
  template <typename... Params>
  void Notify(void (SystemObserver::*hook)(Params...),
              std::type_identity_t<Params>... args) {
    if (empty()) return;
    Dispatch(hook, args...);
  }

 private:
  // Calls `hook` over the registration order, tolerating add/remove
  // from inside the callbacks. Out of line, so that a notify on the
  // simulation's hot path stays one test and one call.
  template <typename... Params>
  [[gnu::noinline]] void Dispatch(void (SystemObserver::*hook)(Params...),
                                  std::type_identity_t<Params>... args) {
    ++dispatch_depth_;
    // Observers appended mid-dispatch grow the vector past `end`; they
    // hear the next event, not this one.
    const std::size_t end = observers_.size();
    for (std::size_t i = 0; i < end; ++i) {
      SystemObserver* observer = observers_[i];
      if (observer == nullptr) continue;
      (observer->*hook)(args...);
      // An observer removed from inside a callback must have been
      // nulled in place, never erased: erasure would shift the slots a
      // concurrent walk indexes, invoking a removed observer later in
      // the same notify round.
      STRIP_CHECK_MSG(i < observers_.size() &&
                          (observers_[i] == observer ||
                           observers_[i] == nullptr),
                      "observer slot moved mid-dispatch");
    }
    --dispatch_depth_;
    if (dispatch_depth_ == 0 && needs_compaction_) Compact();
  }

  // Drops slots nulled by Remove() once no dispatch is walking them.
  void Compact();

  // Removed observers are nulled in place (so walking indexes stay
  // valid mid-dispatch) and compacted when the outermost dispatch
  // finishes.
  std::vector<SystemObserver*> observers_;
  std::size_t live_count_ = 0;
  int dispatch_depth_ = 0;
  bool needs_compaction_ = false;
};

// RAII registration on a bus: adds in the constructor, removes in the
// destructor. The bus and the observer must outlive the registration.
class ScopedObserver {
 public:
  ScopedObserver(ObserverBus* bus, SystemObserver* observer)
      : bus_(bus), observer_(observer) {
    bus_->Add(observer_);
  }
  ~ScopedObserver() { bus_->Remove(observer_); }

  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;

 private:
  ObserverBus* bus_;
  SystemObserver* observer_;
};

}  // namespace strip::core

#endif  // STRIP_CORE_OBSERVER_BUS_H_
