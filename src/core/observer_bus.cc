#include "core/observer_bus.h"

#include <algorithm>

#include "base/check.h"

namespace strip::core {

void ObserverBus::Add(SystemObserver* observer) {
  STRIP_CHECK(observer != nullptr);
  const bool already_registered =
      std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end();
  STRIP_CHECK_MSG(!already_registered, "observer registered twice");
  observers_.push_back(observer);
  ++live_count_;
}

bool ObserverBus::Remove(SystemObserver* observer) {
  const auto it = std::find(observers_.begin(), observers_.end(), observer);
  if (it == observers_.end()) return false;
  if (dispatch_depth_ > 0) {
    // A dispatch is walking the vector: null the slot so the walk skips
    // it, and compact when the outermost dispatch unwinds.
    *it = nullptr;
    needs_compaction_ = true;
  } else {
    observers_.erase(it);
  }
  --live_count_;
  return true;
}

void ObserverBus::Compact() {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), nullptr),
                   observers_.end());
  needs_compaction_ = false;
}

}  // namespace strip::core
