// Differential test of the staleness tracker (its MA expiry index and
// its queued side table) against the tracker it replaced, which kept
// one simulator event and one set of queued generations per object and
// cancelled and rescheduled the event on every apply.
//
// Both trackers run on twin simulators under the same seeded script,
// alone or beside a second tracker on the same simulator. Each tracker
// is built by an event at a random time, before, at or after alpha, so
// the implicit initial wave starts on sequences the simulator has
// already advanced, or is skipped because every object starts stale.
// Times, generation times and alpha are half-integers, so expiries tie
// with readers and other expiries at the same instant, and readers are
// scheduled both before and after the apply or construction that
// created an expiry. Updates are queued and removed under every
// criterion. The index must apply each expiry exactly where its
// per-object event fired: every reader's stale counts and the final
// f_old must match bit for bit.
//
// A second mode drives each tracker as a replay of a recorded run's
// tracker calls does: the real tracker's simulator holds no events,
// RunUntil(call time) runs before each call, and the counts and f_old
// are read after a final RunUntil, outside every callback.

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/staleness.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace strip::db {
namespace {

// The pre-index tracker, kept as the reference.
class ReferenceTracker {
 public:
  ReferenceTracker(sim::Simulator* simulator, StalenessCriterion criterion,
                   sim::Duration max_age, int n_low, int n_high)
      : sim_(simulator), criterion_(criterion), max_age_(max_age) {
    objects_[0].resize(n_low);
    objects_[1].resize(n_high);
    for (sim::TimeWeighted& signal : stale_) signal.StartAt(sim_->now(), 0.0);
    if (criterion_ == StalenessCriterion::kUnappliedUpdate) return;
    for (int c = 0; c < kNumObjectClasses; ++c) {
      for (int i = 0; i < static_cast<int>(objects_[c].size()); ++i) {
        ScheduleExpiry({static_cast<ObjectClass>(c), i});
      }
    }
  }

  void ResetObservation() {
    for (sim::TimeWeighted& s : stale_) s.StartAt(sim_->now(), s.value());
  }

  void OnApply(ObjectId id, sim::Time generation, sim::Time arrival) {
    State& s = state(id);
    s.db_generation = generation;
    s.freshness = criterion_ == StalenessCriterion::kMaxAgeArrival
                      ? arrival
                      : generation;
    if (criterion_ != StalenessCriterion::kUnappliedUpdate) {
      ScheduleExpiry(id);
    }
    Refresh(id);
  }

  void OnEnqueued(const Update& u) {
    state(u.object).queued.insert({u.generation_time, u.id.value()});
    Refresh(u.object);
  }

  void OnRemovedFromQueue(const Update& u) {
    state(u.object).queued.erase({u.generation_time, u.id.value()});
    Refresh(u.object);
  }

  int StaleCount(ObjectClass cls) const {
    return static_cast<int>(stale_[static_cast<int>(cls)].value());
  }

  double FractionStaleAverage(ObjectClass cls, sim::Time end) const {
    const int c = static_cast<int>(cls);
    return stale_[c].Average(end) / static_cast<double>(objects_[c].size());
  }

 private:
  struct State {
    sim::Time db_generation = 0;
    sim::Time freshness = 0;
    std::set<std::pair<sim::Time, std::uint64_t>> queued;
    sim::EventQueue::Handle expiry;
    bool stale = false;
  };

  State& state(ObjectId id) {
    return objects_[static_cast<int>(id.cls)][id.index];
  }

  void ScheduleExpiry(ObjectId id) {
    State& s = state(id);
    sim_->Cancel(s.expiry);
    const sim::Time at = s.freshness + max_age_;
    if (at <= sim_->now()) {
      Refresh(id);
      return;
    }
    s.expiry = sim_->ScheduleAt(at, [this, id] { Refresh(id); });
  }

  void Refresh(ObjectId id) {
    State& s = state(id);
    const bool ma = sim_->now() - s.freshness >= max_age_;
    const bool uu =
        !s.queued.empty() && s.queued.rbegin()->first > s.db_generation;
    const bool stale = criterion_ == StalenessCriterion::kCombined ? ma || uu
                       : criterion_ == StalenessCriterion::kUnappliedUpdate
                           ? uu
                           : ma;
    if (stale == s.stale) return;
    s.stale = stale;
    sim::TimeWeighted& signal = stale_[static_cast<int>(id.cls)];
    signal.Set(sim_->now(), signal.value() + (stale ? 1.0 : -1.0));
  }

  sim::Simulator* sim_;
  StalenessCriterion criterion_;
  sim::Duration max_age_;
  std::vector<State> objects_[kNumObjectClasses];
  sim::TimeWeighted stale_[kNumObjectClasses];
};

constexpr sim::Time kHorizon = 12.0;
constexpr double kStep = 0.5;

// What one twin observed: each reader's time and stale counts, then
// the final f_old of every tracker and class.
struct Observation {
  std::vector<sim::Time> reader_times;
  std::vector<int> stale_counts;
  std::vector<double> f_old;

  friend bool operator==(const Observation&, const Observation&) = default;
};

// Runs the script `seed` against `Tracker`. Both twins draw the same
// random numbers as long as their script events run in the same order,
// which holds while the trackers consume the same event sequences.
// One or two trackers share the simulator, as the shards of a cluster
// do.
template <typename Tracker>
Observation RunScript(StalenessCriterion criterion, std::uint64_t seed) {
  sim::Simulator sim;
  sim::RandomStream random{base::RngSeed(seed)};
  const auto half_steps = [&](int lo, int hi) {
    return kStep * random.UniformInt(lo, hi);
  };
  const double alpha = half_steps(1, 8);
  const int n[kNumObjectClasses] = {random.UniformInt(1, 40),
                                    random.UniformInt(1, 40)};
  struct Shard {
    std::unique_ptr<Tracker> tracker;
    std::vector<sim::Time> last_generation[kNumObjectClasses];
    std::vector<Update> queued;
  };
  std::vector<Shard> shards(random.UniformInt(1, 2));
  Observation seen;
  std::uint64_t next_update = 1;

  const auto read = [&] {
    seen.reader_times.push_back(sim.now());
    for (const Shard& shard : shards) {
      for (int c = 0; c < kNumObjectClasses; ++c) {
        seen.stale_counts.push_back(
            shard.tracker == nullptr
                ? -1
                : shard.tracker->StaleCount(static_cast<ObjectClass>(c)));
      }
    }
  };
  const auto schedule_reader = [&](sim::Time at) {
    if (at <= kHorizon) sim.ScheduleAt(at, read);
  };
  const auto random_object = [&] {
    const int c = random.UniformInt(0, 1);
    return ObjectId{static_cast<ObjectClass>(c),
                    random.UniformInt(0, n[c] - 1)};
  };

  // One random tracker call on a built shard.
  const auto mutate = [&](Shard& shard) {
    const int op = random.UniformInt(0, 9);
    if (op < 5) {
      // An apply whose value may already be older than alpha, or whose
      // expiry ties with readers and other expiries.
      const ObjectId id = random_object();
      sim::Time& last =
          shard.last_generation[static_cast<int>(id.cls)][id.index];
      const int age = random.UniformInt(0, static_cast<int>(2 * alpha / kStep));
      const sim::Time generation = std::max(last, sim.now() - kStep * age);
      const sim::Time arrival = std::max(
          generation, sim.now() - kStep * random.UniformInt(0, age));
      last = generation;
      shard.tracker->OnApply(id, generation, arrival);
    } else if (op < 7) {
      Update u;
      u.id = base::UpdateId(next_update++);
      u.object = random_object();
      u.generation_time = sim.now() - half_steps(0, 4);
      u.arrival_time = sim.now();
      shard.queued.push_back(u);
      shard.tracker->OnEnqueued(u);
    } else if (op < 8 && !shard.queued.empty()) {
      const int i =
          random.UniformInt(0, static_cast<int>(shard.queued.size()) - 1);
      const Update u = shard.queued[i];
      shard.queued.erase(shard.queued.begin() + i);
      shard.tracker->OnRemovedFromQueue(u);
    } else if (op < 9) {
      shard.tracker->ResetObservation();
    }
  };

  std::function<void()> act = [&] {
    Shard& shard =
        shards[random.UniformInt(0, static_cast<int>(shards.size()) - 1)];
    if (shard.tracker != nullptr) mutate(shard);
    // Readers and actions scheduled from here come after any expiry
    // the call above created; some land on its instant.
    for (int r = random.UniformInt(0, 2); r > 0; --r) {
      schedule_reader(sim.now() + half_steps(0, static_cast<int>(
                                                    (alpha + 1) / kStep)));
    }
    if (random.WithProbability(0.5)) {
      const sim::Time at = sim.now() + half_steps(0, 4);
      if (at <= kHorizon) sim.ScheduleAt(at, act);
    }
  };

  // Readers scheduled before a tracker exists precede its initial
  // expiries at alpha; those scheduled after follow them. A tracker
  // built at or after alpha starts with every object stale.
  for (Shard& shard : shards) {
    for (int r = random.UniformInt(0, 3); r > 0; --r) {
      schedule_reader(half_steps(0, static_cast<int>(kHorizon / kStep)));
    }
    sim.ScheduleAt(half_steps(0, static_cast<int>(2 * alpha / kStep)), [&] {
      shard.tracker = std::make_unique<Tracker>(&sim, criterion, alpha, n[0],
                                                n[1]);
      for (int c = 0; c < kNumObjectClasses; ++c) {
        shard.last_generation[c].assign(n[c], 0.0);
      }
      for (int r = random.UniformInt(0, 2); r > 0; --r) {
        schedule_reader(sim.now() + half_steps(0, static_cast<int>(
                                                      (alpha + 1) / kStep)));
      }
    });
  }
  for (int a = random.UniformInt(4, 16); a > 0; --a) {
    sim.ScheduleAt(half_steps(0, static_cast<int>(kHorizon / kStep)), act);
    if (random.WithProbability(0.5)) {
      schedule_reader(half_steps(0, static_cast<int>(kHorizon / kStep)));
    }
  }
  sim.RunUntil(kHorizon);
  // Once the run is over every event at kHorizon has been dispatched, so
  // the counts read now include every expiry due then.
  read();
  for (const Shard& shard : shards) {
    for (int c = 0; c < kNumObjectClasses; ++c) {
      seen.f_old.push_back(shard.tracker->FractionStaleAverage(
          static_cast<ObjectClass>(c), kHorizon));
    }
  }
  return seen;
}

// One recorded tracker call: when it was made, and its arguments (an
// apply's object, generation and arrival ride in `update` too).
struct ReplayCall {
  enum class Kind { kApply, kEnqueued, kRemoved, kReset, kRead };
  Kind kind = Kind::kRead;
  sim::Time time = 0;
  Update update;
};

struct ReplayScript {
  double alpha = 0;
  int n[kNumObjectClasses] = {};
  std::vector<ReplayCall> calls;
};

// Draws a time-ordered call stream with ties, generations that never
// move backwards per object, and removals of queued updates only.
ReplayScript MakeReplayScript(std::uint64_t seed) {
  sim::RandomStream random{base::RngSeed(seed)};
  ReplayScript script;
  script.alpha = kStep * random.UniformInt(1, 8);
  std::vector<sim::Time> last_generation[kNumObjectClasses];
  for (int c = 0; c < kNumObjectClasses; ++c) {
    script.n[c] = random.UniformInt(1, 40);
    last_generation[c].assign(script.n[c], 0.0);
  }
  std::vector<Update> queued;
  std::uint64_t next_update = 1;
  sim::Time now = 0;
  for (int k = random.UniformInt(10, 60); k > 0; --k) {
    now = std::min(kHorizon, now + kStep * random.UniformInt(0, 3));
    ReplayCall call;
    call.time = now;
    Update& u = call.update;
    const int c = random.UniformInt(0, 1);
    u.object = {static_cast<ObjectClass>(c),
                random.UniformInt(0, script.n[c] - 1)};
    const int op = random.UniformInt(0, 9);
    if (op < 4) {
      call.kind = ReplayCall::Kind::kApply;
      sim::Time& last = last_generation[c][u.object.index];
      const int age =
          random.UniformInt(0, static_cast<int>(2 * script.alpha / kStep));
      u.generation_time = std::max(last, now - kStep * age);
      u.arrival_time = std::max(u.generation_time,
                                now - kStep * random.UniformInt(0, age));
      last = u.generation_time;
    } else if (op < 6) {
      call.kind = ReplayCall::Kind::kEnqueued;
      u.id = base::UpdateId(next_update++);
      u.generation_time = now - kStep * random.UniformInt(0, 4);
      u.arrival_time = now;
      queued.push_back(u);
    } else if (op < 7 && !queued.empty()) {
      call.kind = ReplayCall::Kind::kRemoved;
      const int i = random.UniformInt(0, static_cast<int>(queued.size()) - 1);
      call.update = queued[i];
      queued.erase(queued.begin() + i);
    } else if (op < 8) {
      call.kind = ReplayCall::Kind::kReset;
    }
    script.calls.push_back(call);
  }
  return script;
}

// Replays `script` into a tracker built at time 0 on a simulator of its
// own, with a read after each kRead call and one after the final
// RunUntil.
template <typename Tracker>
Observation Replay(StalenessCriterion criterion, const ReplayScript& script) {
  sim::Simulator sim;
  Tracker tracker(&sim, criterion, script.alpha, script.n[0], script.n[1]);
  Observation seen;
  const auto read = [&] {
    seen.reader_times.push_back(sim.now());
    for (int c = 0; c < kNumObjectClasses; ++c) {
      seen.stale_counts.push_back(
          tracker.StaleCount(static_cast<ObjectClass>(c)));
    }
  };
  for (const ReplayCall& call : script.calls) {
    if (call.time > sim.now()) sim.RunUntil(call.time);
    switch (call.kind) {
      case ReplayCall::Kind::kApply:
        tracker.OnApply(call.update.object, call.update.generation_time,
                        call.update.arrival_time);
        break;
      case ReplayCall::Kind::kEnqueued:
        tracker.OnEnqueued(call.update);
        break;
      case ReplayCall::Kind::kRemoved:
        tracker.OnRemovedFromQueue(call.update);
        break;
      case ReplayCall::Kind::kReset:
        tracker.ResetObservation();
        break;
      case ReplayCall::Kind::kRead:
        read();
        break;
    }
  }
  sim.RunUntil(kHorizon);
  read();
  for (int c = 0; c < kNumObjectClasses; ++c) {
    seen.f_old.push_back(
        tracker.FractionStaleAverage(static_cast<ObjectClass>(c), kHorizon));
  }
  return seen;
}

using Observe = std::function<Observation(std::uint64_t seed)>;

// Runs seeded scripts through the reference (`want`) and the real
// tracker (`got`); every observation must match bit for bit.
void ExpectSameObservations(const Observe& want, const Observe& got) {
  constexpr int kScripts = 1000;
  int diverged = 0;
  std::string first;
  for (int script = 0; script < kScripts; ++script) {
    const std::uint64_t seed = 1000003ull * script + 17;
    if (got(seed) == want(seed)) continue;
    if (++diverged == 1) first = "seed " + std::to_string(seed);
  }
  EXPECT_EQ(diverged, 0) << diverged << " of " << kScripts
                         << " scripts diverged, first at " << first;
}

class StalenessOrderTest
    : public ::testing::TestWithParam<StalenessCriterion> {};

TEST_P(StalenessOrderTest, ExpiryIndexMatchesPerObjectEvents) {
  const StalenessCriterion criterion = GetParam();
  ExpectSameObservations(
      [&](std::uint64_t seed) {
        return RunScript<ReferenceTracker>(criterion, seed);
      },
      [&](std::uint64_t seed) {
        return RunScript<StalenessTracker>(criterion, seed);
      });
}

TEST_P(StalenessOrderTest, ReplayedCallsMatchPerObjectEvents) {
  const StalenessCriterion criterion = GetParam();
  ExpectSameObservations(
      [&](std::uint64_t seed) {
        return Replay<ReferenceTracker>(criterion, MakeReplayScript(seed));
      },
      [&](std::uint64_t seed) {
        return Replay<StalenessTracker>(criterion, MakeReplayScript(seed));
      });
}

std::string CriterionName(
    const ::testing::TestParamInfo<StalenessCriterion>& param_info) {
  switch (param_info.param) {
    case StalenessCriterion::kMaxAge:
      return "MA";
    case StalenessCriterion::kMaxAgeArrival:
      return "MA_arrival";
    case StalenessCriterion::kUnappliedUpdate:
      return "UU";
    case StalenessCriterion::kCombined:
      return "MA_UU";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(MaxAgeFamily, StalenessOrderTest,
                         ::testing::Values(StalenessCriterion::kMaxAge,
                                           StalenessCriterion::kMaxAgeArrival,
                                           StalenessCriterion::kCombined),
                         CriterionName);

// No expiries: the queued generations alone decide staleness.
INSTANTIATE_TEST_SUITE_P(UnappliedUpdate, StalenessOrderTest,
                         ::testing::Values(
                             StalenessCriterion::kUnappliedUpdate),
                         CriterionName);

}  // namespace
}  // namespace strip::db
