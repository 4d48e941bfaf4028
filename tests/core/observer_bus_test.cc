// ObserverBus fan-out semantics: registration order, reentrant
// add/remove from inside callbacks (including nested dispatches), RAII
// registration, and the OnPhase / OnStaleRead hooks end to end through
// a real System run.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/observer_bus.h"
#include "core/system.h"
#include "sim/simulator.h"

namespace strip::core {
namespace {

TEST(DropReasonTest, Names) {
  EXPECT_STREQ(DropReasonName(SystemObserver::DropReason::kOsQueueFull),
               "os-full");
  EXPECT_STREQ(DropReasonName(SystemObserver::DropReason::kQueueOverflow),
               "queue-overflow");
  EXPECT_STREQ(DropReasonName(SystemObserver::DropReason::kExpired),
               "expired");
  EXPECT_STREQ(DropReasonName(SystemObserver::DropReason::kUnworthy),
               "unworthy");
}

// Appends its tag to a shared log on every phase event.
class TaggedObserver : public SystemObserver {
 public:
  TaggedObserver(std::string tag, std::vector<std::string>* log)
      : tag_(std::move(tag)), log_(log) {}

  void OnPhase(sim::Time now, Phase phase) override {
    (void)now;
    log_->push_back(tag_ + ":" + PhaseName(phase));
    ++events_;
  }

  int events() const { return events_; }

 private:
  std::string tag_;
  std::vector<std::string>* log_;
  int events_ = 0;
};

// Removes a victim observer (possibly itself) from inside a callback.
class RemovingObserver : public TaggedObserver {
 public:
  RemovingObserver(std::string tag, std::vector<std::string>* log,
                   ObserverBus* bus)
      : TaggedObserver(std::move(tag), log), bus_(bus) {}

  void set_victim(SystemObserver* victim) { victim_ = victim; }

  void OnPhase(sim::Time now, Phase phase) override {
    TaggedObserver::OnPhase(now, phase);
    if (victim_ != nullptr) {
      bus_->Remove(victim_);
      victim_ = nullptr;
    }
  }

 private:
  ObserverBus* bus_;
  SystemObserver* victim_ = nullptr;
};

// Adds another observer from inside a callback.
class AddingObserver : public TaggedObserver {
 public:
  AddingObserver(std::string tag, std::vector<std::string>* log,
                 ObserverBus* bus, SystemObserver* recruit)
      : TaggedObserver(std::move(tag), log), bus_(bus), recruit_(recruit) {}

  void OnPhase(sim::Time now, Phase phase) override {
    TaggedObserver::OnPhase(now, phase);
    if (recruit_ != nullptr) {
      bus_->Add(recruit_);
      recruit_ = nullptr;
    }
  }

 private:
  ObserverBus* bus_;
  SystemObserver* recruit_ = nullptr;
};

TEST(ObserverBusTest, NotifiesInRegistrationOrder) {
  ObserverBus bus;
  std::vector<std::string> log;
  TaggedObserver a("a", &log), b("b", &log), c("c", &log);
  bus.Add(&a);
  bus.Add(&b);
  bus.Add(&c);
  EXPECT_EQ(bus.size(), 3u);

  bus.Notify(&SystemObserver::OnPhase, 1.0, SystemObserver::Phase::kWarmupEnd);
  EXPECT_EQ(log, (std::vector<std::string>{
                     "a:warmup_end", "b:warmup_end", "c:warmup_end"}));
}

TEST(ObserverBusTest, EmptyAndSizeTrackMembership) {
  ObserverBus bus;
  EXPECT_TRUE(bus.empty());
  std::vector<std::string> log;
  TaggedObserver a("a", &log);
  bus.Add(&a);
  EXPECT_FALSE(bus.empty());
  EXPECT_EQ(bus.size(), 1u);
  EXPECT_TRUE(bus.Remove(&a));
  EXPECT_TRUE(bus.empty());
  // Removing an unregistered observer reports false.
  EXPECT_FALSE(bus.Remove(&a));
}

TEST(ObserverBusTest, RemoveDuringDispatchSkipsLaterObserver) {
  ObserverBus bus;
  std::vector<std::string> log;
  RemovingObserver remover("r", &log, &bus);
  TaggedObserver victim("v", &log);
  bus.Add(&remover);
  bus.Add(&victim);
  remover.set_victim(&victim);

  // The victim sits after the remover, so it must not hear the event
  // that removed it.
  bus.Notify(&SystemObserver::OnPhase, 1.0, SystemObserver::Phase::kRunEnd);
  EXPECT_EQ(log, std::vector<std::string>{"r:run_end"});
  EXPECT_EQ(bus.size(), 1u);

  // Later events reach only the survivor.
  bus.Notify(&SystemObserver::OnPhase, 2.0, SystemObserver::Phase::kRunEnd);
  EXPECT_EQ(remover.events(), 2);
  EXPECT_EQ(victim.events(), 0);
}

TEST(ObserverBusTest, RemoveSelfDuringDispatchKeepsOthersRunning) {
  ObserverBus bus;
  std::vector<std::string> log;
  RemovingObserver remover("r", &log, &bus);
  TaggedObserver after("a", &log);
  bus.Add(&remover);
  bus.Add(&after);
  remover.set_victim(&remover);

  bus.Notify(&SystemObserver::OnPhase, 1.0, SystemObserver::Phase::kWarmupEnd);
  // The remover heard the event, removed itself, and the walk continued.
  EXPECT_EQ(log, (std::vector<std::string>{"r:warmup_end", "a:warmup_end"}));
  EXPECT_EQ(bus.size(), 1u);

  bus.Notify(&SystemObserver::OnPhase, 2.0, SystemObserver::Phase::kWarmupEnd);
  EXPECT_EQ(remover.events(), 1);
  EXPECT_EQ(after.events(), 2);
}

TEST(ObserverBusTest, AddDuringDispatchHearsNextEventOnly) {
  ObserverBus bus;
  std::vector<std::string> log;
  TaggedObserver recruit("n", &log);
  AddingObserver adder("a", &log, &bus, &recruit);
  bus.Add(&adder);

  bus.Notify(&SystemObserver::OnPhase, 1.0, SystemObserver::Phase::kWarmupEnd);
  // The recruit was added mid-dispatch and must not hear that event.
  EXPECT_EQ(log, std::vector<std::string>{"a:warmup_end"});
  EXPECT_EQ(bus.size(), 2u);

  bus.Notify(&SystemObserver::OnPhase, 2.0, SystemObserver::Phase::kRunEnd);
  EXPECT_EQ(log, (std::vector<std::string>{"a:warmup_end", "a:run_end",
                                           "n:run_end"}));
}

TEST(ObserverBusTest, ScopedObserverDetachesOnScopeExit) {
  ObserverBus bus;
  std::vector<std::string> log;
  TaggedObserver a("a", &log);
  {
    ScopedObserver scoped(&bus, &a);
    EXPECT_EQ(bus.size(), 1u);
    bus.Notify(&SystemObserver::OnPhase, 1.0,
               SystemObserver::Phase::kWarmupEnd);
  }
  EXPECT_TRUE(bus.empty());
  bus.Notify(&SystemObserver::OnPhase, 2.0, SystemObserver::Phase::kRunEnd);
  EXPECT_EQ(a.events(), 1);
}

// Fires one nested notify round from inside its own callback.
class NestingObserver : public TaggedObserver {
 public:
  NestingObserver(std::string tag, std::vector<std::string>* log,
                  ObserverBus* bus)
      : TaggedObserver(std::move(tag), log), bus_(bus) {}

  void OnPhase(sim::Time now, Phase phase) override {
    TaggedObserver::OnPhase(now, phase);
    if (!fired_) {
      fired_ = true;
      bus_->Notify(&SystemObserver::OnPhase, now,
                   SystemObserver::Phase::kRunEnd);
    }
  }

 private:
  ObserverBus* bus_;
  bool fired_ = false;
};

TEST(ObserverBusTest, RemoveInsideNestedDispatchSkipsOuterWalkToo) {
  ObserverBus bus;
  std::vector<std::string> log;
  NestingObserver nester("n", &log, &bus);
  RemovingObserver remover("r", &log, &bus);
  TaggedObserver victim("v", &log);
  bus.Add(&nester);
  bus.Add(&remover);
  bus.Add(&victim);
  remover.set_victim(&victim);

  // Outer round (warmup_end): the nester first fires a nested run_end
  // round; inside it the remover drops the victim. The victim must
  // hear neither the nested event nor the remainder of the *outer*
  // round — its slot is nulled in place, never erased, so the outer
  // walk's indexes stay aligned (the dispatch assertion enforces
  // this).
  bus.Notify(&SystemObserver::OnPhase, 1.0, SystemObserver::Phase::kWarmupEnd);
  EXPECT_EQ(log, (std::vector<std::string>{"n:warmup_end", "n:run_end",
                                           "r:run_end", "r:warmup_end"}));
  EXPECT_EQ(victim.events(), 0);
  EXPECT_EQ(bus.size(), 2u);

  // The nulled slot was compacted when the outermost dispatch
  // unwound; later rounds reach only the survivors.
  bus.Notify(&SystemObserver::OnPhase, 2.0, SystemObserver::Phase::kRunEnd);
  EXPECT_EQ(victim.events(), 0);
  EXPECT_EQ(remover.events(), 3);
}

// The new hooks through a real run: a System with warm-up fires
// kWarmupEnd at the warm-up boundary and kRunEnd at the end; a stale
// view read fires OnStaleRead before the transaction terminates.
class PhaseAndStaleProbe : public SystemObserver {
 public:
  void OnPhase(sim::Time now, Phase phase) override {
    phases.emplace_back(now, phase);
  }
  void OnStaleRead(sim::Time now, const txn::Transaction& transaction,
                   db::ObjectId object) override {
    (void)now;
    stale_txn_ids.push_back(transaction.id().value());
    stale_objects.push_back(object);
  }

  std::vector<std::pair<sim::Time, Phase>> phases;
  std::vector<std::uint64_t> stale_txn_ids;
  std::vector<db::ObjectId> stale_objects;
};

TEST(ObserverBusTest, SystemFiresPhaseBoundaries) {
  sim::Simulator sim;
  Config config;
  config.sim_seconds = 5.0;
  config.warmup_seconds = 2.0;
  System system(&sim, config, base::RngSeed(7));
  PhaseAndStaleProbe probe;
  ScopedObserver scoped(&system.observer_bus(), &probe);

  system.Run();

  ASSERT_EQ(probe.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(probe.phases[0].first, 2.0);
  EXPECT_EQ(probe.phases[0].second, SystemObserver::Phase::kWarmupEnd);
  EXPECT_DOUBLE_EQ(probe.phases[1].first, 5.0);
  EXPECT_EQ(probe.phases[1].second, SystemObserver::Phase::kRunEnd);
}

TEST(ObserverBusTest, SystemFiresOnStaleRead) {
  sim::Simulator sim;
  Config config;
  config.external_workload = true;
  config.sim_seconds = 10.0;
  config.policy = PolicyKind::kTransactionFirst;
  // Under MA with a tiny alpha the never-refreshed initial versions
  // are already stale when the transaction reads at t=1.
  config.alpha = 0.5;
  System system(&sim, config, base::RngSeed(1));
  PhaseAndStaleProbe probe;
  ScopedObserver scoped(&system.observer_bus(), &probe);

  const db::ObjectId object{db::ObjectClass::kLowImportance, 3};

  sim.ScheduleAt(1.0, [&] {
    txn::Transaction::Params p;
    p.id = base::TxnId(42);
    p.cls = txn::TxnClass::kHighValue;
    p.value = 1.0;
    p.arrival_time = 1.0;
    p.deadline = 9.0;
    p.computation_instructions = 1000;
    p.lookup_instructions = 4000;
    p.read_set = {object};
    system.InjectTransaction(p);
  });

  system.Run();

  ASSERT_FALSE(probe.stale_txn_ids.empty());
  EXPECT_EQ(probe.stale_txn_ids.front(), 42u);
  EXPECT_EQ(probe.stale_objects.front(), object);
}

}  // namespace
}  // namespace strip::core
