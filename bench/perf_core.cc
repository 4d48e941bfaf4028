// perf_core: the hot-path micro-suite that seeds the perf trajectory.
//
// Measures the simulation substrate the way the paper's experiments
// exercise it: event schedule→pop throughput at realistic standing
// populations, timer-churn (schedule/cancel) mixes, update-queue
// push/pop/purge under both the realistic near-in-generation-order
// arrival pattern and an adversarial random one, On Demand's
// peek-and-remove read sequence, the database apply,
// staleness-tracker and ready-queue paths, and an end-to-end
// 60-simulated-second baseline run, bare and with observers attached,
// plus the same run and the System's set-up at uf_wide's 1M + 1M
// objects.
//
// CI runs this with --benchmark_min_time=0.1x and uploads the JSON:
//   perf_core --benchmark_out=BENCH_core.json --benchmark_out_format=json
// Compare against the checked-in BENCH_core.json to read the perf
// trajectory across PRs.
//
// The JSON context carries `strip_build_type` / `strip_lto` — this
// binary's own compile configuration, stamped by CMake. (The library's
// `library_build_type` key reflects how the google-benchmark *package*
// was compiled, which on distro packages is "debug" regardless of our
// flags, so it cannot certify a baseline.)
// scripts/check_bench_build_type.sh gates checked-in baselines on
// strip_build_type == "release".

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>
#include <vector>

#include <benchmark/benchmark.h>

#include "check/invariant_auditor.h"
#include "core/config.h"
#include "core/system.h"
#include "db/database.h"
#include "db/staleness.h"
#include "db/update_queue.h"
#include "obs/trace/chrome_trace.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "txn/ready_queue.h"

namespace {

using namespace strip;

// --- event queue -----------------------------------------------------------

// Steady-state schedule→pop at a standing population of range(0)
// pending events (a 300 s paper run holds a few thousand pending
// deadline/expiry/arrival events; 64k approximates a scaled-up feed).
void BM_EventScheduleThenPop(benchmark::State& state) {
  sim::EventQueue queue;
  sim::RandomStream random(base::RngSeed(7));
  double t = 0;
  int dummy = 0;
  const int population = static_cast<int>(state.range(0));
  for (int i = 0; i < population; ++i) {
    queue.Schedule(t + random.Uniform(0, 10), [&dummy] { ++dummy; });
  }
  for (auto _ : state) {
    queue.Schedule(t + random.Uniform(0, 10), [&dummy] { ++dummy; });
    auto fired = queue.PopNext();
    t = fired->time;
    fired->callback();
    benchmark::DoNotOptimize(dummy);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventScheduleThenPop)->Arg(1024)->Arg(65536);

// Schedule+cancel with no pop: the deadline-timer pattern (most firm
// deadlines are cancelled at commit, long before they fire).
void BM_EventScheduleCancel(benchmark::State& state) {
  sim::EventQueue queue;
  int dummy = 0;
  for (auto _ : state) {
    auto handle = queue.Schedule(1.0, [&dummy] { ++dummy; });
    benchmark::DoNotOptimize(queue.Cancel(handle));
  }
}
BENCHMARK(BM_EventScheduleCancel);

// Mixed churn at a standing population: cancel-and-replace one timer,
// pop-and-fire one event, schedule its replacement.
void BM_EventTimerChurn(benchmark::State& state) {
  sim::EventQueue queue;
  sim::RandomStream random(base::RngSeed(7));
  double t = 0;
  int dummy = 0;
  const std::size_t population = static_cast<std::size_t>(state.range(0));
  std::vector<sim::EventQueue::Handle> timers(population);
  for (std::size_t i = 0; i < population; ++i) {
    timers[i] = queue.Schedule(t + random.Uniform(0, 10), [&dummy] { ++dummy; });
  }
  std::size_t next = 0;
  for (auto _ : state) {
    queue.Cancel(timers[next]);
    timers[next] = queue.Schedule(t + random.Uniform(0, 10), [&dummy] { ++dummy; });
    next = (next + 1) % population;
    auto fired = queue.PopNext();
    if (fired) {
      t = fired->time;
      fired->callback();
    }
    queue.Schedule(t + random.Uniform(0, 10), [&dummy] { ++dummy; });
    benchmark::DoNotOptimize(dummy);
  }
}
BENCHMARK(BM_EventTimerChurn)->Arg(8192);

// --- update queue ----------------------------------------------------------

db::Update MakeUpdate(std::uint64_t id, double generation,
                      sim::RandomStream& random, int per_class = 500) {
  db::Update u;
  u.id = base::UpdateId(id);
  u.object = {random.WithProbability(0.5) ? db::ObjectClass::kLowImportance
                                          : db::ObjectClass::kHighImportance,
              random.UniformInt(0, per_class - 1)};
  u.generation_time = generation;
  u.arrival_time = generation + 0.1;
  return u;
}

// Realistic feed: generation times advance with small network jitter,
// so inserts land near the tail and FIFO service pops the head.
void BM_UpdatePushPopFifo(benchmark::State& state) {
  db::UpdateQueue queue(5600);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  double t = 0;
  for (int i = 0; i < 2800; ++i) {
    queue.Push(MakeUpdate(++id, t += 0.0025, random));
  }
  for (auto _ : state) {
    queue.Push(MakeUpdate(++id, (t += 0.0025) - random.Uniform(0, 0.01),
                          random));
    benchmark::DoNotOptimize(queue.PopOldest());
  }
  state.counters["updates_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UpdatePushPopFifo);

// Adversarial feed: generation times uniform over the whole run, so
// every insert lands at a random position in the ordering.
void BM_UpdatePushPopRandom(benchmark::State& state) {
  db::UpdateQueue queue(5600);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  for (int i = 0; i < 2800; ++i) {
    queue.Push(MakeUpdate(++id, random.Uniform(0, 1000), random));
  }
  for (auto _ : state) {
    queue.Push(MakeUpdate(++id, random.Uniform(0, 1000), random));
    benchmark::DoNotOptimize(queue.PopOldest());
  }
}
BENCHMARK(BM_UpdatePushPopRandom);

// Maximum-Age service: batches of pushes followed by a purge of the
// expired prefix (Section 3.3's discard-from-front path).
void BM_UpdatePushPurge(benchmark::State& state) {
  db::UpdateQueue queue(100000);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  double t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.Push(MakeUpdate(++id, (t += 0.0025) - random.Uniform(0, 0.01),
                            random));
    }
    benchmark::DoNotOptimize(queue.PurgeGeneratedBefore(t - 0.08));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_UpdatePushPurge);

// Split-queue service (Section 4.2): class-filtered pops.
void BM_UpdateClassPops(benchmark::State& state) {
  db::UpdateQueue queue(5600);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  double t = 0;
  for (int i = 0; i < 2800; ++i) {
    queue.Push(MakeUpdate(++id, t += 0.0025, random));
  }
  for (auto _ : state) {
    queue.Push(MakeUpdate(++id, t += 0.0025, random));
    const auto cls = (id & 1) != 0 ? db::ObjectClass::kHighImportance
                                   : db::ObjectClass::kLowImportance;
    auto popped = queue.PopOldestOfClass(cls);
    if (!popped.has_value()) popped = queue.PopOldest();
    benchmark::DoNotOptimize(popped);
  }
}
BENCHMARK(BM_UpdateClassPops);

// On-Demand lookup: newest queued update for a random object.
void BM_UpdatePeekNewestFor(benchmark::State& state) {
  db::UpdateQueue queue(5600);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  double t = 0;
  for (int i = 0; i < 2800; ++i) {
    queue.Push(MakeUpdate(++id, t += 0.0025, random));
  }
  for (auto _ : state) {
    const db::ObjectId object = {db::ObjectClass::kLowImportance,
                                 random.UniformInt(0, 499)};
    benchmark::DoNotOptimize(queue.PeekNewestFor(object));
  }
}
BENCHMARK(BM_UpdatePeekNewestFor);

// On Demand's per-stale-read sequence: a near-sorted arrival, the
// newest queued update for a random object, its removal, and the purge
// that precedes the next updater job, which usually finds nothing due
// (the cutoff here lies below every queued generation time).
void BM_UpdateOnDemandRead(benchmark::State& state) {
  db::UpdateQueue queue(5600);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  double t = 0;
  for (int i = 0; i < 2800; ++i) {
    queue.Push(MakeUpdate(++id, t += 0.0025, random));
  }
  for (auto _ : state) {
    queue.Push(MakeUpdate(++id, (t += 0.0025) - random.Uniform(0, 0.01),
                          random));
    const db::ObjectId object = {random.WithProbability(0.5)
                                     ? db::ObjectClass::kLowImportance
                                     : db::ObjectClass::kHighImportance,
                                 random.UniformInt(0, 499)};
    const std::optional<db::Update> newest = queue.PeekNewestFor(object);
    if (newest.has_value()) benchmark::DoNotOptimize(queue.Remove(*newest));
    benchmark::DoNotOptimize(queue.PurgeGeneratedBefore(0.0));
  }
  state.counters["reads_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UpdateOnDemandRead);

// --- database, staleness tracker, ready queue ------------------------------

// Install path: apply one newer update to a random object.
void BM_DatabaseApply(benchmark::State& state) {
  db::Database database(500, 500);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  double t = 0;
  for (auto _ : state) {
    const db::Update u = MakeUpdate(++id, t += 0.001, random);
    benchmark::DoNotOptimize(database.Apply(u));
  }
}
BENCHMARK(BM_DatabaseApply);

// The install path at uf_wide's population (range(0) objects per
// class): newer updates to random objects, so nearly every apply
// misses the cache on its slot and its cost is the slot's size.
void BM_DatabaseApplyWide(benchmark::State& state) {
  const int per_class = static_cast<int>(state.range(0));
  db::Database database(per_class, per_class);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  double t = 0;
  for (auto _ : state) {
    const db::Update u = MakeUpdate(++id, t += 0.001, random, per_class);
    benchmark::DoNotOptimize(database.Apply(u));
  }
}
BENCHMARK(BM_DatabaseApplyWide)->Arg(1000000);

// Maximum-Age tracking: one apply per 2.5 ms of simulated time, with
// the clock advanced first, so each apply (and the count read after it)
// applies the expiries that have come due and skips the index entries
// that earlier applies superseded, as in a real run.
void BM_StalenessTrackerApply(benchmark::State& state) {
  sim::Simulator simulator;
  db::StalenessTracker tracker(&simulator,
                               db::StalenessCriterion::kMaxAge, 7.0, 500,
                               500);
  sim::RandomStream random(base::RngSeed(7));
  double t = 0;
  for (auto _ : state) {
    t += 0.0025;
    simulator.RunUntil(t);
    tracker.OnApply({db::ObjectClass::kLowImportance,
                     random.UniformInt(0, 499)},
                    t);
    benchmark::DoNotOptimize(tracker.StaleCount(
        db::ObjectClass::kLowImportance));
  }
}
BENCHMARK(BM_StalenessTrackerApply);

// Maximum Age at uf_wide's population (range(0) objects per class):
// construct the tracker, run the clock to alpha and read the stale
// count, which applies every initial expiry, then destroy it. The
// per-object unit cost of set-up and of the first expiry wave.
void BM_StalenessTrackerWide(benchmark::State& state) {
  const int per_class = static_cast<int>(state.range(0));
  constexpr double kAlpha = 7.0;
  for (auto _ : state) {
    sim::Simulator simulator;
    db::StalenessTracker tracker(&simulator,
                                 db::StalenessCriterion::kMaxAge, kAlpha,
                                 per_class, per_class);
    simulator.RunUntil(kAlpha);
    benchmark::DoNotOptimize(
        tracker.StaleCount(db::ObjectClass::kLowImportance));
  }
  state.counters["objects_per_s"] = benchmark::Counter(
      2.0 * per_class * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StalenessTrackerWide)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// Transaction scheduling: pop the best of 32 ready transactions and
// put it back.
void BM_ReadyQueuePopBest(benchmark::State& state) {
  sim::RandomStream random(base::RngSeed(7));
  std::vector<std::unique_ptr<txn::Transaction>> pool;
  for (int i = 0; i < 32; ++i) {
    txn::Transaction::Params p;
    p.id = base::TxnId(i);
    p.value = random.Uniform(0.5, 2.5);
    p.deadline = random.Uniform(1, 2);
    p.computation_instructions = random.Uniform(1e6, 1e7);
    pool.push_back(std::make_unique<txn::Transaction>(p));
  }
  txn::ReadyQueue queue;
  for (auto& t : pool) queue.Add(t.get());
  for (auto _ : state) {
    txn::Transaction* best = queue.PopBest(50e6);
    benchmark::DoNotOptimize(best);
    queue.Add(best);
  }
}
BENCHMARK(BM_ReadyQueuePopBest);

// --- end to end ------------------------------------------------------------

// A full 60-simulated-second baseline run per policy; reports both
// simulated-seconds and dispatched-events per wall second.
void BM_SimEndToEnd60s(benchmark::State& state) {
  const auto policy = static_cast<core::PolicyKind>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    core::Config config;
    config.policy = policy;
    config.sim_seconds = 60.0;
    sim::Simulator simulator;
    core::System system(&simulator, config, base::RngSeed(1));
    benchmark::DoNotOptimize(system.Run());
    events += simulator.events_dispatched();
  }
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      60.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimEndToEnd60s)
    ->Arg(static_cast<int>(core::PolicyKind::kUpdateFirst))
    ->Arg(static_cast<int>(core::PolicyKind::kOnDemand))
    ->Unit(benchmark::kMillisecond);

// uf_wide's shape: Update First on 1M + 1M objects with a bursty feed
// (peak 2000 updates/s), so each install and expiry reads per-object
// state far past L2.
core::Config WideConfig() {
  core::Config config;
  config.policy = core::PolicyKind::kUpdateFirst;
  config.n_low = 1'000'000;
  config.n_high = 1'000'000;
  config.bursty_updates = true;
  config.lambda_u_peak = 2000.0;
  return config;
}

// uf_wide's set-up: construct and destroy its System. The per-object
// arrays (database slots, tracker state and stale flags) set the cost,
// which depends on what the process allocated before: glibc may serve
// plain blocks from heap pages an earlier benchmark already faulted
// in. Run alone (--benchmark_filter=BM_SystemSetupWide) it times the
// set-up a fresh process pays.
void BM_SystemSetupWide(benchmark::State& state) {
  const core::Config config = WideConfig();
  for (auto _ : state) {
    sim::Simulator simulator;
    core::System system(&simulator, config, base::RngSeed(1));
    benchmark::DoNotOptimize(&system);
  }
  state.counters["objects_per_s"] = benchmark::Counter(
      static_cast<double>(config.n_low + config.n_high) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemSetupWide)->Unit(benchmark::kMillisecond);

// The 60-simulated-second run at uf_wide's shape. Each iteration times
// 60 simulated seconds of steady state. Construction, the first 10 s
// and teardown run with the timer paused: those 10 s hold the initial
// expiry wave at alpha (2M expiries, about two thirds of a 0-60 s
// window), which BM_StalenessTrackerWide already times.
void BM_SimEndToEndWide(benchmark::State& state) {
  constexpr double kWarmup = 10.0;
  constexpr double kTimed = 60.0;
  core::Config config = WideConfig();
  config.sim_seconds = kWarmup + kTimed;
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto simulator = std::make_unique<sim::Simulator>();
    auto system = std::make_unique<core::System>(simulator.get(), config,
                                                 base::RngSeed(1));
    system->RunSlice(kWarmup);
    const std::uint64_t warm = simulator->events_dispatched();
    state.ResumeTiming();
    benchmark::DoNotOptimize(system->RunSlice(kTimed));
    state.PauseTiming();
    events += simulator->events_dispatched() - warm;
    system.reset();
    simulator.reset();
    state.ResumeTiming();
  }
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      kTimed * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimEndToEndWide)->Unit(benchmark::kMillisecond);

// Observer overhead: the same 60-simulated-second baseline run with
// observers attached. Arg 0 runs bare (the bus's emptiness test only),
// arg 1 attaches an observer that receives every lifecycle hook and
// does nothing, arg 2 attaches a ChromeTraceWriter whose stream
// discards its bytes. The gap between 0 and 1 is the cost of the hook
// plumbing, and the gap between 1 and 2 is trace emission, also given
// as records_per_s; the bare variant should match BM_SimEndToEnd60s
// within noise.
class NoopObserver final : public core::SystemObserver {};

// A buffered stream buffer that throws its contents away when full.
class DiscardingBuffer final : public std::streambuf {
 public:
  DiscardingBuffer() { Reset(); }

 protected:
  int_type overflow(int_type ch) override {
    Reset();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      sputc(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }

 private:
  void Reset() { setp(buffer_.data(), buffer_.data() + buffer_.size()); }

  std::array<char, 64 * 1024> buffer_{};
};

void BM_SimObserverOverhead60s(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  std::uint64_t records = 0;
  NoopObserver observer;
  DiscardingBuffer discard;
  std::ostream sink(&discard);
  for (auto _ : state) {
    core::Config config;
    config.sim_seconds = 60.0;
    sim::Simulator simulator;
    core::System system(&simulator, config, base::RngSeed(1));
    std::unique_ptr<obs::trace::ChromeTraceWriter> trace;
    if (mode == 1) system.AddObserver(&observer);
    if (mode == 2) {
      trace = std::make_unique<obs::trace::ChromeTraceWriter>(&sink);
      system.AddObserver(trace.get());
    }
    benchmark::DoNotOptimize(system.Run());
    if (trace != nullptr) {
      trace->Finish();
      records += trace->events_written();
    }
    events += simulator.events_dispatched();
  }
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      60.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  if (mode == 2) {
    state.counters["records_per_s"] = benchmark::Counter(
        static_cast<double>(records), benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_SimObserverOverhead60s)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Auditor overhead: the same 60-simulated-second baseline run with the
// full InvariantAuditor attached (arg 1) vs bare (arg 0). Unlike the
// no-op observer above, the auditor re-derives conservation, queue
// accounting, and staleness conformance on every hook, so this is the
// real cost of `strip_sim --audit`. Documented in BENCH_core.json,
// not gated — audit mode is a debugging/CI tool, not the hot path.
void BM_SimAuditorOverhead60s(benchmark::State& state) {
  const bool attach = state.range(0) != 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    core::Config config;
    config.sim_seconds = 60.0;
    sim::Simulator simulator;
    core::System system(&simulator, config, base::RngSeed(1));
    check::InvariantAuditor auditor;
    if (attach) {
      auditor.set_system(&system);
      system.AddObserver(&auditor);
    }
    benchmark::DoNotOptimize(system.Run());
    if (attach && !auditor.ok()) state.SkipWithError("audit violation");
    events += simulator.events_dispatched();
  }
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      60.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimAuditorOverhead60s)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Fallbacks so the file still compiles outside the repo's CMake (the
// stamp then honestly reads "unspecified").
#ifndef STRIP_BENCH_BUILD_TYPE
#define STRIP_BENCH_BUILD_TYPE "unspecified"
#endif
#ifndef STRIP_BENCH_LTO
#define STRIP_BENCH_LTO "unknown"
#endif

// BENCHMARK_MAIN(), plus the build-configuration context stamp.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("strip_build_type", STRIP_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("strip_lto", STRIP_BENCH_LTO);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
