// FlightRecorder: anomaly predicates, the trip latch, the bounded
// ring, the dump format, and the golden file.
//
// The golden test byte-compares a dump from a fixed (config, seed) run
// with a fixed recorder configuration against
// tests/obs/testdata/flight_golden.txt. Regenerate with
//   STRIP_UPDATE_GOLDEN=1 ./build/tests/flight_recorder_test

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/sharded_config.h"
#include "core/system.h"
#include "exp/experiment.h"
#include "obs/trace/flight_recorder.h"
#include "obs/trace/trace_analysis.h"
#include "sim/simulator.h"

namespace strip::obs::trace {
namespace {

constexpr char kGoldenPath[] =
    STRIP_TEST_SOURCE_DIR "/obs/testdata/flight_golden.txt";

std::unique_ptr<txn::Transaction> MakeTxn(std::uint64_t id,
                                          txn::TxnOutcome outcome,
                                          int stale_reads) {
  txn::Transaction::Params p;
  p.id = base::TxnId(id);
  p.cls = txn::TxnClass::kLowValue;
  p.value = 1.0;
  p.arrival_time = 0.0;
  p.deadline = 1.0;
  p.computation_instructions = 1000;
  auto t = std::make_unique<txn::Transaction>(p);
  t->set_outcome(outcome);
  for (int i = 0; i < stale_reads; ++i) t->MarkStaleRead();
  return t;
}

db::Update MakeUpdate(std::uint64_t id) {
  db::Update u;
  u.id = base::UpdateId(id);
  u.object = {db::ObjectClass::kLowImportance,
              static_cast<int>(id % 100)};
  u.generation_time = 0.5;
  return u;
}

TEST(FlightRecorderTest, DeadlineMissBurstTripsInsideWindow) {
  FlightRecorderOptions options;
  options.miss_burst_count = 3;
  options.miss_burst_window_seconds = 1.0;
  FlightRecorder recorder(options);
  // Two misses spread beyond the window: no trip.
  recorder.OnTransactionTerminal(
      0.1, *MakeTxn(1, txn::TxnOutcome::kMissedDeadline, 0));
  recorder.OnTransactionTerminal(
      2.0, *MakeTxn(2, txn::TxnOutcome::kMissedDeadline, 0));
  EXPECT_FALSE(recorder.tripped());
  // Two more inside one second of the last: burst of three.
  recorder.OnTransactionTerminal(
      2.4, *MakeTxn(3, txn::TxnOutcome::kInfeasible, 0));
  EXPECT_FALSE(recorder.tripped());
  recorder.OnTransactionTerminal(
      2.8, *MakeTxn(4, txn::TxnOutcome::kMissedDeadline, 0));
  ASSERT_TRUE(recorder.tripped());
  EXPECT_STREQ(recorder.trip_predicate(), "deadline-miss-burst");
  EXPECT_DOUBLE_EQ(recorder.trip_time(), 2.8);
}

TEST(FlightRecorderTest, CommittedTerminalsDoNotCountTowardBurst) {
  FlightRecorderOptions options;
  options.miss_burst_count = 2;
  FlightRecorder recorder(options);
  for (int i = 0; i < 10; ++i) {
    recorder.OnTransactionTerminal(
        0.1 * i, *MakeTxn(i, txn::TxnOutcome::kCommitted, 0));
  }
  EXPECT_FALSE(recorder.tripped());
}

TEST(FlightRecorderTest, StaleFractionTripsOnceWindowIsFull) {
  FlightRecorderOptions options;
  options.stale_window = 4;
  options.stale_fraction = 0.5;
  options.miss_burst_count = 1000;  // keep the other predicate quiet
  FlightRecorder recorder(options);
  // Three stale commits: window not yet full, no trip.
  for (int i = 0; i < 3; ++i) {
    recorder.OnTransactionTerminal(
        0.1 * i, *MakeTxn(i, txn::TxnOutcome::kCommitted, 1));
  }
  EXPECT_FALSE(recorder.tripped());
  recorder.OnTransactionTerminal(
      0.4, *MakeTxn(9, txn::TxnOutcome::kCommitted, 1));
  ASSERT_TRUE(recorder.tripped());
  EXPECT_STREQ(recorder.trip_predicate(), "stale-fraction");
}

TEST(FlightRecorderTest, UqDepthSpikeCountsDistinctQueuedUpdates) {
  FlightRecorderOptions options;
  options.uq_depth_threshold = 3;
  FlightRecorder recorder(options);
  recorder.OnUpdateEnqueued(0.1, MakeUpdate(1));
  recorder.OnUpdateEnqueued(0.2, MakeUpdate(2));
  // Install drains one: depth back to 1.
  recorder.OnUpdateInstalled(0.3, MakeUpdate(1), nullptr);
  recorder.OnUpdateEnqueued(0.4, MakeUpdate(3));
  EXPECT_FALSE(recorder.tripped());
  recorder.OnUpdateEnqueued(0.5, MakeUpdate(4));
  ASSERT_TRUE(recorder.tripped());
  EXPECT_STREQ(recorder.trip_predicate(), "uq-depth-spike");
  EXPECT_DOUBLE_EQ(recorder.trip_time(), 0.5);
}

core::SystemObserver::FaultWindowInfo OutageWindow(bool begin) {
  core::SystemObserver::FaultWindowInfo info;
  info.kind = "outage";
  info.label = "outage@1+1:speedup=4";
  info.begin = begin;
  info.start = 1.0;
  info.end = 2.0;
  return info;
}

TEST(FlightRecorderTest, OutageRecoveryTripsWhenBacklogLingers) {
  FlightRecorderOptions options;
  options.outage_recovery_deadline_seconds = 5.0;
  options.outage_recovery_depth = 2;
  FlightRecorder recorder(options);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    recorder.OnUpdateEnqueued(1.0 + 0.01 * static_cast<double>(id),
                              MakeUpdate(id));
  }
  recorder.OnFaultWindow(1.0, OutageWindow(true));
  recorder.OnFaultWindow(2.0, OutageWindow(false));  // arms the watch
  EXPECT_FALSE(recorder.tripped());
  // Any event past the 2.0 + 5.0 deadline with depth still above the
  // threshold trips the predicate — even an install that would have
  // drained the queue below it a moment later.
  recorder.OnUpdateInstalled(8.0, MakeUpdate(1), nullptr);
  ASSERT_TRUE(recorder.tripped());
  EXPECT_STREQ(recorder.trip_predicate(), "outage-recovery");
  EXPECT_STREQ(recorder.trip_window(), "outage@1+1:speedup=4");
  EXPECT_DOUBLE_EQ(recorder.trip_time(), 8.0);
  // The dump header names the tripping window.
  std::ostringstream dump;
  recorder.DumpTo(dump);
  EXPECT_NE(dump.str().find("trip=outage-recovery"), std::string::npos);
  EXPECT_NE(dump.str().find("window=outage@1+1:speedup=4"),
            std::string::npos);
}

TEST(FlightRecorderTest, OutageRecoveryDisarmsOnceTheQueueDrains) {
  FlightRecorderOptions options;
  options.outage_recovery_deadline_seconds = 5.0;
  options.outage_recovery_depth = 2;
  FlightRecorder recorder(options);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    recorder.OnUpdateEnqueued(1.0 + 0.01 * static_cast<double>(id),
                              MakeUpdate(id));
  }
  recorder.OnFaultWindow(1.0, OutageWindow(true));
  recorder.OnFaultWindow(2.0, OutageWindow(false));
  // Drain to the threshold inside the deadline: the watch clears.
  recorder.OnUpdateInstalled(3.0, MakeUpdate(1), nullptr);
  recorder.OnUpdateInstalled(3.5, MakeUpdate(2), nullptr);
  recorder.OnUpdateInstalled(4.0, MakeUpdate(3), nullptr);
  EXPECT_FALSE(recorder.tripped());
  // Well past the deadline, still no trip.
  recorder.OnUpdateEnqueued(50.0, MakeUpdate(6));
  EXPECT_FALSE(recorder.tripped());
  EXPECT_EQ(recorder.trip_window(), nullptr);
}

TEST(FlightRecorderTest, TripLatchesAndFreezesTheWindow) {
  FlightRecorderOptions options;
  options.uq_depth_threshold = 1;
  FlightRecorder recorder(options);
  recorder.OnUpdateEnqueued(0.1, MakeUpdate(1));
  ASSERT_TRUE(recorder.tripped());
  const std::uint64_t seen = recorder.events_seen();
  std::ostringstream before;
  recorder.DumpTo(before);
  // Later events are ignored: the window is a post-mortem snapshot.
  recorder.OnUpdateEnqueued(0.2, MakeUpdate(2));
  recorder.OnTransactionTerminal(
      0.3, *MakeTxn(1, txn::TxnOutcome::kCommitted, 0));
  EXPECT_EQ(recorder.events_seen(), seen);
  std::ostringstream after;
  recorder.DumpTo(after);
  EXPECT_EQ(before.str(), after.str());
}

TEST(FlightRecorderTest, RingKeepsOnlyTheLastCapacityEvents) {
  FlightRecorderOptions options;
  options.capacity = 4;
  options.armed = false;
  FlightRecorder recorder(options);
  for (int i = 0; i < 10; ++i) {
    recorder.OnUpdateArrival(0.1 * i, MakeUpdate(i));
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.events_seen(), 10u);
  std::ostringstream out;
  recorder.DumpTo(out);
  // Oldest retained first: updates 6..9.
  const std::string dump = out.str();
  EXPECT_EQ(dump.find(",5,"), std::string::npos);
  std::size_t at6 = dump.find(",6,");
  std::size_t at9 = dump.find(",9,");
  EXPECT_NE(at6, std::string::npos);
  EXPECT_NE(at9, std::string::npos);
  EXPECT_LT(at6, at9);
  EXPECT_NE(dump.find("trip=none"), std::string::npos);
}

TEST(FlightRecorderTest, DisarmedRecorderNeverTrips) {
  FlightRecorderOptions options;
  options.uq_depth_threshold = 1;
  options.armed = false;
  FlightRecorder recorder(options);
  for (int i = 0; i < 5; ++i) {
    recorder.OnUpdateEnqueued(0.1 * i, MakeUpdate(i));
  }
  EXPECT_FALSE(recorder.tripped());
}

TEST(FlightRecorderTest, DumpRoundTripsThroughTheParser) {
  FlightRecorderOptions options;
  options.uq_depth_threshold = 2;
  FlightRecorder recorder(options);
  recorder.OnUpdateArrival(0.1, MakeUpdate(1));
  recorder.OnUpdateEnqueued(0.15, MakeUpdate(1));
  recorder.OnTransactionTerminal(
      0.2, *MakeTxn(5, txn::TxnOutcome::kCommitted, 0));
  recorder.OnUpdateEnqueued(0.3, MakeUpdate(2));
  ASSERT_TRUE(recorder.tripped());
  std::ostringstream out;
  recorder.DumpTo(out);

  std::istringstream in(out.str());
  std::string error;
  const std::optional<ParsedTrace> parsed = ParseFlightDump(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->trip_predicate, "uq-depth-spike");
  EXPECT_DOUBLE_EQ(parsed->trip_time, 0.3);
  ASSERT_EQ(parsed->events.size(), 4u);
  EXPECT_EQ(parsed->events[0].kind, "update-arrival");
  EXPECT_EQ(parsed->events[0].update, 1u);
  EXPECT_EQ(parsed->events[0].object, "low:1");
  EXPECT_EQ(parsed->events[2].kind, "txn-terminal");
  EXPECT_EQ(parsed->events[2].txn, 5u);
  EXPECT_EQ(parsed->events[2].detail, "committed");
}

// The golden run: an overloaded transaction stream under UF trips the
// deadline-miss-burst predicate; the retained window's bytes are a
// constant of (Config, seed, recorder options).
core::Config GoldenConfig() {
  core::Config config;
  config.policy = core::PolicyKind::kUpdateFirst;
  config.sim_seconds = 5.0;
  config.warmup_seconds = 0.0;
  config.lambda_t = 60.0;
  return config;
}

std::string ProduceDump(const core::Config& config, std::uint64_t seed) {
  std::ostringstream out;
  FlightRecorderOptions options;
  options.capacity = 256;
  exp::ClusterRunHook hook = [&out, options](
                                 core::Cluster& cluster,
                                 const exp::RunContext&) -> exp::RunFinisher {
    auto recorder = std::make_shared<FlightRecorder>(options);
    cluster.shard(0).AddObserver(recorder.get());
    return [recorder, &out](const core::RunMetrics&) {
      recorder->DumpTo(out);
    };
  };
  exp::RunContext context;
  context.seed = seed;
  core::ShardedConfig sharded;
  sharded.base = config;
  exp::RunOnce(sharded, seed, hook, context);
  return out.str();
}

TEST(FlightRecorderTest, OverloadRunTripsAndMatchesGoldenFile) {
  const std::string dump = ProduceDump(GoldenConfig(), 3);
  EXPECT_EQ(dump.rfind("# strip-flight v1 trip=deadline-miss-burst", 0), 0u)
      << dump.substr(0, 80);
  EXPECT_EQ(dump, ProduceDump(GoldenConfig(), 3)) << "dump not deterministic";

  if (std::getenv("STRIP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << dump;
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath
                  << " (regenerate with STRIP_UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(dump, golden.str())
      << "flight dump bytes changed; if intentional, regenerate with "
         "STRIP_UPDATE_GOLDEN=1 and review the diff";
}

}  // namespace
}  // namespace strip::obs::trace
