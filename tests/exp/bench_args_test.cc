#include "exp/bench_args.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace strip::exp {
namespace {

BenchArgs Parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return BenchArgs::Parse(static_cast<int>(argv.size()),
                          const_cast<char**>(argv.data()));
}

TEST(BenchArgsTest, Defaults) {
  const BenchArgs args = Parse({});
  EXPECT_DOUBLE_EQ(args.seconds, 200.0);
  EXPECT_EQ(args.replications, 2);
  EXPECT_EQ(args.seed, 42u);
  EXPECT_EQ(args.parallel.jobs, 0);
  EXPECT_FALSE(args.parallel.pin_cores);
  EXPECT_FALSE(args.csv);
}

TEST(BenchArgsTest, ParsesEveryFlag) {
  const BenchArgs args = Parse({"--seconds=50", "--reps=5", "--seed=7",
                                "--jobs=3", "--pin-cores", "--csv"});
  EXPECT_DOUBLE_EQ(args.seconds, 50.0);
  EXPECT_EQ(args.replications, 5);
  EXPECT_EQ(args.seed, 7u);
  EXPECT_EQ(args.parallel.jobs, 3);
  EXPECT_TRUE(args.parallel.pin_cores);
  EXPECT_TRUE(args.csv);
}

TEST(BenchArgsDeathTest, ThreadsWasRemoved) {
  EXPECT_EXIT(Parse({"--threads=3"}), ::testing::ExitedWithCode(2),
              "--threads= was removed; use --jobs=3");
}

TEST(BenchArgsTest, FullPreset) {
  const BenchArgs args = Parse({"--full"});
  EXPECT_DOUBLE_EQ(args.seconds, 1000.0);
  EXPECT_EQ(args.replications, 3);
}

TEST(BenchArgsTest, ApplyToSetsSimSeconds) {
  const BenchArgs args = Parse({"--seconds=77"});
  core::Config config;
  args.ApplyTo(config);
  EXPECT_DOUBLE_EQ(config.sim_seconds, 77.0);
}

TEST(BenchArgsDeathTest, UnknownFlagExits) {
  EXPECT_EXIT(Parse({"--bogus"}), ::testing::ExitedWithCode(2), "usage");
}

TEST(BenchArgsDeathTest, NonPositiveSecondsExits) {
  EXPECT_EXIT(Parse({"--seconds=0"}), ::testing::ExitedWithCode(2), "usage");
}

TEST(BenchArgsTest, CollectsPositionalIdsInOrder) {
  const BenchArgs args =
      Parse({"fig05_staleness", "--reps=1", "table1_params", "all"});
  EXPECT_EQ(args.ids, (std::vector<std::string>{"fig05_staleness",
                                                 "table1_params", "all"}));
  EXPECT_EQ(args.replications, 1);
  EXPECT_TRUE(Parse({}).ids.empty());
}

TEST(BenchArgsTest, ParsesJsonPathAndFullSeed) {
  const BenchArgs args =
      Parse({"--json=out.json", "--seed=18446744073709551615"});
  EXPECT_EQ(args.json, "out.json");
  EXPECT_EQ(args.seed, 18446744073709551615u);
}

TEST(BenchArgsDeathTest, MalformedNumbersExitNamingTheFlag) {
  for (const char* bad :
       {"--seconds=2x", "--seconds=abc", "--seconds=nan", "--reps=2x",
        "--reps=", "--seed=abc", "--seed=-1", "--seed=7.5", "--jobs=two"}) {
    EXPECT_EXIT(Parse({bad}), ::testing::ExitedWithCode(2),
                std::string("malformed number in ") + bad)
        << bad;
  }
}

}  // namespace
}  // namespace strip::exp
