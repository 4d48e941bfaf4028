#include "exp/config_flags.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

namespace strip::exp {
namespace {

TEST(ConfigFlagsTest, SetsDoubleField) {
  core::Config config;
  EXPECT_FALSE(ApplyConfigFlag("lambda_t=17.5", config).has_value());
  EXPECT_DOUBLE_EQ(config.lambda_t, 17.5);
}

TEST(ConfigFlagsTest, SetsIntField) {
  core::Config config;
  EXPECT_FALSE(ApplyConfigFlag("n_low=123", config).has_value());
  EXPECT_EQ(config.n_low, 123);
}

TEST(ConfigFlagsTest, SetsBoolFieldInManySpellings) {
  core::Config config;
  for (const char* spelling : {"true", "1", "TRUE", "on"}) {
    config.abort_on_stale = false;
    EXPECT_FALSE(
        ApplyConfigFlag(std::string("abort_on_stale=") + spelling, config)
            .has_value());
    EXPECT_TRUE(config.abort_on_stale);
  }
  EXPECT_FALSE(ApplyConfigFlag("abort_on_stale=false", config).has_value());
  EXPECT_FALSE(config.abort_on_stale);
}

TEST(ConfigFlagsTest, SetsPolicyEnum) {
  core::Config config;
  EXPECT_FALSE(ApplyConfigFlag("policy=SU", config).has_value());
  EXPECT_EQ(config.policy, core::PolicyKind::kSplitUpdates);
  EXPECT_FALSE(ApplyConfigFlag("policy=FCF", config).has_value());
  EXPECT_EQ(config.policy, core::PolicyKind::kFixedFraction);
}

TEST(ConfigFlagsTest, SetsStalenessEnum) {
  core::Config config;
  EXPECT_FALSE(ApplyConfigFlag("staleness=UU", config).has_value());
  EXPECT_EQ(config.staleness, db::StalenessCriterion::kUnappliedUpdate);
  EXPECT_FALSE(ApplyConfigFlag("staleness=MA+UU", config).has_value());
  EXPECT_EQ(config.staleness, db::StalenessCriterion::kCombined);
}

TEST(ConfigFlagsTest, SetsDisciplineAndSched) {
  core::Config config;
  EXPECT_FALSE(ApplyConfigFlag("queue_discipline=LIFO", config).has_value());
  EXPECT_EQ(config.queue_discipline, core::QueueDiscipline::kLifo);
  EXPECT_FALSE(ApplyConfigFlag("txn_sched=EDF", config).has_value());
  EXPECT_EQ(config.txn_sched, txn::TxnSchedPolicy::kEarliestDeadline);
}

TEST(ConfigFlagsTest, RejectsUnknownName) {
  core::Config config;
  const auto error = ApplyConfigFlag("nonsense=1", config);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("unknown parameter"), std::string::npos);
}

TEST(ConfigFlagsTest, RejectsBadValue) {
  core::Config config;
  EXPECT_TRUE(ApplyConfigFlag("lambda_t=abc", config).has_value());
  EXPECT_TRUE(ApplyConfigFlag("policy=XX", config).has_value());
  EXPECT_TRUE(ApplyConfigFlag("abort_on_stale=maybe", config).has_value());
  EXPECT_TRUE(ApplyConfigFlag("n_low=12x", config).has_value());
}

TEST(ConfigFlagsTest, RejectsMissingEquals) {
  core::Config config;
  EXPECT_TRUE(ApplyConfigFlag("lambda_t", config).has_value());
}

TEST(ConfigFlagsTest, ApplyFlagsConsumesKnownLeavesRest) {
  core::Config config;
  const char* argv[] = {"prog", "--lambda_t=20", "--seed=7",
                        "positional", "--policy=UF"};
  std::vector<std::string> rest;
  const auto error = ApplyConfigFlags(5, const_cast<char**>(argv), config,
                                      &rest);
  EXPECT_FALSE(error.has_value());
  EXPECT_DOUBLE_EQ(config.lambda_t, 20);
  EXPECT_EQ(config.policy, core::PolicyKind::kUpdateFirst);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0], "--seed=7");
  EXPECT_EQ(rest[1], "positional");
}

TEST(ConfigFlagsTest, ApplyFlagsReportsBadValueForKnownName) {
  core::Config config;
  const char* argv[] = {"prog", "--lambda_t=oops"};
  const auto error =
      ApplyConfigFlags(2, const_cast<char**>(argv), config, nullptr);
  ASSERT_TRUE(error.has_value());
}

TEST(ConfigFlagsTest, SetsFaultSpecAndRobustnessFlags) {
  core::Config config;
  EXPECT_FALSE(
      ApplyConfigFlag("faults=outage@10+5:speedup=4;loss@20+5:p=0.2",
                      config)
          .has_value());
  EXPECT_EQ(config.faults, "outage@10+5:speedup=4;loss@20+5:p=0.2");
  EXPECT_FALSE(ApplyConfigFlag("shed_by_importance=true", config)
                   .has_value());
  EXPECT_TRUE(config.shed_by_importance);
  EXPECT_FALSE(ApplyConfigFlag("overload_governor=1", config).has_value());
  EXPECT_TRUE(config.overload_governor);
  EXPECT_FALSE(ApplyConfigFlag("governor_high_watermark=0.9", config)
                   .has_value());
  EXPECT_DOUBLE_EQ(config.governor_high_watermark, 0.9);
  // A malformed spec is rejected at flag-parse time with a one-line
  // error naming the bad token, not deferred to Validate().
  const auto error = ApplyConfigFlag("faults=bogus@1+2", config);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("bogus@1+2"), std::string::npos);
  EXPECT_EQ(error->find('\n'), std::string::npos);
}

TEST(ConfigFlagsTest, RejectsNonFiniteValues) {
  core::Config config;
  EXPECT_TRUE(ApplyConfigFlag("lambda_t=nan", config).has_value());
  EXPECT_TRUE(ApplyConfigFlag("lambda_t=inf", config).has_value());
  EXPECT_TRUE(ApplyConfigFlag("ips=-inf", config).has_value());
}

TEST(ConfigFlagsTest, RoundTripThroughToString) {
  core::Config config;
  config.lambda_t = 13.25;
  config.policy = core::PolicyKind::kOnDemand;
  config.staleness = db::StalenessCriterion::kUnappliedUpdate;
  config.queue_discipline = core::QueueDiscipline::kLifo;
  config.abort_on_stale = true;
  config.n_high = 77;

  // Re-apply every rendered line onto a fresh config.
  core::Config replay;
  std::istringstream lines(ConfigToString(config));
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(ApplyConfigFlag(line, replay).has_value()) << line;
  }
  EXPECT_DOUBLE_EQ(replay.lambda_t, 13.25);
  EXPECT_EQ(replay.policy, core::PolicyKind::kOnDemand);
  EXPECT_EQ(replay.staleness, db::StalenessCriterion::kUnappliedUpdate);
  EXPECT_EQ(replay.queue_discipline, core::QueueDiscipline::kLifo);
  EXPECT_TRUE(replay.abort_on_stale);
  EXPECT_EQ(replay.n_high, 77);
}

TEST(ConfigFlagsTest, RejectedAssignmentsLeaveConfigUntouched) {
  // Regression for the fuzz-target contract: an assignment the parser
  // rejects must not half-write the config — the default config still
  // validates and key fields keep their defaults.
  const core::Config defaults;
  for (const char* bad :
       {"alpha=", "alpha=junk", "lambda_t=1e", "policy=NOPE",
        "staleness=", "uq_max=x", "nosuchflag=1", "=5", "alpha",
        "faults=outage@"}) {
    core::Config config;
    const auto error = ApplyConfigFlag(bad, config);
    ASSERT_TRUE(error.has_value()) << bad;
    EXPECT_FALSE(error->empty()) << bad;
    EXPECT_FALSE(config.Validate().has_value())
        << bad << " corrupted the config: " << *config.Validate();
    EXPECT_EQ(config.alpha, defaults.alpha) << bad;
    EXPECT_EQ(config.lambda_t, defaults.lambda_t) << bad;
    EXPECT_EQ(config.policy, defaults.policy) << bad;
  }
}

TEST(ConfigFlagsTest, ParseDoubleIsStrict) {
  double v = -1;
  EXPECT_TRUE(ParseDouble("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_TRUE(ParseDouble("-0.25", &v));
  EXPECT_DOUBLE_EQ(v, -0.25);
  for (const char* bad : {"", "abc", "2x", "1e3x", "1.5.2", "nan", "inf"}) {
    v = 7;
    EXPECT_FALSE(ParseDouble(bad, &v)) << bad;
    EXPECT_DOUBLE_EQ(v, 7.0) << bad;
  }
}

TEST(ConfigFlagsTest, ParseIntIsStrict) {
  int v = -1;
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt("-3", &v));
  EXPECT_EQ(v, -3);
  for (const char* bad :
       {"", "abc", "2x", "2.5", "1e3", "4294967296", "99999999999999999999"}) {
    v = 7;
    EXPECT_FALSE(ParseInt(bad, &v)) << bad;
    EXPECT_EQ(v, 7) << bad;
  }
}

TEST(ConfigFlagsTest, ParseUint64TakesDigitsOnly) {
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615u);
  for (const char* bad : {"", "abc", "12ab", "-1", "+1", " 1", "1.0",
                          "18446744073709551616"}) {
    v = 7;
    EXPECT_FALSE(ParseUint64(bad, &v)) << bad;
    EXPECT_EQ(v, 7u) << bad;
  }
}

TEST(ConfigFlagsTest, IntFlagRejectsOutOfRangeValue) {
  core::Config config;
  EXPECT_TRUE(ApplyConfigFlag("n_low=4294967796", config).has_value());
  EXPECT_EQ(config.n_low, core::Config().n_low);
}

TEST(ConfigFlagsTest, FlagNamesCoverTheTables) {
  const std::vector<std::string> names = ConfigFlagNames();
  auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  // Table 1, 2, 3 spot checks plus scenario/extension coverage.
  EXPECT_TRUE(has("lambda_u"));
  EXPECT_TRUE(has("alpha"));
  EXPECT_TRUE(has("x_update"));
  EXPECT_TRUE(has("feasible_deadline"));
  EXPECT_TRUE(has("policy"));
  EXPECT_TRUE(has("staleness"));
  EXPECT_TRUE(has("indexed_update_queue"));
  EXPECT_TRUE(has("buffer_hit_ratio"));
  EXPECT_GE(names.size(), 35u);
}

}  // namespace
}  // namespace strip::exp
