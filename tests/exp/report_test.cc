#include "exp/report.h"

#include <sstream>

#include <gtest/gtest.h>

namespace strip::exp {
namespace {

// Builds a small result by hand so formatting is fully predictable.
SweepSpec HandSpec() {
  SweepSpec spec;
  spec.policies = {core::PolicyKind::kUpdateFirst,
                   core::PolicyKind::kTransactionFirst};
  spec.x_name = "lambda_t";
  spec.x_values = {5, 10};
  spec.apply_x = [](core::Config&, double) {};
  spec.replications = 1;
  return spec;
}

SweepResult HandResult(double scale) {
  SweepResult result(2, 2, 1);
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t x = 0; x < 2; ++x) {
      core::RunMetrics m;
      m.observed_seconds = 1;
      m.value_committed =
          scale * (static_cast<double>(p) * 10 + static_cast<double>(x) + 1);
      result.mutable_cell(p, x)[0] = m;
    }
  }
  return result;
}

const MetricFn kAv = [](const core::RunMetrics& m) { return m.av(); };

TEST(ReportTest, PrintSeriesLayout) {
  std::ostringstream out;
  PrintSeries(out, HandSpec(), HandResult(1.0), "AV", kAv);
  const std::string s = out.str();
  EXPECT_NE(s.find("# AV vs lambda_t"), std::string::npos);
  EXPECT_NE(s.find("UF"), std::string::npos);
  EXPECT_NE(s.find("TF"), std::string::npos);
  // Cell (policy 0, x 0) holds 1.0; (policy 1, x 1) holds 12.0.
  EXPECT_NE(s.find("1.0000"), std::string::npos);
  EXPECT_NE(s.find("12.0000"), std::string::npos);
}

TEST(ReportTest, PrintSeriesWithCi) {
  std::ostringstream out;
  PrintSeries(out, HandSpec(), HandResult(1.0), "AV", kAv,
              /*with_ci=*/true);
  EXPECT_NE(out.str().find("±"), std::string::npos);
}

TEST(ReportTest, CsvLayout) {
  std::ostringstream out;
  PrintSeriesCsv(out, HandSpec(), HandResult(1.0), "AV", kAv);
  const std::string s = out.str();
  EXPECT_NE(s.find("lambda_t,policy,AV,ci95"), std::string::npos);
  EXPECT_NE(s.find("5,UF,1,"), std::string::npos);
  EXPECT_NE(s.find("10,TF,12,"), std::string::npos);
}

TEST(ReportTest, RatioDividesCellwise) {
  std::ostringstream out;
  PrintSeriesRatio(out, HandSpec(), HandResult(3.0), HandResult(1.0), "AV",
                   kAv);
  const std::string s = out.str();
  // Every ratio is exactly 3.
  EXPECT_NE(s.find("3.0000"), std::string::npos);
  EXPECT_EQ(s.find("1.0000"), std::string::npos);
}

TEST(ReportTest, RatioHandlesZeroDenominator) {
  std::ostringstream out;
  PrintSeriesRatio(out, HandSpec(), HandResult(1.0), HandResult(0.0), "AV",
                   kAv);
  EXPECT_NE(out.str().find("0.0000"), std::string::npos);
}

TEST(ReportTest, SeriesDocumentWrapsSeriesInOrder) {
  EXPECT_EQ(SeriesDocument({"{\"a\": 1}", "{\"b\": 2}"}),
            "{\"series\": [\n  {\"a\": 1},\n  {\"b\": 2}\n]}\n");
  EXPECT_EQ(SeriesDocument({}), "{\"series\": [\n]}\n");
}

TEST(ReportTest, SeriesDocumentHoldsPrintSeriesJson) {
  std::ostringstream series;
  PrintSeriesJson(series, HandSpec(), HandResult(1.0), "AV", kAv);
  EXPECT_EQ(SeriesDocument({series.str()}),
            "{\"series\": [\n  {\"metric\": \"AV\", \"x_name\": "
            "\"lambda_t\", \"x\": [5, 10], \"policies\": [\"UF\", "
            "\"TF\"], \"replications\": 1, \"mean\": [[1, 2], [11, 12]], "
            "\"ci95\": [[0, 0], [0, 0]]}\n]}\n");
}

TEST(ReportTest, FindMetricResolvesShortNames) {
  core::RunMetrics m;
  m.observed_seconds = 2;
  m.value_committed = 10;
  m.f_old_low = 0.25;
  ASSERT_NE(FindMetric("av"), nullptr);
  EXPECT_DOUBLE_EQ((*FindMetric("av"))(m), 5.0);
  ASSERT_NE(FindMetric("f_old_l"), nullptr);
  EXPECT_DOUBLE_EQ((*FindMetric("f_old_l"))(m), 0.25);
  ASSERT_NE(FindMetric("rho_total"), nullptr);
  EXPECT_DOUBLE_EQ((*FindMetric("rho_total"))(m), m.rho_total());
  for (const char* name :
       {"p_md", "p_success", "p_suc_nontardy", "f_old_h", "rho_t", "rho_u",
        "response_p95", "uq_avg", "remote_retries", "remote_timeouts",
        "remote_degraded", "remote_unavailable"}) {
    EXPECT_NE(FindMetric(name), nullptr) << name;
  }
  EXPECT_EQ(FindMetric("AV"), nullptr);
  EXPECT_EQ(FindMetric(""), nullptr);
}

}  // namespace
}  // namespace strip::exp
