#include "exp/report.h"

#include <cstdio>
#include <iomanip>

#include "base/check.h"

namespace strip::exp {

namespace {

std::string FormatCell(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%10.4f", value);
  return buffer;
}

std::string FormatCellCi(double mean, double ci) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%10.4f ±%-7.4f", mean, ci);
  return buffer;
}

void PrintHeader(std::ostream& out, const SweepSpec& spec,
                 const std::string& metric_name, bool with_ci) {
  out << "# " << metric_name << " vs " << spec.x_name << "\n";
  out << std::setw(10) << spec.x_name;
  for (core::PolicyKind policy : spec.policies) {
    out << "  " << std::setw(with_ci ? 19 : 10)
        << core::PolicyKindName(policy);
  }
  out << "\n";
}

}  // namespace

void PrintSeries(std::ostream& out, const SweepSpec& spec,
                 const SweepResult& result, const std::string& metric_name,
                 const MetricFn& metric, bool with_ci) {
  PrintHeader(out, spec, metric_name, with_ci);
  for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
    out << std::setw(10) << spec.x_values[x];
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const sim::Summary summary = result.Aggregate(p, x, metric);
      out << "  "
          << (with_ci ? FormatCellCi(summary.mean, summary.ci95)
                      : FormatCell(summary.mean));
    }
    out << "\n";
  }
  out << "\n";
}

void PrintSeriesCsv(std::ostream& out, const SweepSpec& spec,
                    const SweepResult& result,
                    const std::string& metric_name, const MetricFn& metric) {
  out << spec.x_name << ",policy," << metric_name << ",ci95\n";
  for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const sim::Summary summary = result.Aggregate(p, x, metric);
      out << spec.x_values[x] << ","
          << core::PolicyKindName(spec.policies[p]) << "," << summary.mean
          << "," << summary.ci95 << "\n";
    }
  }
  out << "\n";
}

void PrintSeriesRatio(std::ostream& out, const SweepSpec& spec,
                      const SweepResult& result, const SweepResult& baseline,
                      const std::string& metric_name, const MetricFn& metric) {
  STRIP_CHECK(result.n_policies() == baseline.n_policies());
  STRIP_CHECK(result.n_x() == baseline.n_x());
  PrintHeader(out, spec, metric_name, /*with_ci=*/false);
  for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
    out << std::setw(10) << spec.x_values[x];
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const double numerator = result.Mean(p, x, metric);
      const double denominator = baseline.Mean(p, x, metric);
      const double ratio = denominator == 0 ? 0 : numerator / denominator;
      out << "  " << FormatCell(ratio);
    }
    out << "\n";
  }
  out << "\n";
}

void PrintSeriesJson(std::ostream& out, const SweepSpec& spec,
                     const SweepResult& result,
                     const std::string& metric_name, const MetricFn& metric) {
  const auto number = [](double v) {
    // JSON has no inf/nan; clamp to null.
    char buffer[32];
    if (v != v || v > 1e308 || v < -1e308) return std::string("null");
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    return std::string(buffer);
  };
  out << "{\"metric\": \"" << metric_name << "\", \"x_name\": \""
      << spec.x_name << "\", \"x\": [";
  for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
    out << (x ? ", " : "") << number(spec.x_values[x]);
  }
  out << "], \"policies\": [";
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    out << (p ? ", " : "") << '"' << core::PolicyKindName(spec.policies[p])
        << '"';
  }
  out << "], \"replications\": " << spec.replications << ", \"mean\": [";
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    out << (p ? ", [" : "[");
    for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
      out << (x ? ", " : "") << number(result.Mean(p, x, metric));
    }
    out << "]";
  }
  out << "], \"ci95\": [";
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    out << (p ? ", [" : "[");
    for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
      out << (x ? ", " : "")
          << number(result.Aggregate(p, x, metric).ci95);
    }
    out << "]";
  }
  out << "]}";
}

std::string SeriesDocument(const std::vector<std::string>& series) {
  std::string document = "{\"series\": [";
  for (std::size_t i = 0; i < series.size(); ++i) {
    document += (i ? ",\n  " : "\n  ") + series[i];
  }
  return document + "\n]}\n";
}

const MetricFn* FindMetric(const std::string& name) {
  using core::RunMetrics;
  struct NamedMetric {
    const char* name;
    MetricFn fn;
  };
  static const std::vector<NamedMetric>& metrics =
      *new std::vector<NamedMetric>{
          {"av", Metric(&RunMetrics::av)},
          {"p_md", Metric(&RunMetrics::p_md)},
          {"p_success", Metric(&RunMetrics::p_success)},
          {"p_suc_nontardy", Metric(&RunMetrics::p_suc_nontardy)},
          {"f_old_l", Metric(&RunMetrics::f_old_low)},
          {"f_old_h", Metric(&RunMetrics::f_old_high)},
          {"rho_t", Metric(&RunMetrics::rho_t)},
          {"rho_u", Metric(&RunMetrics::rho_u)},
          {"rho_total", Metric(&RunMetrics::rho_total)},
          {"response_p95", Metric(&RunMetrics::response_p95)},
          {"uq_avg", Metric(&RunMetrics::uq_length_avg)},
          {"remote_retries", Metric(&RunMetrics::remote_retries)},
          {"remote_timeouts", Metric(&RunMetrics::remote_timeouts)},
          {"remote_degraded", Metric(&RunMetrics::remote_degraded_reads)},
          {"remote_unavailable",
           Metric(&RunMetrics::txns_remote_unavailable)},
      };
  for (const NamedMetric& metric : metrics) {
    if (name == metric.name) return &metric.fn;
  }
  return nullptr;
}

}  // namespace strip::exp
