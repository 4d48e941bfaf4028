// Table, CSV and JSON emitters for sweep results, and the metric names
// they plot.
//
// PrintSeries prints the same rows/series a paper figure plots: one row
// per x value, one column per policy, for one metric. The figures tool
// (bench/figures.cc) and strip_sweep compose these into reports.

#ifndef STRIP_EXP_REPORT_H_
#define STRIP_EXP_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "exp/experiment.h"

namespace strip::exp {

// Prints an aligned table of `metric` (one column per policy of the
// spec, one row per x value). `metric_name` heads the block. When
// `with_ci` is set each cell shows "mean ±ci95".
void PrintSeries(std::ostream& out, const SweepSpec& spec,
                 const SweepResult& result, const std::string& metric_name,
                 const MetricFn& metric, bool with_ci = false);

// Prints the same data as CSV: x_name,policy,metric columns — one long
// row per (x, policy) pair — convenient for replotting.
void PrintSeriesCsv(std::ostream& out, const SweepSpec& spec,
                    const SweepResult& result,
                    const std::string& metric_name, const MetricFn& metric);

// Prints a "ratio" table: metric under `result` divided by metric
// under `baseline` (used by the paper's FIFO/LIFO and abort/no-abort
// comparison figures). Both results must come from the same spec shape.
void PrintSeriesRatio(std::ostream& out, const SweepSpec& spec,
                      const SweepResult& result, const SweepResult& baseline,
                      const std::string& metric_name, const MetricFn& metric);

// Prints one series as a self-contained JSON object:
//   {"metric": ..., "x_name": ..., "x": [...], "policies": [...],
//    "mean": [[per-policy rows]], "ci95": [[per-policy rows]]}
// Callers compose these into a document with SeriesDocument.
void PrintSeriesJson(std::ostream& out, const SweepSpec& spec,
                     const SweepResult& result,
                     const std::string& metric_name, const MetricFn& metric);

// The results document of strip_sweep --json and figures --json: the
// PrintSeriesJson objects in order, as {"series": [...]}.
std::string SeriesDocument(const std::vector<std::string>& series);

// The metric with short name `name` (av, p_success, f_old_l, ...), or
// null if there is none: the one name table behind strip_sweep
// --metrics= and the figure rows.
const MetricFn* FindMetric(const std::string& name);

}  // namespace strip::exp

#endif  // STRIP_EXP_REPORT_H_
