// figures: the paper's Tables 1-3, Figures 3-16 and the ablations
// A1-A11, one row of one table each.
//
//   figures ID... [--seconds=S] [--reps=N] [--seed=S] [--jobs=N]
//                 [--pin-cores] [--csv] [--json=PATH] [--full]
//   figures all [flags]
//
// Every experiment of the paper's Section 6 has one shape: start from
// the Tables 1-3 baseline, sweep one parameter across the update
// policies, print one or two metrics. A row holds its sweeps (x axis,
// values, policies, and the settings every cell shares, as config
// flags) and its output blocks in print order. An id is the row's
// historical per-figure binary name (fig05_staleness, abl_dedup_queue,
// table1_params); `all` runs every row in table order. Without an id,
// or with an unknown one, the tool lists the ids and exits 2.
//
// The paper shape each row should reproduce, and what the rows
// measured, is in EXPERIMENTS.md.

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/atomic_io.h"
#include "base/check.h"
#include "core/config.h"
#include "core/metrics.h"
#include "exp/bench_args.h"
#include "exp/config_flags.h"
#include "exp/experiment.h"
#include "exp/report.h"

namespace {

using namespace strip;
using core::PolicyKind;
using core::RunMetrics;

// One sweep of a figure. `x_flag` is the config flag each x value sets
// when the printed axis name differs from it; `apply_x` replaces the
// flag for an axis that moves several parameters at once. `fixed` holds
// "name=value" config flags shared by every cell.
struct Sweep {
  const char* x_name;
  std::vector<double> x_values;
  std::vector<std::string> fixed = {};
  // Empty: the paper's four policies, UF TF SU OD.
  std::vector<PolicyKind> policies = {};
  const char* x_flag = nullptr;
  std::function<void(core::Config&, double)> apply_x = nullptr;
};

// One output block of a figure, in print order.
struct Block {
  enum class Kind {
    kSeries,   // PrintSeries, plus its --csv twin and --json entry
    kRatio,    // PrintSeriesRatio of `sweep` over `baseline`
    kHeading,  // "--- label ---"
    kCsvOnly,  // PrintSeriesCsv, printed only under --csv
  };
  Kind kind;
  std::string label;
  exp::MetricFn metric = nullptr;
  std::size_t sweep = 0;
  std::size_t baseline = 0;
};

// Tables 1-3: {description, parameter, value} lines read from the
// default Config, in the given column widths.
struct ParamTable {
  int description_width = 0;
  int parameter_width = 0;
  const char* value_heading = nullptr;
  std::vector<std::array<std::string, 3>> lines = {};
};

// One experiment: "== title ==", then its parameter table, or its
// sweeps' output blocks.
struct Row {
  const char* id;
  const char* title;
  std::vector<Sweep> sweeps = {};
  std::vector<Block> blocks = {};
  ParamTable params = {};
};

exp::MetricFn Named(const char* name) {
  const exp::MetricFn* metric = exp::FindMetric(name);
  STRIP_CHECK_MSG(metric != nullptr, name);
  return *metric;
}

Block Series(exp::MetricFn metric, const char* label, std::size_t sweep = 0) {
  return {Block::Kind::kSeries, label, std::move(metric), sweep};
}
Block Series(const char* metric, const char* label, std::size_t sweep = 0) {
  return Series(Named(metric), label, sweep);
}
Block Ratio(const char* metric, const char* label, std::size_t sweep,
            std::size_t baseline) {
  return {Block::Kind::kRatio, label, Named(metric), sweep, baseline};
}
Block Heading(const char* label) { return {Block::Kind::kHeading, label}; }
Block CsvOnly(const char* metric, const char* label, std::size_t sweep) {
  return {Block::Kind::kCsvOnly, label, Named(metric), sweep};
}

// Fig 13 companion: value earned from the high class alone. The paper
// explains SU's surprise win by exactly these transactions surviving
// ("the high importance data they access is kept fresh by SU").
double HighClassAv(const RunMetrics& m) {
  return m.observed_seconds <= 0
             ? 0.0
             : m.value_committed_by_class[1] / m.observed_seconds;
}

// Fig 15 companion: the share of finished transactions a stale read
// aborted.
double StaleAbortFraction(const RunMetrics& m) {
  const double total = static_cast<double>(m.txns_terminal());
  return total == 0 ? 0.0
                    : static_cast<double>(m.txns_stale_aborted) / total;
}

// Fig 10(b): alpha with N_l = N_h scaled so (N_l + N_h) / alpha stays
// at its baseline ratio.
void AlphaWithScaledN(core::Config& c, double x) {
  c.alpha = x;
  const int n = static_cast<int>(std::lround(500.0 * x / 7.0));
  c.n_low = n;
  c.n_high = n;
}

// The tables' value formats: printf's %g, and TRUE/FALSE.
std::string G(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", v);
  return buffer;
}
std::string Bool(bool v) { return v ? "TRUE" : "FALSE"; }

std::vector<Row> Rows() {
  const core::Config c;
  // The transaction-rate sweep of Figures 3-6: light load to far past
  // saturation at ~10/s.
  const std::vector<double> lambda_t = {1, 5, 10, 15, 20, 25};
  // The load sweep of Figures 11-14 and most ablations.
  const std::vector<double> load = {5, 10, 15, 20, 25};
  const std::vector<double> alpha = {2, 3, 4, 5, 6, 7, 8, 9};
  constexpr PolicyKind UF = PolicyKind::kUpdateFirst;
  constexpr PolicyKind TF = PolicyKind::kTransactionFirst;
  constexpr PolicyKind SU = PolicyKind::kSplitUpdates;
  constexpr PolicyKind OD = PolicyKind::kOnDemand;
  constexpr PolicyKind FCF = PolicyKind::kFixedFraction;
  return {
      {"table1_params", "Table 1: baseline settings for data and updates",
       {}, {},
       {48, 10, "Base value",
        {{"update arrival rate", "lambda_u", G(c.lambda_u)},
         {"probability of update being on low priority data", "p_ul",
          G(c.p_ul)},
         {"mean age of updates on arrival", "a_update",
          G(c.a_update) + " sec"},
         {"# of low priority view objects", "N_l",
          std::to_string(c.n_low)},
         {"# of high priority view objects", "N_h",
          std::to_string(c.n_high)}}}},
      {"table2_params", "Table 2: baseline settings for transactions",
       {}, {},
       {52, 10, "Base value",
        {{"transaction arrival rate", "lambda_t", G(c.lambda_t)},
         {"probability of transaction being low value", "p_tl",
          G(c.p_tl)},
         {"minimum slack of transactions", "S_min", G(c.s_min) + " sec"},
         {"maximum slack of transactions", "S_max", G(c.s_max) + " sec"},
         {"mean value of low value transaction", "v_l", G(c.v_low_mean)},
         {"mean value of high value transaction", "v_h",
          G(c.v_high_mean)},
         {"S.D. of value of low value transaction", "sd(v_l)",
          G(c.v_low_sd)},
         {"S.D. of value of high value transaction", "sd(v_h)",
          G(c.v_high_sd)},
         {"mean # of view objects read by transactions", "r",
          G(c.reads_mean)},
         {"S.D. of # of view objects read by transactions", "sd(r)",
          G(c.reads_sd)},
         {"maximum age of data used by transactions", "alpha",
          G(c.alpha) + " sec"},
         {"mean computation time of transactions", "x_bar",
          G(c.comp_mean) + " sec"},
         {"S.D. of computation time of transactions", "sd(x)",
          G(c.comp_sd)},
         {"fraction of computation done before view reads", "p_view",
          G(c.p_view)}}}},
      {"table3_params", "Table 3: baseline settings for system", {}, {},
       {58, 12, "Value",
        {{"# of instructions executed per second", "ips", G(c.ips)},
         {"# of instructions required to find a data object", "x_lookup",
          G(c.x_lookup)},
         {"# of instructions required to update a data object",
          "x_update", G(c.x_update)},
         {"# of instructions required for context switch", "x_switch",
          G(c.x_switch)},
         {"# of instructions to add an update to a queue", "x_queue",
          G(c.x_queue)},
         {"# of instructions to read one queued update", "x_scan",
          G(c.x_scan)},
         {"maximum size of OS queue (updates)", "OS_max",
          std::to_string(c.os_max)},
         {"maximum size of update queue (updates)", "UQ_max",
          std::to_string(c.uq_max)},
         {"only schedule transactions that can meet deadline",
          "feasible_dl", Bool(c.feasible_deadline)},
         {"can transactions preempt each other", "preemption",
          Bool(c.txn_preemption)},
         {"should the next update applied be the most recent",
          "queue policy", core::QueueDisciplineName(c.queue_discipline)}}}},
      {"fig03_cpu_mix", "Figure 3: CPU mix vs lambda_t (MA, no stale aborts)",
       {{"lambda_t", lambda_t}},
       {Series("rho_t", "rho_t (fig 3a)"), Series("rho_u", "rho_u (fig 3b)"),
        Series("rho_total", "rho_total")}},
      {"fig04_deadlines_value",
       "Figure 4: deadlines & value vs lambda_t (MA, no stale aborts)",
       {{"lambda_t", lambda_t}},
       {Series("p_md", "p_MD (fig 4a)"), Series("av", "AV (fig 4b)")}},
      {"fig05_staleness",
       "Figure 5: staleness vs lambda_t (MA, no stale aborts)",
       {{"lambda_t", lambda_t}},
       {Series("f_old_l", "f_old_l (fig 5a)"),
        Series("f_old_h", "f_old_h (fig 5b)")}},
      {"fig06_success", "Figure 6: success vs lambda_t (MA, no stale aborts)",
       {{"lambda_t", lambda_t}},
       {Series("p_success", "p_success (fig 6a)"),
        Series("p_suc_nontardy", "p_suc|nontardy (fig 6b)")}},
      {"fig07_update_costs",
       "Figure 7: update costs vs AV (MA, no stale aborts, lambda_t=10)",
       {{"x_update", {0, 10000, 20000, 30000, 40000, 50000}},
        {"x_queue", {0, 1000, 2000, 3000, 4000, 5000}}},
       {Series("av", "AV (fig 7a)", 0), Series("av", "AV (fig 7b)", 1)}},
      {"fig08_scan_cost",
       "Figure 8: scan cost vs AV (MA, no stale aborts, lambda_t=10)",
       {{"x_scan", {0, 2000, 4000, 6000, 8000, 10000}}},
       {Series("av", "AV (fig 8)")}},
      {"fig09_update_rate",
       "Figure 9: update rate (MA, no stale aborts, lambda_t=10)",
       {{"lambda_u", {200, 250, 300, 350, 400, 450, 500, 550, 600}}},
       {Series("p_success", "p_success (fig 9a)"),
        Series("av", "AV (fig 9b)")}},
      {"fig10_max_age",
       "Figure 10: maximum age (MA, no stale aborts, lambda_t=10)",
       {{"alpha", alpha},
        {"alpha", alpha, {}, {}, nullptr, AlphaWithScaledN}},
       {Series("av", "AV (fig 10a: alpha alone)", 0),
        Series("f_old_l", "f_old_l (fig 10a companion)", 0),
        Series("av", "AV (fig 10b: alpha with N scaled)", 1)}},
      {"fig11_fifo_lifo",
       "Figure 11: FIFO vs LIFO queue discipline (MA, no stale aborts)",
       {{"lambda_t", load, {"queue_discipline=FIFO"}},
        {"lambda_t", load, {"queue_discipline=LIFO"}}},
       {Ratio("f_old_l", "f_old_l(FIFO)/f_old_l(LIFO) (fig 11a)", 0, 1),
        Ratio("p_success", "p_success(FIFO)/p_success(LIFO) (fig 11b)", 0,
              1),
        CsvOnly("f_old_l", "f_old_l_fifo", 0),
        CsvOnly("f_old_l", "f_old_l_lifo", 1)}},
      {"fig12_abort_staleness",
       "Figure 12: staleness with abort-on-stale (MA)",
       {{"lambda_t", load, {"abort_on_stale=true"}},
        {"lambda_t", load, {"abort_on_stale=false"}}},
       {Series("f_old_h", "f_old_h w/abort (fig 12a)"),
        Ratio("f_old_h", "f_old_h(abort)/f_old_h(no abort) (fig 12b)", 0,
              1)}},
      {"fig13_abort_value", "Figure 13: AV with abort-on-stale (MA)",
       {{"lambda_t", load, {"abort_on_stale=true"}},
        {"lambda_t", load, {"abort_on_stale=false"}}},
       {Series("av", "AV w/abort (fig 13a)"),
        Ratio("av", "AV(abort)/AV(no abort) (fig 13b)", 0, 1),
        Series(HighClassAv, "AV from high-value txns w/abort (companion)")}},
      {"fig14_abort_success",
       "Figure 14: p_success with abort-on-stale (MA)",
       {{"lambda_t", load, {"abort_on_stale=true"}}},
       {Series("p_success", "p_success (fig 14)")}},
      {"fig15_pview",
       "Figure 15: p_view with abort-on-stale (MA, lambda_t=10)",
       {{"p_view", {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}, {"abort_on_stale=true"}}},
       {Series("av", "AV (fig 15)"),
        Series(StaleAbortFraction, "stale-abort fraction (companion)")}},
      {"fig16_uu_success",
       "Figure 16: p_success under UU (no stale aborts)",
       {{"lambda_t", {2, 4, 6, 8, 10, 12, 14, 16}, {"staleness=UU"}}},
       {Series("p_success", "p_success (fig 16)"),
        Series("p_md", "p_MD (companion)")}},
      {"abl_indexed_queue",
       "Ablation A1: indexed vs scanned update queue (OD, MA)",
       {{"x_scan", {0, 2000, 4000, 6000, 8000, 10000},
         {"indexed_update_queue=false"}, {OD}},
        {"x_scan", {0, 2000, 4000, 6000, 8000, 10000},
         {"indexed_update_queue=true"}, {OD}}},
       {Series("av", "AV, linear scan", 0), Series("av", "AV, hash index", 1),
        Series("p_success", "p_success, linear scan", 0),
        Series("p_success", "p_success, hash index", 1)}},
      {"abl_split_queue",
       "Ablation A2: split-importance queue service for TF (MA)",
       {{"lambda_t", load, {"split_importance_queues=false"}, {TF, SU}},
        {"lambda_t", load, {"split_importance_queues=true"}, {TF, SU}}},
       {Series("f_old_h", "f_old_h, single queue", 0),
        Series("f_old_h", "f_old_h, split queues", 1),
        Series("p_success", "p_success, single queue", 0),
        Series("p_success", "p_success, split queues", 1)}},
      {"abl_fixed_fraction", "Ablation A3: fixed-CPU-fraction updater (MA)",
       // 0.2 is the update stream's full CPU demand.
       {{"lambda_t", load, {"update_cpu_fraction=0.2"}, {UF, TF, OD, FCF}},
        {"share", {0.0, 0.05, 0.1, 0.15, 0.2, 0.3}, {}, {FCF},
         "update_cpu_fraction"}},
       {Series("p_success", "p_success (FCF share = 0.20)", 0),
        Series("av", "AV (FCF share = 0.20)", 0),
        Series("f_old_l", "f_old_l (FCF share = 0.20)", 0),
        Series("p_success", "p_success vs updater share", 1),
        Series("av", "AV vs updater share", 1),
        Series("f_old_l", "f_old_l vs updater share", 1)}},
      {"abl_preemption",
       "Ablation A4: transaction preemption on/off (MA, no stale aborts)",
       {{"lambda_t", load, {"txn_preemption=false"}},
        {"lambda_t", load, {"txn_preemption=true"}}},
       {Series("av", "AV, no preemption", 0),
        Series("av", "AV, with preemption", 1),
        Series("p_md", "p_MD, no preemption", 0),
        Series("p_md", "p_MD, with preemption", 1)}},
      {"abl_feasible_deadline",
       "Ablation A5: feasible-deadline screening on/off (MA)",
       {{"lambda_t", load, {"feasible_deadline=true"}},
        {"lambda_t", load, {"feasible_deadline=false"}}},
       {Series("av", "AV, feasible_dl=TRUE", 0),
        Series("av", "AV, feasible_dl=FALSE", 1),
        Series("p_md", "p_MD, feasible_dl=TRUE", 0),
        Series("p_md", "p_MD, feasible_dl=FALSE", 1)}},
      {"abl_txn_sched", "Ablation A6: transaction scheduling rule (OD, MA)",
       {{"lambda_t", load, {"txn_sched=VD"}, {OD}},
        {"lambda_t", load, {"txn_sched=EDF"}, {OD}},
        {"lambda_t", load, {"txn_sched=FCFS"}, {OD}}},
       {Heading("value density (paper)"), Series("av", "AV", 0),
        Series("p_md", "p_MD", 0), Heading("EDF"), Series("av", "AV", 1),
        Series("p_md", "p_MD", 1), Heading("FCFS"), Series("av", "AV", 2),
        Series("p_md", "p_MD", 2)}},
      {"abl_disk_triggers",
       "Ablation A7: disk residence & triggers (MA, lambda_t=10)",
       // A 1995-era 2 ms random read per buffer miss; a derived-data
       // rule that costs more than the install that fires it.
       {{"hit_ratio", {1.0, 0.99, 0.95, 0.9, 0.8}, {"io_seconds=0.002"}, {},
         "buffer_hit_ratio"},
        {"p_trigger", {0.0, 0.25, 0.5, 0.75, 1.0}, {"x_trigger=30000"}, {},
         "trigger_probability"}},
       {Series("av", "AV vs buffer hit ratio", 0),
        Series("p_success", "p_success vs buffer hit ratio", 0),
        Series("av", "AV vs trigger probability", 1),
        Series("f_old_l", "f_old_l vs trigger probability", 1)}},
      {"abl_partial_updates",
       "Ablation A8: partial updates (MA, lambda_t=10)",
       {{"attrs", {1, 2, 4, 8}, {}, {}, "n_attributes"}},
       {Series("f_old_l", "f_old_l vs attributes/object"),
        Series("f_old_h", "f_old_h vs attributes/object"),
        Series("p_success", "p_success vs attributes/object"),
        Series("av", "AV vs attributes/object")}},
      {"abl_staleness_criteria",
       "Ablation A9: staleness criteria (no stale aborts)",
       {{"lambda_t", {5, 10, 15, 20}, {"staleness=MA"}, {UF, OD}},
        {"lambda_t", {5, 10, 15, 20}, {"staleness=MA-arrival"}, {UF, OD}},
        {"lambda_t", {5, 10, 15, 20}, {"staleness=UU"}, {UF, OD}},
        {"lambda_t", {5, 10, 15, 20}, {"staleness=MA+UU"}, {UF, OD}}},
       {Heading("MA (generation)"), Series("p_success", "p_success", 0),
        Series("f_old_l", "f_old_l", 0), Heading("MA (arrival)"),
        Series("p_success", "p_success", 1), Series("f_old_l", "f_old_l", 1),
        Heading("UU"), Series("p_success", "p_success", 2),
        Series("f_old_l", "f_old_l", 2), Heading("MA+UU"),
        Series("p_success", "p_success", 3),
        Series("f_old_l", "f_old_l", 3)}},
      {"abl_overload", "Ablation A10: overload management",
       // The bursty feed alternates 350/s with the paper's 500/s peak:
       // the same long-run average as the steady 400/s baseline.
       {{"lambda_t", {5, 10, 15}},
        {"lambda_t",
         {5, 10, 15},
         {"bursty_updates=true", "lambda_u=350", "lambda_u_peak=500",
          "normal_dwell_seconds=15", "burst_dwell_seconds=5"}},
        {"limit", {0, 2, 4, 8, 16}, {"lambda_t=25"}, {OD},
         "admission_limit"}},
       {Series("p_success", "p_success, steady 400/s", 0),
        Series("p_success", "p_success, bursty 350/500 per s", 1),
        Series("p_md", "p_MD, steady 400/s", 0),
        Series("p_md", "p_MD, bursty 350/500 per s", 1),
        Series("av", "AV vs admission limit (lambda_t=25)", 2),
        Series("p_md", "p_MD vs admission limit", 2),
        Series("response_p95", "p95 response vs admission limit", 2)}},
      {"abl_dedup_queue", "Ablation A11: deduplicating update queue (MA)",
       // The third sweep is Figure 8's scan-cost sweep with the dedup
       // queue standing in for the index.
       {{"lambda_t", {5, 10, 15, 20}, {"dedup_update_queue=false"}, {TF, OD}},
        {"lambda_t", {5, 10, 15, 20}, {"dedup_update_queue=true"}, {TF, OD}},
        {"x_scan", {0, 2000, 4000, 8000}, {"dedup_update_queue=true"}, {OD}}},
       {Series("uq_avg", "avg queue length, plain", 0),
        Series("uq_avg", "avg queue length, dedup", 1),
        Series("f_old_l", "f_old_l, plain", 0),
        Series("f_old_l", "f_old_l, dedup", 1),
        Series("av", "AV vs x_scan, dedup queue (cf fig 8)", 2)}},
  };
}

void ApplyOrDie(const std::string& assignment, core::Config& config) {
  const auto error = exp::ApplyConfigFlag(assignment, config);
  STRIP_CHECK_MSG(!error.has_value(), (assignment + ": " + *error).c_str());
}

exp::SweepSpec MakeSpec(const Sweep& sweep, const exp::BenchArgs& args) {
  exp::SweepSpec spec;
  args.ApplyTo(spec.base);
  for (const std::string& setting : sweep.fixed) {
    ApplyOrDie(setting, spec.base);
  }
  if (!sweep.policies.empty()) spec.policies = sweep.policies;
  spec.x_name = sweep.x_name;
  spec.x_values = sweep.x_values;
  spec.apply_x = sweep.apply_x;
  if (!spec.apply_x) {
    const std::string flag = sweep.x_flag ? sweep.x_flag : sweep.x_name;
    spec.apply_x = [flag](core::Config& config, double x) {
      char value[32];
      std::snprintf(value, sizeof(value), "%.17g", x);
      ApplyOrDie(flag + "=" + value, config);
    };
  }
  spec.replications = args.replications;
  spec.base_seed = args.seed;
  spec.parallel = args.parallel;
  return spec;
}

// Prints one row; appends its series to `json_series` under --json.
void RunRow(const Row& row, const exp::BenchArgs& args,
            std::vector<std::string>* json_series) {
  std::printf("== %s ==\n\n", row.title);
  const ParamTable& table = row.params;
  if (!table.lines.empty()) {
    std::printf("%-*s %-*s %s\n", table.description_width, "Description",
                table.parameter_width, "Parameter", table.value_heading);
    for (const auto& [description, parameter, value] : table.lines) {
      std::printf("%-*s %-*s %s\n", table.description_width,
                  description.c_str(), table.parameter_width,
                  parameter.c_str(), value.c_str());
    }
  }

  std::vector<exp::SweepSpec> specs;
  std::vector<exp::SweepResult> results;
  for (const Sweep& sweep : row.sweeps) {
    specs.push_back(MakeSpec(sweep, args));
    results.push_back(exp::RunSweep(specs.back()));
  }
  for (const Block& block : row.blocks) {
    switch (block.kind) {
      case Block::Kind::kHeading:
        std::cout << "--- " << block.label << " ---\n";
        break;
      case Block::Kind::kRatio:
        exp::PrintSeriesRatio(std::cout, specs[block.sweep],
                              results[block.sweep], results[block.baseline],
                              block.label, block.metric);
        break;
      case Block::Kind::kSeries:
      case Block::Kind::kCsvOnly: {
        const exp::SweepSpec& spec = specs[block.sweep];
        const exp::SweepResult& result = results[block.sweep];
        const bool series = block.kind == Block::Kind::kSeries;
        if (series) {
          exp::PrintSeries(std::cout, spec, result, block.label,
                           block.metric);
        }
        if (args.csv) {
          exp::PrintSeriesCsv(std::cout, spec, result, block.label,
                              block.metric);
        }
        if (series && !args.json.empty()) {
          std::ostringstream json;
          exp::PrintSeriesJson(json, spec, result, block.label,
                               block.metric);
          json_series->push_back(json.str());
        }
        break;
      }
    }
  }
}

[[noreturn]] void ListIdsAndExit(const std::vector<Row>& rows) {
  std::fprintf(stderr, "usage: figures ID...|all [flags]\nids:\n");
  for (const Row& row : rows) {
    std::fprintf(stderr, "  %-24s %s\n", row.id, row.title);
  }
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::BenchArgs::Parse(argc, argv);
  const std::vector<Row> rows = Rows();

  std::vector<const Row*> selected;
  for (const std::string& id : args.ids) {
    const std::size_t before = selected.size();
    for (const Row& row : rows) {
      if (id == "all" || id == row.id) selected.push_back(&row);
    }
    if (selected.size() == before) {
      std::fprintf(stderr, "figures: unknown id %s\n", id.c_str());
      ListIdsAndExit(rows);
    }
  }
  if (selected.empty()) ListIdsAndExit(rows);

  // --json collects every series of the run into one document,
  // rewritten atomically after each row so an interrupted run leaves
  // the rows finished so far.
  std::vector<std::string> json_series;
  for (const Row* row : selected) {
    const std::size_t before = json_series.size();
    RunRow(*row, args, &json_series);
    if (json_series.size() == before) continue;
    if (const auto error = base::WriteFileAtomic(
            args.json, exp::SeriesDocument(json_series))) {
      std::fprintf(stderr, "figures: %s\n", error->c_str());
      return 2;
    }
  }
  return 0;
}
