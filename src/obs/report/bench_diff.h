// Noise-aware benchmark comparison — the CI perf-regression gate.
//
// Google-Benchmark numbers are noisy; a naive delta gate either cries
// wolf or sleeps through real regressions. This comparator is built
// around the standard noise discipline:
//
//  - min-of-N: with --benchmark_repetitions, each benchmark is reduced
//    to the minimum across repetitions (the least-contaminated sample)
//    before comparing — aggregates rows (mean/median/stddev) are
//    ignored;
//  - cpu-time gating: the verdict is on cpu_time (steadier than
//    real_time under scheduler noise); real_time is reported alongside;
//  - per-family tolerance: micro-benchmarks of different families have
//    different noise floors, so --family=PREFIX:PCT overrides the
//    default tolerance per name prefix;
//  - build-type honesty: the comparison refuses to gate a debug binary
//    against a release baseline (the repo stamps context with
//    strip_build_type precisely for this);
//  - host honesty: it likewise refuses to gate numbers from two hosts
//    whose CPU count, clock or cache sizes differ, naming each field
//    that differs. A document that records no host only earns a note.
//
// The same module writes the checked-in docs/bench_history/ trajectory
// snapshots (strip.bench-history/v1), which LoadBenchDoc also accepts
// as a BASE, so history entries gate future runs directly.

#ifndef STRIP_OBS_REPORT_BENCH_DIFF_H_
#define STRIP_OBS_REPORT_BENCH_DIFF_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/report/artifact.h"

namespace strip::obs::report {

struct BenchDiffOptions {
  // Relative cpu-time tolerance: ratio above 1 + tolerance regresses.
  double tolerance = 0.10;
  // (family prefix, tolerance) overrides, first match wins.
  std::vector<std::pair<std::string, double>> family_tolerance;
  // Gate even when the build-type stamps disagree (otherwise a
  // mismatch is itself a failure — comparing debug to release numbers
  // is meaningless).
  bool allow_build_mismatch = false;

  double ToleranceFor(const std::string& family) const;
};

struct BenchDiffRow {
  std::string name;
  std::string family;
  double base_cpu_ns = 0;
  double new_cpu_ns = 0;
  double base_real_ns = 0;
  double new_real_ns = 0;
  double cpu_ratio = 1.0;  // new/base
  double tolerance = 0;
  bool regressed = false;
  bool improved = false;
};

struct BenchDiffReport {
  std::string path_base;
  std::string path_new;
  std::string build_type_base;
  std::string build_type_new;
  bool build_mismatch = false;
  // Both documents record a host, and the hosts differ.
  bool host_mismatch = false;
  std::vector<std::string> notes;
  std::vector<BenchDiffRow> rows;
  std::vector<std::string> added;    // benchmarks only in NEW
  std::vector<std::string> removed;  // benchmarks only in BASE
  int regressions = 0;
  int improvements = 0;

  // The gate verdict: regressions, a refused build mismatch, a host
  // mismatch, or benchmarks that disappeared.
  bool Exceeds() const {
    return regressions > 0 || build_mismatch || host_mismatch ||
           !removed.empty();
  }
};

BenchDiffReport BenchDiff(const BenchDoc& base, const BenchDoc& next,
                          const BenchDiffOptions& options);

std::optional<BenchDiffReport> BenchDiffPaths(const std::string& path_base,
                                              const std::string& path_new,
                                              const BenchDiffOptions& options,
                                              std::string* error);

std::string BenchDiffMarkdown(const BenchDiffReport& report);
std::string BenchDiffJson(const BenchDiffReport& report);

// A deterministic strip.bench-history/v1 snapshot of `doc` (min-of-N
// entries plus the build stamp and, when known, the host) for checking
// into docs/bench_history/.
std::string BenchHistorySnapshot(const BenchDoc& doc,
                                 const std::string& label);

}  // namespace strip::obs::report

#endif  // STRIP_OBS_REPORT_BENCH_DIFF_H_
