// strip_report: cross-run analysis over the artifacts the other tools
// write — telemetry documents, sweep-cell directories, benchmark JSON.
//
//   strip_report diff A B [--threshold=REL] [--all]
//               [--md=PATH] [--json=PATH]
//     Structural run-vs-run / sweep-vs-sweep comparison. A and B may
//     each be a telemetry doc, a sweep-cell file, or a sweep output
//     directory (both must be the same kind). Exits 1 when any metric
//     moves more than --threshold relative (default 0: any delta), or
//     when the runs are structurally unlike (different policy/config).
//
//   strip_report summarize DIR [--by-shard] [--metrics=a,b,...]
//               [--md=PATH] [--csv=PATH]
//     Aggregates a sweep directory into per-policy × per-x tables
//     (replication means), the paper-figure shape. --by-shard adds
//     cluster imbalance analytics (load/staleness/remote-traffic skew,
//     worst-shard attribution, bucket-merged cluster percentiles) over
//     per-shard telemetry documents.
//
//   strip_report bench-diff BASE NEW [--tolerance=REL]
//               [--family=PREFIX:REL]... [--allow-build-mismatch]
//               [--warn-only] [--md=PATH] [--json=PATH]
//               [--snapshot=PATH] [--label=NAME]
//     Noise-aware benchmark comparison (min-of-N, cpu-time gated,
//     per-family tolerance, build type and host checked). Exits 1 on
//     a regression, a build-type mismatch or a host mismatch (CPU
//     count, clock or a cache size) unless --warn-only. --snapshot
//     writes NEW as a strip.bench-history/v1 document (the
//     docs/bench_history/ trajectory format, itself accepted as a
//     BASE).
//
// All outputs are byte-deterministic: same inputs, same bytes.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/atomic_io.h"
#include "exp/config_flags.h"
#include "obs/report/bench_diff.h"
#include "obs/report/diff.h"
#include "obs/report/format.h"
#include "obs/report/summary.h"

namespace {

namespace report = strip::obs::report;

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "strip_report: %s\n", message.c_str());
  std::exit(2);
}

bool FlagValue(const std::string& arg, const char* name,
               std::string* value) {
  const std::string prefix = std::string(name) + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// A finite, non-negative number; anything else (empty, nan, inf,
// trailing text) exits 2 naming the flag.
double ParseFraction(const std::string& text, const char* what) {
  double value = 0;
  if (!strip::exp::ParseDouble(text, &value) || value < 0) {
    Fail(std::string(what) + " needs a non-negative number, got '" + text +
         "'");
  }
  return value;
}

// The value of a PATH flag. An empty one would silently write nothing,
// so it exits 2 naming the flag.
std::string PathOrFail(const std::string& value, const char* flag) {
  if (value.empty()) Fail(std::string(flag) + "= needs a path");
  return value;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!item.empty()) items.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

void WriteOrFail(const std::string& path, const std::string& contents) {
  if (const auto error = strip::base::WriteFileAtomic(path, contents)) {
    Fail(*error);
  }
}

int RunDiff(const std::vector<std::string>& args) {
  report::DiffOptions options;
  std::string md_path;
  std::string json_path;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    std::string value;
    if (FlagValue(arg, "--threshold", &value)) {
      options.threshold = ParseFraction(value, "--threshold");
    } else if (arg == "--all") {
      options.all_rows = true;
    } else if (FlagValue(arg, "--md", &value)) {
      md_path = PathOrFail(value, "--md");
    } else if (FlagValue(arg, "--json", &value)) {
      json_path = PathOrFail(value, "--json");
    } else if (!arg.empty() && arg[0] == '-') {
      Fail("unknown diff flag: " + arg);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) Fail("diff needs exactly two artifacts: diff A B");

  std::string error;
  const auto result = report::DiffPaths(paths[0], paths[1], options, &error);
  if (!result) Fail(error);

  const std::string markdown = report::DiffMarkdown(*result, options);
  std::fputs(markdown.c_str(), stdout);
  if (!md_path.empty()) WriteOrFail(md_path, markdown);
  if (!json_path.empty()) WriteOrFail(json_path, report::DiffJson(*result));

  if (result->Exceeds()) {
    for (const std::string& name : result->over_threshold_names) {
      std::fprintf(stderr, "strip_report: over threshold: %s\n",
                   name.c_str());
    }
    for (const std::string& note : result->notes) {
      std::fprintf(stderr, "strip_report: note: %s\n", note.c_str());
    }
    return 1;
  }
  return 0;
}

int RunSummarize(const std::vector<std::string>& args) {
  report::SummaryOptions options;
  std::string md_path;
  std::string csv_path;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    std::string value;
    if (arg == "--by-shard") {
      options.by_shard = true;
    } else if (FlagValue(arg, "--metrics", &value)) {
      options.metrics = SplitCommas(value);
    } else if (FlagValue(arg, "--md", &value)) {
      md_path = PathOrFail(value, "--md");
    } else if (FlagValue(arg, "--csv", &value)) {
      csv_path = PathOrFail(value, "--csv");
    } else if (!arg.empty() && arg[0] == '-') {
      Fail("unknown summarize flag: " + arg);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 1) Fail("summarize needs one directory");

  std::string error;
  const auto data = report::LoadSweepDir(paths[0], &error);
  if (!data) Fail(error);
  const report::SummaryReport result = report::SummarizeSweep(*data, options);

  const std::string markdown = report::SummaryMarkdown(result);
  std::fputs(markdown.c_str(), stdout);
  if (!md_path.empty()) WriteOrFail(md_path, markdown);
  if (!csv_path.empty()) WriteOrFail(csv_path, report::SummaryCsv(result));
  return 0;
}

int RunBenchDiff(const std::vector<std::string>& args) {
  report::BenchDiffOptions options;
  bool warn_only = false;
  std::string md_path;
  std::string json_path;
  std::string snapshot_path;
  std::string label = "current";
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    std::string value;
    if (FlagValue(arg, "--tolerance", &value)) {
      options.tolerance = ParseFraction(value, "--tolerance");
    } else if (FlagValue(arg, "--family", &value)) {
      const std::size_t colon = value.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        Fail("--family needs PREFIX:REL, got '" + value + "'");
      }
      options.family_tolerance.emplace_back(
          value.substr(0, colon),
          ParseFraction(value.substr(colon + 1), "--family tolerance"));
    } else if (arg == "--allow-build-mismatch") {
      options.allow_build_mismatch = true;
    } else if (arg == "--warn-only") {
      warn_only = true;
    } else if (FlagValue(arg, "--md", &value)) {
      md_path = PathOrFail(value, "--md");
    } else if (FlagValue(arg, "--json", &value)) {
      json_path = PathOrFail(value, "--json");
    } else if (FlagValue(arg, "--snapshot", &value)) {
      snapshot_path = PathOrFail(value, "--snapshot");
    } else if (FlagValue(arg, "--label", &value)) {
      label = value;
    } else if (!arg.empty() && arg[0] == '-') {
      Fail("unknown bench-diff flag: " + arg);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    Fail("bench-diff needs exactly two documents: bench-diff BASE NEW");
  }

  std::string error;
  const auto result =
      report::BenchDiffPaths(paths[0], paths[1], options, &error);
  if (!result) Fail(error);

  const std::string markdown = report::BenchDiffMarkdown(*result);
  std::fputs(markdown.c_str(), stdout);
  if (!md_path.empty()) WriteOrFail(md_path, markdown);
  if (!json_path.empty()) {
    WriteOrFail(json_path, report::BenchDiffJson(*result));
  }
  if (!snapshot_path.empty()) {
    const auto next = report::LoadBenchDoc(paths[1], &error);
    if (!next) Fail(error);
    WriteOrFail(snapshot_path, report::BenchHistorySnapshot(*next, label));
  }

  if (result->Exceeds() && !warn_only) {
    for (const report::BenchDiffRow& row : result->rows) {
      if (row.regressed) {
        std::fprintf(stderr, "strip_report: regression: %s (%sx)\n",
                     row.name.c_str(),
                     report::FormatCompact(row.cpu_ratio).c_str());
      }
    }
    for (const std::string& note : result->notes) {
      std::fprintf(stderr, "strip_report: note: %s\n", note.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    Fail("usage: strip_report diff|summarize|bench-diff ... "
         "(see header comment)");
  }
  const std::string verb = args.front();
  args.erase(args.begin());
  if (verb == "diff") return RunDiff(args);
  if (verb == "summarize") return RunSummarize(args);
  if (verb == "bench-diff") return RunBenchDiff(args);
  Fail("unknown verb '" + verb + "' (want diff, summarize, or bench-diff)");
}
