#include "obs/report/bench_diff.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report/format.h"

namespace strip::obs::report {
namespace {

std::string CacheLabel(const BenchHost::Cache& cache) {
  std::ostringstream label;
  label << "L" << cache.level << " " << cache.type << " cache";
  return label.str();
}

const BenchHost::Cache* FindCache(const BenchHost& host,
                                  const BenchHost::Cache& like) {
  for (const BenchHost::Cache& cache : host.caches) {
    if (cache.level == like.level && cache.type == like.type) return &cache;
  }
  return nullptr;
}

// Every field in which two known hosts differ, as "field base vs new".
std::vector<std::string> HostDifferences(const BenchHost& base,
                                         const BenchHost& next) {
  std::vector<std::string> out;
  const auto compare = [&out](const std::string& field, const std::string& a,
                              const std::string& b) {
    if (a != b) out.push_back(field + " " + a + " vs " + b);
  };
  const auto size = [](const BenchHost::Cache* cache) {
    return cache == nullptr ? std::string("none")
                            : FormatNumber(cache->size_bytes) + " B";
  };
  compare("num_cpus", std::to_string(base.num_cpus),
          std::to_string(next.num_cpus));
  compare("mhz_per_cpu", FormatNumber(base.mhz_per_cpu),
          FormatNumber(next.mhz_per_cpu));
  for (const BenchHost::Cache& cache : base.caches) {
    compare(CacheLabel(cache), size(&cache), size(FindCache(next, cache)));
  }
  for (const BenchHost::Cache& cache : next.caches) {
    if (FindCache(base, cache) == nullptr) {
      compare(CacheLabel(cache), size(nullptr), size(&cache));
    }
  }
  return out;
}

}  // namespace

double BenchDiffOptions::ToleranceFor(const std::string& family) const {
  for (const auto& [prefix, pct] : family_tolerance) {
    if (family.compare(0, prefix.size(), prefix) == 0) return pct;
  }
  return tolerance;
}

BenchDiffReport BenchDiff(const BenchDoc& base, const BenchDoc& next,
                          const BenchDiffOptions& options) {
  BenchDiffReport report;
  report.path_base = base.path;
  report.path_new = next.path;
  report.build_type_base = base.build_type;
  report.build_type_new = next.build_type;

  if (base.build_type != next.build_type) {
    report.notes.push_back("build type mismatch: base '" + base.build_type +
                           "' vs new '" + next.build_type + "'");
    if (!options.allow_build_mismatch) {
      report.build_mismatch = true;
    }
  }
  if (!base.host.known || !next.host.known) {
    const char* unknown = !base.host.known
                              ? (!next.host.known ? "base and new" : "base")
                              : "new";
    report.notes.push_back(std::string("host unknown for ") + unknown +
                           ": cannot tell whether both ran on one host");
  } else if (const std::vector<std::string> differences =
                 HostDifferences(base.host, next.host);
             !differences.empty()) {
    std::string note = "host mismatch:";
    for (std::size_t i = 0; i < differences.size(); ++i) {
      note += (i ? ", " : " ") + differences[i];
    }
    report.notes.push_back(note);
    report.host_mismatch = true;
  }
  if (base.build_type == "debug" || next.build_type == "debug") {
    report.notes.push_back(
        "debug-build numbers are not representative; gate on release "
        "binaries (see CONTRIBUTING.md)");
  }

  for (const BenchEntry& entry : base.entries) {
    const BenchEntry* other = next.FindEntry(entry.name);
    if (other == nullptr) {
      report.removed.push_back(entry.name);
      continue;
    }
    BenchDiffRow row;
    row.name = entry.name;
    row.family = entry.family;
    row.base_cpu_ns = entry.cpu_time_ns;
    row.new_cpu_ns = other->cpu_time_ns;
    row.base_real_ns = entry.real_time_ns;
    row.new_real_ns = other->real_time_ns;
    row.tolerance = options.ToleranceFor(entry.family);
    row.cpu_ratio = entry.cpu_time_ns > 0
                        ? other->cpu_time_ns / entry.cpu_time_ns
                        : 1.0;
    row.regressed = row.cpu_ratio > 1.0 + row.tolerance;
    row.improved = row.cpu_ratio < 1.0 - row.tolerance;
    if (row.regressed) ++report.regressions;
    if (row.improved) ++report.improvements;
    report.rows.push_back(std::move(row));
  }
  for (const BenchEntry& entry : next.entries) {
    if (base.FindEntry(entry.name) == nullptr) {
      report.added.push_back(entry.name);
    }
  }
  return report;
}

std::optional<BenchDiffReport> BenchDiffPaths(const std::string& path_base,
                                              const std::string& path_new,
                                              const BenchDiffOptions& options,
                                              std::string* error) {
  const auto base = LoadBenchDoc(path_base, error);
  if (!base) return std::nullopt;
  const auto next = LoadBenchDoc(path_new, error);
  if (!next) return std::nullopt;
  return BenchDiff(*base, *next, options);
}

std::string BenchDiffMarkdown(const BenchDiffReport& report) {
  std::ostringstream out;
  out << "# strip_report bench-diff\n\n"
      << "- base: `" << report.path_base << "` (" << report.build_type_base
      << ")\n"
      << "- new: `" << report.path_new << "` (" << report.build_type_new
      << ")\n"
      << "- regressions: " << report.regressions
      << ", improvements: " << report.improvements << "\n";
  for (const std::string& note : report.notes) {
    out << "- note: " << note << "\n";
  }
  if (!report.rows.empty()) {
    out << "\n| benchmark | base cpu | new cpu | ratio | tol | verdict |\n"
        << "|---|---:|---:|---:|---:|:---:|\n";
    for (const BenchDiffRow& row : report.rows) {
      out << "| " << row.name << " | " << FormatCompact(row.base_cpu_ns)
          << "ns | " << FormatCompact(row.new_cpu_ns) << "ns | "
          << FormatCompact(row.cpu_ratio) << " | "
          << FormatCompact(row.tolerance * 100.0) << "% | "
          << (row.regressed ? "REGRESSED"
                            : (row.improved ? "improved" : "ok"))
          << " |\n";
    }
  }
  if (!report.removed.empty()) {
    out << "\n## Removed (in base, missing from new)\n\n";
    for (const std::string& name : report.removed) {
      out << "- " << name << "\n";
    }
  }
  if (!report.added.empty()) {
    out << "\n## Added (new benchmarks, no baseline)\n\n";
    for (const std::string& name : report.added) {
      out << "- " << name << "\n";
    }
  }
  out << "\nGate: " << (report.Exceeds() ? "FAIL" : "PASS") << "\n";
  return out.str();
}

std::string BenchDiffJson(const BenchDiffReport& report) {
  std::ostringstream out;
  out << "{\n"
      << "  \"schema\": \"strip.report.bench-diff/v1\",\n"
      << "  \"base\": \"" << report.path_base << "\",\n"
      << "  \"new\": \"" << report.path_new << "\",\n"
      << "  \"build_type_base\": \"" << report.build_type_base << "\",\n"
      << "  \"build_type_new\": \"" << report.build_type_new << "\",\n"
      << "  \"build_mismatch\": "
      << (report.build_mismatch ? "true" : "false") << ",\n"
      << "  \"host_mismatch\": "
      << (report.host_mismatch ? "true" : "false") << ",\n"
      << "  \"regressions\": " << report.regressions << ",\n"
      << "  \"improvements\": " << report.improvements << ",\n"
      << "  \"gate\": \"" << (report.Exceeds() ? "fail" : "pass")
      << "\",\n";
  out << "  \"notes\": [";
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    out << (i ? ", " : "") << "\"" << report.notes[i] << "\"";
  }
  out << "],\n  \"removed\": [";
  for (std::size_t i = 0; i < report.removed.size(); ++i) {
    out << (i ? ", " : "") << "\"" << report.removed[i] << "\"";
  }
  out << "],\n  \"added\": [";
  for (std::size_t i = 0; i < report.added.size(); ++i) {
    out << (i ? ", " : "") << "\"" << report.added[i] << "\"";
  }
  out << "],\n  \"rows\": [";
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const BenchDiffRow& row = report.rows[i];
    out << (i ? ",\n" : "\n") << "    {\"name\": \"" << row.name
        << "\", \"family\": \"" << row.family
        << "\", \"base_cpu_ns\": " << FormatNumber(row.base_cpu_ns)
        << ", \"new_cpu_ns\": " << FormatNumber(row.new_cpu_ns)
        << ", \"base_real_ns\": " << FormatNumber(row.base_real_ns)
        << ", \"new_real_ns\": " << FormatNumber(row.new_real_ns)
        << ", \"cpu_ratio\": " << FormatNumber(row.cpu_ratio)
        << ", \"tolerance\": " << FormatNumber(row.tolerance)
        << ", \"verdict\": \""
        << (row.regressed ? "regressed"
                          : (row.improved ? "improved" : "ok"))
        << "\"}";
  }
  out << (report.rows.empty() ? "]\n" : "\n  ]\n") << "}\n";
  return out.str();
}

std::string BenchHistorySnapshot(const BenchDoc& doc,
                                 const std::string& label) {
  std::ostringstream out;
  out << "{\n"
      << "  \"schema\": \"strip.bench-history/v1\",\n"
      << "  \"label\": \"" << label << "\",\n"
      << "  \"build_type\": \"" << doc.build_type << "\",\n"
      << "  \"lto\": \"" << doc.lto << "\",\n";
  if (doc.host.known) {
    out << "  \"host\": {\"num_cpus\": " << doc.host.num_cpus
        << ", \"mhz_per_cpu\": " << FormatNumber(doc.host.mhz_per_cpu)
        << ", \"caches\": [";
    for (std::size_t i = 0; i < doc.host.caches.size(); ++i) {
      const BenchHost::Cache& cache = doc.host.caches[i];
      out << (i ? ", " : "") << "{\"type\": \"" << cache.type
          << "\", \"level\": " << cache.level
          << ", \"size\": " << FormatNumber(cache.size_bytes) << "}";
    }
    out << "]},\n";
  }
  out << "  \"entries\": [";
  for (std::size_t i = 0; i < doc.entries.size(); ++i) {
    const BenchEntry& entry = doc.entries[i];
    out << (i ? ",\n" : "\n") << "    {\"name\": \"" << entry.name
        << "\", \"family\": \"" << entry.family
        << "\", \"samples\": " << entry.samples
        << ", \"real_time_ns\": " << FormatNumber(entry.real_time_ns)
        << ", \"cpu_time_ns\": " << FormatNumber(entry.cpu_time_ns) << "}";
  }
  out << (doc.entries.empty() ? "]\n" : "\n  ]\n") << "}\n";
  return out.str();
}

}  // namespace strip::obs::report
