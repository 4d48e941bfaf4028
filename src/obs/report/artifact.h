// Typed model of the run artifacts this repo writes, plus loaders.
//
// Three artifact families come out of a run today:
//
//  - strip.telemetry/v4 documents (obs/telemetry.h) — one per run, or
//    one per shard suffixed ".shard<k>" for sharded runs;
//  - strip.sweep-cell/v1 documents (exp/sweep_cell.h, written by
//    strip_sweep --out-dir) — one per finished sweep cell, all
//    replications' RunMetrics;
//  - Google-Benchmark JSON (BENCH_*.json) — the perf baseline.
//
// The loaders here parse each family into one common typed model so
// the report engines (diff, summary, bench_diff) never touch raw
// JSON. Every loader is tolerant the same way: a malformed document is
// a one-line error naming the file, never a crash; unknown metrics are
// carried through by name, so the report layer does not need updating
// when RunMetrics grows a counter.

#ifndef STRIP_OBS_REPORT_ARTIFACT_H_
#define STRIP_OBS_REPORT_ARTIFACT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/latency_histogram.h"
#include "obs/report/json.h"

namespace strip::obs::report {

// A flat metric set: (name, value) rows in document order. JSON null
// metrics (e.g. outage_recovery_seconds when no outage ended) carry an
// empty optional.
using MetricRow = std::pair<std::string, std::optional<double>>;
using MetricList = std::vector<MetricRow>;

// Looks up one metric by name; nullopt when absent or null.
std::optional<double> FindMetric(const MetricList& metrics,
                                 const std::string& name);

// One exported histogram (telemetry "histograms" entries): the summary
// scalars plus the sparse bucket dump, enough to rebuild a
// LatencyHistogram for bucket-wise merging across shards.
struct HistogramData {
  std::string name;
  std::uint64_t count = 0;
  double mean = 0;
  double min_sample = 0;
  double max_sample = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  double range_min = 0;
  double range_max = 0;
  int buckets_per_decade = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets;

  // Rebuilds the histogram this data was exported from (exact bucket
  // counts; sum reconstructed as mean*count). nullopt when the shape
  // parameters are invalid.
  std::optional<LatencyHistogram> Rebuild() const;
};

// One parsed strip.telemetry/v4 document.
struct TelemetryDoc {
  std::string path;
  std::string policy;
  std::string staleness;
  std::uint64_t seed = 0;
  int shard = 0;
  int shards = 1;
  double sim_seconds = 0;
  double lambda_t = 0;
  double lambda_u = 0;
  std::uint64_t stale_reads_seen = 0;
  MetricList metrics;
  std::vector<HistogramData> histograms;

  const HistogramData* FindHistogram(const std::string& name) const;
};

// One parsed strip.sweep-cell/v1 document.
struct SweepCellDoc {
  std::string path;
  std::string policy;
  std::string x_name;
  double x_value = 0;
  std::size_t x_index = 0;
  int replications = 0;
  std::uint64_t base_seed = 0;
  bool timed_out = false;
  std::vector<MetricList> runs;

  // Mean of one metric over this cell's replications; nullopt when the
  // metric is absent or null in every run.
  std::optional<double> Mean(const std::string& metric) const;
};

// One benchmark entry of a Google-Benchmark JSON document, already
// min-of-N reduced: with repetitions, the minimum across the
// "iteration" entries of the same name (the standard noise floor for
// regression gating — the min is the least contaminated sample).
struct BenchEntry {
  std::string name;
  std::string family;  // name up to the first '/'
  int samples = 0;     // repetitions folded into the min
  double real_time_ns = 0;
  double cpu_time_ns = 0;
};

// The host a benchmark document was captured on: the CPU count, clock
// and cache sizes Google Benchmark writes into its context, which a
// history snapshot repeats in its "host" block.
struct BenchHost {
  struct Cache {
    int level = 0;
    std::string type;  // "Data", "Instruction" or "Unified"
    double size_bytes = 0;
  };
  // False when the document records no host (no num_cpus), as in a
  // history snapshot written before hosts were recorded.
  bool known = false;
  int num_cpus = 0;
  double mhz_per_cpu = 0;
  std::vector<Cache> caches;
};

struct BenchDoc {
  std::string path;
  // The repo's own stamp ("release"/"debug"; see bench/perf_core) with
  // the library's library_build_type as fallback, "unknown" if neither.
  std::string build_type;
  std::string lto;  // "on"/"off"/"" when unstamped
  BenchHost host;
  std::vector<BenchEntry> entries;

  const BenchEntry* FindEntry(const std::string& name) const;
};

// A sweep directory: the cell documents plus any per-shard telemetry
// documents found next to them (summarize --by-shard groups the
// latter). Cells are ordered by (canonical policy order, x_index);
// shard docs by (cell label, shard).
struct SweepDirData {
  std::string path;
  std::vector<SweepCellDoc> cells;
  // Per-shard telemetry docs grouped by cell label ("<policy>_<xx>"
  // for sweep telemetry, the file stem for bare strip_sim output).
  struct ShardGroup {
    std::string label;
    std::vector<TelemetryDoc> shards;  // ordered by shard index
  };
  std::vector<ShardGroup> shard_groups;

  // Policies (canonical order) and x values (by x_index) present in
  // the cells.
  std::vector<std::string> policies;
  std::vector<double> x_values;
  std::string x_name;
};

// --- loaders ---------------------------------------------------------------
//
// Each returns nullopt with *error = "<path>: reason" on failure.

[[nodiscard]] std::optional<TelemetryDoc> LoadTelemetryDoc(
    const std::string& path, std::string* error);
[[nodiscard]] std::optional<TelemetryDoc> ParseTelemetryDoc(
    const std::string& path, const JsonValue& doc, std::string* error);

[[nodiscard]] std::optional<SweepCellDoc> LoadSweepCellDoc(
    const std::string& path, std::string* error);
[[nodiscard]] std::optional<SweepCellDoc> ParseSweepCellDoc(
    const std::string& path, const JsonValue& doc, std::string* error);

[[nodiscard]] std::optional<BenchDoc> LoadBenchDoc(
    const std::string& path, std::string* error);
// A parsed benchmark document: Google Benchmark JSON or a
// strip.bench-history/v1 snapshot. `path` only names it in errors.
[[nodiscard]] std::optional<BenchDoc> ParseBenchDoc(
    const std::string& path, const JsonValue& doc, std::string* error);

// Scans `dir` for cell_*.json sweep-cell files and *.shard<k>
// telemetry files (both families may live in one directory or the
// scan may find only one of them). Fails when the directory cannot be
// read, any matching file is malformed, or nothing matches at all.
[[nodiscard]] std::optional<SweepDirData> LoadSweepDir(
    const std::string& dir, std::string* error);

// What kind of artifact a path holds, by probing the filesystem and
// the document's schema/shape.
enum class ArtifactKind { kTelemetry, kSweepCell, kBench, kSweepDir };
std::optional<ArtifactKind> ClassifyArtifact(const std::string& path,
                                             std::string* error);

// Reads one whole file; nullopt with *error set when unreadable.
[[nodiscard]] std::optional<std::string> ReadFileToString(
    const std::string& path, std::string* error);

// Sorted (lexicographic) regular-file names in `dir`; nullopt when the
// directory cannot be opened.
std::optional<std::vector<std::string>> ListDirSorted(
    const std::string& dir, std::string* error);

}  // namespace strip::obs::report

#endif  // STRIP_OBS_REPORT_ARTIFACT_H_
