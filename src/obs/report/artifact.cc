#include "obs/report/artifact.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>

namespace strip::obs::report {

namespace {

// Canonical policy presentation order — the order the paper's figures
// use and strip_sweep's default grid follows. Policies outside this
// list (future additions) sort after it, alphabetically.
constexpr const char* kPolicyOrder[] = {"UF", "TF", "SU", "OD", "FCF"};

int PolicyRank(const std::string& policy) {
  for (std::size_t i = 0; i < std::size(kPolicyOrder); ++i) {
    if (policy == kPolicyOrder[i]) return static_cast<int>(i);
  }
  return static_cast<int>(std::size(kPolicyOrder));
}

bool SetError(std::string* error, const std::string& path,
              const std::string& why) {
  if (error != nullptr) *error = path + ": " + why;
  return false;
}

std::uint64_t AsUint64(double v) {
  return v <= 0 ? 0 : static_cast<std::uint64_t>(v);
}

// Parses one telemetry "histograms" entry.
bool ParseHistogramData(const std::string& path, const std::string& name,
                        const JsonValue& value, HistogramData* out,
                        std::string* error) {
  if (!value.is_object()) {
    return SetError(error, path, "histogram '" + name + "' is not an object");
  }
  out->name = name;
  out->count = AsUint64(value.NumberOr("count", 0));
  out->mean = value.NumberOr("mean", 0);
  out->min_sample = value.NumberOr("min", 0);
  out->max_sample = value.NumberOr("max", 0);
  out->p50 = value.NumberOr("p50", 0);
  out->p90 = value.NumberOr("p90", 0);
  out->p99 = value.NumberOr("p99", 0);
  out->underflow = AsUint64(value.NumberOr("underflow", 0));
  out->overflow = AsUint64(value.NumberOr("overflow", 0));
  const JsonValue* range = value.Find("range");
  if (range == nullptr || !range->is_array() || range->items.size() != 2 ||
      !range->items[0].is_number() || !range->items[1].is_number()) {
    return SetError(error, path, "histogram '" + name + "' has no range");
  }
  out->range_min = range->items[0].number_value;
  out->range_max = range->items[1].number_value;
  out->buckets_per_decade =
      static_cast<int>(value.NumberOr("buckets_per_decade", 0));
  const JsonValue* buckets = value.Find("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    return SetError(error, path, "histogram '" + name + "' has no buckets");
  }
  out->buckets.clear();
  for (const JsonValue& pair : buckets->items) {
    if (!pair.is_array() || pair.items.size() != 2 ||
        !pair.items[0].is_number() || !pair.items[1].is_number()) {
      return SetError(error, path,
                      "histogram '" + name + "' has a malformed bucket");
    }
    out->buckets.emplace_back(
        static_cast<std::size_t>(pair.items[0].number_value),
        AsUint64(pair.items[1].number_value));
  }
  return true;
}

// Parses a metrics-style object: every member becomes a row; null
// members carry an empty optional (e.g. outage_recovery_seconds when
// no outage ended).
bool ParseMetricList(const std::string& path, const JsonValue& object,
                     MetricList* out, std::string* error) {
  if (!object.is_object()) {
    return SetError(error, path, "metrics is not an object");
  }
  out->clear();
  out->reserve(object.members.size());
  for (const auto& [name, value] : object.members) {
    if (value.is_number()) {
      out->emplace_back(name, value.number_value);
    } else if (value.is_null()) {
      out->emplace_back(name, std::nullopt);
    } else if (value.is_bool()) {
      out->emplace_back(name, value.bool_value ? 1.0 : 0.0);
    }
    // Nested structures are not metrics; skip them silently so the
    // model survives future additions.
  }
  return true;
}

double TimeUnitToNs(const std::string& unit) {
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;  // ns, the Google-Benchmark default
}

// "<stem>.json.shard<k>" → stem + k. Returns false for other names.
bool ParseShardSuffix(const std::string& name, std::string* stem,
                      int* shard) {
  const std::string marker = ".json.shard";
  const std::size_t at = name.rfind(marker);
  if (at == std::string::npos) return false;
  const std::string digits = name.substr(at + marker.size());
  if (digits.empty()) return false;
  int value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *stem = name.substr(0, at);
  *shard = value;
  return true;
}

}  // namespace

std::optional<double> FindMetric(const MetricList& metrics,
                                 const std::string& name) {
  for (const auto& [metric, value] : metrics) {
    if (metric == name) return value;
  }
  return std::nullopt;
}

std::optional<LatencyHistogram> HistogramData::Rebuild() const {
  return LatencyHistogram::FromBuckets(range_min, range_max,
                                       buckets_per_decade, buckets, mean,
                                       min_sample, max_sample);
}

const HistogramData* TelemetryDoc::FindHistogram(
    const std::string& name) const {
  for (const HistogramData& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::optional<double> SweepCellDoc::Mean(const std::string& metric) const {
  double sum = 0;
  int samples = 0;
  for (const MetricList& run : runs) {
    if (const auto value = FindMetric(run, metric)) {
      sum += *value;
      ++samples;
    }
  }
  if (samples == 0) return std::nullopt;
  return sum / samples;
}

const BenchEntry* BenchDoc::FindEntry(const std::string& name) const {
  for (const BenchEntry& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::optional<std::string> ReadFileToString(const std::string& path,
                                            std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    SetError(error, path, "cannot open");
    return std::nullopt;
  }
  std::string contents;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    SetError(error, path, "read error");
    return std::nullopt;
  }
  return contents;
}

std::optional<std::vector<std::string>> ListDirSorted(const std::string& dir,
                                                      std::string* error) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    SetError(error, dir, "cannot open directory");
    return std::nullopt;
  }
  std::vector<std::string> names;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st{};
    if (::stat((dir + "/" + name).c_str(), &st) != 0) continue;
    if (!S_ISREG(st.st_mode)) continue;
    names.push_back(name);
  }
  ::closedir(handle);
  std::sort(names.begin(), names.end());
  return names;
}

std::optional<TelemetryDoc> ParseTelemetryDoc(const std::string& path,
                                              const JsonValue& doc,
                                              std::string* error) {
  if (!doc.is_object()) {
    SetError(error, path, "not a JSON object");
    return std::nullopt;
  }
  const std::string schema = doc.StringOr("schema", "");
  if (schema != "strip.telemetry/v4") {
    SetError(error, path, "unsupported schema '" + schema +
                              "' (want strip.telemetry/v4)");
    return std::nullopt;
  }
  TelemetryDoc out;
  out.path = path;
  const JsonValue* run = doc.Find("run");
  if (run == nullptr || !run->is_object()) {
    SetError(error, path, "missing run object");
    return std::nullopt;
  }
  out.policy = run->StringOr("policy", "");
  out.staleness = run->StringOr("staleness", "");
  out.seed = AsUint64(run->NumberOr("seed", 0));
  out.shard = static_cast<int>(run->NumberOr("shard", 0));
  out.shards = static_cast<int>(run->NumberOr("shards", 1));
  out.sim_seconds = run->NumberOr("sim_seconds", 0);
  out.lambda_t = run->NumberOr("lambda_t", 0);
  out.lambda_u = run->NumberOr("lambda_u", 0);
  out.stale_reads_seen = AsUint64(doc.NumberOr("stale_reads_seen", 0));

  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr ||
      !ParseMetricList(path, *metrics, &out.metrics, error)) {
    if (metrics == nullptr) SetError(error, path, "missing metrics object");
    return std::nullopt;
  }

  const JsonValue* histograms = doc.Find("histograms");
  if (histograms == nullptr || !histograms->is_object()) {
    SetError(error, path, "missing histograms object");
    return std::nullopt;
  }
  for (const auto& [name, value] : histograms->members) {
    HistogramData data;
    if (!ParseHistogramData(path, name, value, &data, error)) {
      return std::nullopt;
    }
    out.histograms.push_back(std::move(data));
  }
  return out;
}

std::optional<TelemetryDoc> LoadTelemetryDoc(const std::string& path,
                                             std::string* error) {
  const auto contents = ReadFileToString(path, error);
  if (!contents) return std::nullopt;
  std::string parse_error;
  const auto doc = ParseJson(*contents, &parse_error);
  if (!doc) {
    SetError(error, path, parse_error);
    return std::nullopt;
  }
  return ParseTelemetryDoc(path, *doc, error);
}

std::optional<SweepCellDoc> LoadSweepCellDoc(const std::string& path,
                                             std::string* error) {
  const auto contents = ReadFileToString(path, error);
  if (!contents) return std::nullopt;
  std::string parse_error;
  const auto doc = ParseJson(*contents, &parse_error);
  if (!doc) {
    SetError(error, path, parse_error);
    return std::nullopt;
  }
  if (!doc->is_object()) {
    SetError(error, path, "not a JSON object");
    return std::nullopt;
  }
  const std::string schema = doc->StringOr("schema", "");
  if (schema != "strip.sweep-cell/v1") {
    SetError(error, path, "unsupported schema '" + schema +
                              "' (want strip.sweep-cell/v1)");
    return std::nullopt;
  }
  SweepCellDoc out;
  out.path = path;
  out.policy = doc->StringOr("policy", "");
  out.x_name = doc->StringOr("x_name", "");
  out.x_value = doc->NumberOr("x_value", 0);
  out.x_index = static_cast<std::size_t>(doc->NumberOr("x_index", 0));
  out.replications = static_cast<int>(doc->NumberOr("replications", 0));
  out.base_seed = AsUint64(doc->NumberOr("base_seed", 0));
  out.timed_out = doc->BoolOr("timed_out", false);
  const JsonValue* runs = doc->Find("runs");
  if (runs == nullptr || !runs->is_array()) {
    SetError(error, path, "missing runs array");
    return std::nullopt;
  }
  for (const JsonValue& run : runs->items) {
    MetricList metrics;
    if (!ParseMetricList(path, run, &metrics, error)) return std::nullopt;
    out.runs.push_back(std::move(metrics));
  }
  return out;
}

std::optional<BenchDoc> LoadBenchDoc(const std::string& path,
                                     std::string* error) {
  const auto contents = ReadFileToString(path, error);
  if (!contents) return std::nullopt;
  std::string parse_error;
  const auto doc = ParseJson(*contents, &parse_error);
  if (!doc) {
    SetError(error, path, parse_error);
    return std::nullopt;
  }
  if (!doc->is_object()) {
    SetError(error, path, "not a JSON object");
    return std::nullopt;
  }

  // A checked-in strip.bench-history/v1 snapshot reloads directly (its
  // entries are already min-of-N reduced).
  if (doc->StringOr("schema", "") == "strip.bench-history/v1") {
    BenchDoc out;
    out.path = path;
    out.build_type = doc->StringOr("build_type", "unknown");
    out.lto = doc->StringOr("lto", "");
    const JsonValue* entries = doc->Find("entries");
    if (entries == nullptr || !entries->is_array()) {
      SetError(error, path, "missing entries array");
      return std::nullopt;
    }
    for (const JsonValue& item : entries->items) {
      if (!item.is_object()) continue;
      BenchEntry entry;
      entry.name = item.StringOr("name", "");
      if (entry.name.empty()) continue;
      entry.family = item.StringOr("family", entry.name);
      entry.samples = static_cast<int>(item.NumberOr("samples", 1));
      entry.real_time_ns = item.NumberOr("real_time_ns", 0);
      entry.cpu_time_ns = item.NumberOr("cpu_time_ns", 0);
      out.entries.push_back(std::move(entry));
    }
    if (out.entries.empty()) {
      SetError(error, path, "no entries in history snapshot");
      return std::nullopt;
    }
    return out;
  }

  const JsonValue* benchmarks = doc->Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    SetError(error, path, "missing benchmarks array");
    return std::nullopt;
  }
  BenchDoc out;
  out.path = path;
  if (const JsonValue* context = doc->Find("context");
      context != nullptr && context->is_object()) {
    // Prefer the repo's own stamp: the library_build_type the benchmark
    // library reports describes how *it* was compiled, which has been
    // observed to disagree with the actual binary.
    out.build_type = context->StringOr(
        "strip_build_type", context->StringOr("library_build_type", ""));
    out.lto = context->StringOr("strip_lto", "");
  }
  if (out.build_type.empty()) out.build_type = "unknown";

  for (const JsonValue& bench : benchmarks->items) {
    if (!bench.is_object()) continue;
    // Aggregates (mean/median/stddev rows emitted with repetitions)
    // are derived views; the min over the iteration rows is the gate's
    // noise floor, so only iteration rows feed the model.
    const std::string run_type = bench.StringOr("run_type", "iteration");
    if (run_type != "iteration") continue;
    const std::string name = bench.StringOr("name", "");
    if (name.empty()) continue;
    const double scale = TimeUnitToNs(bench.StringOr("time_unit", "ns"));
    const double real_time = bench.NumberOr("real_time", 0) * scale;
    const double cpu_time = bench.NumberOr("cpu_time", 0) * scale;
    BenchEntry* entry = nullptr;
    for (BenchEntry& existing : out.entries) {
      if (existing.name == name) {
        entry = &existing;
        break;
      }
    }
    if (entry == nullptr) {
      out.entries.emplace_back();
      entry = &out.entries.back();
      entry->name = name;
      entry->family = name.substr(0, name.find('/'));
      entry->real_time_ns = real_time;
      entry->cpu_time_ns = cpu_time;
      entry->samples = 1;
      continue;
    }
    // Min-of-N: keep the least-contaminated repetition.
    entry->real_time_ns = std::min(entry->real_time_ns, real_time);
    entry->cpu_time_ns = std::min(entry->cpu_time_ns, cpu_time);
    ++entry->samples;
  }
  if (out.entries.empty()) {
    SetError(error, path, "no iteration benchmarks in document");
    return std::nullopt;
  }
  return out;
}

std::optional<SweepDirData> LoadSweepDir(const std::string& dir,
                                         std::string* error) {
  const auto names = ListDirSorted(dir, error);
  if (!names) return std::nullopt;

  SweepDirData out;
  out.path = dir;
  for (const std::string& name : *names) {
    const std::string path = dir + "/" + name;
    if (name.size() > 10 && name.compare(0, 5, "cell_") == 0 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      auto cell = LoadSweepCellDoc(path, error);
      if (!cell) return std::nullopt;
      out.cells.push_back(std::move(*cell));
      continue;
    }
    std::string stem;
    int shard = 0;
    if (ParseShardSuffix(name, &stem, &shard)) {
      auto doc = LoadTelemetryDoc(path, error);
      if (!doc) return std::nullopt;
      SweepDirData::ShardGroup* group = nullptr;
      for (SweepDirData::ShardGroup& existing : out.shard_groups) {
        if (existing.label == stem) {
          group = &existing;
          break;
        }
      }
      if (group == nullptr) {
        out.shard_groups.emplace_back();
        group = &out.shard_groups.back();
        group->label = stem;
      }
      group->shards.push_back(std::move(*doc));
    }
  }
  if (out.cells.empty() && out.shard_groups.empty()) {
    SetError(error, dir,
             "no cell_*.json or *.json.shard<k> artifacts found");
    return std::nullopt;
  }

  // Cells in presentation order: canonical policy rank, then x_index.
  std::sort(out.cells.begin(), out.cells.end(),
            [](const SweepCellDoc& a, const SweepCellDoc& b) {
              const int ra = PolicyRank(a.policy);
              const int rb = PolicyRank(b.policy);
              if (ra != rb) return ra < rb;
              if (a.policy != b.policy) return a.policy < b.policy;
              return a.x_index < b.x_index;
            });
  for (const SweepCellDoc& cell : out.cells) {
    if (std::find(out.policies.begin(), out.policies.end(), cell.policy) ==
        out.policies.end()) {
      out.policies.push_back(cell.policy);
    }
    if (out.x_name.empty()) out.x_name = cell.x_name;
    if (std::find(out.x_values.begin(), out.x_values.end(), cell.x_value) ==
        out.x_values.end()) {
      out.x_values.push_back(cell.x_value);
    }
  }
  std::sort(out.x_values.begin(), out.x_values.end());

  // Shard docs within a group in shard order (the directory listing
  // sorts ".shard10" before ".shard2").
  for (SweepDirData::ShardGroup& group : out.shard_groups) {
    std::sort(group.shards.begin(), group.shards.end(),
              [](const TelemetryDoc& a, const TelemetryDoc& b) {
                return a.shard < b.shard;
              });
  }
  return out;
}

std::optional<ArtifactKind> ClassifyArtifact(const std::string& path,
                                             std::string* error) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    SetError(error, path, "no such file or directory");
    return std::nullopt;
  }
  if (S_ISDIR(st.st_mode)) return ArtifactKind::kSweepDir;
  const auto contents = ReadFileToString(path, error);
  if (!contents) return std::nullopt;
  std::string parse_error;
  const auto doc = ParseJson(*contents, &parse_error);
  if (!doc) {
    SetError(error, path, parse_error);
    return std::nullopt;
  }
  if (!doc->is_object()) {
    SetError(error, path, "not a JSON object");
    return std::nullopt;
  }
  const std::string schema = doc->StringOr("schema", "");
  if (schema.compare(0, 15, "strip.telemetry") == 0) {
    return ArtifactKind::kTelemetry;
  }
  if (schema.compare(0, 16, "strip.sweep-cell") == 0) {
    return ArtifactKind::kSweepCell;
  }
  if (doc->Find("benchmarks") != nullptr) return ArtifactKind::kBench;
  SetError(error, path, "unrecognized artifact (no known schema marker)");
  return std::nullopt;
}

}  // namespace strip::obs::report
