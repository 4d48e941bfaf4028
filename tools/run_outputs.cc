#include "run_outputs.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "base/atomic_io.h"
#include "base/check.h"
#include "check/cluster_auditor.h"
#include "check/invariant_auditor.h"
#include "obs/telemetry.h"
#include "obs/trace/chrome_trace.h"
#include "obs/trace/flight_recorder.h"

namespace strip::tools {

namespace {

// Everything attached to one run, owned by its finisher.
struct Recorders {
  std::vector<std::unique_ptr<obs::RunTelemetry>> telemetry;
  std::unique_ptr<std::ofstream> trace_out;
  std::unique_ptr<obs::trace::ChromeTraceDocument> trace_doc;
  std::vector<std::unique_ptr<obs::trace::ChromeTraceWriter>> trace;
  std::vector<std::unique_ptr<obs::trace::FlightRecorder>> flight;
  std::vector<std::unique_ptr<check::InvariantAuditor>> auditors;
  std::unique_ptr<check::ClusterAuditor> census;
};

[[noreturn]] void Fail(const std::string& tool, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", tool.c_str(), message.c_str());
  std::exit(2);
}

void WriteOrFail(const std::string& tool, const std::string& path,
                 const std::string& contents) {
  if (const auto error = base::WriteFileAtomic(path, contents)) {
    Fail(tool, *error);
  }
}

}  // namespace

exp::RunFinisher AttachRunOutputs(core::Cluster& cluster,
                                  const RunOutputs& outputs) {
  STRIP_CHECK_MSG(!outputs.audit || outputs.audit_failed != nullptr,
                  "audit needs an audit_failed flag");
  const int shards = cluster.shards();
  const bool one = shards == 1 && !outputs.per_shard;
  auto recorders = std::make_shared<Recorders>();

  if (!outputs.telemetry_path.empty()) {
    for (int s = 0; s < shards; ++s) {
      obs::RunTelemetry::Options options;
      options.seed = outputs.seed;
      options.shard = s;
      options.shards = shards;
      recorders->telemetry.push_back(
          std::make_unique<obs::RunTelemetry>(&cluster.shard(s), options));
    }
  }
  if (!outputs.chrome_trace_path.empty()) {
    recorders->trace_out =
        std::make_unique<std::ofstream>(outputs.chrome_trace_path);
    if (!*recorders->trace_out) {
      Fail(outputs.tool, "cannot write trace to " + outputs.chrome_trace_path);
    }
    recorders->trace_doc = std::make_unique<obs::trace::ChromeTraceDocument>(
        recorders->trace_out.get());
    for (int s = 0; s < shards; ++s) {
      recorders->trace.push_back(
          std::make_unique<obs::trace::ChromeTraceWriter>(
              recorders->trace_doc.get(), s + 1,
              one ? std::string("strip") : "shard " + std::to_string(s)));
      cluster.shard(s).AddObserver(recorders->trace.back().get());
    }
  }
  if (!outputs.flight_stem.empty()) {
    for (int s = 0; s < shards; ++s) {
      recorders->flight.push_back(
          std::make_unique<obs::trace::FlightRecorder>());
      cluster.shard(s).AddObserver(recorders->flight.back().get());
    }
  }
  if (outputs.audit) {
    for (int s = 0; s < shards; ++s) {
      auto auditor = std::make_unique<check::InvariantAuditor>();
      auditor->set_system(&cluster.shard(s));
      cluster.shard(s).AddObserver(auditor.get());
      recorders->auditors.push_back(std::move(auditor));
    }
    // The cross-shard census has nothing to check on one shard.
    if (!one) {
      recorders->census = std::make_unique<check::ClusterAuditor>();
      recorders->census->set_cluster(&cluster);
      cluster.AddObserverToAllShards(recorders->census.get());
    }
  }
  if (recorders->telemetry.empty() && recorders->trace.empty() &&
      recorders->flight.empty() && recorders->auditors.empty()) {
    return nullptr;
  }

  core::Cluster* run = &cluster;
  return [recorders, run, outputs, one](const core::RunMetrics&) {
    const auto shard_suffix = [one](const char* separator, std::size_t s) {
      return one ? std::string() : separator + std::to_string(s);
    };
    for (std::size_t s = 0; s < recorders->telemetry.size(); ++s) {
      std::ostringstream out;
      recorders->telemetry[s]->WriteJson(
          out, run->shard_metrics(static_cast<int>(s)));
      WriteOrFail(outputs.tool,
                  outputs.telemetry_path + shard_suffix(".shard", s),
                  out.str());
    }
    for (auto& writer : recorders->trace) writer->Finish();
    if (recorders->trace_doc != nullptr) {
      recorders->trace_doc->Finish();
      recorders->trace_out->close();
      if (!*recorders->trace_out) {
        Fail(outputs.tool,
             "cannot write trace to " + outputs.chrome_trace_path);
      }
    }
    for (std::size_t s = 0; s < recorders->flight.size(); ++s) {
      if (!recorders->flight[s]->tripped()) continue;
      std::ostringstream out;
      recorders->flight[s]->DumpTo(out);
      WriteOrFail(outputs.tool,
                  outputs.flight_stem + shard_suffix("_shard", s) + ".txt",
                  out.str());
    }
    for (std::size_t s = 0; s < recorders->auditors.size(); ++s) {
      if (recorders->auditors[s]->ok()) continue;
      outputs.audit_failed->store(true, std::memory_order_relaxed);
      std::fprintf(stderr, "%s: audit FAILED (%s%s)\n%s",
                   outputs.tool.c_str(), outputs.run_label.c_str(),
                   shard_suffix(", shard ", s).c_str(),
                   recorders->auditors[s]->Report().c_str());
    }
    if (recorders->census != nullptr) {
      recorders->census->FinishRun();
      if (!recorders->census->ok()) {
        outputs.audit_failed->store(true, std::memory_order_relaxed);
        std::fprintf(stderr, "%s: cluster audit FAILED (%s)\n%s",
                     outputs.tool.c_str(), outputs.run_label.c_str(),
                     recorders->census->Report().c_str());
      }
    }
  };
}

}  // namespace strip::tools
