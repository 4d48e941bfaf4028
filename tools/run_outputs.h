// The artifact fan-out shared by strip_sim, strip_sweep and
// strip_replay.
//
// Every tool run is a core::Cluster run (a uniprocessor run is its
// one-shard case). AttachRunOutputs wires the recorders a run asks for
// onto every shard before Run() and returns the finisher that writes
// their artifacts afterwards. The naming rule lives here, and only
// here:
//
//                   one shard                M shards
//   telemetry       PATH                     PATH.shard<k>
//   chrome trace    PATH, process "strip"    PATH, process "shard <k>"
//                   (pid 1)                  (pid k + 1)
//   flight dump     STEM.txt                 STEM_shard<k>.txt
//   audit           one InvariantAuditor     one per shard, plus the
//                                            cross-shard ClusterAuditor
//
// One-shard artifacts are byte-identical to a bare obs::RunTelemetry /
// obs::trace::ChromeTraceWriter(std::ostream*) on the same run. Flight
// dumps are written only for recorders whose anomaly predicate tripped.

#ifndef STRIP_TOOLS_RUN_OUTPUTS_H_
#define STRIP_TOOLS_RUN_OUTPUTS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "core/cluster.h"
#include "exp/experiment.h"

namespace strip::tools {

// What to attach to one run. Empty paths attach nothing.
struct RunOutputs {
  // Names the tool in every message ("strip_sim: ...").
  std::string tool;
  // Names the run in audit-failure messages, e.g. "replication 0" or
  // "cell OD_03, replication 1"; multi-shard runs append ", shard <k>".
  std::string run_label;
  // Echoed into the telemetry documents.
  std::uint64_t seed = 0;
  std::string telemetry_path;
  std::string chrome_trace_path;
  std::string flight_stem;
  bool audit = false;
  // Uses the M-shard scheme even on a one-shard run. A sweep whose x
  // axis is a cluster parameter (--x=shards, ...) sets it, so that all
  // cells of one grid are named alike.
  bool per_shard = false;
  // Set (never cleared) when an auditor reports a violation; required
  // when `audit` is on. Runs may finish on several threads at once.
  std::atomic<bool>* audit_failed = nullptr;
};

// Attaches the recorders `outputs` asks for to every shard of
// `cluster`. The returned finisher (null when nothing was attached)
// owns them: it writes the artifacts atomically where the format
// allows (telemetry, flight dumps; the chrome trace streams during the
// run) and prints audit failures to stderr. An unwritable artifact
// prints "<tool>: <error>" and exits with status 2.
exp::RunFinisher AttachRunOutputs(core::Cluster& cluster,
                                  const RunOutputs& outputs);

}  // namespace strip::tools

#endif  // STRIP_TOOLS_RUN_OUTPUTS_H_
