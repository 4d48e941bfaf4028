// Command-line handling for the figures tool (bench/figures.cc).
//
//   figures ID... | all [flags]
//
// Every argument that does not start with "--" is a figure id. Flags:
//   --seconds=<double>   simulated seconds per run (default 200)
//   --reps=<int>         replications (seeds) per cell (default 2)
//   --seed=<uint64>      base seed (default 42)
//   --jobs=<int>         worker threads (default: one per core; the
//                        removed --threads= spelling fails loudly)
//   --pin-cores          pin worker i to core i (Linux)
//   --csv                also emit CSV blocks after each table
//   --json=<path>        also write every emitted series to a JSON file
//   --full               paper scale: 1000 simulated seconds, 3 reps
//
// A malformed number ("--reps=2x", "--seed=abc") or an empty --json=
// path exits 2 naming the flag. The defaults trade a little precision
// for wall time so the whole suite finishes in minutes; --full
// reproduces the paper's 1000-second runs exactly.

#ifndef STRIP_EXP_BENCH_ARGS_H_
#define STRIP_EXP_BENCH_ARGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "exp/parallel_runner.h"

namespace strip::exp {

struct BenchArgs {
  double seconds = 200.0;
  int replications = 2;
  std::uint64_t seed = 42;
  // Worker-pool shape for the sweep (jobs + optional pinning).
  ParallelOptions parallel;
  bool csv = false;
  // Non-empty: every emitted series also goes to this JSON document,
  // rewritten after each figure.
  std::string json;
  // The positional arguments, in order: the figure ids to run.
  std::vector<std::string> ids;

  // Parses argv; exits 2 with a message on unknown flags and malformed
  // values.
  static BenchArgs Parse(int argc, char** argv);

  // Applies run length to a config.
  void ApplyTo(core::Config& config) const { config.sim_seconds = seconds; }
};

}  // namespace strip::exp

#endif  // STRIP_EXP_BENCH_ARGS_H_
