#include "exp/bench_args.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exp/config_flags.h"

namespace strip::exp {

namespace {

bool ConsumePrefix(const char* arg, const char* prefix,
                   const char** rest) {
  const std::size_t len = std::strlen(prefix);
  if (std::strncmp(arg, prefix, len) != 0) return false;
  *rest = arg + len;
  return true;
}

[[noreturn]] void Usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s ID...|all [--seconds=S] [--reps=N] [--seed=S] "
               "[--jobs=N] [--pin-cores] [--csv] [--json=PATH] "
               "[--full]\n",
               program);
  std::exit(2);
}

// Exits 2 naming the flag whose value failed strict parsing.
[[noreturn]] void Malformed(const char* program, const char* arg) {
  std::fprintf(stderr, "%s: malformed number in %s\n", program, arg);
  std::exit(2);
}

}  // namespace

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* rest = nullptr;
    if (ConsumePrefix(arg, "--seconds=", &rest)) {
      if (!ParseDouble(rest, &args.seconds)) Malformed(argv[0], arg);
    } else if (ConsumePrefix(arg, "--reps=", &rest)) {
      if (!ParseInt(rest, &args.replications)) Malformed(argv[0], arg);
    } else if (ConsumePrefix(arg, "--seed=", &rest)) {
      if (!ParseUint64(rest, &args.seed)) Malformed(argv[0], arg);
    } else if (ConsumePrefix(arg, "--jobs=", &rest)) {
      if (!ParseInt(rest, &args.parallel.jobs)) Malformed(argv[0], arg);
    } else if (ConsumePrefix(arg, "--threads=", &rest)) {
      std::fprintf(stderr,
                   "%s: --threads= was removed; use --jobs=%s\n", argv[0],
                   rest);
      std::exit(2);
    } else if (std::strcmp(arg, "--pin-cores") == 0) {
      args.parallel.pin_cores = true;
    } else if (std::strcmp(arg, "--csv") == 0) {
      args.csv = true;
    } else if (ConsumePrefix(arg, "--json=", &rest)) {
      if (*rest == '\0') {
        std::fprintf(stderr, "%s: --json= needs a path\n", argv[0]);
        std::exit(2);
      }
      args.json = rest;
    } else if (std::strcmp(arg, "--full") == 0) {
      args.seconds = 1000.0;
      args.replications = 3;
    } else if (std::strncmp(arg, "--", 2) != 0) {
      args.ids.emplace_back(arg);
    } else {
      Usage(argv[0]);
    }
  }
  if (args.seconds <= 0 || args.replications <= 0) Usage(argv[0]);
  return args;
}

}  // namespace strip::exp
