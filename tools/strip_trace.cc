// strip_trace: inspect lifecycle traces written by the tracing sinks.
//
//   strip_trace --flight=PATH | --chrome=PATH   pick the input
//               [--txn=ID] [--object=low:3]     event filters
//               [--from=T] [--to=T]             time window (seconds)
//               [--shard=K]       keep one shard's track group
//                                 (sharded chrome traces only)
//               [--decisions]     per-policy scheduler-decision counts
//               [--critical-path=ID|auto]   one transaction's CPU
//                                 timeline; "auto" picks the first
//                                 missed-deadline transaction
//               [--print]         dump the (filtered) event rows
//
// With no command flags, prints a per-kind event summary. Inputs are
// flight-recorder dumps (strip_sweep --flight-dir) or Chrome trace
// JSON (strip_sim --chrome-trace).
//
// Examples:
//   strip_trace --flight=out/flight_OD_03.txt
//   strip_trace --flight=out/flight_OD_03.txt --critical-path=auto
//   strip_trace --chrome=t.json --decisions
//   strip_trace --chrome=t.json --txn=17 --print

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/trace/trace_analysis.h"

namespace {

using strip::obs::trace::kNoId;
using strip::obs::trace::ParsedEvent;
using strip::obs::trace::ParsedTrace;

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "strip_trace: %s\n", message.c_str());
  std::exit(2);
}

void PrintEvents(const std::vector<ParsedEvent>& events) {
  std::printf("%-18s %14s %8s %8s %10s %-18s %s\n", "kind", "time", "txn",
              "update", "object", "detail", "reason");
  for (const ParsedEvent& event : events) {
    char txn[32] = "";
    char update[32] = "";
    if (event.txn != kNoId) {
      std::snprintf(txn, sizeof(txn), "%llu",
                    static_cast<unsigned long long>(event.txn));
    }
    if (event.update != kNoId) {
      std::snprintf(update, sizeof(update), "%llu",
                    static_cast<unsigned long long>(event.update));
    }
    std::printf("%-18s %14.6f %8s %8s %10s %-18s %s\n", event.kind.c_str(),
                event.time, txn, update, event.object.c_str(),
                event.detail.c_str(), event.reason.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string flight_path;
  std::string chrome_path;
  std::uint64_t txn_filter = kNoId;
  std::string object_filter;
  double from = -1e300;
  double to = 1e300;
  bool decisions = false;
  bool print = false;
  std::string critical_path;
  int shard_filter = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--flight=", 0) == 0) {
      flight_path = arg.substr(9);
    } else if (arg.rfind("--chrome=", 0) == 0) {
      chrome_path = arg.substr(9);
    } else if (arg.rfind("--txn=", 0) == 0) {
      txn_filter = std::strtoull(arg.c_str() + 6, nullptr, 10);
    } else if (arg.rfind("--object=", 0) == 0) {
      object_filter = arg.substr(9);
    } else if (arg.rfind("--from=", 0) == 0) {
      from = std::atof(arg.c_str() + 7);
    } else if (arg.rfind("--to=", 0) == 0) {
      to = std::atof(arg.c_str() + 5);
    } else if (arg == "--decisions") {
      decisions = true;
    } else if (arg.rfind("--shard=", 0) == 0) {
      shard_filter = std::atoi(arg.c_str() + 8);
      if (shard_filter < 0) Fail("--shard needs an index >= 0");
    } else if (arg.rfind("--critical-path=", 0) == 0) {
      critical_path = arg.substr(16);
    } else if (arg == "--print") {
      print = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: strip_trace --flight=PATH|--chrome=PATH [--txn=ID] "
          "[--object=cls:idx] [--from=T] [--to=T] [--shard=K] "
          "[--decisions] [--critical-path=ID|auto] [--print]\n");
      return 0;
    } else {
      Fail("unknown flag " + arg + " (try --help)");
    }
  }
  if (flight_path.empty() == chrome_path.empty()) {
    Fail("need exactly one of --flight=PATH or --chrome=PATH");
  }

  const std::string& path = flight_path.empty() ? chrome_path : flight_path;
  std::ifstream in(path);
  if (!in) Fail("cannot open " + path);
  std::string error;
  const std::optional<ParsedTrace> parsed =
      flight_path.empty() ? strip::obs::trace::ParseChromeTrace(in, &error)
                          : strip::obs::trace::ParseFlightDump(in, &error);
  if (!parsed.has_value()) Fail(path + ": " + error);

  std::vector<ParsedEvent> events = parsed->events;
  if (txn_filter != kNoId) {
    events = strip::obs::trace::FilterByTxn(events, txn_filter);
  }
  if (!object_filter.empty()) {
    events = strip::obs::trace::FilterByObject(events, object_filter);
  }
  if (from > -1e299 || to < 1e299) {
    events = strip::obs::trace::FilterByWindow(events, from, to);
  }
  if (shard_filter >= 0) {
    if (shard_filter >= parsed->shards) {
      Fail("--shard=" + std::to_string(shard_filter) +
           " but the trace has " + std::to_string(parsed->shards) +
           " shard(s)");
    }
    events = strip::obs::trace::FilterByShard(events, shard_filter);
  }

  if (!flight_path.empty()) {
    std::printf("flight record: trip=%s trip_time=%.6f events=%zu",
                parsed->trip_predicate.c_str(), parsed->trip_time,
                parsed->events.size());
    // An outage-recovery trip names the fault window that blew its
    // recovery deadline.
    if (!parsed->trip_window.empty()) {
      std::printf(" window=%s", parsed->trip_window.c_str());
    }
    std::printf("\n");
  } else if (parsed->shards > 1) {
    std::printf("chrome trace: events=%zu shards=%d\n",
                parsed->events.size(), parsed->shards);
  } else {
    std::printf("chrome trace: events=%zu\n", parsed->events.size());
  }
  if (events.size() != parsed->events.size()) {
    std::printf("after filters: %zu events\n", events.size());
  }

  bool did_command = false;
  if (decisions) {
    did_command = true;
    std::printf("\nscheduler decisions (choice/reason -> count):\n");
    for (const auto& [key, count] :
         strip::obs::trace::DecisionCounts(events)) {
      std::printf("  %-40s %8llu\n", key.c_str(),
                  static_cast<unsigned long long>(count));
    }
    // Multi-shard traces: attribute the tallies to their shards, so a
    // remote-retry storm points at the engine suffering it.
    if (parsed->shards > 1 && shard_filter < 0) {
      for (int s = 0; s < parsed->shards; ++s) {
        const auto per = strip::obs::trace::DecisionCounts(
            strip::obs::trace::FilterByShard(events, s));
        if (per.empty()) continue;
        std::printf("  shard %d:\n", s);
        for (const auto& [key, count] : per) {
          std::printf("    %-38s %8llu\n", key.c_str(),
                      static_cast<unsigned long long>(count));
        }
      }
    }
    // The interconnect's side of those decisions: which reads timed
    // out, fell back to a degraded local value, or died in the fabric.
    bool any_remote = false;
    for (const ParsedEvent& event : events) {
      if (event.kind != "remote-timeout" &&
          event.kind != "remote-degraded" &&
          event.kind != "remote-dropped") {
        continue;
      }
      if (!any_remote) {
        std::printf("\nremote robustness events:\n");
        any_remote = true;
      }
      char txn[32] = "";
      if (event.txn != kNoId) {
        std::snprintf(txn, sizeof(txn), " txn=%llu",
                      static_cast<unsigned long long>(event.txn));
      }
      std::printf("  %14.6f shard %d %-16s %-12s%s\n", event.time,
                  event.shard, event.kind.c_str(), event.detail.c_str(),
                  txn);
    }
    // Fault windows give the decision counts their context: which
    // injected windows were open during the traced interval.
    bool any_fault = false;
    for (const ParsedEvent& event : events) {
      if (event.kind != "fault-begin" && event.kind != "fault-end") {
        continue;
      }
      if (!any_fault) {
        std::printf("\nfault windows:\n");
        any_fault = true;
      }
      std::printf("  %14.6f %-12s %s\n", event.time, event.kind.c_str(),
                  event.reason.c_str());
    }
  }
  if (!critical_path.empty()) {
    did_command = true;
    std::uint64_t target;
    if (critical_path == "auto") {
      const std::optional<std::uint64_t> miss =
          strip::obs::trace::FirstMissedDeadlineTxn(events);
      if (!miss.has_value()) Fail("no missed-deadline transaction in trace");
      target = *miss;
    } else {
      target = std::strtoull(critical_path.c_str(), nullptr, 10);
    }
    const std::optional<strip::obs::trace::CriticalPath> cp =
        strip::obs::trace::ExtractCriticalPath(events, target, &error);
    if (!cp.has_value()) Fail(error);
    std::printf("\n");
    strip::obs::trace::PrintCriticalPath(std::cout, *cp);
  }
  if (print) {
    did_command = true;
    std::printf("\n");
    PrintEvents(events);
  }
  if (!did_command) {
    std::printf("\nevents by kind:\n");
    for (const auto& [kind, count] : strip::obs::trace::KindCounts(events)) {
      std::printf("  %-20s %8llu\n", kind.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }
  return 0;
}
