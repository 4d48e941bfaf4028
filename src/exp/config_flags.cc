#include "exp/config_flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <sstream>

#include "fault/fault_schedule.h"

namespace strip::exp {

bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return false;
  // "nan"/"inf" parse fine but every range check downstream is an
  // ordered comparison that NaN slips through; reject them here with a
  // clear message instead of producing NaN results.
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseInt(const std::string& s, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return false;
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseUint64(const std::string& s, std::uint64_t* out) {
  // strtoull would accept a sign ("-1" wraps to 2^64 - 1) and leading
  // blanks; a seed is digits only.
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

namespace {

using core::Config;
using core::PolicyKind;
using core::QueueDiscipline;
using core::ShardedConfig;

// One row of the flag table. Everything a parameter needs — help
// output, parsing, rendering, and the eager range check — lives in
// its row, so a new parameter is exactly one new row.
template <typename C>
struct FlagRow {
  const char* name;
  const char* help;
  // Parses `value` into the config; returns false on a bad value.
  std::function<bool(const std::string&, C&)> parse;
  // Renders the current value.
  std::function<std::string(const C&)> render;
  // Optional constraint check run right after a successful parse.
  // Returns the violated constraint ("must be positive", ...). The
  // checks mirror Config::Validate so the error surfaces at the flag
  // that caused it instead of at run construction.
  std::function<std::optional<std::string>(const C&)> validate;
};

using FlagDef = FlagRow<Config>;
using ShardedFlagDef = FlagRow<ShardedConfig>;

bool ParseBool(const std::string& s, bool* out) {
  if (s == "true" || s == "1" || s == "TRUE" || s == "on") {
    *out = true;
    return true;
  }
  if (s == "false" || s == "0" || s == "FALSE" || s == "off") {
    *out = false;
    return true;
  }
  return false;
}

// Splits on `sep`, keeping empty tokens (an empty per-shard fault
// spec means "no faults on that shard").
std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      tokens.push_back(s.substr(start));
      return tokens;
    }
    tokens.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Render(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}
std::string Render(int v) { return std::to_string(v); }
std::string Render(bool v) { return v ? "true" : "false"; }

// Eager numeric constraints, attached per row.
enum class Check {
  kNone,
  kPositive,     // > 0
  kNonNegative,  // >= 0
  kUnit,         // in [0, 1]
};

std::optional<std::string> CheckValue(double v, Check check) {
  switch (check) {
    case Check::kNone:
      return std::nullopt;
    case Check::kPositive:
      if (v <= 0) return "must be positive";
      return std::nullopt;
    case Check::kNonNegative:
      if (v < 0) return "must be non-negative";
      return std::nullopt;
    case Check::kUnit:
      if (v < 0 || v > 1) return "must be in [0, 1]";
      return std::nullopt;
  }
  return std::nullopt;
}

FlagDef DoubleFlag(const char* name, double Config::* field,
                   const char* help, Check check = Check::kNone) {
  return {name, help,
          [field](const std::string& s, Config& c) {
            return ParseDouble(s, &(c.*field));
          },
          [field](const Config& c) { return Render(c.*field); },
          [field, check](const Config& c) {
            return CheckValue(c.*field, check);
          }};
}

FlagDef IntFlag(const char* name, int Config::* field, const char* help,
                Check check = Check::kNone) {
  return {name, help,
          [field](const std::string& s, Config& c) {
            return ParseInt(s, &(c.*field));
          },
          [field](const Config& c) { return Render(c.*field); },
          [field, check](const Config& c) {
            return CheckValue(c.*field, check);
          }};
}

FlagDef BoolFlag(const char* name, bool Config::* field,
                 const char* help) {
  return {name, help,
          [field](const std::string& s, Config& c) {
            return ParseBool(s, &(c.*field));
          },
          [field](const Config& c) { return Render(c.*field); },
          nullptr};
}

const std::vector<FlagDef>& Flags() {
  static const std::vector<FlagDef>& flags = *new std::vector<FlagDef>{
      // Table 1
      DoubleFlag("lambda_u", &Config::lambda_u,
                 "update arrival rate, 1/s", Check::kPositive),
      DoubleFlag("p_ul", &Config::p_ul,
                 "P(update targets low-importance data)", Check::kUnit),
      DoubleFlag("a_update", &Config::a_update,
                 "mean pre-arrival age of updates, s", Check::kPositive),
      IntFlag("n_low", &Config::n_low, "low-importance view objects",
              Check::kPositive),
      IntFlag("n_high", &Config::n_high, "high-importance view objects",
              Check::kPositive),
      // Table 2
      DoubleFlag("lambda_t", &Config::lambda_t,
                 "transaction arrival rate, 1/s", Check::kPositive),
      DoubleFlag("p_tl", &Config::p_tl, "P(transaction is low-value)",
                 Check::kUnit),
      DoubleFlag("s_min", &Config::s_min, "minimum slack, s",
                 Check::kNonNegative),
      DoubleFlag("s_max", &Config::s_max, "maximum slack, s",
                 Check::kNonNegative),
      DoubleFlag("v_low_mean", &Config::v_low_mean,
                 "mean value, low-value class"),
      DoubleFlag("v_high_mean", &Config::v_high_mean,
                 "mean value, high-value class"),
      DoubleFlag("v_low_sd", &Config::v_low_sd,
                 "value sd, low-value class"),
      DoubleFlag("v_high_sd", &Config::v_high_sd,
                 "value sd, high-value class"),
      DoubleFlag("reads_mean", &Config::reads_mean,
                 "mean # of view objects read", Check::kNonNegative),
      DoubleFlag("reads_sd", &Config::reads_sd,
                 "sd of # of view objects read"),
      DoubleFlag("alpha", &Config::alpha, "maximum age of fresh data, s"),
      DoubleFlag("comp_mean", &Config::comp_mean,
                 "mean computation time, s", Check::kNonNegative),
      DoubleFlag("comp_sd", &Config::comp_sd, "sd of computation time, s"),
      DoubleFlag("p_view", &Config::p_view,
                 "fraction of computation before view reads", Check::kUnit),
      // Table 3
      DoubleFlag("ips", &Config::ips, "CPU speed, instructions/s",
                 Check::kPositive),
      DoubleFlag("x_lookup", &Config::x_lookup,
                 "instructions to find an object", Check::kNonNegative),
      DoubleFlag("x_update", &Config::x_update,
                 "instructions to write an object", Check::kNonNegative),
      DoubleFlag("x_switch", &Config::x_switch,
                 "instructions per context switch", Check::kNonNegative),
      DoubleFlag("x_queue", &Config::x_queue,
                 "queue add/remove cost factor (x ln n)",
                 Check::kNonNegative),
      DoubleFlag("x_scan", &Config::x_scan,
                 "cost to examine one queued update", Check::kNonNegative),
      IntFlag("os_max", &Config::os_max, "OS queue bound, updates",
              Check::kPositive),
      IntFlag("uq_max", &Config::uq_max, "update queue bound, updates",
              Check::kPositive),
      BoolFlag("feasible_deadline", &Config::feasible_deadline,
               "screen out hopeless transactions"),
      BoolFlag("txn_preemption", &Config::txn_preemption,
               "may transactions preempt each other"),
      {"queue_discipline", "update-queue service order (FIFO | LIFO)",
       [](const std::string& s, Config& c) {
         if (s == "FIFO") {
           c.queue_discipline = QueueDiscipline::kFifo;
         } else if (s == "LIFO") {
           c.queue_discipline = QueueDiscipline::kLifo;
         } else {
           return false;
         }
         return true;
       },
       [](const Config& c) {
         return std::string(QueueDisciplineName(c.queue_discipline));
       },
       nullptr},
      // Scenario
      {"policy", "scheduling policy (UF | TF | SU | OD | FCF)",
       [](const std::string& s, Config& c) {
         for (PolicyKind kind :
              {PolicyKind::kUpdateFirst, PolicyKind::kTransactionFirst,
               PolicyKind::kSplitUpdates, PolicyKind::kOnDemand,
               PolicyKind::kFixedFraction}) {
           if (s == PolicyKindName(kind)) {
             c.policy = kind;
             return true;
           }
         }
         return false;
       },
       [](const Config& c) {
         return std::string(PolicyKindName(c.policy));
       },
       nullptr},
      {"staleness",
       "staleness criterion (MA | UU | MA+UU | MA-arrival)",
       [](const std::string& s, Config& c) {
         if (s == "MA") {
           c.staleness = db::StalenessCriterion::kMaxAge;
         } else if (s == "UU") {
           c.staleness = db::StalenessCriterion::kUnappliedUpdate;
         } else if (s == "MA+UU") {
           c.staleness = db::StalenessCriterion::kCombined;
         } else if (s == "MA-arrival") {
           c.staleness = db::StalenessCriterion::kMaxAgeArrival;
         } else {
           return false;
         }
         return true;
       },
       [](const Config& c) {
         return std::string(db::StalenessCriterionName(c.staleness));
       },
       nullptr},
      BoolFlag("abort_on_stale", &Config::abort_on_stale,
               "abort transactions on reading stale data"),
      DoubleFlag("sim_seconds", &Config::sim_seconds,
                 "simulated run length, s", Check::kPositive),
      DoubleFlag("warmup_seconds", &Config::warmup_seconds,
                 "warm-up excluded from statistics, s",
                 Check::kNonNegative),
      // Extensions
      BoolFlag("indexed_update_queue", &Config::indexed_update_queue,
               "constant-cost OD queue searches (hash index)"),
      BoolFlag("dedup_update_queue", &Config::dedup_update_queue,
               "discard superseded queued updates on receive"),
      BoolFlag("split_importance_queues", &Config::split_importance_queues,
               "service queued high-importance updates first"),
      DoubleFlag("update_cpu_fraction", &Config::update_cpu_fraction,
                 "CPU share reserved for the updater under FCF",
                 Check::kUnit),
      BoolFlag("periodic_updates", &Config::periodic_updates,
               "periodic (round-robin) updates instead of Poisson"),
      {"txn_sched",
       "transaction selection rule (VD | EDF | FCFS)",
       [](const std::string& s, Config& c) {
         for (txn::TxnSchedPolicy policy :
              {txn::TxnSchedPolicy::kValueDensity,
               txn::TxnSchedPolicy::kEarliestDeadline,
               txn::TxnSchedPolicy::kFcfs}) {
           if (s == txn::TxnSchedPolicyName(policy)) {
             c.txn_sched = policy;
             return true;
           }
         }
         return false;
       },
       [](const Config& c) {
         return std::string(txn::TxnSchedPolicyName(c.txn_sched));
       },
       nullptr},
      DoubleFlag("trigger_probability", &Config::trigger_probability,
                 "P(an install fires a derived-data rule)", Check::kUnit),
      DoubleFlag("x_trigger", &Config::x_trigger,
                 "rule recomputation cost, instructions",
                 Check::kNonNegative),
      DoubleFlag("buffer_hit_ratio", &Config::buffer_hit_ratio,
                 "P(object lookup hits the buffer pool)", Check::kUnit),
      DoubleFlag("io_seconds", &Config::io_seconds,
                 "CPU stall per buffer miss, s", Check::kNonNegative),
      IntFlag("history_depth", &Config::history_depth,
              "retained versions per view object (0 = off)",
              Check::kNonNegative),
      IntFlag("n_attributes", &Config::n_attributes,
              "attributes per view object (partial updates)",
              Check::kPositive),
      BoolFlag("bursty_updates", &Config::bursty_updates,
               "alternate the feed between lambda_u and lambda_u_peak"),
      DoubleFlag("lambda_u_peak", &Config::lambda_u_peak,
                 "burst-phase update rate, 1/s", Check::kPositive),
      DoubleFlag("normal_dwell_seconds", &Config::normal_dwell_seconds,
                 "mean normal-phase dwell, s", Check::kPositive),
      DoubleFlag("burst_dwell_seconds", &Config::burst_dwell_seconds,
                 "mean burst-phase dwell, s", Check::kPositive),
      IntFlag("admission_limit", &Config::admission_limit,
              "waiting-transaction cap (0 = off)", Check::kNonNegative),
      // Robustness (fault injection & graceful degradation)
      {"faults",
       "fault windows, \"kind@start+dur[:k=v,...];...\" (see DESIGN.md)",
       [](const std::string& s, Config& c) {
         // Validate eagerly so a malformed spec fails at the flag with
         // a one-line error naming the bad token, not later at
         // Config::Validate.
         std::string fault_error;
         if (!fault::FaultSchedule::Parse(s, &fault_error).has_value()) {
           return false;
         }
         c.faults = s;
         return true;
       },
       [](const Config& c) { return c.faults; },
       nullptr},
      BoolFlag("shed_by_importance", &Config::shed_by_importance,
               "evict queued low-importance updates when full"),
      BoolFlag("overload_governor", &Config::overload_governor,
               "freshest-first triage past the high watermark"),
      DoubleFlag("governor_high_watermark",
                 &Config::governor_high_watermark,
                 "governor engage depth fraction", Check::kUnit),
      DoubleFlag("governor_low_watermark", &Config::governor_low_watermark,
                 "governor disengage depth fraction", Check::kUnit),
      DoubleFlag("governor_stale_threshold",
                 &Config::governor_stale_threshold,
                 "stale-fraction engage trigger (0 = off)", Check::kUnit),
      DoubleFlag("remote_timeout_s", &Config::remote_timeout_s,
                 "remote-read timeout before retry, s (0 = wait forever)",
                 Check::kNonNegative),
      {"remote_retry_backoff", "timeout multiplier per retry (>= 1)",
       [](const std::string& s, Config& c) {
         return ParseDouble(s, &c.remote_retry_backoff);
       },
       [](const Config& c) { return Render(c.remote_retry_backoff); },
       [](const Config& c) -> std::optional<std::string> {
         if (c.remote_retry_backoff < 1) return "must be >= 1";
         return std::nullopt;
       }},
      IntFlag("remote_retry_max", &Config::remote_retry_max,
              "remote-read retries before the fallback",
              Check::kNonNegative),
      {"remote_fallback",
       "after retries: stale local read or abort (stale | abort)",
       [](const std::string& s, Config& c) {
         if (s == "stale") {
           c.remote_fallback = core::RemoteFallback::kStale;
         } else if (s == "abort") {
           c.remote_fallback = core::RemoteFallback::kAbort;
         } else {
           return false;
         }
         return true;
       },
       [](const Config& c) {
         return std::string(RemoteFallbackName(c.remote_fallback));
       },
       nullptr},
  };
  return flags;
}

// Cluster-level parameters accepted by the ShardedConfig overloads on
// top of every base flag.
const std::vector<ShardedFlagDef>& ShardedFlags() {
  static const std::vector<ShardedFlagDef>& flags =
      *new std::vector<ShardedFlagDef>{
          {"shards", "shard engines (simulated CPUs); 1 = the paper",
           [](const std::string& s, ShardedConfig& c) {
             return ParseInt(s, &c.shards);
           },
           [](const ShardedConfig& c) { return Render(c.shards); },
           [](const ShardedConfig& c) -> std::optional<std::string> {
             if (c.shards < 1) return "must be >= 1";
             return std::nullopt;
           }},
          {"placement", "object placement across shards (hash | range)",
           [](const std::string& s, ShardedConfig& c) {
             const std::optional<db::PlacementKind> kind =
                 db::ParsePlacementKind(s);
             if (!kind.has_value()) return false;
             c.placement = *kind;
             return true;
           },
           [](const ShardedConfig& c) {
             return std::string(db::PlacementKindName(c.placement));
           },
           nullptr},
          {"shard_ips",
           "per-shard CPU speeds, comma-separated (empty = base ips)",
           [](const std::string& s, ShardedConfig& c) {
             std::vector<double> values;
             if (!s.empty()) {
               for (const std::string& token : Split(s, ',')) {
                 double v = 0;
                 if (!ParseDouble(token, &v)) return false;
                 values.push_back(v);
               }
             }
             c.shard_ips = std::move(values);
             return true;
           },
           [](const ShardedConfig& c) {
             std::string out;
             for (double v : c.shard_ips) {
               if (!out.empty()) out += ",";
               out += Render(v);
             }
             return out;
           },
           [](const ShardedConfig& c) -> std::optional<std::string> {
             for (double v : c.shard_ips) {
               if (v <= 0) return "entries must be positive";
             }
             return std::nullopt;
           }},
          {"shard_x_switch",
           "per-shard context-switch costs, comma-separated",
           [](const std::string& s, ShardedConfig& c) {
             std::vector<double> values;
             if (!s.empty()) {
               for (const std::string& token : Split(s, ',')) {
                 double v = 0;
                 if (!ParseDouble(token, &v)) return false;
                 values.push_back(v);
               }
             }
             c.shard_x_switch = std::move(values);
             return true;
           },
           [](const ShardedConfig& c) {
             std::string out;
             for (double v : c.shard_x_switch) {
               if (!out.empty()) out += ",";
               out += Render(v);
             }
             return out;
           },
           [](const ShardedConfig& c) -> std::optional<std::string> {
             for (double v : c.shard_x_switch) {
               if (v < 0) return "entries must be non-negative";
             }
             return std::nullopt;
           }},
          {"shard_faults",
           "per-shard fault schedules, '|'-separated ('' = none)",
           [](const std::string& s, ShardedConfig& c) {
             std::vector<std::string> specs;
             if (!s.empty()) specs = Split(s, '|');
             for (const std::string& spec : specs) {
               if (spec.empty()) continue;
               std::string fault_error;
               if (!fault::FaultSchedule::Parse(spec, &fault_error)
                        .has_value()) {
                 return false;
               }
             }
             c.shard_faults = std::move(specs);
             return true;
           },
           [](const ShardedConfig& c) {
             std::string out;
             for (std::size_t i = 0; i < c.shard_faults.size(); ++i) {
               if (i > 0) out += "|";
               out += c.shard_faults[i];
             }
             return out;
           },
           nullptr},
          {"feed_hot_shard",
           "shard absorbing the skewed feed fraction (-1 = off)",
           [](const std::string& s, ShardedConfig& c) {
             return ParseInt(s, &c.feed_hot_shard);
           },
           [](const ShardedConfig& c) { return Render(c.feed_hot_shard); },
           [](const ShardedConfig& c) -> std::optional<std::string> {
             if (c.feed_hot_shard < -1) return "must be >= -1";
             return std::nullopt;
           }},
          {"feed_hot_fraction",
           "fraction of the feed redirected to the hot shard",
           [](const std::string& s, ShardedConfig& c) {
             return ParseDouble(s, &c.feed_hot_fraction);
           },
           [](const ShardedConfig& c) {
             return Render(c.feed_hot_fraction);
           },
           [](const ShardedConfig& c) -> std::optional<std::string> {
             if (c.feed_hot_fraction < 0 || c.feed_hot_fraction > 1) {
               return "must be in [0, 1]";
             }
             return std::nullopt;
           }},
          {"link_latency_us",
           "fixed cross-shard message delay, microseconds",
           [](const std::string& s, ShardedConfig& c) {
             return ParseDouble(s, &c.link_latency_us);
           },
           [](const ShardedConfig& c) {
             return Render(c.link_latency_us);
           },
           [](const ShardedConfig& c) -> std::optional<std::string> {
             if (c.link_latency_us < 0) return "must be non-negative";
             return std::nullopt;
           }},
          {"link_jitter_us",
           "mean exponential extra message delay, microseconds",
           [](const std::string& s, ShardedConfig& c) {
             return ParseDouble(s, &c.link_jitter_us);
           },
           [](const ShardedConfig& c) {
             return Render(c.link_jitter_us);
           },
           [](const ShardedConfig& c) -> std::optional<std::string> {
             if (c.link_jitter_us < 0) return "must be non-negative";
             return std::nullopt;
           }},
          {"link_loss_p",
           "P(a cross-shard message is lost)",
           [](const std::string& s, ShardedConfig& c) {
             return ParseDouble(s, &c.link_loss_p);
           },
           [](const ShardedConfig& c) { return Render(c.link_loss_p); },
           [](const ShardedConfig& c) -> std::optional<std::string> {
             if (c.link_loss_p < 0 || c.link_loss_p > 1) {
               return "must be in [0, 1]";
             }
             return std::nullopt;
           }},
          {"cluster_faults",
           "interconnect fault windows (link-latency | link-loss | "
           "partition | shard-outage)",
           [](const std::string& s, ShardedConfig& c) {
             // Eager parse, same contract as --faults: a malformed
             // spec fails at the flag naming the bad token.
             if (!s.empty()) {
               std::string fault_error;
               if (!fault::FaultSchedule::Parse(s, &fault_error)
                        .has_value()) {
                 return false;
               }
             }
             c.cluster_faults = s;
             return true;
           },
           [](const ShardedConfig& c) { return c.cluster_faults; },
           nullptr},
      };
  return flags;
}

// Shared application logic: find the row, parse, run its eager check.
template <typename C>
std::optional<std::string> ApplyRow(const std::vector<FlagRow<C>>& rows,
                                    const std::string& name,
                                    const std::string& value, C& config,
                                    bool* found) {
  *found = false;
  for (const FlagRow<C>& row : rows) {
    if (name != row.name) continue;
    *found = true;
    // Transactional: a rejected assignment — bad parse OR eager range
    // violation — leaves the config exactly as it was.
    const C snapshot = config;
    if (!row.parse(value, config)) {
      config = snapshot;
      return "bad value for " + name + ": " + value;
    }
    if (row.validate) {
      if (const std::optional<std::string> violation =
              row.validate(config)) {
        config = snapshot;
        return "bad value for " + name + ": " + value + " (" + *violation +
               ")";
      }
    }
    return std::nullopt;
  }
  return std::nullopt;
}

std::optional<std::string> SplitAssignment(const std::string& assignment,
                                           std::string* name,
                                           std::string* value) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string::npos) {
    return "expected name=value, got: " + assignment;
  }
  *name = assignment.substr(0, eq);
  *value = assignment.substr(eq + 1);
  return std::nullopt;
}

// Shared argv walk for both config types.
template <typename C>
std::optional<std::string> ApplyArgv(int argc, char** argv, C& config,
                                     std::vector<std::string>* unconsumed) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (unconsumed != nullptr) unconsumed->push_back(arg);
      continue;
    }
    const std::optional<std::string> error =
        ApplyConfigFlag(arg.substr(2), config);
    if (!error.has_value()) continue;
    if (error->rfind("unknown parameter", 0) == 0 ||
        error->rfind("expected name=value", 0) == 0) {
      if (unconsumed != nullptr) unconsumed->push_back(arg);
      continue;
    }
    return error;  // known parameter, bad value
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> ApplyConfigFlag(const std::string& assignment,
                                           core::Config& config) {
  std::string name, value;
  if (const auto error = SplitAssignment(assignment, &name, &value)) {
    return error;
  }
  bool found = false;
  const std::optional<std::string> error =
      ApplyRow(Flags(), name, value, config, &found);
  if (found) return error;
  return "unknown parameter: " + name;
}

std::optional<std::string> ApplyConfigFlag(const std::string& assignment,
                                           core::ShardedConfig& config) {
  std::string name, value;
  if (const auto error = SplitAssignment(assignment, &name, &value)) {
    return error;
  }
  bool found = false;
  std::optional<std::string> error =
      ApplyRow(ShardedFlags(), name, value, config, &found);
  if (found) return error;
  error = ApplyRow(Flags(), name, value, config.base, &found);
  if (found) return error;
  return "unknown parameter: " + name;
}

std::optional<std::string> ApplyConfigFlags(
    int argc, char** argv, core::Config& config,
    std::vector<std::string>* unconsumed) {
  return ApplyArgv(argc, argv, config, unconsumed);
}

std::optional<std::string> ApplyConfigFlags(
    int argc, char** argv, core::ShardedConfig& config,
    std::vector<std::string>* unconsumed) {
  return ApplyArgv(argc, argv, config, unconsumed);
}

std::vector<std::string> ConfigFlagNames() {
  std::vector<std::string> names;
  names.reserve(Flags().size());
  for (const FlagDef& flag : Flags()) names.emplace_back(flag.name);
  return names;
}

std::vector<std::string> ShardedConfigFlagNames() {
  std::vector<std::string> names;
  names.reserve(ShardedFlags().size());
  for (const ShardedFlagDef& flag : ShardedFlags()) {
    names.emplace_back(flag.name);
  }
  return names;
}

std::string ConfigFlagsHelp() {
  std::ostringstream out;
  const auto emit = [&out](const char* name, const char* help) {
    out << "  --" << name << "=";
    const int pad = 28 - static_cast<int>(std::string(name).size());
    for (int i = 0; i < pad; ++i) out << ' ';
    out << help << "\n";
  };
  for (const FlagDef& flag : Flags()) emit(flag.name, flag.help);
  out << " cluster (sharded runs):\n";
  for (const ShardedFlagDef& flag : ShardedFlags()) {
    emit(flag.name, flag.help);
  }
  return out.str();
}

std::string ConfigToString(const core::Config& config) {
  std::ostringstream out;
  for (const FlagDef& flag : Flags()) {
    out << flag.name << "=" << flag.render(config) << "\n";
  }
  return out.str();
}

std::string ConfigToString(const core::ShardedConfig& config) {
  std::ostringstream out;
  out << ConfigToString(config.base);
  for (const ShardedFlagDef& flag : ShardedFlags()) {
    out << flag.name << "=" << flag.render(config) << "\n";
  }
  return out.str();
}

}  // namespace strip::exp
