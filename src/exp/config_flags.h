// String-keyed access to every Config / ShardedConfig parameter.
//
// Maps "--name=value" flags onto core::Config fields so that tools
// (tools/strip_sim) and scripts can define a run without recompiling.
// Names follow the paper's notation where it has one (lambda_t, p_ul,
// alpha, x_update, ...), otherwise the Config field name.
//
// Every flag is one row of a declarative table — name, help line,
// parser, renderer, and an optional eager validator — so adding a
// parameter means adding a row: help output, --print-config, eager
// range errors, and the config-file reader all pick it up from the
// table. The ShardedConfig overloads accept the cluster-level flags
// (shards, placement, per-shard overrides, feed skew) on top of every
// base flag.

#ifndef STRIP_EXP_CONFIG_FLAGS_H_
#define STRIP_EXP_CONFIG_FLAGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/sharded_config.h"

namespace strip::exp {

// Strict number parsing for flag values: the whole string must be one
// number of the type (no trailing text, no overflow). ParseDouble also
// rejects nan/inf; ParseUint64 takes digits only, so "-1" fails
// instead of wrapping. On failure *out is left untouched.
[[nodiscard]] bool ParseDouble(const std::string& s, double* out);
[[nodiscard]] bool ParseInt(const std::string& s, int* out);
[[nodiscard]] bool ParseUint64(const std::string& s, std::uint64_t* out);

// Applies one "name=value" assignment (no leading dashes) to `config`.
// Returns an error message on unknown names, unparsable values, or an
// eager range-check failure.
[[nodiscard]] std::optional<std::string> ApplyConfigFlag(
    const std::string& assignment, core::Config& config);
// Sharded variant: cluster-level names resolve first, everything else
// lands on config.base.
[[nodiscard]] std::optional<std::string> ApplyConfigFlag(
    const std::string& assignment, core::ShardedConfig& config);

// Applies every argv entry of the form "--name=value" to `config`.
// Entries that do not start with "--", or whose name is unknown, are
// appended to `unconsumed` (so callers can layer their own flags).
// Returns the first value-parse error, or nullopt on success.
[[nodiscard]] std::optional<std::string> ApplyConfigFlags(
    int argc, char** argv, core::Config& config,
    std::vector<std::string>* unconsumed);
[[nodiscard]] std::optional<std::string> ApplyConfigFlags(
    int argc, char** argv, core::ShardedConfig& config,
    std::vector<std::string>* unconsumed);

// All accepted base-config flag names (for --help output).
std::vector<std::string> ConfigFlagNames();
// The cluster-level flag names accepted on top by the ShardedConfig
// overloads (shards, placement, shard_ips, ...).
std::vector<std::string> ShardedConfigFlagNames();

// One "--name=VALUE  help" line per flag, cluster-level flags last.
std::string ConfigFlagsHelp();

// Renders the full configuration, one "name=value" per line. The
// sharded form appends the cluster-level parameters after the base.
std::string ConfigToString(const core::Config& config);
std::string ConfigToString(const core::ShardedConfig& config);

}  // namespace strip::exp

#endif  // STRIP_EXP_CONFIG_FLAGS_H_
