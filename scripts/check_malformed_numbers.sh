#!/usr/bin/env bash
# Every runner tool rejects a malformed value with exit 2 and an error
# that names the flag, instead of running with a half-parsed value or
# silently writing nothing:
#
#   - a malformed number in a numeric flag (--seed=abc, --reps=2x,
#     --values=1e3x, ...);
#   - an empty artifact path (--telemetry=, --chrome-trace=, --json=,
#     --telemetry-dir=, --flight-dir=, --out-dir=), which would
#     otherwise drop the artifact without a word.
#
# strip_replay likewise rejects a second trace path, naming both.
#
#   scripts/check_malformed_numbers.sh [BUILD_DIR]   # default: build
#
# Exits non-zero on the first violation.

set -eu
BUILD="${1:-build}"

fail() { echo "check_malformed_numbers: FAILED — $1"; exit 1; }

# expect_rejected FLAG TOOL ARGS...: the run exits 2 and names FLAG.
expect_rejected() {
  local flag="$1"; shift
  local status=0
  local err
  err="$("$@" 2>&1 > /dev/null)" || status=$?
  [ "$status" -eq 2 ] || fail "'$*' exited $status, want 2"
  case "$err" in
    *"$flag"*) ;;
    *) fail "'$*' did not name $flag: $err" ;;
  esac
}

SIM="$BUILD/tools/strip_sim"
SWEEP="$BUILD/tools/strip_sweep"
REPLAY="$BUILD/tools/strip_replay"
FIGURES="$BUILD/bench/figures"
for tool in "$SIM" "$SWEEP" "$REPLAY" "$FIGURES"; do
  [ -x "$tool" ] || { echo "missing $tool (build first)"; exit 2; }
done

expect_rejected --seed=abc "$SIM" --seed=abc
expect_rejected --seed=-1 "$SIM" --seed=-1
expect_rejected --reps=2x "$SIM" --reps=2x
expect_rejected --telemetry= "$SIM" --telemetry=
expect_rejected --chrome-trace= "$SIM" --chrome-trace=

GRID=(--x=lambda_t --values=5 --sim_seconds=1 --progress=off)
expect_rejected --values=1e3x,2000 "$SWEEP" --x=lambda_t --values=1e3x,2000
expect_rejected --values=5, "$SWEEP" --x=lambda_t --values=5,
expect_rejected --seed=abc "$SWEEP" "${GRID[@]}" --seed=abc
expect_rejected --reps=2x "$SWEEP" "${GRID[@]}" --reps=2x
expect_rejected --jobs=two "$SWEEP" "${GRID[@]}" --jobs=two
expect_rejected --cell-timeout=1s "$SWEEP" "${GRID[@]}" --cell-timeout=1s
expect_rejected --json= "$SWEEP" "${GRID[@]}" --json=
expect_rejected --telemetry-dir= "$SWEEP" "${GRID[@]}" --telemetry-dir=
expect_rejected --flight-dir= "$SWEEP" "${GRID[@]}" --flight-dir=
expect_rejected --out-dir= "$SWEEP" "${GRID[@]}" --out-dir=

expect_rejected --seed=12ab "$REPLAY" trace.csv --seed=12ab
expect_rejected --chrome-trace= "$REPLAY" trace.csv --chrome-trace=
# A second trace path is an error naming both, not a silent override.
expect_rejected a.csv "$REPLAY" a.csv b.csv
expect_rejected b.csv "$REPLAY" a.csv b.csv

expect_rejected --seconds=2x "$FIGURES" fig08_scan_cost --seconds=2x
expect_rejected --reps=2x "$FIGURES" fig08_scan_cost --reps=2x
expect_rejected --seed=abc "$FIGURES" fig08_scan_cost --seed=abc
expect_rejected --jobs=two "$FIGURES" fig08_scan_cost --jobs=two
expect_rejected --json= "$FIGURES" fig08_scan_cost --json=

echo "check_malformed_numbers: ok"
