#!/usr/bin/env bash
# Every runner tool rejects a malformed value with exit 2 and an error
# that names the flag, instead of running with a half-parsed value or
# silently writing nothing:
#
#   - a malformed number in a numeric flag (--seed=abc, --reps=2x,
#     --values=1e3x, ...), and in strip_report an empty, nan or inf
#     threshold or tolerance, which would otherwise read as 0 or turn
#     the gate off;
#   - an empty artifact path (--telemetry=, --chrome-trace=, --json=,
#     --telemetry-dir=, --flight-dir=, --out-dir=, --md=, --csv=,
#     --snapshot=), which would otherwise drop the artifact without a
#     word.
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
REPORT="$BUILD/tools/strip_report"
for tool in "$SIM" "$SWEEP" "$REPLAY" "$FIGURES" "$REPORT"; do
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

expect_rejected --threshold "$REPORT" diff a.json b.json --threshold=nan
expect_rejected --threshold "$REPORT" diff a.json b.json --threshold=
expect_rejected --md= "$REPORT" diff a.json b.json --md=
expect_rejected --json= "$REPORT" diff a.json b.json --json=
expect_rejected --md= "$REPORT" summarize sweep_dir --md=
expect_rejected --csv= "$REPORT" summarize sweep_dir --csv=
expect_rejected --tolerance "$REPORT" bench-diff a.json b.json --tolerance=inf
expect_rejected --tolerance "$REPORT" bench-diff a.json b.json --tolerance=
expect_rejected --family "$REPORT" bench-diff a.json b.json --family=BM_:nan
expect_rejected --md= "$REPORT" bench-diff a.json b.json --md=
expect_rejected --json= "$REPORT" bench-diff a.json b.json --json=
expect_rejected --snapshot= "$REPORT" bench-diff a.json b.json --snapshot=

# The gate a NaN tolerance would turn off: a 3x slowdown fails it, and
# --tolerance=nan is refused rather than read as "no limit".
DOCS="$(mktemp -d)"
trap 'rm -rf "$DOCS"' EXIT
bench_doc() {
  echo '{"benchmarks": [{"name": "BM_Gate", "run_type": "iteration",' \
    "\"real_time\": $1, \"cpu_time\": $1, \"time_unit\": \"ns\"}]}"
}
bench_doc 100 > "$DOCS/base.json"
bench_doc 300 > "$DOCS/slow.json"
status=0
"$REPORT" bench-diff "$DOCS/base.json" "$DOCS/slow.json" > /dev/null 2>&1 ||
  status=$?
[ "$status" -eq 1 ] || fail "a 3x slowdown exited $status, want 1"
expect_rejected --tolerance "$REPORT" bench-diff "$DOCS/base.json" \
  "$DOCS/slow.json" --tolerance=nan

echo "check_malformed_numbers: ok"
