#!/usr/bin/env bash
# Double-run determinism harness: the same (config, seed) twice must
# byte-compare equal across every output surface — summary text,
# telemetry JSON, Chrome trace, a sweep grid (cell files + per-cell
# telemetry), and a replayed trace file. Run after building:
#
#   scripts/check_determinism.sh [BUILD_DIR]    # default: build
#
# Exits non-zero on the first byte difference. CI calls this on every
# push; it is also the recommended local gate before touching the
# simulation core, RNG plumbing, or any output writer.

set -eu
cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SIM="$BUILD/tools/strip_sim"
SWEEP="$BUILD/tools/strip_sweep"
REPORT="$BUILD/tools/strip_report"
REPLAY="$BUILD/tools/strip_replay"
[ -x "$SIM" ] || { echo "missing $SIM (build first)"; exit 2; }
[ -x "$SWEEP" ] || { echo "missing $SWEEP (build first)"; exit 2; }
[ -x "$REPORT" ] || { echo "missing $REPORT (build first)"; exit 2; }
[ -x "$REPLAY" ] || { echo "missing $REPLAY (build first)"; exit 2; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

FAULTS="outage@10+5:speedup=4;burst@30+10:factor=3;loss@20+5:p=0.2"
FAULTS="$FAULTS;dup@25+5:p=0.2;reorder@40+5:p=0.3;cpu@45+5:factor=0.5"

fail() { echo "check_determinism: FAILED — $1"; exit 1; }

echo "check_determinism: single runs (per policy, fault-heavy, audited)"
for POLICY in UF TF SU OD FCF; do
  for PASS in a b; do
    "$SIM" --policy="$POLICY" --sim_seconds=60 --seed=11 \
      --faults="$FAULTS" --shed_by_importance=true \
      --overload_governor=true --uq_max=64 --audit \
      --telemetry="$WORK/t_${POLICY}_$PASS.json" \
      --chrome-trace="$WORK/c_${POLICY}_$PASS.json" \
      > "$WORK/out_${POLICY}_$PASS.txt"
  done
  cmp "$WORK/t_${POLICY}_a.json" "$WORK/t_${POLICY}_b.json" \
    || fail "telemetry differs for $POLICY"
  cmp "$WORK/c_${POLICY}_a.json" "$WORK/c_${POLICY}_b.json" \
    || fail "chrome trace differs for $POLICY"
  cmp "$WORK/out_${POLICY}_a.txt" "$WORK/out_${POLICY}_b.txt" \
    || fail "summary differs for $POLICY"
done

echo "check_determinism: sharded runs (4 shards, fault-heavy, audited)"
SHARD_FAULTS="outage@10+5:speedup=4|cpu@20+5:factor=0.5||burst@30+10:factor=3"
for PASS in a b; do
  "$SIM" --policy=OD --sim_seconds=60 --seed=11 --shards=4 \
    --shard_faults="$SHARD_FAULTS" --audit \
    --telemetry="$WORK/st_$PASS.json" \
    --chrome-trace="$WORK/sc_$PASS.json" \
    > "$WORK/sout_$PASS.txt"
done
for S in 0 1 2 3; do
  cmp "$WORK/st_a.json.shard$S" "$WORK/st_b.json.shard$S" \
    || fail "sharded telemetry differs for shard $S"
done
cmp "$WORK/sc_a.json" "$WORK/sc_b.json" \
  || fail "sharded chrome trace differs"
cmp "$WORK/sout_a.txt" "$WORK/sout_b.txt" \
  || fail "sharded summary differs"

echo "check_determinism: cluster runs under an imperfect interconnect"
# The interconnect fault domain adds RNG streams (link jitter/loss) and
# event paths (delayed delivery, timeouts, retries, degraded reads);
# all of it must replay byte-identically, including during a partition.
CLUSTER_FAULTS="partition@15+10:shards=0/1;link-loss@30+10:p=0.3"
for FB in stale abort; do
  for PASS in a b; do
    "$SIM" --policy=OD --sim_seconds=60 --seed=11 --shards=4 \
      --link_latency_us=200 --link_jitter_us=100 --link_loss_p=0.02 \
      --remote_timeout_s=0.05 --remote_fallback="$FB" \
      --cluster_faults="$CLUSTER_FAULTS" --audit \
      --telemetry="$WORK/it_${FB}_$PASS.json" \
      --chrome-trace="$WORK/ic_${FB}_$PASS.json" \
      > "$WORK/iout_${FB}_$PASS.txt"
  done
  for S in 0 1 2 3; do
    cmp "$WORK/it_${FB}_a.json.shard$S" "$WORK/it_${FB}_b.json.shard$S" \
      || fail "interconnect telemetry differs for shard $S ($FB)"
  done
  cmp "$WORK/ic_${FB}_a.json" "$WORK/ic_${FB}_b.json" \
    || fail "interconnect chrome trace differs ($FB)"
  cmp "$WORK/iout_${FB}_a.txt" "$WORK/iout_${FB}_b.txt" \
    || fail "interconnect summary differs ($FB)"
done

echo "check_determinism: schema-v4 telemetry goldens"
# Pinned bytes, not just self-consistency: a seeded run's telemetry
# must match the committed golden exactly. Regenerate intentionally
# changed goldens with STRIP_UPDATE_GOLDEN=1.
GOLDEN_DIR="tests/obs/testdata"
"$SIM" --policy=OD --sim_seconds=30 --seed=7 --quiet \
  --telemetry="$WORK/gold.json" > /dev/null
"$SIM" --policy=OD --sim_seconds=30 --seed=7 --shards=2 --quiet \
  --telemetry="$WORK/gold2.json" > /dev/null
if [ "${STRIP_UPDATE_GOLDEN:-0}" = "1" ]; then
  cp "$WORK/gold.json" "$GOLDEN_DIR/determinism_telemetry_v4.json"
  cp "$WORK/gold2.json.shard0" \
    "$GOLDEN_DIR/determinism_telemetry_v4.shard0.json"
  cp "$WORK/gold2.json.shard1" \
    "$GOLDEN_DIR/determinism_telemetry_v4.shard1.json"
  echo "check_determinism: goldens regenerated"
else
  cmp "$WORK/gold.json" "$GOLDEN_DIR/determinism_telemetry_v4.json" \
    || fail "telemetry v4 golden drifted (STRIP_UPDATE_GOLDEN=1 to regen)"
  for S in 0 1; do
    cmp "$WORK/gold2.json.shard$S" \
      "$GOLDEN_DIR/determinism_telemetry_v4.shard$S.json" \
      || fail "sharded telemetry v4 golden drifted for shard $S"
  done
fi

echo "check_determinism: chrome trace golden through the tool path"
# The bytes tests/obs/chrome_trace_test.cc pins for a bare
# ChromeTraceWriter, produced here by strip_sim's output fan-out.
"$SIM" --policy=OD --sim_seconds=1.5 --warmup_seconds=0 --alpha=0.5 \
  --lambda_t=30 --n_low=200 --n_high=200 --txn_preemption=true --seed=7 \
  --quiet --chrome-trace="$WORK/golden_trace.json" > /dev/null
cmp "$WORK/golden_trace.json" "$GOLDEN_DIR/chrome_trace_golden.json" \
  || fail "strip_sim chrome trace drifted from chrome_trace_golden.json"
# Two shards sharing one document through a partition and a lossy link:
# pins the shared-document framing and the remote and fault records.
"$SIM" --shards=2 --placement=hash --policy=OD --alpha=0.5 \
  --txn_preemption=true --lambda_t=30 --n_low=200 --n_high=200 \
  --link_latency_us=200 --link_jitter_us=100 --link_loss_p=0.05 \
  --remote_timeout_s=0.01 \
  '--cluster_faults=partition@0.2+0.2:shards=0;link-loss@0.5+0.2:p=0.5' \
  --sim_seconds=0.8 --warmup_seconds=0 --seed=7 --quiet \
  --chrome-trace="$WORK/cluster_trace.json" > /dev/null
if [ "${STRIP_UPDATE_GOLDEN:-0}" = "1" ]; then
  cp "$WORK/cluster_trace.json" "$GOLDEN_DIR/chrome_trace_cluster_golden.json"
else
  cmp "$WORK/cluster_trace.json" \
    "$GOLDEN_DIR/chrome_trace_cluster_golden.json" \
    || fail "cluster chrome trace drifted from chrome_trace_cluster_golden.json"
fi

echo "check_determinism: replayed trace file (summary + chrome trace)"
# A small hand-made feed over a 20+20 object database: ten rounds, each
# updating every object once and admitting one reading transaction.
for R in 0 1 2 3 4 5 6 7 8 9; do
  for I in $(seq 0 19); do
    printf 'update,%d.%02d,low,%d,%d.%02d,1.0\n' "$R" $((I * 5 + 2)) "$I" \
      "$R" $((I * 5))
    printf 'update,%d.%02d,high,%d,%d.%02d,1.0\n' "$R" $((I * 5 + 4)) "$I" \
      "$R" $((I * 5 + 1))
  done
  printf 'txn,%d.31,high,2.0,%d.95,2000000,0.5,low:%d;high:1%d\n' \
    "$R" "$R" "$R" "$R"
done > "$WORK/feed.csv"
for PASS in a b; do
  "$REPLAY" "$WORK/feed.csv" --policy=OD --n_low=20 --n_high=20 --seed=5 \
    --chrome-trace="$WORK/rc_$PASS.json" > "$WORK/rout_$PASS.txt"
done
cmp "$WORK/rc_a.json" "$WORK/rc_b.json" || fail "replay chrome trace differs"
cmp "$WORK/rout_a.txt" "$WORK/rout_b.txt" || fail "replay summary differs"

echo "check_determinism: sweep grids (threaded vs threaded, audited)"
for PASS in a b; do
  mkdir -p "$WORK/grid_$PASS" "$WORK/tele_$PASS"
  "$SWEEP" --x=lambda_t --values=10,40 --policies=UF,OD --reps=2 \
    --seed=3 --sim_seconds=30 --audit \
    --out-dir="$WORK/grid_$PASS" --telemetry-dir="$WORK/tele_$PASS" \
    > "$WORK/sweep_$PASS.txt"
done
diff -r "$WORK/grid_a" "$WORK/grid_b" >/dev/null \
  || fail "sweep cell files differ"
diff -r "$WORK/tele_a" "$WORK/tele_b" >/dev/null \
  || fail "sweep telemetry differs"
cmp "$WORK/sweep_a.txt" "$WORK/sweep_b.txt" \
  || fail "sweep summary differs"

echo "check_determinism: report surfaces (diff gate + double-run bytes)"
# The structural diff of a double-run pair must be zero rows / exit 0 —
# this is the report-level statement of the byte identity above.
"$REPORT" diff "$WORK/t_OD_a.json" "$WORK/t_OD_b.json" >/dev/null \
  || fail "strip_report diff found deltas in a double-run pair"
"$REPORT" diff "$WORK/grid_a" "$WORK/grid_b" >/dev/null \
  || fail "strip_report diff found deltas across identical sweep grids"
# And the reports themselves are deterministic: rendering the same
# inputs twice must byte-compare equal on every output format.
for PASS in a b; do
  "$REPORT" diff "$WORK/t_UF_a.json" "$WORK/t_OD_a.json" \
    --md="$WORK/rd_$PASS.md" --json="$WORK/rd_$PASS.json" \
    > /dev/null 2>&1 || true
  "$REPORT" summarize "$WORK/grid_a" --csv="$WORK/rs_$PASS.csv" \
    > "$WORK/rs_$PASS.md"
done
cmp "$WORK/rd_a.md" "$WORK/rd_b.md" || fail "diff markdown differs"
cmp "$WORK/rd_a.json" "$WORK/rd_b.json" || fail "diff JSON differs"
cmp "$WORK/rs_a.md" "$WORK/rs_b.md" || fail "summarize output differs"
cmp "$WORK/rs_a.csv" "$WORK/rs_b.csv" || fail "summarize CSV differs"

echo "check_determinism: OK (all surfaces byte-identical)"
