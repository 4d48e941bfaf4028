#!/usr/bin/env bash
# Byte-identity A/B between two builds of strip_sim.
#
#   scripts/check_ab_identity.sh PARENT_BUILD CHANGE_BUILD
#
# Runs PARENT_BUILD/tools/strip_sim and CHANGE_BUILD/tools/strip_sim on
# the same configurations and compares each run's stdout, stderr,
# --telemetry file(s) and --chrome-trace file with cmp. The matrix:
#
#   - 5 policies x 4 staleness criteria x {1, 2, 4} shards, faults off
#     and on: --faults (all six kinds) at 1 shard; --cluster_faults (a
#     partition, then a link-loss window) on a lossy, jittered link at
#     2 and 4 shards;
#   - the queue options, one per row, for every policy that queues
#     updates (TF, SU, OD, FCF) at the same shard counts, faults off
#     and on: LIFO service, split importance queues, dedup, shedding
#     and the overload governor (both with uq_max=64, so the queue
#     fills), uq_max=50, the indexed queue and n_attributes=3;
#   - the scheduler options, one per row, for every policy at 1 shard
#     (faults off) and at 4 shards (the lossy link with
#     --cluster_faults): transaction preemption, abort-on-stale under
#     MA and under UU, a warm-up, admission control, buffer misses,
#     triggers, version history, no feasible-deadline screen, bursty
#     and periodic feeds, switch/queue/scan costs, early view reads
#     with preemption, the governor's staleness trigger, and the abort
#     fallback for remote reads, alone and with abort-on-stale,
#     preemption and a warm-up;
#   - wide populations at 1 shard (faults off), 200k + 200k objects:
#     UF and OD under all four criteria, and UF with n_attributes=3.
#
# A run that exits non-zero on either side fails the check: two
# identical error exits are not a match.
#
# SIM_SECONDS (default 60) sets each run's simulated length.
# Exit: 0 every configuration identical, 1 a difference or a failed
# run, 2 usage.
#
# CI runs it on every pull request against a build of the merge base
# (see CONTRIBUTING.md, "Byte-identity").

set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
SIMS=()
for build in "$1" "$2"; do
  sim="$(cd "$build" 2> /dev/null && pwd)/tools/strip_sim"
  if [ ! -x "$sim" ]; then
    echo "check_ab_identity: missing $build/tools/strip_sim" >&2
    exit 2
  fi
  SIMS+=("$sim")
done
SIM_SECONDS="${SIM_SECONDS:-60}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

LOCAL_FAULTS="outage@10+5:speedup=4;burst@30+10:factor=3;loss@20+5:p=0.2"
LOCAL_FAULTS+=";dup@25+5:p=0.2;reorder@40+5:p=0.3;cpu@45+5:factor=0.5"
CLUSTER_FAULTS=(--cluster_faults="partition@20+10:shards=0;link-loss@40+5:p=0.2"
  --link_latency_us=200 --link_jitter_us=100 --link_loss_p=0.01
  --remote_timeout_s=0.05)
QUEUE_OPTIONS=(
  "--queue_discipline=LIFO"
  "--split_importance_queues=true"
  "--dedup_update_queue=true"
  "--shed_by_importance=true --uq_max=64"
  "--overload_governor=true --uq_max=64"
  "--uq_max=50"
  "--indexed_update_queue=true"
  "--n_attributes=3"
)
SCHEDULER_OPTIONS=(
  "--txn_preemption=true"
  "--abort_on_stale=true --staleness=MA"
  "--abort_on_stale=true --staleness=UU"
  "--warmup_seconds=10"
  "--admission_limit=5 --lambda_t=40"
  "--buffer_hit_ratio=0.9 --io_seconds=0.002"
  "--trigger_probability=0.3 --x_trigger=5000"
  "--history_depth=3"
  "--feasible_deadline=false"
  "--bursty_updates=true"
  "--periodic_updates=true"
  "--x_switch=2000 --x_queue=300 --x_scan=50"
  "--p_view=0.5 --txn_preemption=true"
  "--overload_governor=true --governor_stale_threshold=0.3"
  "--remote_fallback=abort"
  "--remote_fallback=abort --abort_on_stale=true --txn_preemption=true --warmup_seconds=10"
)

configs=0
failures=0

# run_pair NAME FLAG...: runs both builds on FLAG... and compares every
# file each run leaves in its own directory.
run_pair() {
  local name="$1"
  shift
  configs=$((configs + 1))
  local side
  for side in 0 1; do
    local dir="$WORK/$side"
    rm -rf "$dir"
    mkdir -p "$dir"
    (cd "$dir" && "${SIMS[$side]}" "$@" --sim_seconds="$SIM_SECONDS" \
      --telemetry=telemetry.json --chrome-trace=trace.json \
      > stdout.txt 2> stderr.txt)
    local rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "check_ab_identity: FAILED $name: build $((side + 1)) exited $rc"
      failures=$((failures + 1))
      return
    fi
  done
  if [ "$(cd "$WORK/0" && ls)" != "$(cd "$WORK/1" && ls)" ]; then
    echo "check_ab_identity: DIFFERS $name: different output files"
    failures=$((failures + 1))
    return
  fi
  local file
  for file in "$WORK/0"/*; do
    if ! cmp -s "$file" "$WORK/1/${file##*/}"; then
      echo "check_ab_identity: DIFFERS $name: ${file##*/}"
      failures=$((failures + 1))
      return
    fi
  done
}

for shards in 1 2 4; do
  for faults in off on; do
    fault_flags=()
    if [ "$faults" = on ]; then
      if [ "$shards" = 1 ]; then
        fault_flags=(--faults="$LOCAL_FAULTS")
      else
        fault_flags=("${CLUSTER_FAULTS[@]}")
      fi
    fi
    for policy in UF TF SU OD FCF; do
      common=(--policy="$policy" --shards="$shards" --seed=7 "${fault_flags[@]}")
      for criterion in MA UU MA+UU MA-arrival; do
        run_pair "policy=$policy staleness=$criterion shards=$shards faults=$faults" \
          "${common[@]}" --staleness="$criterion"
      done
      [ "$policy" = UF ] && continue
      for option in "${QUEUE_OPTIONS[@]}"; do
        # shellcheck disable=SC2086  # an option row may hold two flags
        run_pair "policy=$policy $option shards=$shards faults=$faults" \
          "${common[@]}" $option
      done
    done
  done
done

for shards in 1 4; do
  fault_flags=()
  [ "$shards" = 4 ] && fault_flags=("${CLUSTER_FAULTS[@]}")
  for policy in UF TF SU OD FCF; do
    for option in "${SCHEDULER_OPTIONS[@]}"; do
      # shellcheck disable=SC2086  # an option row may hold several flags
      run_pair "policy=$policy $option shards=$shards" \
        --policy="$policy" --shards="$shards" --seed=7 "${fault_flags[@]}" \
        $option
    done
  done
done

# The initial expiry wave, the queued generations and the attribute
# table at a population far past the cache.
WIDE=(--shards=1 --seed=7 --n_low=200000 --n_high=200000)
for policy in UF OD; do
  for criterion in MA UU MA+UU MA-arrival; do
    run_pair "policy=$policy staleness=$criterion wide" \
      --policy="$policy" "${WIDE[@]}" --staleness="$criterion"
  done
done
run_pair "policy=UF --n_attributes=3 wide" --policy=UF "${WIDE[@]}" \
  --n_attributes=3

if [ "$failures" -ne 0 ]; then
  echo "check_ab_identity: $failures of $configs configurations failed"
  exit 1
fi
echo "check_ab_identity: OK ($configs configurations identical)"
