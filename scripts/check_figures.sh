#!/usr/bin/env bash
# Smoke test of the figures tool (bench/figures.cc):
#
#   1. an unknown id, and no id at all, exit 2 with the id list;
#   2. `figures all` at a short run length exits 0 and prints the
#      title of every row the id list names.
#
#   scripts/check_figures.sh [FIGURES_BINARY]   # default: build/bench/figures
#
# Exits non-zero on the first violation.

set -eu
FIGURES="${1:-build/bench/figures}"
[ -x "$FIGURES" ] || { echo "missing $FIGURES (build first)"; exit 2; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "check_figures: FAILED — $1"; exit 1; }

for args in "no_such_figure" ""; do
  status=0
  # shellcheck disable=SC2086  # "" must expand to no argument at all
  "$FIGURES" $args > /dev/null 2> "$WORK/list" || status=$?
  [ "$status" -eq 2 ] || fail "'figures $args' exited $status, want 2"
done
# The id list: "  <id>  <title>" per row.
grep '^  ' "$WORK/list" > "$WORK/rows" || fail "no id list on stderr"

echo "check_figures: figures all ($(wc -l < "$WORK/rows") rows)"
"$FIGURES" all --seconds=5 --reps=1 --jobs=2 > "$WORK/all.txt" \
  || fail "figures all exited $?"
while read -r id title; do
  grep -qxF "== $title ==" "$WORK/all.txt" || fail "no title for $id"
done < "$WORK/rows"
echo "check_figures: ok"
