#!/bin/sh
# Gates search result stability: every search_quality row in a freshly
# generated BENCH_headline.json document must report the same
# best_makespan as the committed reference for the same (soc,
# power_limit, strategy, iters) key.  Run after a change to the
# evaluation path (e.g. the planning kernel) to prove the
# search still lands on identical plans — throughput work must never
# move quality.  Usage:
#   check_search_quality.sh <fresh-BENCH_headline.json> <reference-BENCH_headline.json>
set -eu

fresh=${1:?usage: check_search_quality.sh <fresh-BENCH_headline.json> <reference-BENCH_headline.json>}
ref=${2:?usage: check_search_quality.sh <fresh-BENCH_headline.json> <reference-BENCH_headline.json>}

extract() {
  # (soc, power_limit, strategy, iters) -> best_makespan, one per line,
  # from the search_quality array only.
  awk '
    /"search_quality": \[/ { in_sq = 1; next }
    in_sq && /^  \]/ { in_sq = 0 }
    in_sq && /"best_makespan"/ {
      line = $0
      key = line
      sub(/.*"soc": "/, "", key); sub(/".*/, "", key)
      power = line
      sub(/.*"power_limit": "/, "", power); sub(/".*/, "", power)
      strat = line
      sub(/.*"strategy": "/, "", strat); sub(/".*/, "", strat)
      iters = line
      sub(/.*"iters": /, "", iters); sub(/[,}].*/, "", iters)
      best = line
      sub(/.*"best_makespan": /, "", best); sub(/[,}].*/, "", best)
      printf "%s %s %s %s %s\n", key, power, strat, iters, best
    }' "$1"
}

fresh_rows=$(extract "$fresh")
ref_rows=$(extract "$ref")

if [ -z "$fresh_rows" ]; then
  echo "check_search_quality.sh: no search_quality rows in $fresh" >&2
  exit 1
fi
if [ -z "$ref_rows" ]; then
  echo "check_search_quality.sh: no search_quality rows in $ref" >&2
  exit 1
fi

status=0
printf '%s\n' "$fresh_rows" | while read -r soc power strat iters best; do
  want=$(printf '%s\n' "$ref_rows" |
    awk -v s="$soc" -v p="$power" -v st="$strat" -v it="$iters" \
      '$1 == s && $2 == p && $3 == st && $4 == it { print $5; exit }')
  if [ -z "$want" ]; then
    printf 'search_quality: %s power=%s %s iters=%s: new row (no reference), best %s\n' \
      "$soc" "$power" "$strat" "$iters" "$best"
    continue
  fi
  if [ "$best" != "$want" ]; then
    printf 'search_quality: %s power=%s %s iters=%s: best %s != reference %s\n' \
      "$soc" "$power" "$strat" "$iters" "$best" "$want" >&2
    # Mark the failure where the subshell can report it.
    touch "${fresh}.sq_mismatch"
  else
    printf 'search_quality: %s power=%s %s iters=%s: best %s OK\n' \
      "$soc" "$power" "$strat" "$iters" "$best"
  fi
done

if [ -e "${fresh}.sq_mismatch" ]; then
  rm -f "${fresh}.sq_mismatch"
  echo "check_search_quality.sh: best makespans moved vs reference" >&2
  status=1
fi
exit $status
