#!/bin/sh
# Golden for served replies: serves tests/corpus/<stem>.jsonl at --jobs 1
# and --jobs 2 and requires both reply streams to equal the committed
# tests/corpus/<stem>.expected byte for byte, so any change to what the
# served requests plan, search or replay shows up as a diff.
# Registered with ctest once per corpus stem; usage:
#   serve_golden_test.sh <path-to-nocsched_cli> <corpus-dir> <stem>
set -u

usage="usage: serve_golden_test.sh <path-to-nocsched_cli> <corpus-dir> <stem>"
cli=${1:?$usage}
corpus=${2:?$usage}
stem=${3:?$usage}
requests=$corpus/$stem.jsonl
expected=$corpus/$stem.expected
fails=0

for jobs in 1 2; do
  if "$cli" --serve --jobs "$jobs" < "$requests" | diff -u "$expected" - ; then
    echo "ok: --serve --jobs $jobs matches $stem.expected"
  else
    echo "FAIL: --serve --jobs $jobs differs from $stem.expected" >&2
    fails=$((fails + 1))
  fi
done

exit "$fails"
