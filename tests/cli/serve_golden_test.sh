#!/bin/sh
# Golden for served search replies: serves tests/corpus/search_replies.jsonl
# at --jobs 1 and --jobs 2 and requires both reply streams to equal the
# committed tests/corpus/search_replies.expected byte for byte, so any
# change to what a search evaluates, prunes or picks shows up as a diff.
# Registered with ctest; usage:
#   serve_golden_test.sh <path-to-nocsched_cli> <corpus-dir>
set -u

cli=${1:?usage: serve_golden_test.sh <path-to-nocsched_cli> <corpus-dir>}
corpus=${2:?usage: serve_golden_test.sh <path-to-nocsched_cli> <corpus-dir>}
requests=$corpus/search_replies.jsonl
expected=$corpus/search_replies.expected
fails=0

for jobs in 1 2; do
  if "$cli" --serve --jobs "$jobs" < "$requests" | diff -u "$expected" - ; then
    echo "ok: --serve --jobs $jobs matches search_replies.expected"
  else
    echo "FAIL: --serve --jobs $jobs differs from search_replies.expected" >&2
    fails=$((fails + 1))
  fi
done

exit "$fails"
