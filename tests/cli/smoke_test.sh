#!/bin/sh
# Smoke test for nocsched_cli: every --format on the paper's smallest
# system, plus the error paths.  Registered with ctest; usage:
#   smoke_test.sh <path-to-nocsched_cli>
set -u

cli=${1:?usage: smoke_test.sh <path-to-nocsched_cli>}
fails=0

check() {
  desc=$1
  shift
  if "$@" >/dev/null 2>&1; then
    echo "ok: $desc"
  else
    echo "FAIL: $desc (command: $*)" >&2
    fails=$((fails + 1))
  fi
}

# Exit 0 and non-empty stdout for every output format.
for fmt in table gantt csv json all; do
  out=$("$cli" --soc d695 --procs 4 --format "$fmt" 2>/dev/null)
  rc=$?
  if [ "$rc" -eq 0 ] && [ -n "$out" ]; then
    echo "ok: --format $fmt"
  else
    echo "FAIL: --format $fmt produced rc=$rc / empty output" >&2
    fails=$((fails + 1))
  fi
done

# The JSON format must carry the fields downstream tooling keys on.
json=$("$cli" --soc d695 --procs 4 --format json 2>/dev/null)
case $json in
  *'"makespan"'*'"sessions"'*) echo "ok: json has makespan + sessions" ;;
  *) echo "FAIL: json output missing makespan/sessions" >&2
     fails=$((fails + 1)) ;;
esac

# Every output format again, replayed through the flit-level simulator.
for fmt in table gantt csv json all; do
  out=$("$cli" --soc d695 --procs 4 --simulate --format "$fmt" 2>/dev/null)
  rc=$?
  if [ "$rc" -eq 0 ] && [ -n "$out" ]; then
    echo "ok: --simulate --format $fmt"
  else
    echo "FAIL: --simulate --format $fmt produced rc=$rc / empty output" >&2
    fails=$((fails + 1))
  fi
done

# The simulated JSON must carry plan-vs-observed timing and a clean
# cross-check.
simjson=$("$cli" --soc d695 --procs 4 --simulate --format json 2>/dev/null)
case $simjson in
  *'"planned_makespan"'*'"observed_makespan"'*'"ok": true'*)
    echo "ok: simulate json has planned/observed makespan + passing cross-check" ;;
  *) echo "FAIL: simulate json missing observed makespan or cross-check" >&2
     fails=$((fails + 1)) ;;
esac

# Other front-end knobs reachable from the same system.
check "--cpu plasma"        "$cli" --soc d695 --cpu plasma --procs 4 --format table
check "--power 50"          "$cli" --soc d695 --procs 4 --power 50 --format table
check "--policy shortest"   "$cli" --soc d695 --procs 4 --policy shortest --format table
check "--search anneal"     "$cli" --soc d695 --procs 4 --search anneal --iters 20 --format table
check "--search local"      "$cli" --soc d695 --procs 4 --search local --iters 20 --format table
check "--search restart"    "$cli" --soc d695 --procs 4 --search restart --format table

# A searched plan's JSON must carry the search metrics object.
sjson=$("$cli" --soc d695 --procs 4 --search local --iters 10 --format json 2>/dev/null)
case $sjson in
  *'"search"'*'"strategy": "local"'*'"evaluations"'*)
    echo "ok: search json has strategy metrics" ;;
  *) echo "FAIL: search json missing search metrics" >&2
     fails=$((fails + 1)) ;;
esac

# ...and a plain greedy plan's JSON must not.
gjson=$("$cli" --soc d695 --procs 4 --format json 2>/dev/null)
case $gjson in
  *'"search"'*) echo "FAIL: greedy json unexpectedly has a search object" >&2
                fails=$((fails + 1)) ;;
  *) echo "ok: greedy json has no search object" ;;
esac

# Every strategy is reproducible and jobs-invariant from the CLI.
for strat in restart anneal local; do
  s1=$("$cli" --soc d695 --procs 4 --search "$strat" --iters 8 --seed 7 --jobs 1 --format csv 2>/dev/null)
  s4=$("$cli" --soc d695 --procs 4 --search "$strat" --iters 8 --seed 7 --jobs 4 --format csv 2>/dev/null)
  if [ -n "$s1" ] && [ "$s1" = "$s4" ]; then
    echo "ok: --search $strat jobs-invariant"
  else
    echo "FAIL: --search $strat --jobs 4 and --jobs 1 disagreed" >&2
    fails=$((fails + 1))
  fi
done

# --seed makes restart searches reproducible from the command line.
seed_a=$("$cli" --soc d695 --procs 4 --search restart --iters 3 --seed 7 --format csv 2>/dev/null)
seed_b=$("$cli" --soc d695 --procs 4 --search restart --iters 3 --seed 7 --format csv 2>/dev/null)
if [ -n "$seed_a" ] && [ "$seed_a" = "$seed_b" ]; then
  echo "ok: --seed reproducible"
else
  echo "FAIL: two --search restart --iters 3 --seed 7 runs disagreed" >&2
  fails=$((fails + 1))
fi

# --jobs parallelizes restarts without changing the answer.
jobs_1=$("$cli" --soc d695 --procs 4 --search restart --iters 6 --seed 7 --jobs 1 --format csv 2>/dev/null)
jobs_4=$("$cli" --soc d695 --procs 4 --search restart --iters 6 --seed 7 --jobs 4 --format csv 2>/dev/null)
if [ -n "$jobs_1" ] && [ "$jobs_1" = "$jobs_4" ]; then
  echo "ok: --jobs 4 matches --jobs 1"
else
  echo "FAIL: --jobs 4 and --jobs 1 disagreed for the same seed" >&2
  fails=$((fails + 1))
fi

# Fault injection: every format must render a scenario end to end.
for fmt in table gantt csv json all; do
  out=$("$cli" --soc d695 --procs 4 --fail-links 0:1 --fail-procs 11 --format "$fmt" 2>/dev/null)
  rc=$?
  if [ "$rc" -eq 0 ] && [ -n "$out" ]; then
    echo "ok: fault scenario --format $fmt"
  else
    echo "FAIL: fault scenario --format $fmt produced rc=$rc / empty output" >&2
    fails=$((fails + 1))
  fi
done

# The fault JSON must carry the robustness classification and the replan.
fjson=$("$cli" --soc d695 --procs 4 --fail-links 0:1 --fail-procs 11 --format json 2>/dev/null)
case $fjson in
  *'"faults"'*'"robustness"'*'"unroutable"'*'"replan"'*)
    echo "ok: fault json has faults + robustness + replan" ;;
  *) echo "FAIL: fault json missing faults/robustness/replan" >&2
     fails=$((fails + 1)) ;;
esac

# Router faults resolve through the same pipeline.
check "--fail-routers"      "$cli" --soc d695 --procs 4 --fail-routers 5 --format table

# A fault sweep renders rows and is reproducible from its seed.
sweep_a=$("$cli" --soc d695 --procs 4 --fault-sweep 3 --fault-seed 9 --format csv 2>/dev/null)
sweep_b=$("$cli" --soc d695 --procs 4 --fault-sweep 3 --fault-seed 9 --format csv 2>/dev/null)
if [ -n "$sweep_a" ] && [ "$sweep_a" = "$sweep_b" ]; then
  echo "ok: --fault-sweep reproducible from --fault-seed"
else
  echo "FAIL: two --fault-sweep 3 --fault-seed 9 runs disagreed" >&2
  fails=$((fails + 1))
fi
check "--fault-sweep json"  "$cli" --soc d695 --procs 4 --fault-sweep 2 --format json

# Online fault streams: every format renders a full timeline end to end.
for fmt in table csv json all; do
  out=$("$cli" --soc d695 --procs 4 --fault-stream 2 --format "$fmt" 2>/dev/null)
  rc=$?
  if [ "$rc" -eq 0 ] && [ -n "$out" ]; then
    echo "ok: --fault-stream --format $fmt"
  else
    echo "FAIL: --fault-stream --format $fmt produced rc=$rc / empty output" >&2
    fails=$((fails + 1))
  fi
done

# The stream JSON must carry the timeline structure downstream tooling
# keys on.
sjson=$("$cli" --soc d695 --procs 4 --fault-stream 2 --format json 2>/dev/null)
case $sjson in
  *'"events"'*'"epochs"'*'"coverage_retained"'*'"makespan_stretch"'*)
    echo "ok: stream json has events + epochs + coverage + stretch" ;;
  *) echo "FAIL: stream json missing timeline fields" >&2
     fails=$((fails + 1)) ;;
esac

# ...and is reproducible from its seed.
stream_a=$("$cli" --soc d695 --procs 4 --fault-stream 2 --fault-seed 9 --format csv 2>/dev/null)
stream_b=$("$cli" --soc d695 --procs 4 --fault-stream 2 --fault-seed 9 --format csv 2>/dev/null)
if [ -n "$stream_a" ] && [ "$stream_a" = "$stream_b" ]; then
  echo "ok: --fault-stream reproducible from --fault-seed"
else
  echo "FAIL: two --fault-stream 2 --fault-seed 9 runs disagreed" >&2
  fails=$((fails + 1))
fi

# An explicit JSONL timeline drives the same pipeline.
streamfile="${TMPDIR:-/tmp}/nocsched_smoke_stream.$$.jsonl"
cat > "$streamfile" <<'EOF'
{"cycle": 20000, "links": ["0:1"]}

{"cycle": 45000, "routers": [2], "procs": [11]}
EOF
check "--fault-stream-file" "$cli" --soc d695 --procs 4 --fault-stream-file "$streamfile" --format table

# Malformed stream files are rejected with a <path>:<line>: diagnostic
# naming the offending field.
reject_stream_file() {
  desc=$1
  wanted=$2
  printf '%s\n' "$3" > "$streamfile"
  err=$("$cli" --soc d695 --procs 4 --fault-stream-file "$streamfile" 2>&1 >/dev/null)
  rc=$?
  case "$rc:$err" in
    0:*) echo "FAIL: $desc exited 0" >&2
         fails=$((fails + 1)) ;;
    *"$streamfile:$wanted"*) echo "ok: $desc rejected with line-numbered diagnostic" ;;
    *) echo "FAIL: $desc diagnostic unclear: $err" >&2
       fails=$((fails + 1)) ;;
  esac
}
reject_stream_file "stream file bad router id" "1: links: no router 99 in '0:99'" \
  '{"cycle": 10, "links": ["0:99"]}'
reject_stream_file "stream file non-adjacent link" "1: links: '0:9' joins routers 0 and 9, which are not adjacent" \
  '{"cycle": 10, "links": ["0:9"]}'
reject_stream_file "stream file non-processor proc" "1: procs: module 1" \
  '{"cycle": 10, "procs": [1]}'
reject_stream_file "stream file out-of-range cycle" "1: \"cycle\"" \
  '{"cycle": 9223372036854775808, "links": ["0:1"]}'
reject_stream_file "stream file non-monotone events" "2: event cycle 400 is not after" \
  '{"cycle": 500, "links": ["0:1"]}
{"cycle": 400, "procs": [11]}'
reject_stream_file "stream file empty increment" "1: event breaks nothing" \
  '{"cycle": 10}'

# One bad fault reference reaches the resolver from three sources: the
# --fail-* flags, a served request's "faults", and a fault-stream line.
# All three give the same message body; only the source prefix differs
# ("--fail-", "stdin:1: faults.", "<file>:1: ").
same_diagnostic() {
  field=$1 flag_value=$2 json_value=$3
  flag_err=$("$cli" --soc d695 --procs 4 "--fail-$field" "$flag_value" 2>&1 >/dev/null)
  flag_body=${flag_err#"nocsched_cli: --fail-"}
  serve_err=$(printf '{"soc": "d695", "procs": 4, "faults": {"%s": [%s]}}\n' \
    "$field" "$json_value" | "$cli" --serve 2>/dev/null)
  serve_body=$(printf '%s\n' "$serve_err" |
    sed -n 's/.*"error": "stdin:1: faults\.\(.*\)"}$/\1/p')
  printf '{"cycle": 10, "%s": [%s]}\n' "$field" "$json_value" > "$streamfile"
  stream_err=$("$cli" --soc d695 --procs 4 --fault-stream-file "$streamfile" 2>&1 >/dev/null)
  stream_body=${stream_err#"nocsched_cli: $streamfile:1: "}
  case $flag_body in
    "$field: "*"$flag_value"*)
      if [ "$flag_body" = "$serve_body" ] && [ "$flag_body" = "$stream_body" ]; then
        echo "ok: --fail-$field $flag_value: one diagnostic from flag, request, and stream"
        return
      fi ;;
  esac
  echo "FAIL: --fail-$field $flag_value diagnostics differ by source:" >&2
  printf '  flag:   %s\n  serve:  %s\n  stream: %s\n' "$flag_err" "$serve_err" \
    "$stream_err" >&2
  fails=$((fails + 1))
}
same_diagnostic links 0:9 '"0:9"'
same_diagnostic routers 99 99
same_diagnostic links 4294967296:1 '"4294967296:1"'
same_diagnostic procs 1 1
same_diagnostic procs 999 999
rm -f "$streamfile"

# Plan server: --serve answers JSONL requests on stdin with one JSONL
# result per line, exit 0.
serve_out=$(printf '%s\n' \
  '{"id": "a", "soc": "d695", "procs": 4}' \
  '{"id": "b", "soc": "d695", "procs": 4, "power": 50}' \
  '{"id": "c", "soc": "d695", "procs": 4, "search": "restart", "iters": 4}' \
  | "$cli" --serve 2>/dev/null)
rc=$?
if [ "$rc" -eq 0 ] && [ "$(printf '%s\n' "$serve_out" | wc -l)" -eq 3 ]; then
  echo "ok: --serve answers three requests with three results"
else
  echo "FAIL: --serve produced rc=$rc / wrong line count: $serve_out" >&2
  fails=$((fails + 1))
fi
case $serve_out in
  *'"id": "a", "ok": true'*'"id": "b", "ok": true'*'"id": "c", "ok": true'*)
    echo "ok: --serve results carry ids in input order" ;;
  *) echo "FAIL: --serve results missing ids or out of order: $serve_out" >&2
     fails=$((fails + 1)) ;;
esac

# A malformed line becomes a per-request error object — the process
# answers it in-band and keeps serving, exit still 0.
serve_err=$(printf '%s\n' \
  '{"id": "good"}' \
  'this is not json' \
  '{"id": "after"}' \
  | "$cli" --serve 2>/dev/null)
rc=$?
case "$rc:$serve_err" in
  0:*'"id": "line-2", "ok": false, "error": "stdin:2: '*'"id": "after", "ok": true'*)
    echo "ok: --serve answers a malformed line in-band and keeps serving" ;;
  *) echo "FAIL: --serve malformed-line handling (rc=$rc): $serve_err" >&2
     fails=$((fails + 1)) ;;
esac

# The serve path and the one-shot path are the same engine: identical
# requests produce the same plan numbers.
oneshot_makespan=$("$cli" --soc d695 --procs 4 --format json 2>/dev/null \
  | sed -n 's/.*"makespan": \([0-9]*\).*/\1/p' | head -n 1)
serve_makespan=$(printf '{"soc": "d695", "procs": 4}\n' | "$cli" --serve 2>/dev/null \
  | sed -n 's/.*"makespan": \([0-9]*\).*/\1/p' | head -n 1)
if [ -n "$oneshot_makespan" ] && [ "$oneshot_makespan" = "$serve_makespan" ]; then
  echo "ok: --serve agrees with the one-shot adapter on the makespan"
else
  echo "FAIL: one-shot makespan '$oneshot_makespan' != serve makespan '$serve_makespan'" >&2
  fails=$((fails + 1))
fi

# The one-shot adapters stayed byte-stable: two identical runs agree in
# every format (the engine refactor must not leak cache or timing state
# into output bytes).
for fmt in table csv json; do
  one_a=$("$cli" --soc d695 --procs 4 --power 50 --format "$fmt" 2>/dev/null)
  one_b=$("$cli" --soc d695 --procs 4 --power 50 --format "$fmt" 2>/dev/null)
  if [ -n "$one_a" ] && [ "$one_a" = "$one_b" ]; then
    echo "ok: one-shot --format $fmt byte-stable"
  else
    echo "FAIL: two identical one-shot runs disagreed at --format $fmt" >&2
    fails=$((fails + 1))
  fi
done

# --serve excludes the one-shot request flags (requests carry them),
# and the serve knobs require --serve.
for bad in "--serve --soc d695" "--serve --power 50" "--serve --simulate" \
           "--serve --fail-procs 11" "--serve --format json" \
           "--serve-batch 4" "--serve-cache 8"; do
  # shellcheck disable=SC2086  # intentional word splitting of $bad
  if "$cli" $bad >/dev/null 2>&1 </dev/null; then
    echo "FAIL: '$bad' exited 0" >&2
    fails=$((fails + 1))
  else
    echo "ok: '$bad' rejected"
  fi
done

# ...with diagnostics that name the conflicting flag.
err=$("$cli" --serve --soc d695 2>&1 >/dev/null </dev/null)
case $err in
  *'--serve'*'--soc'*) echo "ok: --serve exclusion diagnostic names the flag" ;;
  *) echo "FAIL: --serve exclusion diagnostic unclear: $err" >&2
     fails=$((fails + 1)) ;;
esac

# --serve with --metrics keeps stdout pure JSONL (metrics on stderr).
serve_m=$(printf '{"id": "m"}\n' | "$cli" --serve --metrics table 2>/dev/null)
serve_merr=$(printf '{"id": "m"}\n' | "$cli" --serve --metrics table 2>&1 >/dev/null)
case "$serve_m:$serve_merr" in
  '{"id": "m", "ok": true'*serve.requests*)
    echo "ok: --serve --metrics reports serve.* on stderr, JSONL on stdout" ;;
  *) echo "FAIL: --serve --metrics stdout/stderr split broken: $serve_m / $serve_merr" >&2
     fails=$((fails + 1)) ;;
esac

# The context cache resists a cycle longer than itself: 40 specs cycled
# 15 times through the default 32 slots hit on most requests (an LRU
# cache misses on every one).
cycle_in=$(awk 'BEGIN { for (n = 0; n < 600; n++)
  printf "{\"id\": \"c%d\", \"soc\": \"rand:%d\"}\n", n, n % 40 }')
cycle_out=$(printf '%s\n' "$cycle_in" | "$cli" --serve --metrics json 2>/dev/null)
cycle_err=$(printf '%s\n' "$cycle_in" | "$cli" --serve --metrics json 2>&1 >/dev/null)
cycle_ok=$(printf '%s\n' "$cycle_out" | grep -c '"ok": true')
cache_count() {
  n=$(printf '%s\n' "$cycle_err" | sed -n "s/.*\"serve\.cache\.$1\": \([0-9]*\).*/\1/p")
  echo "${n:-0}"
}
cycle_hits=$(cache_count hits)
cycle_misses=$(cache_count misses)
if [ "$cycle_ok" -eq 600 ] && [ "$cycle_hits" -gt "$cycle_misses" ]; then
  echo "ok: a 40-spec cycle hits the 32-slot cache ($cycle_hits hits, $cycle_misses misses)"
else
  echo "FAIL: 40-spec cycle: $cycle_ok/600 ok, $cycle_hits hits, $cycle_misses misses" >&2
  fails=$((fails + 1))
fi

# Observability: --metrics reports to stderr in every exposition
# format while stdout stays byte-identical to an uninstrumented run.
plain=$("$cli" --soc d695 --procs 4 --format csv 2>/dev/null)
for mfmt in table csv json prom; do
  mout=$("$cli" --soc d695 --procs 4 --format csv --metrics "$mfmt" 2>/dev/null)
  merr=$("$cli" --soc d695 --procs 4 --format csv --metrics "$mfmt" 2>&1 >/dev/null)
  if [ -n "$merr" ] && [ "$mout" = "$plain" ]; then
    echo "ok: --metrics $mfmt on stderr, stdout unchanged"
  else
    echo "FAIL: --metrics $mfmt changed stdout or wrote nothing to stderr" >&2
    fails=$((fails + 1))
  fi
done

# The metrics report carries the planner profile.
merr=$("$cli" --soc d695 --procs 4 --metrics table 2>&1 >/dev/null)
case $merr in
  *planner.runs*) echo "ok: --metrics table reports planner.runs" ;;
  *) echo "FAIL: metrics report missing planner.runs: $merr" >&2
     fails=$((fails + 1)) ;;
esac

# --trace-out writes a chrome://tracing document with the phase spans.
trace="${TMPDIR:-/tmp}/nocsched_smoke_trace.$$.json"
if "$cli" --soc d695 --procs 4 --simulate --trace-out "$trace" >/dev/null 2>&1 &&
   grep -q traceEvents "$trace" && grep -q '"parse"' "$trace" &&
   grep -q '"plan"' "$trace" && grep -q '"validate"' "$trace" &&
   grep -q '"replay"' "$trace"; then
  echo "ok: --trace-out writes the phase spans"
else
  echo "FAIL: --trace-out did not produce a span trace" >&2
  fails=$((fails + 1))
fi
rm -f "$trace"

# --metrics / --trace-out reject a missing operand by option name.
for opt in --metrics --trace-out; do
  err=$("$cli" --soc d695 --procs 4 "$opt" 2>&1 >/dev/null)
  rc=$?
  case "$rc:$err" in
    0:*) echo "FAIL: $opt with no operand exited 0" >&2
         fails=$((fails + 1)) ;;
    *"$opt expects a value"*) echo "ok: $opt missing operand rejected by name" ;;
    *) echo "FAIL: $opt missing-operand diagnostic unclear: $err" >&2
       fails=$((fails + 1)) ;;
  esac
done

# ...and an unknown exposition format is named in the diagnostic.
err=$("$cli" --soc d695 --procs 4 --metrics bogus 2>&1 >/dev/null)
rc=$?
case "$rc:$err" in
  0:*) echo "FAIL: --metrics bogus exited 0" >&2
       fails=$((fails + 1)) ;;
  *bogus*) echo "ok: bad --metrics format named in diagnostic" ;;
  *) echo "FAIL: --metrics bogus diagnostic unclear: $err" >&2
     fails=$((fails + 1)) ;;
esac

# Error paths: bad values must fail loudly, not succeed quietly.
for bad in "--format bogus" "--soc no_such_soc" "--cpu vax" "--bogus-flag 1" "--search tabu" \
           "--restarts 3" "--mesh 4294967300x4" "--mesh 33x32" \
           "--wrapper 4294967297" "--procs 4294967298" \
           "--fail-links 0-1" "--fail-links 0:9" "--fail-procs 1" "--fail-procs 999" \
           "--fail-routers 99" "--fault-sweep 0" \
           "--fail-links 4294967296:1" "--fail-procs 4294967307" \
           "--fail-links 0:1 --fault-seed 7" \
           "--fail-links 0:1 --simulate" "--fault-sweep 2 --fail-procs 11" \
           "--fault-sweep 2 --format gantt" \
           "--fault-stream 0" "--fault-stream 2 --fault-sweep 2" \
           "--fault-stream 2 --fault-stream-file x" \
           "--fault-stream 2 --fail-procs 11" "--fault-stream 2 --simulate" \
           "--fault-stream 2 --format gantt" \
           "--fault-stream-file /nonexistent/stream.jsonl"; do
  # shellcheck disable=SC2086  # intentional word splitting of $bad
  if "$cli" --procs 2 $bad >/dev/null 2>&1; then
    echo "FAIL: '$bad' exited 0" >&2
    fails=$((fails + 1))
  else
    echo "ok: '$bad' rejected"
  fi
done

# --power shares the wire format's range check, (0, 100], and its
# diagnostic names the flag.
for pct in 500 0 nan; do
  err=$("$cli" --soc d695 --procs 2 --power "$pct" 2>&1 >/dev/null)
  rc=$?
  case "$rc:$err" in
    0:*) echo "FAIL: --power $pct exited 0" >&2
         fails=$((fails + 1)) ;;
    *"--power must be in (0, 100], got $pct"*) echo "ok: --power $pct rejected by name" ;;
    *) echo "FAIL: --power $pct diagnostic unclear: $err" >&2
       fails=$((fails + 1)) ;;
  esac
done

# A bad flag's diagnostic must name the problem on stderr.
err=$("$cli" --soc d695 --format bogus 2>&1 >/dev/null)
case $err in
  *bogus*) echo "ok: bad --format diagnostic names the value" ;;
  *) echo "FAIL: diagnostic does not mention the bad value: $err" >&2
     fails=$((fails + 1)) ;;
esac

# An unknown option is rejected by name — even as the last argument,
# where no value follows it.
err=$("$cli" --soc d695 --definitely-bogus 2>&1 >/dev/null)
rc=$?
case "$rc:$err" in
  0:*) echo "FAIL: unknown option --definitely-bogus exited 0" >&2
       fails=$((fails + 1)) ;;
  *definitely-bogus*) echo "ok: unknown option rejected by name" ;;
  *) echo "FAIL: diagnostic does not name the unknown option: $err" >&2
     fails=$((fails + 1)) ;;
esac

# A known option with its value missing names the option.
err=$("$cli" --soc 2>&1 >/dev/null)
case $err in
  *'--soc expects a value'*) echo "ok: missing value diagnostic names the option" ;;
  *) echo "FAIL: missing-value diagnostic unclear: $err" >&2
     fails=$((fails + 1)) ;;
esac

exit $((fails > 0))
