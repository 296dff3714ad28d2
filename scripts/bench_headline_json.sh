#!/bin/sh
# Runs bench_headline and re-emits its claim table as JSON, one object
# per paper claim; optionally appends bench_des_replay's throughput
# rows as a "des_replay" array, bench_multistart_perf's rows as a
# "planner_perf" array (each row names the search strategy and its
# iteration budget, so trajectories stay comparable across revisions
# that change the search engine; its MOH rows become a
# "metrics_overhead" array pricing the metrics layer, gated separately
# by scripts/check_overhead.sh), and bench_search_quality's rows as a
# "search_quality" array (strategy-vs-strategy best makespans at an
# equal evaluation budget), bench_fault_sweep's rows as a
# "fault_sweep" array (incremental vs full-rebuild replanning
# throughput), and bench_fault_stream's rows as a "fault_stream" array
# (per-event replan-latency quantiles, cold vs incremental+warm, plus
# coverage retained and makespan stretch over the timeline), and
# bench_serve_fleet's
# row as a "serve" array (plan-server throughput: cold vs warm batch
# over a mixed request fleet, the warm-cache speedup the bench gates
# on, and serial per-request latency quantiles).  Used to record
# BENCH_headline.json data points (locally and from CI), stamped with
# the revision and the recording machine.  Usage:
#   bench_headline_json.sh <path-to-bench_headline> [git-rev] \
#     [path-to-bench_des_replay] [path-to-bench_multistart_perf] \
#     [path-to-bench_search_quality] [path-to-bench_fault_sweep] \
#     [path-to-bench_fault_stream] [path-to-bench_serve_fleet]
set -eu

bin=${1:?usage: bench_headline_json.sh <path-to-bench_headline> [git-rev] [path-to-bench_des_replay] [path-to-bench_multistart_perf] [path-to-bench_search_quality] [path-to-bench_fault_sweep] [path-to-bench_fault_stream] [path-to-bench_serve_fleet]}
rev=${2:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}
des_bin=${3:-}
msp_bin=${4:-}
sq_bin=${5:-}
fs_bin=${6:-}
fst_bin=${7:-}
srv_bin=${8:-}

headline_out=$(mktemp)
trap 'rm -f "$headline_out"' EXIT
"$bin" > "$headline_out"
claims_json=$(awk '
  /^C[0-9]+ / {
    paper = $6; measured = $7; procs = $9
    sub(/%$/, "", paper); sub(/%$/, "", measured); sub(/\)$/, "", procs)
    power = ($3 == "no") ? "none" : $3
    claims[++n] = sprintf(\
      "    {\"id\": \"%s\", \"soc\": \"%s\", \"power_limit\": \"%s\", " \
      "\"paper_pct\": %s, \"measured_pct\": %s, \"at\": \"%s\"}",
      $1, $2, power, paper, measured, procs)
  }
  END {
    if (n == 0) { print "bench_headline_json.sh: no claim rows parsed" > "/dev/stderr"; exit 1 }
    for (i = 1; i <= n; i++) printf "%s%s\n", claims[i], (i < n ? "," : "")
  }' "$headline_out")

des_json=""
if [ -n "$des_bin" ]; then
  # Run the bench to a file first so its exit status is not swallowed
  # by the pipeline (a failing bench must not emit a data point).
  des_out=$(mktemp)
  trap 'rm -f "$headline_out" "$des_out"' EXIT
  "$des_bin" > "$des_out"
  des_json=$(awk '
    /^DESR / {
      rows[++n] = sprintf(\
        "    {\"soc\": \"%s\", \"cpu\": \"%s\", \"events\": %s, \"packets\": %s, " \
        "\"sim_cycles\": %s, \"wall_ms\": %s, \"events_per_sec\": %s}",
        $2, $3, $5, $6, $7, $8, $9)
    }
    END {
      if (n == 0) { print "bench_headline_json.sh: no DESR rows parsed" > "/dev/stderr"; exit 1 }
      for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    }' "$des_out")
fi

msp_json=""
moh_json=""
if [ -n "$msp_bin" ]; then
  msp_out=$(mktemp)
  trap 'rm -f "$headline_out" "${des_out:-}" "$msp_out"' EXIT
  "$msp_bin" > "$msp_out"
  msp_json=$(awk '
    /^MSP / {
      rows[++n] = sprintf(\
        "    {\"soc\": \"%s\", \"procs\": %s, \"orders\": %s, \"jobs\": %s, " \
        "\"wall_ms\": %s, \"orders_per_sec\": %s, \"best_makespan\": %s, \"hw_threads\": %s, " \
        "\"strategy\": \"%s\", \"iters\": %s}",
        $2, $3, $4, $5, $6, $7, $8, $9, $10, $11)
    }
    END {
      if (n == 0) { print "bench_headline_json.sh: no MSP rows parsed" > "/dev/stderr"; exit 1 }
      for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    }' "$msp_out")
  # MOH rows ride in the same bench output (absent from older binaries,
  # so an empty result just omits the section).
  moh_json=$(awk '
    /^MOH / {
      rows[++n] = sprintf(\
        "    {\"soc\": \"%s\", \"procs\": %s, \"orders\": %s, \"disabled_ms\": %s, " \
        "\"enabled_ms\": %s, \"overhead_pct\": %s}",
        $2, $3, $4, $5, $6, $7)
    }
    END {
      for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    }' "$msp_out")
fi

sq_json=""
if [ -n "$sq_bin" ]; then
  sq_out=$(mktemp)
  trap 'rm -f "$headline_out" "${des_out:-}" "${msp_out:-}" "$sq_out"' EXIT
  "$sq_bin" > "$sq_out"
  sq_json=$(awk '
    /^SQ [a-z]/ {
      power = ($4 == "none") ? "\"none\"" : "\"" $4 "\""
      rows[++n] = sprintf(\
        "    {\"soc\": \"%s\", \"procs\": %s, \"power_limit\": %s, \"strategy\": \"%s\", " \
        "\"iters\": %s, \"evals\": %s, \"greedy_makespan\": %s, \"best_makespan\": %s, " \
        "\"improvement_pct\": %s}",
        $2, $3, power, $5, $6, $7, $8, $9, $10)
    }
    END {
      if (n == 0) { print "bench_headline_json.sh: no SQ rows parsed" > "/dev/stderr"; exit 1 }
      for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    }' "$sq_out")
fi

fs_json=""
if [ -n "$fs_bin" ]; then
  fs_out=$(mktemp)
  trap 'rm -f "$headline_out" "${des_out:-}" "${msp_out:-}" "${sq_out:-}" "$fs_out"' EXIT
  "$fs_bin" > "$fs_out"
  fs_json=$(awk '
    /^FS / {
      rows[++n] = sprintf(\
        "    {\"soc\": \"%s\", \"procs\": %s, \"scenarios\": %s, \"rebuilt_avg\": %s, " \
        "\"full_ms\": %s, \"incr_ms\": %s, \"table_speedup\": %s, " \
        "\"replan_full_per_sec\": %s, \"replan_incr_per_sec\": %s}",
        $2, $3, $4, $5, $6, $7, $8, $9, $10)
    }
    END {
      if (n == 0) { print "bench_headline_json.sh: no FS rows parsed" > "/dev/stderr"; exit 1 }
      for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    }' "$fs_out")
fi

fst_json=""
if [ -n "$fst_bin" ]; then
  fst_out=$(mktemp)
  trap 'rm -f "$headline_out" "${des_out:-}" "${msp_out:-}" "${sq_out:-}" "${fs_out:-}" "$fst_out"' EXIT
  "$fst_bin" > "$fst_out"
  fst_json=$(awk '
    /^FST / {
      rows[++n] = sprintf(\
        "    {\"soc\": \"%s\", \"procs\": %s, \"events\": %s, \"covered\": %s, " \
        "\"total\": %s, \"coverage_retained\": %s, \"makespan_stretch\": %s, " \
        "\"cold_p50_ms\": %s, \"cold_p99_ms\": %s, \"incr_p50_ms\": %s, " \
        "\"incr_p99_ms\": %s, \"speedup_p50\": %s}",
        $2, $3, $4, $5, $6, $7, $8, $9, $10, $11, $12, $13)
    }
    END {
      if (n == 0) { print "bench_headline_json.sh: no FST rows parsed" > "/dev/stderr"; exit 1 }
      for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    }' "$fst_out")
fi

srv_json=""
if [ -n "$srv_bin" ]; then
  srv_out=$(mktemp)
  trap 'rm -f "$headline_out" "${des_out:-}" "${msp_out:-}" "${sq_out:-}" "${fs_out:-}" "${fst_out:-}" "$srv_out"' EXIT
  "$srv_bin" > "$srv_out"
  srv_json=$(awk '
    /^SRV / {
      rows[++n] = sprintf(\
        "    {\"requests\": %s, \"distinct_specs\": %s, \"jobs\": %s, " \
        "\"cold_ms\": %s, \"warm_ms\": %s, \"warm_speedup\": %s, " \
        "\"batch_plans_per_sec\": %s, \"warm_p50_us\": %s, \"warm_p99_us\": %s}",
        $2, $3, $4, $5, $6, $7, $8, $9, $10)
    }
    END {
      if (n == 0) { print "bench_headline_json.sh: no SRV rows parsed" > "/dev/stderr"; exit 1 }
      for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    }' "$srv_out")
fi

# The recording machine: CPU model (when the kernel names one),
# architecture and hardware threads, so timings compare like for like.
cpu_model=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
machine="${cpu_model:+$cpu_model, }$(uname -m), $(nproc 2>/dev/null || echo '?') hw threads"
printf '{\n  "bench": "headline",\n  "date": "%s",\n  "rev": "%s",\n  "machine": "%s",\n' \
  "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$rev" "$machine"
printf '  "claims": [\n%s\n  ]' "$claims_json"
if [ -n "$des_json" ]; then
  printf ',\n  "des_replay": [\n%s\n  ]' "$des_json"
fi
if [ -n "$msp_json" ]; then
  printf ',\n  "planner_perf": [\n%s\n  ]' "$msp_json"
fi
if [ -n "$moh_json" ]; then
  printf ',\n  "metrics_overhead": [\n%s\n  ]' "$moh_json"
fi
if [ -n "$sq_json" ]; then
  printf ',\n  "search_quality": [\n%s\n  ]' "$sq_json"
fi
if [ -n "$fs_json" ]; then
  printf ',\n  "fault_sweep": [\n%s\n  ]' "$fs_json"
fi
if [ -n "$fst_json" ]; then
  printf ',\n  "fault_stream": [\n%s\n  ]' "$fst_json"
fi
if [ -n "$srv_json" ]; then
  printf ',\n  "serve": [\n%s\n  ]' "$srv_json"
fi
printf '\n}\n'
