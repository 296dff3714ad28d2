#!/usr/bin/env python3
"""The benchmark's own quick checks.

    python3 perfbench/selfcheck.py

1. For every workload, the same seed gives byte-identical requests and
   another seed gives different ones.
2. A 1-second run of every workload, in both --trace modes, ends with a
   result line that names every metric BENCHMARK.json lists for that
   mode, with its unit, and says "correct": true.  The run's report
   prints every metric too.
3. A second --trace 0 run of every workload with the same seed repeats
   test_cycles_mean exactly and again fails no request (error_share 0).

Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import gen  # noqa: E402


def fail(message):
    print("selfcheck: FAILED: " + message)
    sys.exit(1)


def check_generator():
    for workload in gen.WORKLOADS:
        a, b, c = gen.generate(workload, 5), gen.generate(workload, 5), gen.generate(workload, 6)
        if a != b:
            fail("%s: seed 5 gave two different workloads" % workload)
        if a == c:
            fail("%s: seeds 5 and 6 gave the same workload" % workload)
        if len(a) % 64:
            fail("%s: %d requests do not fill whole 64-request batches" % (workload, len(a)))
    print("selfcheck: generator is seed-deterministic for %s" % ", ".join(gen.WORKLOADS))


def run(workload, trace):
    """A 1-second run at seed 3; returns (result object, report text)."""
    done = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)], cwd=ROOT,
                          text=True, stdout=subprocess.PIPE)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s --trace %d exited %d" % (workload, trace, done.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s --trace %d: result keys %s" % (workload, trace, sorted(result)))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail("%s --trace %d: %s" % (workload, trace, lines[-1][:300]))
    return result, "\n".join(lines[:-1])


def check_runs():
    """Returns each workload's --trace 0 result."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {}
    for workload in gen.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, report = run(workload, trace)
            if trace == 0:
                end_to_end[workload] = result
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    fail("%s --trace %d: metric %s missing or not in %s"
                         % (workload, trace, metric["name"], metric["unit"]))
                if not isinstance(got["value"], (int, float)):
                    fail("%s --trace %d: metric %s is not a number" % (workload, trace, metric["name"]))
                if metric["name"] not in report:
                    fail("%s --trace %d: report does not print %s" % (workload, trace, metric["name"]))
            print("selfcheck: %s --trace %d prints all %d %s metrics"
                  % (workload, trace, len(spec[section]), section))
    return end_to_end


def check_repeat(first):
    """A second --trace 0 run per workload, same seed: the test time
    repeats exactly and no request fails.  (run() has already checked
    that "failed" is 0, so error_share is 0 both times.)"""
    for workload, result in first.items():
        again, _ = run(workload, 0)
        a = result["metrics"]["test_cycles_mean"]["value"]
        b = again["metrics"]["test_cycles_mean"]["value"]
        if a != b:
            fail("%s: test_cycles_mean %r, then %r with the same seed" % (workload, a, b))
        print("selfcheck: %s repeats test_cycles_mean %r with no failed request" % (workload, a))


if __name__ == "__main__":
    check_generator()
    check_repeat(check_runs())
    print("selfcheck: ok")
