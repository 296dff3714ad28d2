#!/usr/bin/env python3
"""Tests for scripts/bench_headline.py: a document assembled from live
benches has BENCH_headline.json's shape and passes the search-quality
gate against the committed file, and each gate fails on its fixture.

  bench_pipeline_test.py [--bench-headline BIN --bench-search-quality BIN]
                         [unittest args, e.g. PipelineTest.test_overhead_gate]

The live-document test needs both bench binaries and fails without them.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SCRIPT = os.path.join(REPO, "scripts", "bench_headline.py")
COMMITTED = os.path.join(REPO, "BENCH_headline.json")
FIXTURES = os.path.join(HERE, "fixtures")
BENCHES = {}


def run(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def ordered(text):
    """The JSON document with every object as a list of (key, value)."""
    return json.loads(text, object_pairs_hook=list)


class PipelineTest(unittest.TestCase):
    def assert_fails(self, proc, message):
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn(message, proc.stderr)

    def test_live_document(self):
        if not BENCHES:
            self.fail("needs --bench-headline and --bench-search-quality")
        # Reverse of the section order: every row names its section.
        proc = run("assemble", "--rev", "test", BENCHES["search_quality"], BENCHES["headline"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        doc = dict(ordered(proc.stdout))
        self.assertEqual(list(doc), ["bench", "date", "rev", "machine", "claims",
                                     "search_quality"])
        self.assertEqual(doc["bench"], "headline")
        self.assertEqual(doc["rev"], "test")
        self.assertRegex(doc["date"], r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ$")
        self.assertRegex(doc["machine"], r"(^|, )[^,]+, \d+ hw threads$")
        with open(COMMITTED, encoding="utf-8") as f:
            committed = dict(ordered(f.read()))
        for section, count in (("claims", 3), ("search_quality", 18)):
            self.assertEqual(len(doc[section]), count)
            want_keys = [k for k, _ in committed[section][0]]
            for row in doc[section]:
                self.assertEqual([k for k, _ in row], want_keys)
        # One row per line, four-space indented, in the section's array.
        lines = proc.stdout.splitlines()
        self.assertEqual(lines[0], "{")
        self.assertEqual(lines[5], '  "claims": [')
        self.assertEqual(sum(re.match(r"^    \{.*\},?$", l) is not None for l in lines), 21)
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            f.write(proc.stdout)
        try:
            gate = run("check-search-quality", f.name, COMMITTED)
        finally:
            os.unlink(f.name)
        self.assertEqual(gate.returncode, 0, gate.stderr)
        self.assertEqual(gate.stdout.count(": best "), 18)
        self.assertEqual(gate.stdout.count(" OK\n"), 18)

    def test_search_quality_gate_fails_on_moved_best_makespan(self):
        proc = run("check-search-quality", os.path.join(FIXTURES, "moved_best_makespan.json"),
                   COMMITTED)
        self.assert_fails(proc, "d695 power=0.5 anneal iters=256: best 125156 != reference 125148")
        self.assertIn("best makespans moved vs reference", proc.stderr)

    def test_search_quality_gate_tolerates_new_row(self):
        doc = {"search_quality": [{"soc": "d695", "procs": 6, "power_limit": "none",
                                   "strategy": "restart", "iters": 512, "best_makespan": 1}]}
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
        try:
            proc = run("check-search-quality", f.name, COMMITTED)
        finally:
            os.unlink(f.name)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("new row (no reference), best 1", proc.stdout)

    def test_des_replay_gate_passes_on_match(self):
        proc = run("check-des-replay", COMMITTED, COMMITTED)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stdout.count(" OK\n"), 6)
        self.assertIn("des_replay: d695 leon: events 12716, packets 2018, sim_cycles 116965 OK",
                      proc.stdout)

    def test_des_replay_gate_fails_on_moved_statistic(self):
        proc = run("check-des-replay", os.path.join(FIXTURES, "moved_des_replay.json"),
                   COMMITTED)
        self.assert_fails(proc, "des_replay: p22810 plasma: events 87603 != reference 87602")
        self.assertIn("1 des_replay row(s) differ from the reference", proc.stderr)

    def test_des_replay_gate_fails_on_missing_row(self):
        with open(COMMITTED, encoding="utf-8") as f:
            doc = json.load(f)
        doc["des_replay"] = [row for row in doc["des_replay"]
                             if (row["soc"], row["cpu"]) != ("p93791", "leon")]
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
        try:
            missing = run("check-des-replay", f.name, COMMITTED)
            extra = run("check-des-replay", COMMITTED, f.name)
        finally:
            os.unlink(f.name)
        self.assert_fails(missing, "des_replay: p93791 leon: missing from")
        self.assert_fails(extra, "des_replay: p93791 leon: no reference row in")

    def test_overhead_gate(self):
        self.assertEqual(run("check-overhead", COMMITTED).returncode, 0)
        over = os.path.join(FIXTURES, "overhead_over_limit.json")
        self.assert_fails(run("check-overhead", over), "1 row(s) above 1.0%")
        self.assertEqual(run("check-overhead", over, "2.0").returncode, 0)

    def test_assembly_fails_on_bench_without_rows(self):
        bench = os.path.join(FIXTURES, "no_row_bench.sh")
        self.assert_fails(run("assemble", bench), f"{bench} printed no BENCH_ROW row")

    def test_assembly_fails_on_failing_bench(self):
        bench = os.path.join(FIXTURES, "failing_bench.sh")
        proc = run("assemble", bench)
        self.assert_fails(proc, f"{bench} exited with status 1")
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--bench-headline")
    parser.add_argument("--bench-search-quality")
    known, rest = parser.parse_known_args()
    if known.bench_headline and known.bench_search_quality:
        BENCHES.update(headline=known.bench_headline,
                       search_quality=known.bench_search_quality)
    unittest.main(argv=[sys.argv[0], *rest])
