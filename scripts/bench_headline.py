#!/usr/bin/env python3
"""Assemble and gate BENCH_headline.json documents (standard library only).

Every pipeline bench prints each machine row once, as a line
`BENCH_ROW <section> {"key": value, ...}` (bench/bench_row.hpp).

  assemble [--rev REV] BENCH...        run the benches (any order), print the
                                       document with each row copied verbatim;
                                       fails if a bench exits non-zero or
                                       prints no row (metrics_overhead rows
                                       are optional and do not count)
  check-overhead DOC [MAX_PCT]         every metrics_overhead overhead_pct
                                       <= MAX_PCT (default 1.0)
  check-search-quality DOC REFERENCE   every search_quality best_makespan equals
                                       REFERENCE's for the same (soc,
                                       power_limit, strategy, iters); a key
                                       REFERENCE lacks is reported as new
  check-des-replay DOC REFERENCE       every des_replay row's events, packets
                                       and sim_cycles equal REFERENCE's for the
                                       same (soc, cpu), and both documents hold
                                       the same (soc, cpu) rows
"""

import argparse
import json
import os
import subprocess
import sys
import time

TAG = "BENCH_ROW"
SECTIONS = ("claims", "des_replay", "planner_perf", "metrics_overhead",
            "search_quality", "fault_sweep", "fault_stream", "serve")
OPTIONAL = {"metrics_overhead"}


def fail(message):
    sys.exit(f"bench_headline.py: {message}")


def bench_rows(bench):
    """(section, row text) for every tagged line `bench` prints."""
    proc = subprocess.run([bench], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{bench} exited with status {proc.returncode}")
    rows = []
    for line in proc.stdout.splitlines():
        tag, _, rest = line.partition(" ")
        if tag != TAG:
            continue
        section, _, text = rest.partition(" ")
        if section not in SECTIONS:
            fail(f"{bench}: unknown section {section!r}")
        try:
            row = json.loads(text)
        except ValueError:
            row = None
        if not isinstance(row, dict):
            fail(f"{bench}: {section} row is not a JSON object: {text}")
        rows.append((section, text))
    if all(section in OPTIONAL for section, _ in rows):
        fail(f"{bench} printed no {TAG} row")
    return rows


def git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine():
    """CPU model (when the kernel names one), architecture and hardware
    threads, so timings compare like for like."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    fields = line.rstrip("\n").split(": ")
                    model = fields[1] if len(fields) > 1 else ""
                    break
    except OSError:
        pass
    threads = len(os.sched_getaffinity(0))
    return f"{model + ', ' if model else ''}{os.uname().machine}, {threads} hw threads"


def assemble(args):
    sections = {name: [] for name in SECTIONS}
    for bench in args.bench:
        for section, text in bench_rows(bench):
            sections[section].append(text)
    head = [("bench", "headline"),
            ("date", time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
            ("rev", args.rev or git_rev()), ("machine", machine())]
    parts = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in head]
    parts += [f"  {json.dumps(name)}: [\n" + ",\n".join("    " + r for r in rows) + "\n  ]"
              for name, rows in sections.items() if rows]
    print("{\n" + ",\n".join(parts) + "\n}")


def load_section(path, section):
    with open(path, encoding="utf-8") as f:
        rows = json.load(f).get(section, [])
    if not rows:
        fail(f"no {section} rows in {path}")
    return rows


def check_overhead(args):
    bad = 0
    for row in load_section(args.doc, "metrics_overhead"):
        pct = row["overhead_pct"]
        print(f"metrics overhead: {pct}% (max {args.max_pct}%)")
        bad += pct > args.max_pct
    if bad:
        fail(f"{bad} row(s) above {args.max_pct}%")


def check_search_quality(args):
    def key(row):
        return row["soc"], row["power_limit"], row["strategy"], row["iters"]

    reference = {key(row): row["best_makespan"]
                 for row in load_section(args.reference, "search_quality")}
    moved = 0
    for row in load_section(args.doc, "search_quality"):
        soc, power, strategy, iters = key(row)
        label = f"search_quality: {soc} power={power} {strategy} iters={iters}"
        best = row["best_makespan"]
        want = reference.get(key(row))
        if want is None:
            print(f"{label}: new row (no reference), best {best}")
        elif best != want:
            print(f"{label}: best {best} != reference {want}", file=sys.stderr)
            moved += 1
        else:
            print(f"{label}: best {best} OK")
    if moved:
        fail("best makespans moved vs reference")


DES_REPLAY_FIELDS = ("events", "packets", "sim_cycles")


def check_des_replay(args):
    def by_key(path):
        return {(row["soc"], row["cpu"]): row for row in load_section(path, "des_replay")}

    reference = by_key(args.reference)
    fresh = by_key(args.doc)
    bad = 0
    for key in sorted(reference.keys() | fresh.keys()):
        label = f"des_replay: {key[0]} {key[1]}"
        if key not in fresh:
            print(f"{label}: missing from {args.doc}", file=sys.stderr)
            bad += 1
        elif key not in reference:
            print(f"{label}: no reference row in {args.reference}", file=sys.stderr)
            bad += 1
        else:
            moved = [f"{field} {fresh[key][field]} != reference {reference[key][field]}"
                     for field in DES_REPLAY_FIELDS if fresh[key][field] != reference[key][field]]
            if moved:
                print(f"{label}: " + ", ".join(moved), file=sys.stderr)
                bad += 1
            else:
                print(f"{label}: " + ", ".join(f"{field} {fresh[key][field]}"
                                               for field in DES_REPLAY_FIELDS) + " OK")
    if bad:
        fail(f"{bad} des_replay row(s) differ from the reference")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("assemble", help="run benches and print the document")
    p.add_argument("--rev", help="revision to stamp (default: git rev-parse --short HEAD)")
    p.add_argument("bench", nargs="+", help="bench binaries, in any order")
    p.set_defaults(run=assemble)
    p = sub.add_parser("check-overhead", help="gate metrics_overhead overhead_pct")
    p.add_argument("doc")
    p.add_argument("max_pct", nargs="?", type=float, default=1.0)
    p.set_defaults(run=check_overhead)
    p = sub.add_parser("check-search-quality", help="gate search_quality best makespans")
    p.add_argument("doc")
    p.add_argument("reference")
    p.set_defaults(run=check_search_quality)
    p = sub.add_parser("check-des-replay", help="gate des_replay simulated statistics")
    p.add_argument("doc")
    p.add_argument("reference")
    p.set_defaults(run=check_des_replay)
    args = parser.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
