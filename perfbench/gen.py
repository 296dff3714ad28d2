"""Seeded request-stream generator for the plan-server benchmark.

generate(workload, seed) returns one pass of a workload as JSONL request
lines for `nocsched_cli --serve`.  The same (workload, seed) always gives
the same bytes.  Each workload's mix of systems, power limits and request
kinds is a fixed quota; the seed draws the order, the ids of the random
SoCs, the search seeds and the faults.  That keeps the work per pass, and
so the measured figures, close from seed to seed.

Every request shape emitted here is one the server answers ok.  Two
shapes are avoided on purpose (README.md has the repros):
  * a power limit below the largest single core, e.g. rand:2 with
    procs 0 at power 50 ("needs 959.571 but the budget is 911.1"):
    random SoCs only get power limits of 90 and up, the built-in SoCs
    only levels checked feasible for them;
  * a fault set that combines a link and a router, which makes the
    replanner stick at t=0: each fault request fails links, routers or
    processors, never two kinds at once.

Run `python3 perfbench/gen.py WORKLOAD SEED` to print a pass.
"""

import json
import random
import sys

BUILTINS = ("d695", "p22810", "p93791")
CPUS = ("leon", "plasma")
# Module count of each built-in SoC (processors are appended after them)
# and its mesh (columns, rows) in the paper system.
BUILTIN_MODULES = {"d695": 10, "p22810": 28, "p93791": 32}
BUILTIN_MESH = {"d695": (4, 4), "p22810": (5, 6), "p93791": (5, 5)}
# The committed ITC'02 files and the meshes fault_churn places them on.
SOC_FILES = {"data/d695.soc": ("d695", ((4, 4), (5, 5))),
             "data/p22810.soc": ("p22810", ((6, 6), (7, 6))),
             "data/p93791.soc": ("p93791", ((6, 6), (7, 7)))}
BUILTIN_POWER = (60, 75, 90)  # percent of total power, feasible everywhere
RAND_POWER = (90, 95)  # random SoCs can have one dominant core
RAND_IDS = 1 << 20
# Requests per pass: a multiple of the server's 64-request batch, so a
# stream of passes splits into the same batches every pass, and large
# enough that a p99 has ten requests above it.
PASS = 1024

WORKLOADS = ("greedy_hot", "search_budget", "simulate_replay", "fault_churn")


def _line(req):
    return json.dumps(req, separators=(",", ":"))


def _system(soc, cpu, procs):
    return {"soc": soc, "cpu": cpu, "procs": procs}


def _rand_socs(rng, count):
    return ["rand:%d" % i for i in rng.sample(range(RAND_IDS), count)]


def _quotas(total, weights):
    """Integer counts summing to `total`, proportional to `weights`
    (largest remainder)."""
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(r) for r in raw]
    by_rest = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in by_rest[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _power(system, k):
    """The k-th power level for a system, cycling its feasible levels."""
    levels = RAND_POWER if system["soc"].startswith("rand:") else BUILTIN_POWER
    return levels[k % len(levels)]


def _with_ids(workload, requests):
    return [_line(dict({"id": "%s-%d" % (workload, i)}, **r)) for i, r in enumerate(requests)]


def greedy_hot(rng):
    """Greedy plans over 24 hot systems with a Zipf popularity mix."""
    # Popularity ranks: the two mid-cost SoCs lead, so the median
    # latency falls inside their cluster rather than on the edge between
    # the cheap d695 plans and the rest.
    hot = [_system(s, c, p) for p in (2, 4, 1) for c in CPUS for s in ("p22810", "p93791", "d695")]
    hot += [_system(s, CPUS[i % 2], 2) for i, s in enumerate(_rand_socs(rng, 6))]
    counts = _quotas(PASS, [1.0 / (rank + 1) for rank in range(len(hot))])
    requests = []
    for system, count in zip(hot, counts):
        for k in range(count):
            req = dict(system)
            if k % 3 == 2:
                req["power"] = _power(system, k // 3)
            requests.append(req)
    rng.shuffle(requests)
    return requests


def search_budget(rng):
    """anneal/local/restart searches with explicit budgets and seeds on
    the built-in SoCs and two random ones, half of them power-limited."""
    systems = [(_system(s, c, p), 80) for s in BUILTINS for c in CPUS for p in (2, 4)]
    systems += [(_system(s, CPUS[i % 2], 2 + 2 * i), 32) for i, s in enumerate(_rand_socs(rng, 2))]
    strategies = ("anneal", "local", "restart")
    iters = (16, 32, 64, 128)
    seeds = iter(rng.sample(range(1 << 32), sum(n for _, n in systems)))
    requests = []
    for system, count in systems:
        for k in range(count):
            req = dict(system, search=strategies[k % 3], iters=iters[k % 4], seed=next(seeds))
            if k % 2 == 1:
                req["power"] = _power(system, k // 2)
            requests.append(req)
    rng.shuffle(requests)
    return requests


def simulate_replay(rng):
    """Plans replayed on the flit-level simulator, 12 hot systems."""
    # d695 (the fastest replays) takes 60% of the requests, so the
    # median latency falls inside its procs-4 cluster, not on the edge
    # between it and the ~5x slower p93791/p22810 replays.
    hot = [_system(s, c, p) for p in (2, 4) for s in BUILTINS for c in CPUS]
    counts = _quotas(PASS, [3 if s["soc"] == "d695" else 1 for s in hot])
    requests = []
    for system, count in zip(hot, counts):
        for k in range(count):
            req = dict(system, simulate=True)
            if k % 3 == 2:
                req["power"] = _power(system, k // 3)
            requests.append(req)
    rng.shuffle(requests)
    return requests


def _fault(rng, kind, cols, rows, modules, procs):
    """One fault set of a single kind on a cols x rows mesh whose
    processors are modules modules+1 .. modules+procs."""
    if kind == "procs":
        return {"procs": [modules + rng.randrange(1, procs + 1)]}
    if kind == "routers":
        # Never an ATE port router: the inputs sit at router 0 and the
        # outputs at the last router, and losing either leaves nothing
        # to test.
        return {"routers": [rng.randrange(1, cols * rows - 1)]}
    x, y = rng.randrange(cols), rng.randrange(rows)
    if rng.random() < 0.5 and cols > 1:
        x = min(x, cols - 2)
        other = (x + 1, y)
    else:
        y = min(y, rows - 2)
        other = (x, y + 1)
    a, b = y * cols + x, other[1] * cols + other[0]
    if rng.random() < 0.5:
        a, b = b, a
    return {"links": ["%d:%d" % (a, b)]}


def fault_churn(rng):
    """Greedy and fault requests cycling over 36 systems, more than the
    server's 32 cached contexts, so every request builds its context."""
    systems = []
    for s in BUILTINS:
        for c in CPUS:
            for p in (1, 2, 3, 4):
                cols, rows = BUILTIN_MESH[s]
                systems.append((_system(s, c, p), cols, rows, BUILTIN_MODULES[s]))
    for path, (name, meshes) in SOC_FILES.items():
        for cols, rows in meshes:
            for c, p in (("leon", 2), ("plasma", 4)):
                system = {"soc_file": path, "cpu": c, "procs": p, "mesh": "%dx%d" % (cols, rows)}
                systems.append((system, cols, rows, BUILTIN_MODULES[name]))
    rng.shuffle(systems)
    kinds = ("greedy", "links", "procs", "routers")
    requests = []
    for n in range(PASS):
        cycle, i = divmod(n, len(systems))
        system, cols, rows, modules = systems[i]
        kind = kinds[(cycle + i) % len(kinds)]
        req = dict(system)
        if kind != "greedy":
            req["faults"] = _fault(rng, kind, cols, rows, modules, system["procs"])
        requests.append(req)
    return requests


def generate(workload, seed):
    """One pass of `workload` for `seed`: a list of JSONL lines."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (expected one of %s)" % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (workload, seed))
    return _with_ids(workload, globals()[workload](rng))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: gen.py WORKLOAD SEED")
    for line in generate(sys.argv[1], int(sys.argv[2])):
        print(line)
