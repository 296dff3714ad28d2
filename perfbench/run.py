#!/usr/bin/env python3
"""Plan-server benchmark: drives `nocsched_cli --serve` with a seeded
JSONL request stream and reports end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload greedy_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the repository root.  It builds the server and the traced
layer-replay program from source first (CMake, into
$CARGO_TARGET_DIR/perfbench or .bench_build/perfbench).

--trace 0 measures end to end, with no tracing: set-up, an interactive
phase (one outstanding request, --serve-batch 1 --jobs 1) and a stream
phase (the whole workload through one --serve at the default batch and
--jobs 2).  --trace 1 replays the same requests through each layer's
public functions in perfbench_layers and reports per-layer figures.
Either way every reply is checked: each request is answered exactly
once, in order, with the same bytes in every phase and in the traced
run's Engine::run, and no request fails.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it are a readable report with provenance and quartiles.  A
failed check prints "correct": false and exits 1.  --workload all runs
every workload in both modes and exits 1 if any check failed.
"""

import argparse
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import gen  # noqa: E402

# Server spawns timed for setup_s; the median is reported.  A third
# come before the interactive phase, a third between it and the stream
# phase and a third after, so a burst of other load meets only a part.
SETUPS = 39
MIN_PASSES = 3  # passes per phase at least, so per-request medians exist
STREAM_JOBS = 2  # stream-phase server workers: 2 client threads + 2 fit 4 CPUs
# The server's default --serve-batch.  The traced run reports the batch
# of engine::ServeOptions{}, and a mismatch fails the run.
BATCH = 64


CPUS = sorted(os.sched_getaffinity(0))


def interactive_cpus(k):
    """CPU set for the client and the server in interactive block (or
    set-up spawn) k.  Both share one CPU: a ping-pong across CPUs pays a
    cross-CPU wake-up whose cost swings with where the scheduler puts the
    two, which made latency bimodal.  The CPU rotates from one block of
    BATCH requests to the next, and a request's block lands on another
    CPU in every pass, so a CPU slowed by other load touches a request in
    at most one pass of three, and the per-request median drops it."""
    return {CPUS[k % len(CPUS)]}


def stream_cpus(k):
    """(server CPUs, client CPUs) for stream pass k: two CPUs each,
    swapping halves from pass to pass for the same reason."""
    if len(CPUS) < 4:
        return set(CPUS), set(CPUS)
    half = 2 * (k % 2)
    server = {CPUS[half], CPUS[half + 1]}
    return server, set(CPUS) - server


def pin(tid, cpus):
    try:
        os.sched_setaffinity(tid, cpus)
    except OSError:  # the thread or process has already exited
        pass


class CheckFailed(Exception):
    """A reply was missing, out of order, failed, or differed between phases."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build the server and perfbench_layers; return the
    build directory.  Exits 2 when the sources are missing or the
    build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no nocsched sources in %s; run from a full checkout" % ROOT)
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", BENCH, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs]):
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: %s" % " ".join(cmd))
            sys.exit(2)
    return out


# ---------------------------------------------------------- statistics


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(round(p / 100.0 * len(sorted_values) + 0.5)) - 1))
    return sorted_values[k]


def stat(value, unit, samples, n=None):
    """A metric with the quartiles of the values it summarizes; `n` is
    the raw sample count when that differs from len(samples)."""
    q1, med, q3 = quartiles(samples)
    return {"value": value, "unit": unit, "n": len(samples) if n is None else n, "q1": q1,
            "median": med, "q3": q3}


# -------------------------------------------------------------- replies


def check_replies(lines, replies, phase):
    """Every request answered once, in order (by id); returns the parsed
    replies.  Raises CheckFailed otherwise."""
    if len(replies) != len(lines):
        raise CheckFailed("%s: %d replies to %d requests" % (phase, len(replies), len(lines)))
    parsed = []
    for i, (line, reply) in enumerate(zip(lines, replies)):
        want = json.loads(line)["id"]
        try:
            got = json.loads(reply)
        except ValueError:
            raise CheckFailed("%s: reply %d is not JSON: %r" % (phase, i, reply[:200]))
        if got.get("id") != want:
            raise CheckFailed("%s: reply %d answers %r, expected %r" % (phase, i, got.get("id"), want))
        parsed.append(got)
    return parsed


def outcome(parsed):
    """(errors, makespans of ok results) of one pass."""
    errors = 0
    makespans = []
    for r in parsed:
        if not r.get("ok") or r.get("cross_check_ok") is False:
            errors += 1
        else:
            makespans.append(r["makespan"])
    return errors, makespans


def same_bytes(reference, other, phase):
    if other == reference:
        return
    for i, (a, b) in enumerate(zip(reference, other)):
        if a != b:
            raise CheckFailed("%s: reply %d differs\n  %s\n  %s" % (phase, i, a, b))
    raise CheckFailed("%s: %d replies vs %d" % (phase, len(other), len(reference)))


# --------------------------------------------------------------- server


class Server:
    """One `nocsched_cli --serve` child, always reaped (rusage kept).
    Requests go down an unbuffered pipe, so each write reaches the server
    at once.  Replies come back through a buffered reader: readline() on
    the raw pipe reads one byte per system call, which cost about 80 us
    a reply and made the client, not the server, the bottleneck."""

    def __init__(self, cli, flags, cpus):
        self.proc = subprocess.Popen([cli, "--serve"] + flags, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, bufsize=0,
                                     preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self.out = io.BufferedReader(self.proc.stdout, 1 << 16)
        self.rusage = None

    def ask(self, line):
        self.proc.stdin.write(line)
        return self.out.readline()

    def close(self):
        """Close stdin, reap the child, and return its exit code."""
        if self.rusage is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.out.close()
        return self.proc.returncode

    def stop(self):
        """SIGKILL the child; close() reaps it.  (Not Popen.kill, which
        may reap the child itself and leave wait4 nothing to wait for.)"""
        if self.rusage is None:
            os.kill(self.proc.pid, signal.SIGKILL)

    def kill(self):
        self.stop()
        self.close()


def setup_requests(lines):
    """One greedy request per distinct system, in first-use order."""
    keys = ("soc", "soc_file", "cpu", "procs", "mesh")
    seen = []
    for line in lines:
        req = json.loads(line)
        system = {k: req[k] for k in keys if k in req}
        if system not in seen:
            seen.append(system)
    return [(json.dumps(dict({"id": "setup-%d" % i}, **s), separators=(",", ":")) + "\n").encode()
            for i, s in enumerate(seen)]


def spawn_and_setup(cli, setup, k):
    """Start an interactive server and answer one greedy request per
    system, client and server on the k-th interactive CPU; returns
    (server, seconds)."""
    pin(0, interactive_cpus(k))
    t0 = time.perf_counter()
    server = Server(cli, ["--serve-batch", "1", "--jobs", "1"], interactive_cpus(k))
    try:
        for i, line in enumerate(setup):
            reply = json.loads(server.ask(line) or "{}")
            if reply.get("id") != "setup-%d" % i or not reply.get("ok"):
                raise CheckFailed("setup: bad reply %r to %r" % (reply, line))
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - t0


def setup_times(cli, setup, first, count):
    """Set-up times of `count` spawns, from the `first`-th on."""
    times = []
    for k in range(first, first + count):
        server, took = spawn_and_setup(cli, setup, k)
        times.append(took)
        if server.close() != 0:
            raise CheckFailed("setup: server exited %s" % server.proc.returncode)
    return times


def interactive(server, lines, seconds):
    """Closed loop with one outstanding request: whole passes, at least
    MIN_PASSES, until `seconds` have passed.  Returns (per-pass lists of
    latencies in ms, first-pass replies)."""
    encoded = [(l + "\n").encode() for l in lines]
    passes = []
    first = None
    end = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < end:
        replies = []
        latencies = []
        for i, line in enumerate(encoded):
            if i % BATCH == 0:
                cpus = interactive_cpus(i // BATCH + len(passes))
                pin(0, cpus)
                pin(server.proc.pid, cpus)
            t0 = time.perf_counter_ns()
            reply = server.ask(line)
            latencies.append((time.perf_counter_ns() - t0) / 1e6)
            replies.append(reply.decode().rstrip("\n"))
        passes.append(latencies)
        if first is None:
            first = replies
        else:
            same_bytes(first, replies, "interactive pass")
    return passes, first


def stream(cli, lines, seconds):
    """The whole workload, pass after pass, through one --serve at the
    default batch while a second thread writes.  Returns (per-pass lists
    of batch times in s, first-pass replies, replies, server rusage).
    A batch's time runs from the previous batch's first reply to its own
    first reply; the first pass is the warm-up and is left out."""
    if len(lines) % BATCH:
        raise CheckFailed("a pass of %d requests does not split into %d-request batches"
                          % (len(lines), BATCH))
    payload = ("\n".join(lines) + "\n").encode()
    server_cpus, client_cpus = stream_cpus(0)
    server = Server(cli, ["--jobs", str(STREAM_JOBS)], server_cpus)
    pin(0, client_cpus)
    written = [0]
    failure = []
    writer_tid = []

    def writer():
        writer_tid.append(threading.get_native_id())
        end = time.perf_counter() + seconds
        try:
            while written[0] < MIN_PASSES + 1 or time.perf_counter() < end:
                server.proc.stdin.write(payload)
                written[0] += 1
        except OSError as e:  # the server died; the reader reports it
            failure.append(e)
        finally:
            try:
                server.proc.stdin.close()
            except OSError:
                pass

    thread = threading.Thread(target=writer)
    thread.start()
    n = len(lines)
    first = []
    batch_starts = []
    answered = 0
    try:
        for raw in server.out:
            if answered % BATCH == 0:
                batch_starts.append(time.perf_counter())
            if answered % n == 0 and answered:
                # The server runs about one batch ahead of this reader.
                server_cpus, client_cpus = stream_cpus(answered // n)
                pin(server.proc.pid, server_cpus)
                for tid in [0] + writer_tid:
                    pin(tid, client_cpus)
            reply = raw.decode().rstrip("\n")
            k = answered % n
            if answered < n:
                first.append(reply)
            elif reply != first[k]:
                raise CheckFailed("stream: pass %d reply %d differs from pass 0\n  %s\n  %s"
                                  % (answered // n, k, first[k], reply))
            answered += 1
    except BaseException:
        # Nothing reads the server's stdout any more, so once that pipe
        # fills the server stops reading and the writer blocks.  Killing
        # the server first gives the writer a broken pipe; then join it.
        server.stop()
        thread.join()
        server.close()
        raise
    thread.join()
    code = server.close() if not failure else (server.kill() or 1)
    if code != 0 or failure:
        raise CheckFailed("stream: server exited %s (%s)" % (code, failure))
    if answered != written[0] * n:
        raise CheckFailed("stream: %d replies to %d requests" % (answered, written[0] * n))
    per_pass = n // BATCH
    times = [b - a for a, b in zip(batch_starts, batch_starts[1:])]
    passes = [times[p * per_pass - 1:(p + 1) * per_pass - 1]
              for p in range(1, answered // n)]
    return passes, first, answered, server.rusage


def per_position_median(passes):
    """Element-wise median across passes: each request's (or batch's)
    typical time, robust to contention bursts that hit fewer than half
    of the passes."""
    return [statistics.median(column) for column in zip(*passes)]


# ------------------------------------------------------------- provenance


def provenance(build, flags):
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        rev = ""
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    nproc = os.cpu_count() or 1
    cores = json.loads(subprocess.run([os.path.join(build, "perfbench_layers"), "--cores", str(nproc)],
                                      check=True, text=True, stdout=subprocess.PIPE).stdout)
    return {"rev": rev or "unknown", "src_sha256": digest.hexdigest()[:16], "nproc": nproc,
            "effective_cores": round(cores["effective_cores"], 3),
            "one_thread_loop_ms": round(cores["one_thread_us"] / 1e3, 3), "server_flags": flags,
            "cpus": CPUS}


# --------------------------------------------------------------- phases


def end_to_end(build, work, lines, seconds):
    """--trace 0: returns (metrics with stats, attempted, failed,
    error share, flags)."""
    cli = os.path.join(build, "nocsched_cli")
    setup = setup_requests(lines)
    third = SETUPS // 3
    setups = setup_times(cli, setup, 0, third - 1)
    # The last spawn before the interactive phase serves it.
    server, took = spawn_and_setup(cli, setup, third - 1)
    setups.append(took)
    try:
        inter_passes, inter_first = interactive(server, lines, 0.5 * seconds)
    except BaseException:
        server.kill()
        raise
    code = server.close()
    if code != 0:
        raise CheckFailed("interactive: server exited %s" % code)
    setups += setup_times(cli, setup, third, third)
    batch_passes, stream_first, answered, rusage = stream(cli, lines, 0.4 * seconds)
    setups += setup_times(cli, setup, 2 * third, SETUPS - 2 * third)
    pin(0, set(CPUS))

    engine_out = os.path.join(work, "engine.jsonl")
    done = subprocess.run([os.path.join(build, "perfbench_layers"), "--results-only", "--requests",
                           os.path.join(work, "requests.jsonl"), "--results", engine_out])
    if done.returncode != 0:
        raise CheckFailed("perfbench_layers --results-only exited %d" % done.returncode)
    with open(engine_out) as f:
        engine_first = f.read().splitlines()

    parsed = check_replies(lines, stream_first, "stream")
    check_replies(lines, inter_first, "interactive")
    check_replies(lines, engine_first, "Engine::run")
    same_bytes(stream_first, inter_first, "interactive vs stream")
    same_bytes(stream_first, engine_first, "Engine::run vs stream")
    errors, makespans = outcome(parsed)

    n = len(lines)
    lat = sorted(per_position_median(inter_passes))
    lat_samples = len(inter_passes) * n
    pass_rates = [n / sum(p) for p in batch_passes]
    cpu_ms = (rusage.ru_utime + rusage.ru_stime) * 1e3 / answered
    rss_mb = rusage.ru_maxrss / 1024.0
    sent = lat_samples + answered
    metrics = {
        "setup_s": stat(statistics.median(setups), "s", setups),
        "latency_p50_ms": stat(statistics.median(lat), "ms", lat, lat_samples),
        "latency_p99_ms": stat(percentile(lat, 99), "ms", lat, lat_samples),
        "throughput_rps": stat(n / sum(per_position_median(batch_passes)), "1/s", pass_rates),
        "cpu_ms_per_req": stat(cpu_ms, "ms", [cpu_ms], answered),
        "peak_rss_mb": stat(rss_mb, "MB", [rss_mb]),
        "test_cycles_mean": stat(statistics.fmean(makespans), "cycles", makespans),
    }
    flags = {"interactive": "--serve --serve-batch 1 --jobs 1",
             "stream": "--serve --jobs %d (default batch %d and cache)" % (STREAM_JOBS, BATCH),
             "setups": SETUPS, "interactive_passes": len(inter_passes),
             "stream_passes": answered // n}
    return metrics, sent, errors * (sent // n), errors / n, flags


def traced(build, work, lines, seconds):
    """--trace 1: returns (metrics with stats, attempted, failed, error
    share, flags, layer shares, probed layers)."""
    results = os.path.join(work, "engine.jsonl")
    done = subprocess.run([os.path.join(build, "perfbench_layers"), "--requests",
                           os.path.join(work, "requests.jsonl"),
                           "--results", results, "--seconds", str(0.8 * seconds)],
                          text=True, stdout=subprocess.PIPE,
                          preexec_fn=lambda: os.sched_setaffinity(0, stream_cpus(0)[0]))
    if done.returncode != 0:
        raise CheckFailed("perfbench_layers exited %d" % done.returncode)
    report = json.loads(done.stdout)
    if (report["batch"], report["jobs"]) != (BATCH, STREAM_JOBS):
        raise CheckFailed("perfbench_layers ran batch %d, jobs %d; the stream phase assumes %d, %d"
                          % (report["batch"], report["jobs"], BATCH, STREAM_JOBS))
    with open(results) as f:
        engine_first = f.read().splitlines()
    served = subprocess.run([os.path.join(build, "nocsched_cli"), "--serve", "--jobs",
                             str(STREAM_JOBS)], cwd=ROOT, input="\n".join(lines) + "\n", text=True,
                            stdout=subprocess.PIPE)
    if served.returncode != 0:
        raise CheckFailed("serve exited %d" % served.returncode)
    stream_first = served.stdout.splitlines()
    parsed = check_replies(lines, stream_first, "stream")
    check_replies(lines, engine_first, "Engine::run")
    same_bytes(stream_first, engine_first, "Engine::run vs stream")
    errors, _ = outcome(parsed)
    metrics = report["metrics"]
    flags = {"traced": "perfbench_layers: jobs %(jobs)d, batch %(batch)d, cache %(cache)d" % report,
             "traced_passes": report["passes"]}
    sent = len(lines) * (report["passes"] + 1)
    return metrics, sent, errors * (report["passes"] + 1), errors / len(lines), flags, \
        report["shares"], report["probed"]


# The layer groups each workload exists to load (README.md).
RATIONALE = {"greedy_hot": ("plan", "validate", "engine"), "search_budget": ("search",),
             "simulate_replay": ("des",), "fault_churn": ("build", "replan")}


def rationale(workload, shares):
    """Whether the workload's named layers take the largest share."""
    mine = sum(shares.get(g, 0.0) for g in RATIONALE[workload])
    others = [v for g, v in shares.items() if g not in RATIONALE[workload]]
    return mine > 0.5 or mine > max(others, default=0.0)


# ----------------------------------------------------------------- main

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(build, workload, seed, seconds, trace):
    """One run; returns (result object, report dict)."""
    work = os.path.join(build, "runs", "%s-%d-%d-%d" % (workload, seed, trace, os.getpid()))
    os.makedirs(work, exist_ok=True)
    lines = gen.generate(workload, seed)
    with open(os.path.join(work, "requests.jsonl"), "w") as f:
        f.write("\n".join(lines) + "\n")
    spec = load_benchmark()
    wanted = spec["per_layer" if trace else "end_to_end"]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "requests_per_pass": len(lines)}
    try:
        if trace:
            metrics, sent, failed, error_share, flags, shares, probed = traced(build, work, lines,
                                                                              seconds)
            record["shares"] = shares
            record["probed_layers"] = probed
            record["rationale_confirmed"] = rationale(workload, shares)
        else:
            metrics, sent, failed, error_share, flags = end_to_end(build, work, lines, seconds)
        record["error_share"] = error_share
        correct = failed == 0
        if not correct:
            record["check"] = "%d failed requests" % failed
    except CheckFailed as e:
        log("perfbench: check failed: %s" % e)
        record["check"] = str(e)
        metrics, sent, failed, correct, flags = {}, len(lines), len(lines), False, {}
    pin(0, set(CPUS))
    record["provenance"] = provenance(build, flags)
    record["metrics"] = metrics
    out = {"correct": correct, "attempted": sent, "failed": failed,
           "metrics": {m["name"]: {"value": metrics.get(m["name"], {}).get("value", 0.0),
                                   "unit": m["unit"]} for m in wanted}}
    with open(os.path.join(build, "runs", "%s-%d-trace%d.json" % (workload, seed, trace)), "w") as f:
        json.dump(dict(record, result=out), f, indent=1)
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    os.rmdir(work)
    return out, record


def report(record):
    """The readable report: provenance, then one row per metric."""
    lines = ["perfbench %(workload)s seed=%(seed)d seconds=%(seconds)s trace=%(trace)d "
             "requests/pass=%(requests_per_pass)d" % record,
             "provenance " + json.dumps(record["provenance"], sort_keys=True)]
    if "error_share" in record:
        lines.append("error_share %.6f" % record["error_share"])
    if "shares" in record:
        lines.append("layer shares " + json.dumps({k: round(v, 4) for k, v in record["shares"].items()}))
        lines.append("probed (not on this workload's path): " + (", ".join(record["probed_layers"]) or "none"))
        lines.append("rationale %s" % ("confirmed" if record["rationale_confirmed"] else "NOT confirmed"))
    if "check" in record:
        lines.append("CHECK FAILED: " + record["check"])
    lines.append("%-32s %14s %-7s %8s %14s %14s %14s" % ("metric", "value", "unit", "n", "q1", "median", "q3"))
    for name, m in sorted(record["metrics"].items()):
        q = [("%14.6g" % m[k]) if k in m else "%14s" % "-" for k in ("q1", "median", "q3")]
        lines.append("%-32s %14.6g %-7s %8s %s" % (name, m["value"], m["unit"], m.get("n", "-"), " ".join(q)))
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build_path = build()
    if args.workload != "all":
        out, record = run_one(build_path, args.workload, args.seed, args.seconds, args.trace)
        print(report(record))
        print(json.dumps(out))
        return 0 if out["correct"] else 1
    ok = True
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            out, record = run_one(build_path, workload, args.seed, args.seconds, trace)
            print(report(record))
            print()
            ok = ok and out["correct"]
    print("all workloads: %s" % ("correct" if ok else "CHECK FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
