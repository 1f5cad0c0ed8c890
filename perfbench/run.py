#!/usr/bin/env python3
"""mtfr benchmark: one closed-loop client driving the library in-process.

    python3 perfbench/run.py --workload certify_stream --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py and README.md): certify_stream, grid_transform,
cli_session.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it runs half the time untraced and half with every
layer's public functions wrapped, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import metrics as M
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# One BLAS/OpenMP thread (at most nproc): single-threaded runs repeat best
# on a small shared machine.  Set before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1
SETUP_PROBES = 7
# at least 100 ops a run, so that every distinct op repeats
MIN_OPS = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, run the warm-up op, print 'ready' and exit")
    return p.parse_args(argv)


def cap_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_library():
    if not os.path.isfile(os.path.join(SRC, "mtfr", "__init__.py")):
        raise SystemExit(f"error: no mtfr sources under {SRC}")
    sys.path.insert(0, SRC)
    import mtfr

    if not os.path.abspath(mtfr.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported mtfr from {mtfr.__file__}, not {SRC}")


def git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, caps):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": caps,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def setup_probe(args):
    """Wall time of one fresh interpreter from start to the end of the warm-up op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    return elapsed


class SpreadProbes:
    """Set-up probes run between ops, evenly over the timed loop.

    The host's speed changes in spells of a few seconds, so probes made
    back to back all measure one spell; spread over the run, their median
    measures the same mix of spells as the ops.
    """

    def __init__(self, probe, count, seconds):
        self.probe, self.count, self.seconds = probe, count, seconds
        self.times = []

    def __call__(self, elapsed):
        if len(self.times) < self.count and elapsed >= len(self.times) * self.seconds / self.count:
            self.times.append(self.probe())

    def median(self):
        while len(self.times) < self.count:
            self.times.append(self.probe())
        return statistics.median(self.times)


def closed_loop(workload, seconds, run=None, min_ops=0, pause=None):
    """Run ops back to back for ``seconds`` and ``min_ops``, ending on a whole cycle.

    Returns (latencies of all ops, failures, timed wall seconds, gate maxima).
    ``run(op_id, fn, i)`` wraps each op, as the tracer's root span does.
    ``pause(elapsed)`` runs between ops, outside the op timings and the
    timed seconds; ``elapsed`` is the timed seconds so far.
    """
    latencies, failures, gate_max = [], [], {}
    i = 0
    paused = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            gates = run(i, workload.op, i) if run else workload.op(i)
        except Exception as exc:  # every failure is counted; the run goes on
            failures.append((i, f"{type(exc).__name__}: {exc}"))
        else:
            for key, value in gates.items():
                gate_max[key] = max(gate_max.get(key, 0.0), value)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        i += 1
        elapsed = t1 - start - paused
        if elapsed >= seconds and i >= min_ops and i % workload.cycle == 0:
            return latencies, failures, elapsed, gate_max
        if pause is not None:
            pause(elapsed)
            paused += time.perf_counter() - t1


def ops_per_s(latencies, failures, wall):
    return (len(latencies) - len(failures)) / wall


def end_to_end(latencies, failures, setup_s, wl):
    """End-to-end metrics from the fastest repeat of each distinct op.

    Other tenants of a shared host slow every op by a factor that drifts
    over tens of seconds, which moved plain wall-clock medians by up to 30%
    between runs.  Ops with the same ``wl.key(i)`` are the same work, so
    the fastest of their repeats strips that drift.  The latencies are
    those of one period of the op stream, each op at its fastest repeat;
    throughput is the closed-loop rate at those latencies, scaled by the
    share of ops that succeeded.
    """
    fastest = {}
    for i, t in enumerate(latencies):
        key = wl.key(i)
        fastest[key] = min(fastest.get(key, t), t)
    stream = [1e3 * fastest[wl.key(p)] for p in range(min(wl.period, len(latencies)))]
    succeeded = 1.0 - len(failures) / len(latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": succeeded * 1e3 * len(stream) / sum(stream),
        "latency_p50_ms": M.quantile(stream, 0.5),
        "latency_p90_ms": M.quantile(stream, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def wall_clock_note(latencies, failures, wall, wl):
    ms = [1e3 * t for t in latencies]
    repeats = {}
    for i in range(len(ms)):
        repeats[wl.key(i)] = repeats.get(wl.key(i), 0) + 1
    return (f"wall clock: {len(ms)} ops ({len(repeats)} distinct, each run "
            f"{min(repeats.values())} to {max(repeats.values())} times) in {wall:.3f} s: "
            f"{ops_per_s(latencies, failures, wall):.6g} ops/s, "
            f"p50 {M.quantile(ms, 0.5):.6g} ms, p90 {M.quantile(ms, 0.9):.6g} ms")


def report(res):
    """Print the run's metrics by name with units, its failures, then the JSON line."""
    units, attempted, failures = res.units, res.attempted, res.failures
    for note in res.notes:
        print(note)
    for name, value in res.values.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(f"{'fail_ratio':48s} {len(failures) / attempted:14.6g} 1"
          f"  ({len(failures)} of {attempted} ops)")
    for op_id, message in failures[:10]:
        print(f"FAILED op {op_id}: {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res.values.items()},
    }))


@dataclass
class Result:
    """Metrics of one measured run, with the failures it saw."""

    values: dict
    units: dict
    attempted: int
    failures: list
    notes: list
    tracer: object = None


def measure(wl, seconds, trace, probe=None, min_ops=MIN_OPS):
    """Warm up, run the closed loop, and reduce it to the run's metrics.

    Untraced: the end-to-end metrics, with ``setup_s`` the median of
    SETUP_PROBES calls of ``probe()`` spread over the loop.  Traced: half
    the time untraced, half traced; the per-layer metrics come from the
    traced half's spans.
    """
    wl.op(0)  # untimed warm-up
    if not trace:
        probes = SpreadProbes(probe, SETUP_PROBES, seconds)
        lat, failures, wall, _ = closed_loop(wl, seconds, min_ops=min_ops, pause=probes)
        return Result(end_to_end(lat, failures, probes.median(), wl), M.END_TO_END,
                      len(lat), failures, [wall_clock_note(lat, failures, wall, wl)])
    lat_u, fail_u, wall_u, gates_u = closed_loop(wl, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        lat_t, fail_t, wall_t, gates_t = closed_loop(wl, seconds / 2, tracer.run_op)
    finally:
        tracer.uninstall()
    untraced = ops_per_s(lat_u, fail_u, wall_u)
    overhead = ops_per_s(lat_t, fail_t, wall_t) / untraced if untraced else 0.0
    gates = {k: max(gates_u.get(k, 0.0), gates_t.get(k, 0.0))
             for k in set(gates_u) | set(gates_t)}
    return Result(M.layer_metrics(tracer.spans, gates, overhead), M.per_layer_catalog(),
                  len(lat_u) + len(lat_t), fail_u + fail_t,
                  [f"traced ops: {len(lat_t)}; untraced ops: {len(lat_u)}; "
                   f"{len(tracer.spans)} spans"], tracer)


def main(argv=None):
    args = parse_args(argv)
    caps = cap_threads()
    import_library()
    import workloads

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}")
    if args.setup_probe:
        wl = workloads.make(args.workload, args.seed, WORK)
        try:
            wl.op(0)
            print("ready", flush=True)
        finally:
            wl.close()
        return 0

    wl = workloads.make(args.workload, args.seed, WORK)
    try:
        res = measure(wl, args.seconds, args.trace, functools.partial(setup_probe, args))
    finally:
        wl.close()
    if res.tracer is not None:
        spans_path = os.path.join(WORK, f"spans-{args.workload}.jsonl")
        res.tracer.write_jsonl(spans_path)
        res.notes.append(f"spans written to {spans_path}")
    res.notes.insert(0, "provenance: " + json.dumps(provenance(args, caps)))
    report(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
