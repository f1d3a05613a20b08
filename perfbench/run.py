#!/usr/bin/env python3
"""Run one knotrho benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload prime-avg --seed 1 --seconds 30 --trace 0

One client sends one query at a time (a closed loop) in this process and
thread.  Queries come in rounds of workloads.ROUND_SIZE; the program's
caches are cleared before each round, and rounds continue while the next
one is expected to fit in --seconds of query time (at least one round
runs).  Every answer is checked afterwards against a computation made
apart from the program (reference.py).  Set-up time is the median over
fresh interpreters that each import knotrho and build the first round's
inputs, half of them started before the queries and half after.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the program's
layers (tracing.py) and prints the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details of the run and the spans of a
traced run are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
# Highest percentile with at least ten of a round's queries beyond it.
TAIL_PERCENTILE = 75


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_probe(workload: str, seed: int) -> float:
    """Import knotrho and build and validate the first round's inputs."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS, load_program

    wl = WORKLOADS[workload]
    kr = load_program(wl.with_cli)
    for spec in wl.specs(seed, 0):
        wl.prepare(kr, spec)
    return time.perf_counter() - t0


def setup_times(workload: str, seed: int, count: int, warm: bool = False) -> list[float]:
    """Set-up times of `count` fresh interpreters; with warm, one unrecorded
    start first writes the bytecode caches."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(count + warm):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        if i or not warm:
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def program_caches() -> list:
    """Every functools cache in a knotrho module."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "knotrho" or name.startswith("knotrho."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    seen[id(value)] = value
    return list(seen.values())


def run_queries(wl, kr, seed: int, seconds: float, tasks, tracer=None):
    """Whole rounds of queries; returns per-query records and rounds run."""
    caches = program_caches()
    records = []
    busy = 0.0
    r = 0
    while True:
        if r:
            tasks = [(spec, wl.prepare(kr, spec)) for spec in wl.specs(seed, r)]
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        round_s = 0.0
        for spec, task in tasks:
            if tracer is not None:
                tracer.query_id = len(records)
            error = answer = None
            t0 = time.perf_counter()
            try:
                answer = wl.query(kr, task)
            except Exception:
                error = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.query_id = -1
            round_s += dt
            records.append({"spec": spec, "answer": answer, "error": error, "latency_s": dt})
        busy += round_s
        r += 1
        if busy + round_s > seconds:
            return records, r


def check_answers(workload: str, records) -> list[str]:
    from reference import CHECKS

    check = CHECKS[workload]
    memo: dict = {}
    problems = []
    for i, rec in enumerate(records):
        if rec["error"] is None:
            for p in check(rec["spec"], rec["answer"], memo):
                problems.append(f"query {i} {summary(rec['spec'])}: {p}")
    return problems


def summary(spec: dict) -> str:
    return json.dumps({k: v for k, v in spec.items() if k != "rows"}, sort_keys=True)


def tail(values: list[float]) -> float:
    """Nearest-rank TAIL_PERCENTILE of the values."""
    ordered = sorted(values)
    return ordered[math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "knotrho", "__init__.py")):
        return fail(f"no knotrho sources under {SRC}")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    wl = WORKLOADS[args.workload]
    # Half the set-up probes run before the queries and half after, so the
    # median samples the machine at two moments.
    setup = [] if args.trace else setup_times(args.workload, args.seed, SETUP_PROBES // 2, warm=True)

    from workloads import load_program

    kr = load_program(wl.with_cli)
    if not os.path.abspath(kr.knotrho.__file__).startswith(SRC + os.sep):
        return fail(f"imported knotrho from {kr.knotrho.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(kr.cli.cli if wl.with_cli else None)
    tasks = [(spec, wl.prepare(kr, spec)) for spec in wl.specs(args.seed, 0)]
    records, rounds = run_queries(wl, kr, args.seed, args.seconds, tasks, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    else:
        setup += setup_times(args.workload, args.seed, SETUP_PROBES - len(setup))

    attempted = len(records)
    failed = sum(1 for r in records if r["error"] is not None)
    problems = check_answers(args.workload, records)
    latencies = [r["latency_s"] for r in records if r["error"] is None]
    if not latencies:
        return fail(f"all {attempted} queries failed; the first: {records[0]['error']}")
    busy = sum(latencies)
    if tracer is not None:
        metrics = tracer.layer_metrics(len(latencies))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "queries_per_s": {"value": len(latencies) / busy, "unit": "queries/s"},
            "query_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "query_tail_ms": {"value": tail(latencies) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    detail = {
        "result": result,
        "rounds": rounds,
        "query_s": busy,
        "queries_per_s": len(latencies) / busy,
        "tail_percentile": TAIL_PERCENTILE,
        "problems": problems,
        "errors": [r["error"] for r in records if r["error"] is not None],
        "queries": [{"spec": summary(r["spec"]), "latency_s": r["latency_s"]} for r in records],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
    for p in problems[:20]:
        print(f"wrong answer: {p}", file=sys.stderr)
    for e in detail["errors"][:5]:
        print(f"failed query: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
