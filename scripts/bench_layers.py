#!/usr/bin/env python3
"""Per-layer timings of knotrho's exact knot averages, as JSON.

    PYTHONPATH=old/src python3 scripts/bench_layers.py --label parent --out BENCH.json
    PYTHONPATH=new/src python3 scripts/bench_layers.py --label change --out BENCH.json

Each run adds its results under --label to the JSON object in --out
(created if missing), so two source trees can be measured into one file
on one machine.  Standard library only.  The layers:

- "isolation": root isolation of jn:60, jn:150 and jn:300 with cold
  caches, best of three, with the number of exact bracket signs
  (_dyadic_sign calls) it made: the per-matrix entry of root enclosures
  and arc signatures (_root_arcs);
- "isolation_random": root isolation of RANDOM_KNOTS random knots of size
  up to 24 (random_knot_seifert with random.Random(1), each entry spread
  drawn from 1, 3, 10 and 1000 before its knot), with Alexander
  polynomials cached and root enclosures cold, best of three passes over
  all of them; and, in a fourth pass, which certificate gave each knot's
  enclosures, read off the calls of _degree_certifies,
  _descartes_bisection and _certified_brackets: the degree and parity of
  Q (degree_parity), the Descartes count of Q that trees before the
  bisection-only route made in between (descartes_count: a certificate
  after a declined degree test, with no bisection), the number of roots
  that Descartes bisection isolated (bisection_count) or its refined
  cells (refined); constant_q counts the knots with no root to isolate;
- "averages": exact averages of the twelve prime-avg knots (torus2:n and
  jn:n, n = 1 .. 6) at one prime each, summed over the twelve, cold (every
  cache cleared, root isolation included) and warm (root enclosures
  already cached by an average at another prime, as for the equal
  matrices of a prime-avg round); median of REPEATS;
- "arc_point": the cost of one sigma at the arc points of torus2:6 and
  jn:6 at d = 1009, one per arc as where no arc signature is certified
  (the arc signatures are made to decline while the points are picked),
  through the core (_exact_counts) with the layout fetched once; median
  of REPEATS passes, divided by the number of points;
- "arc_sweep": one live jn:100 and one live jn:300, each with every
  cache cleared: the cold build of the root enclosures with the arc
  signatures (_root_arcs), then the exact averages at d = 20011, the
  first, which isolates the roots, and at d = 20021, the second; best of
  SWEEP_RUNS;
- "cold_import": the import of prime-avg's modules (knotrho, seifert,
  signature, cyclotomic) and of knotrho.cli, each timed in COLD_RUNS fresh
  interpreters started with this one's environment: the median time and
  the number of modules the import adds, with the PYTHONDONTWRITEBYTECODE
  setting (unset, bytecode caches are written by the first run and read
  by the rest);
- "exact_fallback": the exact inertia of a singular generic form
  (_generic_inertia_exact on the full residue table), for the scrambled
  knots of EXACT_FALLBACK (differential.scrambled with random.Random(5))
  at one root each, the table built before the clock starts: each run in
  a fresh interpreter, killed after FALLBACK_TIMEOUT_S, best of
  FALLBACK_RUNS, with the inertia it returned; a run that is killed is
  recorded as a timeout, and the input gets no further runs;
- "jump": the work of a tridiagonal knot at its singular points and its
  band, each input of JUMP once in a fresh interpreter, killed after
  JUMP_TIMEOUT_S, the matrix built before the clock starts: sigma of
  torus2:100 at 1/402 and of torus2:200 at 1/802 (the exact minor chain),
  the exact average of torus2:100 at d = 402 (the whole grid, jump points
  included), and for jn:300 and jn:600 Q in Z[x] from Delta
  (_delta_q(alexander_polynomial(a), m)), Delta alone and root isolation,
  each with a digest of its answer.  --layers jump, run in turn on two
  trees under labels of their own, gives alternating runs;
- "delta_dense": Delta of scrambled torus2:n, n = 2 .. 15 (sizes 4 to 30;
  differential.scrambled with random.Random(5)), cold, best of
  DENSE_RUNS, with a digest of the answer;
- "warm_equal": exact averages of the twelve prime-avg knots, each warm
  (an equal matrix lives and has averaged at the knot's second prime) but
  through a new equal matrix per call, as for the equal matrices of a
  prime-avg round; WARM_EQUAL_CALLS matrices per knot, built before the
  clock starts; the mean per call summed over the twelve, median of
  REPEATS;
- "residue_table": the exact fallback through the public functions, each
  cache cleared first, best of FALLBACK_RUNS, with the answer: the exact
  average of link14() (the block sum of differential's 4x4 'zero' link,
  torus2:3 and 'zero' again, scrambled with random.Random(3)) at d = 30
  and d = 60, and sigma of scrambled torus2:5 # torus2:5 # torus2:5
  (size 30, as in "exact_fallback") at 1/22.

Times are in seconds (µs per point for "arc_point").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from knotrho import alexander, cyclotomic, signature
from knotrho.seifert import SeifertMatrix, jn_seifert, torus_knot_seifert
from knotrho.verify import random_knot_seifert

REPEATS = 21
RANDOM_KNOTS = 400
ISOLATION_ROUTES = ("degree_parity", "descartes_count", "bisection_count", "refined", "constant_q")
# Torus parameter n -> a prime near the middle centre of prime-avg's
# EXACT_CENTERS, and a second prime that warms the root enclosures.
AVERAGE_GRIDS = {1: (701, 541), 2: (419, 337), 3: (337, 277), 4: (293, 241), 5: (263, 211), 6: (241, 199)}
COLD_RUNS = 15
SWEEP_RUNS = 5
SWEEP_GRIDS = (20011, 20021)
# Name -> (torus2 parameters of the summands, k, d): sizes 12, 14, 16, 24, 30.
EXACT_FALLBACK = {
    "torus2:6": ((6,), 1, 26),
    "torus2:7": ((7,), 1, 30),
    "torus2:4#torus2:4": ((4, 4), 1, 18),
    "torus2:6#torus2:6": ((6, 6), 1, 26),
    "torus2:5#torus2:5#torus2:5": ((5, 5, 5), 1, 22),
}
FALLBACK_RUNS = 3
FALLBACK_TIMEOUT_S = 60
# Name -> (family, n, what, argument).
JUMP = {
    "sigma torus2:100 1/402": ("torus2", 100, "sigma", (1, 402)),
    "sigma torus2:200 1/802": ("torus2", 200, "sigma", (1, 802)),
    "average torus2:100 402": ("torus2", 100, "average", 402),
    **{
        f"{what} jn:{n}": ("jn", n, what, None)
        for n in (300, 600)
        for what in ("band_q", "delta", "isolation")
    },
}
JUMP_TIMEOUT_S = 60
DENSE_RUNS = 5
WARM_EQUAL_CALLS = 50
COLD_IMPORTS = {
    "prime-avg": "import knotrho, knotrho.seifert, knotrho.signature, knotrho.cyclotomic",
    "cli": "import knotrho.cli",
}
# Prints the seconds an import takes and the number of modules it adds.
COLD_PROBE = (
    "import sys, time\n"
    "before = len(sys.modules)\n"
    "t0 = time.perf_counter()\n"
    "{statement}\n"
    "print(time.perf_counter() - t0, len(sys.modules) - before)\n"
)


def clear_caches() -> None:
    for module in (alexander, signature, cyclotomic):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def root_enclosures(a) -> tuple:
    return tuple((lo, hi) for lo, hi, _ in alexander._root_arcs(a))


def isolation() -> dict:
    calls = [0]
    exact_sign = alexander._dyadic_sign

    def counting(p, num):
        calls[0] += 1
        return exact_sign(p, num)

    out = {}
    alexander._dyadic_sign = counting
    try:
        for n in (60, 150, 300):
            a = jn_seifert(n)
            times = []
            for _ in range(3):
                clear_caches()
                calls[0] = 0
                t0 = time.perf_counter()
                root_enclosures(a)
                times.append(time.perf_counter() - t0)
            out[f"jn:{n}"] = {"best_s": min(times), "exact_signs": calls[0]}
    finally:
        alexander._dyadic_sign = exact_sign
    return out


def isolation_random() -> dict:
    rng = random.Random(1)
    knots = [random_knot_seifert(rng, size_max=24, spread=rng.choice((1, 3, 10, 1000))) for _ in range(RANDOM_KNOTS)]
    for a in knots:
        alexander.alexander_polynomial(a)
    times = []
    for _ in range(3):
        alexander._root_arcs.cache_clear()
        t0 = time.perf_counter()
        for a in knots:
            root_enclosures(a)
        times.append(time.perf_counter() - t0)
    calls = []  # per knot, (name, result) of each spied call in order
    names = ("_degree_certifies", "_descartes_bisection", "_certified_brackets")
    spied = {name: getattr(alexander, name) for name in names}

    def spy(name):
        def call(*args):
            out = spied[name](*args)
            calls[-1].append((name, out))
            return out
        return call

    alexander._root_arcs.cache_clear()
    for name in spied:
        setattr(alexander, name, spy(name))
    try:
        for a in knots:
            calls.append([])
            root_enclosures(a)
    finally:
        for name, original in spied.items():
            setattr(alexander, name, original)
    routes = [isolation_route(knot_calls) for knot_calls in calls]
    return {
        "best_s": min(times),
        "knots": len(knots),
        **{route: routes.count(route) for route in ISOLATION_ROUTES},
    }


def isolation_route(calls: list) -> str:
    """The certificate of one knot's enclosures, from the (name, result)
    of its calls: degree and parity are tested first, a bisection runs
    only where the float brackets were not certified before it, and every
    _certified_brackets call before the bisection then returned None.  A
    bisection that isolates no root certifies that there is none, whatever
    the float stage found."""
    names = [name for name, _ in calls]
    if "_degree_certifies" not in names:
        return "constant_q"
    if "_descartes_bisection" in names:
        _, cells, _ = next(out for name, out in reversed(calls) if name == "_descartes_bisection")
        certified = any(name == "_certified_brackets" and out is not None for name, out in calls)
        return "bisection_count" if certified or not cells else "refined"
    return "degree_parity" if calls[0][1] else "descartes_count"


def averages() -> dict:
    knots = [(build, n) for build in (torus_knot_seifert, jn_seifert) for n in AVERAGE_GRIDS]
    cold, warm = [], []
    for _ in range(REPEATS):
        total = 0.0
        for build, n in knots:
            a = build(n)
            clear_caches()
            t0 = time.perf_counter()
            signature.avg_signature_details(a, AVERAGE_GRIDS[n][0])
            total += time.perf_counter() - t0
        cold.append(total)
        total = 0.0
        for build, n in knots:
            a = build(n)
            clear_caches()
            signature.avg_signature_details(a, AVERAGE_GRIDS[n][1])
            t0 = time.perf_counter()
            signature.avg_signature_details(a, AVERAGE_GRIDS[n][0])
            total += time.perf_counter() - t0
        warm.append(total)
    return {"cold_s": statistics.median(cold), "warm_s": statistics.median(warm), "knots": len(knots)}


def arc_point() -> dict:
    out = {}
    d = 1009
    knots = (("torus2:6", torus_knot_seifert(6)), ("jn:6", jn_seifert(6)))
    # one point per arc, as where no crossing is certified
    crossings = signature._root_arcs
    signature._root_arcs = lambda a: tuple((lo, hi, None) for lo, hi in root_enclosures(a))
    try:
        arcs = {name: signature._arc_points(a, d) for name, a in knots}
    finally:
        signature._root_arcs = crossings
    for name, a in knots:
        points = [(k // math.gcd(k, d), d // math.gcd(k, d)) for k, _ in arcs[name]]
        direct = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            layout = signature._tridiag_layout(a)
            for num, den in points:
                signature._exact_counts(a, layout, num, den)
            direct.append(time.perf_counter() - t0)
        out[name] = {"points": len(points), "core_us": 1e6 * statistics.median(direct) / len(points)}
    return out


def arc_sweep() -> dict:
    out = {}
    for n in (100, 300):
        runs = []
        for _ in range(SWEEP_RUNS):
            a = jn_seifert(n)
            clear_caches()
            t0 = time.perf_counter()
            alexander._root_arcs(a)
            record = {"arc_entry_s": time.perf_counter() - t0}
            clear_caches()
            for label, d in zip(("first_s", "second_s"), SWEEP_GRIDS):
                t0 = time.perf_counter()
                signature.avg_signature_details(a, d)
                record[label] = time.perf_counter() - t0
            runs.append(record)
        out[f"jn:{n}"] = {key: min(r[key] for r in runs) for key in runs[0]}
    return out


def cold_import() -> dict:
    out: dict = {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
    for name, statement in COLD_IMPORTS.items():
        times = []
        for _ in range(COLD_RUNS):
            proc = subprocess.run(
                [sys.executable, "-c", COLD_PROBE.format(statement=statement)],
                capture_output=True, text=True, check=True,
            )
            seconds, added = proc.stdout.split()
            times.append(float(seconds))
        out[name] = {"median_s": statistics.median(times), "modules_added": int(added)}
    return out


def fallback_once(name: str) -> str:
    """'seconds p z n' of one exact inertia of EXACT_FALLBACK[name]."""
    from differential import connected_sum, scrambled

    summands, k, d = EXACT_FALLBACK[name]
    a = torus_knot_seifert(summands[0])
    for n in summands[1:]:
        a = connected_sum(a, torus_knot_seifert(n))
    a = scrambled(a, random.Random(5))
    table = signature._herm_residues(a, d)
    root = cyclotomic.UnitRoot(k, d)
    t0 = time.perf_counter()
    triple = signature._generic_inertia_exact(table, root)
    return f"{time.perf_counter() - t0} {triple.positive} {triple.zero} {triple.negative}"


def exact_fallback() -> dict:
    probe = (
        f"import sys\nsys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "import bench_layers\nprint(bench_layers.fallback_once({name!r}))\n"
    )
    out = {}
    for name, (summands, k, d) in EXACT_FALLBACK.items():
        record = {"size": 2 * sum(summands), "root": f"{k}/{d}"}
        times = []
        for _ in range(FALLBACK_RUNS):
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", probe.format(name=name)],
                    capture_output=True, text=True, check=True, timeout=FALLBACK_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                record["timeout_s"] = FALLBACK_TIMEOUT_S
                break
            seconds, *triple = proc.stdout.split()
            times.append(float(seconds))
            record["inertia"] = [int(x) for x in triple]
        record["best_s"] = min(times, default=None)
        out[name] = record
    return out


def jump_once(name: str) -> str:
    """'seconds digest' of one run of JUMP[name]."""
    family, n, what, arg = JUMP[name]
    a = (torus_knot_seifert if family == "torus2" else jn_seifert)(n)
    t0 = time.perf_counter()
    if what == "sigma":
        answer = signature.signature_details(a, cyclotomic.UnitRoot(*arg)).inertia.as_tuple()
    elif what == "average":
        answer = signature.avg_signature_details(a, arg).value
    elif what == "band_q":
        answer = hash(tuple(alexander._delta_q(alexander.alexander_polynomial(a), a.size)))
    elif what == "delta":
        answer = hash(alexander.alexander_polynomial(a))
    else:
        answer = len(root_enclosures(a))
    seconds = time.perf_counter() - t0
    return f"{seconds} {str(answer).replace(' ', '')}"


def jump() -> dict:
    probe = (
        f"import sys\nsys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "import bench_layers\nprint(bench_layers.jump_once({name!r}))\n"
    )
    out = {}
    for name in JUMP:
        try:
            proc = subprocess.run(
                [sys.executable, "-c", probe.format(name=name)],
                capture_output=True, text=True, check=True, timeout=JUMP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            out[name] = {"timeout_s": JUMP_TIMEOUT_S}
            continue
        seconds, answer = proc.stdout.split()
        out[name] = {"s": float(seconds), "answer": answer}
    return out


def delta_dense() -> dict:
    from differential import scrambled

    out = {}
    for n in range(2, 16):
        a = scrambled(torus_knot_seifert(n), random.Random(5))
        times = []
        for _ in range(DENSE_RUNS):
            alexander.alexander_polynomial.cache_clear()
            t0 = time.perf_counter()
            delta = alexander.alexander_polynomial(a)
            times.append(time.perf_counter() - t0)
        out[f"torus2:{n}"] = {"size": a.size, "best_s": min(times), "answer": hash(delta)}
    return out


def warm_equal() -> dict:
    knots = [(build, n) for build in (torus_knot_seifert, jn_seifert) for n in AVERAGE_GRIDS]
    totals = []
    for _ in range(REPEATS):
        clear_caches()
        total = 0.0
        for build, n in knots:
            first = build(n)
            signature.avg_signature_details(first, AVERAGE_GRIDS[n][1])
            equal = [build(n) for _ in range(WARM_EQUAL_CALLS)]
            t0 = time.perf_counter()
            for a in equal:
                signature.avg_signature_details(a, AVERAGE_GRIDS[n][0])
            total += (time.perf_counter() - t0) / WARM_EQUAL_CALLS
        totals.append(total)
    return {"warm_equal_s": statistics.median(totals), "knots": len(knots), "calls": WARM_EQUAL_CALLS}


def link14() -> SeifertMatrix:
    from differential import links, scrambled

    zero = dict(links())["link-zero"].entries
    blocks = (zero, torus_knot_seifert(3).entries, zero)
    m = sum(map(len, blocks))
    rows, at = [], 0
    for block in blocks:
        rows += [(0,) * at + row + (0,) * (m - at - len(row)) for row in block]
        at += len(block)
    return scrambled(SeifertMatrix(tuple(rows), kind="link"), random.Random(3))


def residue_table() -> dict:
    from differential import connected_sum, scrambled

    big = torus_knot_seifert(5)
    for _ in range(2):
        big = connected_sum(big, torus_knot_seifert(5))
    big = scrambled(big, random.Random(5))
    link = link14()
    cases = {
        "average link14 30": lambda: str(signature.avg_signature_details(link, 30).value),
        "average link14 60": lambda: str(signature.avg_signature_details(link, 60).value),
        "sigma torus2:5#torus2:5#torus2:5 1/22": lambda: str(
            signature.signature_details(big, cyclotomic.UnitRoot(1, 22)).inertia.as_tuple()
        ),
    }
    out = {}
    for name, run in cases.items():
        times = []
        for _ in range(FALLBACK_RUNS):
            clear_caches()
            t0 = time.perf_counter()
            answer = run()
            times.append(time.perf_counter() - t0)
        out[name] = {"best_s": min(times), "answer": answer}
    return out


LAYERS = {
    "isolation": isolation,
    "isolation_random": isolation_random,
    "averages": averages,
    "arc_point": arc_point,
    "arc_sweep": arc_sweep,
    "cold_import": cold_import,
    "exact_fallback": exact_fallback,
    "jump": jump,
    "delta_dense": delta_dense,
    "warm_equal": warm_equal,
    "residue_table": residue_table,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output object")
    parser.add_argument("--out", required=True, help="JSON file to add the results to")
    parser.add_argument(
        "--layers", default=",".join(LAYERS), help="comma-separated layers to run (default: all)"
    )
    args = parser.parse_args(argv)
    machine = f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"
    results = {"machine": machine}
    for layer in args.layers.split(","):
        results[layer] = LAYERS[layer]()
    merged = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            merged = json.load(fh)
    merged[args.label] = results
    with open(args.out, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
