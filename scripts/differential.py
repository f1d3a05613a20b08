#!/usr/bin/env python3
"""Canonical records of knotrho's answers on a fixed, seeded input set.

Writes one JSON line per record (sorted keys, no spaces) to standard
output, so the outputs of two source trees can be compared byte for byte:

    PYTHONPATH=old/src python3 scripts/differential.py > old.jsonl
    PYTHONPATH=new/src python3 scripts/differential.py > new.jsonl
    cmp old.jsonl new.jsonl

The records cover:
- exact averages by both routes, arcs and the whole grid (under the
  record keys "arcs" and "divisors"), and the public average in exact and
  float mode, at primes from 190 to 20011 and at composite grids, each
  matrix running through every grid in turn (generic matrices take the
  whole grid up to GENERIC_GRID_MAX);
- exact and float signatures at every k/d with d <= 30;
- Alexander polynomials;
- exact averages by both routes for torus2 and jn with n in {15, 30}, a
  K # K of size 60 and a connected sum whose unit-circle roots lie closer
  than root isolation's float sampling step, at primes 1009 and 5003;
- the exact endpoints (float.hex) of the root enclosures of Delta for
  torus2, jn and mirrored torus2 with n in {1, ..., 8, 15, 30, 60}, three
  K # K with double roots and the random knots above;
- `bounds` and `rho --levels` through the CLI, in-process, with their
  output and exit codes, including invalid slopes and modes.

Every input is built from fixed seeds; a run takes about a minute and a
half on a two-core x86_64 machine.
"""

import json
import random
import sys

from click.testing import CliRunner

from knotrho import alexander, signature
from knotrho.cli import cli
from knotrho.cyclotomic import UnitRoot
from knotrho.seifert import (
    SeifertMatrix,
    _is_tridiagonal,
    jn_seifert,
    mirror,
    torus_knot_seifert,
)
from knotrho.signature import alexander_polynomial, avg_signature_details, signature_details
from knotrho.verify import random_knot_seifert

PRIME_RANGE = (190, 20011)
COMPOSITE_GRIDS = (192, 210, 360, 714, 1001, 2310, 5005, 10010)
# Generic matrices get the whole-grid sum only up to this grid.  Next to
# w = 1 their float pass can stall (the scrambled torus2:4 at 1/10010); a
# knot is now decided there from the arc through w = 1, but older trees
# took minutes of exact elimination over a ring of degree phi(d) in the
# thousands.  The cap stays only so that their output can still be compared.
GENERIC_GRID_MAX = 5005


def emit(record: dict) -> None:
    line = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
    sys.stdout.write(line + "\n")


def is_prime(x: int) -> bool:
    return x > 1 and all(x % p for p in range(2, int(x**0.5) + 1))


def scrambled(a: SeifertMatrix, rng: random.Random) -> SeifertMatrix:
    """P^T A P for a random unimodular P (signed column additions)."""
    m = a.size
    p = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(m):
        i, j = rng.sample(range(m), 2)
        s = rng.choice((1, -1))
        for row in p:
            row[i] += s * row[j]
    e = a.entries
    ap = [[sum(e[i][k] * p[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    rows = [[sum(p[k][i] * ap[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    return SeifertMatrix(tuple(tuple(r) for r in rows), kind=a.kind)


def connected_sum(a: SeifertMatrix, b: SeifertMatrix) -> SeifertMatrix:
    m, n = a.size, b.size
    rows = [row + (0,) * n for row in a.entries] + [(0,) * m + row for row in b.entries]
    return SeifertMatrix(tuple(rows), kind="knot")


def knots() -> list[tuple[str, SeifertMatrix]]:
    """Named knot matrices: families and mirrors, K # K with double roots,
    scrambled (generic) matrices and random knots."""
    rng = random.Random(2024)
    out = []
    for n in range(1, 7):
        for family, build in (("torus2", torus_knot_seifert), ("jn", jn_seifert)):
            out += [(f"{family}:{n}", build(n)), (f"-{family}:{n}", mirror(build(n)))]
    t2, t3, j2 = torus_knot_seifert(2), torus_knot_seifert(3), jn_seifert(2)
    out.append(("torus2:2#torus2:2", connected_sum(t2, t2)))
    out.append(("jn:2#jn:2", connected_sum(j2, j2)))
    out.append(("torus2:2#-torus2:3", connected_sum(t2, mirror(t3))))
    for n in (2, 3, 4):
        out.append((f"scrambled-torus2:{n}", scrambled(torus_knot_seifert(n), rng)))
    out.append(("scrambled-jn:3", scrambled(jn_seifert(3), rng)))
    for i in range(4):
        out.append((f"random-{i}", random_knot_seifert(rng, size_max=8)))
    return out


def links() -> list[tuple[str, SeifertMatrix]]:
    trefoil = SeifertMatrix(torus_knot_seifert(1).entries, kind="link")
    zero = SeifertMatrix(((2, 0, 0, 1), (0, 0, 0, 0), (1, 0, -1, 1), (0, 0, 2, 1)), kind="link")
    return [("link-trefoil", trefoil), ("link-zero", zero)]


def average_records(named) -> None:
    rng = random.Random(190)
    primes = [p for p in range(PRIME_RANGE[0], PRIME_RANGE[1] + 1) if is_prime(p)]
    picked = sorted({primes[0], primes[-1], *rng.sample(primes, 6)})
    for name, a in named:
        grids = picked + list(COMPOSITE_GRIDS)
        rng.shuffle(grids)  # per-matrix caches see coarse and fine grids in mixed order
        for d in grids:
            record = {"kind": "avg", "knot": name, "d": d}
            if a.kind == "knot":
                record["arcs"] = signature._exact_sum(a, d, signature._arc_points(a, d))
            if d <= GENERIC_GRID_MAX or _is_tridiagonal(a.entries):
                record["divisors"] = signature._exact_grid_sum(a, d)
            for mode in ("exact", "float"):
                res = avg_signature_details(a, d, mode)
                record[mode] = [str(res.value), res.certified]
            emit(record)


def high_degree_records() -> None:
    """Exact averages by both routes where root isolation works at degree
    15 to 30, including the Sturm bisection fallback (torus2:8 # jn:8)."""
    named = [
        (f"{family}:{n}", build(n))
        for n in (15, 30)
        for family, build in (("torus2", torus_knot_seifert), ("jn", jn_seifert))
    ]
    named.append(("jn:15#jn:15", connected_sum(jn_seifert(15), jn_seifert(15))))
    named.append(("torus2:8#jn:8", connected_sum(torus_knot_seifert(8), jn_seifert(8))))
    for name, a in named:
        for d in (1009, 5003):
            emit({
                "kind": "avg", "knot": name, "d": d,
                "arcs": signature._exact_sum(a, d, signature._arc_points(a, d)),
                "divisors": signature._exact_grid_sum(a, d),
            })


def enclosure_records(named) -> None:
    """Root enclosures of Delta, by their exact endpoints."""
    picked = []
    for n in (*range(1, 9), 15, 30, 60):
        t, j = torus_knot_seifert(n), jn_seifert(n)
        picked += [(f"torus2:{n}", t), (f"jn:{n}", j), (f"-torus2:{n}", mirror(t))]
    for name, k in (("torus2:2", torus_knot_seifert(2)), ("jn:2", jn_seifert(2)), ("torus2:5", torus_knot_seifert(5))):
        picked.append((f"{name}#{name}", connected_sum(k, k)))
    picked += [(n, a) for n, a in named if n.startswith("random")]
    for name, a in picked:
        emit({
            "kind": "enclosures", "knot": name,
            "ends": [[lo.hex(), hi.hex()] for lo, hi in alexander._alexander_root_enclosures(a)],
        })


def signature_records(named) -> None:
    for name, a in named:
        emit({"kind": "alexander", "knot": name, "poly": list(alexander_polynomial(a))})
        for d in range(1, 31):
            for k in range(d):
                for mode in ("exact", "float"):
                    res = signature_details(a, UnitRoot(k, d), mode)
                    emit({
                        "kind": "sig", "knot": name, "k": k, "d": d, "mode": mode,
                        "value": res.value, "inertia": res.inertia.as_tuple(),
                        "singular": res.singular, "certified": res.certified,
                    })


def cli_records(named) -> None:
    runner = CliRunner()
    specs = ["unknot"] + [f"torus2:{n}" for n in (1, 2, 5, 12)]
    specs += [f"jn:{n}" for n in (1, 2, 3, 7, 20)]
    with runner.isolated_filesystem():
        for i, (name, a) in enumerate(named):
            if name.startswith(("scrambled", "random", "link")):
                path = f"m{i}.json"
                with open(path, "w") as fh:
                    fh.write(a.to_json())
                specs.append(f"file:{path}")
        for spec in specs:
            for slope in ("1", "-1", "2", "-3", "7", "12", "-30", "211", "-1009", "0"):
                for mode in ("exact", "float", "fast"):
                    common = [spec, "--slope", slope, "--format", "json", "--mode", mode]
                    for args in (
                        ["bounds", *common, "--crossing", "8"],
                        ["rho", *common, "--levels"],
                    ):
                        res = runner.invoke(cli, args)
                        crash = None if isinstance(res.exception, SystemExit) else res.exception
                        emit({
                            "kind": "cli", "args": args, "exit": res.exit_code, "output": res.output,
                            "error": type(crash).__name__ if crash is not None else None,
                        })


def main() -> int:
    named = knots() + links()
    average_records([(n, a) for n, a in named if a.size <= 12])
    high_degree_records()
    enclosure_records(named)
    signature_records([(n, a) for n, a in named if a.size <= 8])
    cli_records(named)
    return 0


if __name__ == "__main__":
    sys.exit(main())
