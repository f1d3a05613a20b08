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
- inertias that the float passes leave to exact arithmetic: links with
  zero rows and scrambled K # K at every k/d with d <= 18, and integer and
  cyclotomic Hermitian forms of size up to 10 and low rank;
- inertias at singular tridiagonal blocks: every k/(4n + 2) of torus2:n
  for n in {20, 40}, and every k/d with d <= 30 of two-block sums;
- Alexander polynomials;
- exact averages through the public avg_signature_details at grids the
  arc route takes: torus2:n and jn:n for n = 1 .. 6 at 211, 1009 and
  20011, jn:30 and jn:100 at 1009 and 20011, and RANDOM_TRIDIAGONAL
  random tridiagonal knots of size up to 16 and their mirrors at 211 and
  1009;
- exact averages by both routes for torus2 and jn with n in {15, 30}, a
  K # K of size 60 and a connected sum whose unit-circle roots lie closer
  than root isolation's float sampling step, at primes 1009 and 5003;
- the exact endpoints (float.hex) of the root enclosures of Delta for
  torus2, jn and mirrored torus2 with n in {1, ..., 8, 15, 30, 60}, for
  jn:150, jn:300 and torus2:300, whose bracket signs are decided at high
  degree, three K # K with double roots, the random knots above and
  RANDOM_ENCLOSURES more random knots of size up to 12, of which 32 fail
  the float route's Descartes count and fall back to Descartes bisection
  (to Sturm bisection before it);
- `bounds` and `rho --levels` through the CLI, in-process, with their
  output and exit codes, including invalid slopes and modes.

Every input is built from fixed seeds; a run takes about a minute and a
half on a two-core x86_64 machine.
"""

import itertools
import json
import os
import random
import sys
import tempfile

from knotrho import alexander, signature
from knotrho.cyclotomic import UnitRoot
from knotrho.seifert import (
    SeifertMatrix,
    _is_tridiagonal,
    jn_seifert,
    mirror,
    torus_knot_seifert,
)
from knotrho.signature import (
    HermitianForm,
    alexander_polynomial,
    avg_signature_details,
    hermitian_form,
    inertia,
    signature_details,
)
from knotrho.verify import random_knot_seifert

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from clirun import run_cli  # noqa: E402

PRIME_RANGE = (190, 20011)
COMPOSITE_GRIDS = (192, 210, 360, 714, 1001, 2310, 5005, 10010)
# Generic matrices get the whole-grid sum only up to this grid.  Next to
# w = 1 their float pass can stall (the scrambled torus2:4 at 1/10010); a
# knot is now decided there from the arc through w = 1, but older trees
# took minutes of exact elimination over a ring of degree phi(d) in the
# thousands.  The cap stays only so that their output can still be compared.
GENERIC_GRID_MAX = 5005
# Random knots of size <= 12 (seed 12, entry spreads 1 to 1000) whose
# root enclosures are recorded: 20 are certified by the count of the
# fallback's isolated roots and 12 take its refined cells.
RANDOM_ENCLOSURES = 60
# Random tridiagonal knots (seed 22) whose public exact averages are recorded.
RANDOM_TRIDIAGONAL = 40
CLI_SLOPES = ("1", "-1", "2", "-3", "7", "12", "-30", "211", "-1009", "0")


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


def random_tridiagonal_knot(rng: random.Random, g: int) -> SeifertMatrix:
    """A tridiagonal knot matrix of size 2g, entries in [-3, 3]: A - A^T is
    unimodular iff a_(i,i+1) - a_(i+1,i) = +-1 at every odd 1-based i; the
    other off-diagonal pairs are free, and sometimes zero."""
    m = 2 * g
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = rng.randint(-3, 3)
        if i + 1 < m:
            p = rng.randint(-3, 3)
            q = p - rng.choice((1, -1)) if i % 2 == 0 else rng.choice((0, p, -p, rng.randint(-3, 3)))
            rows[i][i + 1], rows[i + 1][i] = p, q
    return SeifertMatrix(tuple(tuple(r) for r in rows), kind="knot")


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


def whole_grid(a: SeifertMatrix, d: int) -> int:
    """The exact sum of sigma over every grid point k = 1 .. d // 2."""
    return signature._exact_sum(a, d, signature._grid_points(d, 1, d // 2 + 1))


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
                record["divisors"] = whole_grid(a, d)
            for mode in ("exact", "float"):
                res = avg_signature_details(a, d, mode)
                record[mode] = [str(res.value), res.certified]
            emit(record)


def public_average_records() -> None:
    """Exact averages through avg_signature_details where it sums by arcs."""
    named = [
        (f"{family}:{n}", build(n), (211, 1009, 20011))
        for family, build in (("torus2", torus_knot_seifert), ("jn", jn_seifert))
        for n in range(1, 7)
    ]
    named += [(f"jn:{n}", jn_seifert(n), (1009, 20011)) for n in (30, 100)]
    rng = random.Random(22)
    for i in range(RANDOM_TRIDIAGONAL):
        a = random_tridiagonal_knot(rng, rng.randint(1, 8))
        named += [(f"tridiagonal-{i}", a, (211, 1009)), (f"-tridiagonal-{i}", mirror(a), (211, 1009))]
    for name, a, grids in named:
        for d in grids:
            res = avg_signature_details(a, d)
            emit({"kind": "avg", "knot": name, "d": d, "exact": [str(res.value), res.certified]})


def high_degree_records() -> None:
    """Exact averages by both routes where root isolation works at degree
    15 to 30, including the bisection fallback (torus2:8 # jn:8)."""
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
                "divisors": whole_grid(a, d),
            })


def enclosure_records(named) -> None:
    """Root enclosures of Delta, by their exact endpoints."""
    picked = []
    for n in (*range(1, 9), 15, 30, 60):
        t, j = torus_knot_seifert(n), jn_seifert(n)
        picked += [(f"torus2:{n}", t), (f"jn:{n}", j), (f"-torus2:{n}", mirror(t))]
    picked += [("jn:150", jn_seifert(150)), ("jn:300", jn_seifert(300)), ("torus2:300", torus_knot_seifert(300))]
    for name, k in (("torus2:2", torus_knot_seifert(2)), ("jn:2", jn_seifert(2)), ("torus2:5", torus_knot_seifert(5))):
        picked.append((f"{name}#{name}", connected_sum(k, k)))
    picked += [(n, a) for n, a in named if n.startswith("random")]
    rng = random.Random(12)
    for i in range(RANDOM_ENCLOSURES):
        spread = rng.choice((1, 3, 10, 1000))
        picked.append((f"random-{spread}-{i}", random_knot_seifert(rng, size_max=12, spread=spread)))
    for name, a in picked:
        emit({
            "kind": "enclosures", "knot": name,
            "ends": [[lo.hex(), hi.hex()] for lo, hi, _ in alexander._root_arcs(a)],
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


def exact_inertia_records() -> None:
    """Inertias the float passes leave to the exact fallback.  Zero rows and
    columns make Delta = 0 and leave a zero complement of size >= 2 at every
    root; a scrambled K # K stalls at the double roots of Delta_K^2; sums of
    few rank-one terms give integer forms of low rank, and the residue
    tables of the links give cyclotomic ones."""
    rng = random.Random(1917)
    named = []
    for i in range(6):
        m = rng.randint(4, 8)
        blank = set(rng.sample(range(m), rng.randint(2, 3)))
        rows = [[0 if {r, c} & blank else rng.randint(-3, 3) for c in range(m)] for r in range(m)]
        named.append((f"zero-rows-{i}", SeifertMatrix(tuple(map(tuple, rows)), kind="link")))
    links = list(named)
    for n in (1, 2, 3):
        k = torus_knot_seifert(n)
        named.append((f"scrambled-torus2:{n}#torus2:{n}", scrambled(connected_sum(k, k), rng)))
    for name, a in named:
        for d in range(2, 19):
            for k in range(1, d):
                triple = signature_details(a, UnitRoot(k, d)).inertia.as_tuple()
                emit({"kind": "stall", "knot": name, "k": k, "d": d, "inertia": triple})
    for _ in range(40):
        m = rng.randint(3, 10)
        rows = [[0] * m for _ in range(m)]
        for _ in range(rng.randint(1, m - 2)):
            v = [rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(m)]
            s = rng.choice((1, -1))
            for r in range(m):
                for c in range(m):
                    rows[r][c] += s * v[r] * v[c]
        form = HermitianForm.from_integer_symmetric(rows)
        emit({
            "kind": "form", "rows": rows,
            "inertia": [inertia(form, mode).as_tuple() for mode in ("exact", "float")],
        })
    for name, a in links:
        for k, d in ((1, 5), (2, 7), (3, 8), (1, 9), (5, 12)):
            triple = inertia(hermitian_form(a, UnitRoot(k, d))).as_tuple()
            emit({"kind": "form", "knot": name, "k": k, "d": d, "inertia": triple})


def jump_records() -> None:
    """Exact inertias where a tridiagonal block is singular: at every
    k/(4n + 2) of torus2:n for n in {20, 40}, and at every k/d with
    d <= 30 of two-block sums whose second block starts at an even or an
    odd index, one of them with both blocks singular at once."""
    for n in (20, 40):
        a, d = torus_knot_seifert(n), 4 * n + 2
        for k in range(1, d):
            triple = signature_details(a, UnitRoot(k, d)).inertia.as_tuple()
            emit({"kind": "jump", "knot": f"torus2:{n}", "k": k, "d": d, "inertia": triple})
    t3, t5 = torus_knot_seifert(3), torus_knot_seifert(5)
    odd = ((1, 1, 0), (0, 1, 1), (0, 0, -1))
    named = [
        ("torus2:4#jn:3", connected_sum(torus_knot_seifert(4), jn_seifert(3))),
        ("torus2:5#torus2:5", connected_sum(t5, t5)),
        ("odd-3+torus2:3", SeifertMatrix(tuple(
            [row + (0,) * 6 for row in odd] + [(0,) * 3 + row for row in t3.entries]
        ), kind="link")),
    ]
    for name, a in named:
        for d in range(2, 31):
            for k in range(1, d):
                triple = signature_details(a, UnitRoot(k, d)).inertia.as_tuple()
                emit({"kind": "jump", "knot": name, "k": k, "d": d, "inertia": triple})


def cli_records(named) -> None:
    specs = ["unknot"] + [f"torus2:{n}" for n in (1, 2, 5, 12)]
    specs += [f"jn:{n}" for n in (1, 2, 3, 7, 20)]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the matrix files are named relative to it
        try:
            for i, (name, a) in enumerate(named):
                if name.startswith(("scrambled", "random", "link")):
                    path = f"m{i}.json"
                    with open(path, "w") as fh:
                        fh.write(a.to_json())
                    specs.append(f"file:{path}")
            for spec, slope, mode in itertools.product(specs, CLI_SLOPES, ("exact", "float", "fast")):
                common = [spec, "--slope", slope, "--format", "json", "--mode", mode]
                for args in (["bounds", *common, "--crossing", "8"], ["rho", *common, "--levels"]):
                    try:
                        code, output = run_cli(args)
                        error = None
                    except Exception as exc:  # recorded, so that a crash shows in the diff
                        code, output, error = 1, "", type(exc).__name__
                    emit({"kind": "cli", "args": args, "exit": code, "output": output, "error": error})
        finally:
            os.chdir(home)


def main() -> int:
    named = knots() + links()
    average_records([(n, a) for n, a in named if a.size <= 12])
    public_average_records()
    high_degree_records()
    enclosure_records(named)
    signature_records([(n, a) for n, a in named if a.size <= 8])
    exact_inertia_records()
    jump_records()
    cli_records(named)
    return 0


if __name__ == "__main__":
    sys.exit(main())
