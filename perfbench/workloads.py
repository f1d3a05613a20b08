"""Seeded query generators and query runners for the three workloads.

Every workload is a list of rounds of ROUND_SIZE queries.  Round r of a
run is generated from (workload, seed, r) alone, so the same seed always
gives the same inputs.  Inside a round no knot matrix is queried twice
(and in prime-avg no conductor either), so no query can be answered from
what an earlier query of the round left in the program's caches; the
runner clears those caches before every round.

Generation (`specs`) uses only the standard library.  `prepare` turns a
spec into the arguments the program receives, calling the program's
constructors; `query` is the timed call.  The program is reached through
module attributes, never through names bound here, so a traced run sees
every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
import types

ROUND_SIZE = 40


def load_program(with_cli: bool) -> types.SimpleNamespace:
    """Import the knotrho modules a workload calls into."""
    names = ["knotrho", "knotrho.seifert", "knotrho.signature", "knotrho.cyclotomic"]
    if with_cli:
        names.append("knotrho.cli")
    mods = {n.rpartition(".")[2]: importlib.import_module(n) for n in names}
    return types.SimpleNamespace(**mods)


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    for p in range(2, math.isqrt(x) + 1):
        if x % p == 0:
            return False
    return True


def pick_prime(center: int, used: set, rng: random.Random, choices: int = 3) -> int:
    """One of the `choices` unused primes nearest to center, by rng."""
    near = []
    off = 0
    while len(near) < choices:
        for p in (center - off, center + off) if off else (center,):
            if p not in used and is_prime(p):
                near.append(p)
        off += 1
    p = rng.choice(near[:choices])
    used.add(p)
    return p


def family_rows(family: str, n: int) -> list[list[int]]:
    """Seifert matrix of torus2:n or jn:n, built from its definition."""
    m = 2 * n
    rows = [[1 if j in (i, i + 1) else 0 for j in range(m)] for i in range(m)]
    if family == "jn":
        rows[m - 1][m - 1] = -1
    return rows


# -- prime-avg ------------------------------------------------------------------

# Exact averages cost about 2.2e-7 * m * d^2 seconds at a prime d (m = 2n,
# the Seifert size).  Torus parameter n -> three prime centres costing about
# 0.1, 0.15 and 0.25 s (size 2's last centre is 1500), so the median falls
# inside the middle level and the 75th percentile inside the top one.  A
# round takes about 13 s, so a 30 s run holds two.
EXACT_CENTERS = {
    1: (540, 700, 1500), 2: (340, 415, 535), 3: (275, 340, 435),
    4: (240, 290, 375), 5: (215, 260, 335), 6: (200, 240, 310),
}
# Float-mode averages (centre, torus parameter n), where exact mode is
# impractical.  Their cost per root grows with the size, so n is fixed.
FLOAT_SLOTS = ((10_000, 3), (20_000, 2), (40_000, 1), (80_000, 1))


class PrimeAvg:
    name = "prime-avg"
    with_cli = False

    def specs(self, seed: int, r: int) -> list[dict]:
        rng = round_rng(self.name, seed, r)
        used: set = set()
        out = []
        for family in ("torus2", "jn"):
            for n, centers in EXACT_CENTERS.items():
                for center in centers:
                    d = pick_prime(center, used, rng)
                    out.append({"family": family, "n": n, "d": d, "mode": "exact"})
        for center, n in FLOAT_SLOTS:
            d = pick_prime(center, used, rng)
            out.append({"family": "torus2", "n": n, "d": d, "mode": "float"})
        if len({s["d"] for s in out}) != ROUND_SIZE:
            raise ValueError("a round must have ROUND_SIZE distinct conductors")
        rng.shuffle(out)
        return out

    def prepare(self, kr, spec: dict):
        build = kr.seifert.torus_knot_seifert if spec["family"] == "torus2" else kr.seifert.jn_seifert
        return build(spec["n"]), spec["d"], spec["mode"]

    def query(self, kr, task):
        matrix, d, mode = task
        res = kr.signature.avg_signature_details(matrix, d, mode)
        return res.value, res.certified


# -- scrambled-scan -------------------------------------------------------------

# (n, singular grid?, count) per round; the torus knot torus2:n has Seifert
# size 2n.  Singular grids have order 4n+2; regular grids have odd order 25.
# Fourteen profiles of a few milliseconds come first in cost; twelve regular
# 12x12 profiles (about 35 ms) hold the median, twelve singular 10x10 ones
# (about 0.25 s) the 75th percentile, and two singular 12x12 ones (about
# 1.2 s) the top.
SCRAMBLED_MIX = (
    (2, False, 2), (3, False, 2), (4, False, 2), (5, False, 2),
    (2, True, 2), (3, True, 2), (4, True, 2),
    (6, False, 12),
    (5, True, 12),
    (6, True, 2),
)
REGULAR_ORDER = 25


def scramble(rows: list[list[int]], rng: random.Random) -> list[list[int]]:
    """P^T A P for a random unimodular P: m/2 signed column additions, then a
    signed column permutation."""
    m = len(rows)
    p = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(m // 2):
        i, j = rng.sample(range(m), 2)
        s = rng.choice((1, -1))
        for row in p:
            row[i] += s * row[j]
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    p = [[signs[c] * row[perm[c]] for c in range(m)] for row in p]
    ap = [[sum(rows[i][k] * p[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    return [[sum(p[k][i] * ap[k][j] for k in range(m)) for j in range(m)] for i in range(m)]


def is_tridiagonal(rows: list[list[int]]) -> bool:
    m = len(rows)
    return all(rows[i][j] == 0 for i in range(m) for j in range(m) if abs(i - j) >= 2)


class ScrambledScan:
    name = "scrambled-scan"
    with_cli = False

    def specs(self, seed: int, r: int) -> list[dict]:
        rng = round_rng(self.name, seed, r)
        out = []
        seen = set()
        for n, singular, count in SCRAMBLED_MIX:
            for _ in range(count):
                rows = scramble(family_rows("torus2", n), rng)
                while is_tridiagonal(rows) or str(rows) in seen:
                    rows = scramble(family_rows("torus2", n), rng)
                seen.add(str(rows))
                d = 4 * n + 2 if singular else REGULAR_ORDER
                out.append({"n": n, "d": d, "rows": rows})
        if len(out) != ROUND_SIZE:
            raise ValueError("SCRAMBLED_MIX must add up to ROUND_SIZE")
        rng.shuffle(out)
        return out

    def prepare(self, kr, spec: dict):
        matrix = kr.seifert.SeifertMatrix(tuple(tuple(r) for r in spec["rows"]), kind="knot")
        return matrix, spec["d"]

    def query(self, kr, task):
        """Signature profile at every k/d with 0 < k <= d/2, as
        scripts/signature_scan.py computes it: (sigma, inertia, singular)."""
        matrix, d = task
        out = []
        for k in range(1, d // 2 + 1):
            root = kr.cyclotomic.UnitRoot(k, d)
            res = kr.signature.signature_details(matrix, root)
            singular = kr.signature.alexander_at(matrix, root).is_zero
            out.append((res.value, res.inertia.as_tuple(), singular))
        return out


# -- twist-table ----------------------------------------------------------------

# Cover order d -> range of twist parameters n.  Orders whose float Sturm pass
# needs interval refinement (5, 7, 11, 12) cost far more per knot, so their
# ranges stop lower; every query then costs between about 2 and 500 ms.
TWIST_RANGES = {
    2: (40, 150), 3: (40, 150), 4: (40, 150), 6: (40, 150),
    5: (30, 140), 12: (25, 120), 7: (20, 105), 11: (15, 75),
}
TWIST_SLOTS_PER_ORDER = ROUND_SIZE // len(TWIST_RANGES)


class TwistTable:
    name = "twist-table"
    with_cli = True

    def specs(self, seed: int, r: int) -> list[dict]:
        """Five knots spread over each order's range, the command alternating
        along it; no knot appears twice in a round."""
        rng = round_rng(self.name, seed, r)
        used: set = set()
        out = []
        for i, (d, (lo, hi)) in enumerate(TWIST_RANGES.items()):
            for j in range(TWIST_SLOTS_PER_ORDER):
                n = round(lo + j * (hi - lo) / (TWIST_SLOTS_PER_ORDER - 1)) + rng.randint(-2, 2)
                step = 0
                while n + step in used:
                    step = -step if step > 0 else 1 - step
                n += step
                used.add(n)
                slope = d * rng.choice((1, -1))
                cmd = ("bounds", "rho")[(i + j) % 2]
                out.append({"cmd": cmd, "n": n, "slope": slope})
        rng.shuffle(out)
        return out

    def prepare(self, kr, spec: dict):
        argv = [spec["cmd"], f"jn:{spec['n']}", "--slope", str(spec["slope"])]
        if spec["cmd"] == "rho":
            argv.append("--levels")
        return argv + ["--mode", "exact", "--format", "json"]

    def query(self, kr, argv):
        """Run one CLI command in-process: (exit code, standard output)."""
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf):
            try:
                kr.cli.cli.main(args=argv, prog_name="knotrho", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue()


WORKLOADS = {w.name: w for w in (PrimeAvg(), ScrambledScan(), TwistTable())}
