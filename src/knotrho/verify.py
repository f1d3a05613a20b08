"""Verification suites: oracle equivalences, exact identities, and
randomized property checks.

Each suite returns CheckResult rows (deterministically ordered); the CLI
prints one pass/fail line per row and exits nonzero when anything fails.
Suites are sized by caps so they stay snappy interactively; the acceptance
tests run them at full size.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import SUITE_NAMES
from .bounds import (
    LOWER_BOUND_DENOM,
    PUBLISHED,
    bound_report,
    complexity_from_rho,
    gap_lower_bound,
    gromov_norm_bound,
    lower_bound_crossing,
    lower_bound_signature,
    lower_bound_slice_genus,
    slope_length,
    two_pi_check,
)
from .cyclotomic import UnitRoot
from .exceptions import InternalInconsistencyError
from .records import Record
from .rho import CableData, rho_finite_cyclic, rho_knot_surgery
from .seifert import (
    SeifertMatrix,
    jn_seifert,
    knot_surgery_presentation,
    mirror,
    torus_knot_seifert,
    trefoil_seifert,
    unknot_seifert,
)
from .signature import (
    alexander_at,
    avg_signature,
    jn_avg_lower_bound,
    levine_tristram,
    litherland_torus_signature,
    signature_details,
)


class CheckResult(Record):
    """The outcome of one check of a verification suite."""

    _fields = ("suite", "name", "passed", "detail")

    def __init__(self, suite: str, name: str, passed: bool, detail: str = ""):
        self.__dict__.update(suite=suite, name=name, passed=passed, detail=detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f" - {self.detail}" if self.detail else ""
        return f"[{status}] {self.suite}/{self.name}{detail}"


# -- litherland ---------------------------------------------------------------


def litherland_suite(n_max: int = 15, d_max: int = 30) -> list[CheckResult]:
    """Torus-knot signatures vs the closed form, away from singular points.

    At singular points the definition (zero eigenvalues contribute 0) and
    the closed form genuinely differ; those points are reported, not
    compared.
    """
    checked = 0
    singular: list[str] = []
    bad: list[str] = []
    for n in range(1, n_max + 1):
        a = torus_knot_seifert(n)
        for d in range(2, d_max + 1):
            for k in range(1, d // 2 + 1):
                root = UnitRoot(k, d)
                if alexander_at(a, root).is_zero:
                    definitional = levine_tristram(a, root)
                    formula = litherland_torus_signature(n, Fraction(k, d))
                    singular.append(f"n={n} w={k}/{d}: sigma={definitional}, closed form={formula}")
                    continue
                got = levine_tristram(a, root)
                want = litherland_torus_signature(n, Fraction(k, d))
                checked += 1
                if got != want:
                    bad.append(f"n={n} w={k}/{d}: sigma={got} != closed form {want}")
    results = [
        CheckResult(
            "litherland",
            "oracle-equality",
            not bad,
            bad[0] if bad else f"{checked} nonsingular points agree (n<={n_max}, d<={d_max})",
        ),
        CheckResult(
            "litherland",
            "singular-points-report",
            True,
            f"{len(singular)} singular points (both values reported)"
            + (f"; e.g. {singular[0]}" if singular else ""),
        ),
    ]
    return results


# -- gilmer -------------------------------------------------------------------


def _gilmer_families(param_max: int = 10):
    fams = [("unknot", unknot_seifert())]
    fams += [(f"torus2:{i}", torus_knot_seifert(i)) for i in range(1, param_max + 1)]
    fams += [(f"jn:{i}", jn_seifert(i)) for i in range(1, param_max + 1)]
    return fams


def gilmer_suite(n_max: int = 12, param_max: int = 10) -> list[CheckResult]:
    """Closed-form rho vs per-level averages, and the knot-surgery special case."""
    mismatch: list[str] = []
    cases = 0
    for label, a in _gilmer_families(param_max):
        cable = CableData.trivial_cable(a)
        for n in range(2, n_max + 1):
            for slope in (n, -n):
                pres = knot_surgery_presentation(slope, n)
                try:
                    res = rho_finite_cyclic(pres, cable, n)
                except InternalInconsistencyError as exc:
                    mismatch.append(f"{label} slope={slope}: {exc}")
                    continue
                cases += 1
                direct = rho_knot_surgery(a, slope)
                if direct != res.value:
                    mismatch.append(
                        f"{label} slope={slope}: closed {direct} != presentation {res.value}"
                    )
                if res.per_level[0] != 0:
                    mismatch.append(f"{label} slope={slope}: sigma_0 != 0")
                for k in range(1, n):
                    if res.per_level[k] != res.per_level[n - k]:
                        mismatch.append(f"{label} slope={slope}: level {k} != level {n - k}")
    return [
        CheckResult(
            "gilmer",
            "per-level-average-equals-closed-form",
            not mismatch,
            mismatch[0] if mismatch else f"{cases} (knot, slope) cases agree exactly",
        )
    ]


# -- bounds -------------------------------------------------------------------


def _slope_grid(n_cap: int) -> list[int]:
    grid = list(range(1, min(n_cap, 12) + 1))
    n = 20
    while n <= n_cap:
        grid.append(n)
        n = int(n * 2.3) + 1
    if n_cap > 12 and n_cap not in grid:
        grid.append(n_cap)
    return sorted(set(grid))


def bounds_suite(n_cap: int = 2000) -> list[CheckResult]:
    """Ordering, consistency, and linear growth of the complexity bounds."""
    knots = [
        ("unknot", unknot_seifert(), 0, 0),
        ("trefoil", trefoil_seifert(), 3, 1),
        ("jn:2", jn_seifert(2), 8, 2),
    ]
    grid = _slope_grid(n_cap)
    bad: list[str] = []
    ratio_bad: list[str] = []
    chain_bad: list[str] = []
    for label, a, crossing, g4 in knots:
        for n in grid:
            rep = bound_report(a, n, crossing=crossing, g4=g4)
            if rep.upper is not None and rep.best_lower > rep.upper:
                bad.append(f"{label} n={n}: best lower {rep.best_lower} > upper {rep.upper}")
            if lower_bound_crossing(n, crossing) > lower_bound_slice_genus(n, g4):
                bad.append(f"{label} n={n}: crossing bound exceeds slice-genus bound")
            rho = rho_knot_surgery(a, n)
            if complexity_from_rho(rho) < lower_bound_signature(a, n):
                chain_bad.append(f"{label} n={n}: rho chain weaker than signature bound")
            if n >= 1000:
                ratio = rep.best_lower / n
                lo, hi = Fraction(1, 2 * LOWER_BOUND_DENOM), Fraction(2, LOWER_BOUND_DENOM)
                if not (lo <= ratio <= hi):
                    ratio_bad.append(f"{label} n={n}: best_lower/n = {ratio} outside window")
    results = [
        CheckResult(
            "bounds",
            "lower-bounds-below-upper",
            not bad,
            bad[0] if bad else f"{len(knots) * len(grid)} reports ordered correctly",
        ),
        CheckResult(
            "bounds",
            "rho-chain-dominates-signature-bound",
            not chain_bad,
            chain_bad[0] if chain_bad else "universal-bound chain implies the signature bound",
        ),
    ]
    big = [n for n in grid if n >= 1000]
    if big:
        results.append(
            CheckResult(
                "bounds",
                "linear-growth-window",
                not ratio_bad,
                ratio_bad[0]
                if ratio_bad
                else f"best_lower/n within window at n in {big}",
            )
        )
    return results


# -- gap ----------------------------------------------------------------------


def gap_suite(n_max: int = 20, d_values: tuple[int, ...] = (2, 3, 5)) -> list[CheckResult]:
    """Gap-bound monotonicity and the twist-family average-signature bound."""
    bad_mono: list[str] = []
    bad_avg: list[str] = []
    bad_pos: list[str] = []
    for d in d_values:
        prev = None
        for n in range(3, n_max + 1):
            g = gap_lower_bound(n, d)
            if prev is not None and not g > prev:
                bad_mono.append(f"d={d}: gap bound not increasing at n={n}")
            prev = g
            rhs = jn_avg_lower_bound(n, d)
            # The bound is positive on n >= 3, d >= 2 except the single
            # boundary point (3, 2), where it is exactly 0.
            if rhs < 0 or (rhs == 0 and (n, d) != (3, 2)):
                bad_pos.append(f"d={d} n={n}: twist-family bound not positive: {rhs}")
            if avg_signature(jn_seifert(n), d) < rhs:
                bad_avg.append(f"d={d} n={n}: avg signature below bound {rhs}")
    count = len(d_values) * max(0, n_max - 2)
    return [
        CheckResult(
            "gap",
            "gap-bound-strictly-increasing",
            not bad_mono,
            bad_mono[0] if bad_mono else f"monotone on {count} (n, d) pairs",
        ),
        CheckResult(
            "gap",
            "twist-family-average-bound",
            not bad_avg,
            bad_avg[0] if bad_avg else f"avg signature >= bound on {count} pairs",
        ),
        CheckResult(
            "gap",
            "bound-positive-from-n-3",
            not bad_pos,
            bad_pos[0]
            if bad_pos
            else "right-hand side positive for n >= 3, d >= 2 (zero exactly at n=3, d=2)",
        ),
    ]


# -- randomized properties ------------------------------------------------------


def random_knot_seifert(rng: random.Random, size_max: int = 12, spread: int = 3) -> SeifertMatrix:
    """Random valid knot Seifert matrix: symmetric noise plus a unimodular
    skew normal form (1 at each (2i, 2i+1) above the diagonal)."""
    half = rng.randint(1, size_max // 2)
    m = 2 * half
    sym = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            v = rng.randint(-spread, spread)
            sym[i][j] = v
            sym[j][i] = v
    for i in range(half):
        sym[2 * i][2 * i + 1] += 1
    return SeifertMatrix(tuple(tuple(r) for r in sym), kind="knot")


def random_root(rng: random.Random, d_max: int = 36) -> UnitRoot:
    d = rng.randint(2, d_max)
    return UnitRoot(rng.randint(1, d - 1), d)


def property_suite(count: int = 60, size_max: int = 12, seed: int = 7, d_max: int = 36) -> list[CheckResult]:
    """Randomized invariants over valid knot Seifert matrices.

    Singular points are rare at random roots, so known torus-knot singular
    points are injected to exercise the z > 0 direction.
    """
    rng = random.Random(seed)
    cases = []
    for _ in range(max(0, count)):
        cases.append((random_knot_seifert(rng, size_max), random_root(rng, d_max)))
    for n in (1, 2, 3):
        cases.append((torus_knot_seifert(n), UnitRoot(1, 4 * n + 2)))
        cases.append((torus_knot_seifert(n), UnitRoot(2 * n + 3, 4 * n + 2)))

    conj_bad = mirror_bad = total_bad = singular_bad = mode_bad = 0
    first = {}
    for a, root in cases:
        res = signature_details(a, root, "exact")
        t = res.inertia
        if t.positive + t.zero + t.negative != a.size:
            total_bad += 1
            first.setdefault("totality", f"{a!r} at {root}")
        if levine_tristram(a, root.conjugate()) != res.value:
            conj_bad += 1
            first.setdefault("conjugation", f"{a!r} at {root}")
        if levine_tristram(mirror(a), root) != -res.value:
            mirror_bad += 1
            first.setdefault("mirror", f"{a!r} at {root}")
        if not root.is_one:
            if alexander_at(a, root).is_zero != (t.zero > 0):
                singular_bad += 1
                first.setdefault("singular", f"{a!r} at {root}")
        fl = signature_details(a, root, "float")
        if fl.certified and fl.inertia.as_tuple() != t.as_tuple():
            mode_bad += 1
            first.setdefault("mode", f"{a!r} at {root}")
    n_cases = len(cases)
    return [
        CheckResult("properties", "conjugation-symmetry", conj_bad == 0,
                    first.get("conjugation", f"{n_cases} cases")),
        CheckResult("properties", "mirror-antisymmetry", mirror_bad == 0,
                    first.get("mirror", f"{n_cases} cases")),
        CheckResult("properties", "inertia-totality", total_bad == 0,
                    first.get("totality", f"{n_cases} cases")),
        CheckResult("properties", "singular-iff-alexander-zero", singular_bad == 0,
                    first.get("singular", f"{n_cases} cases")),
        CheckResult("properties", "float-certified-matches-exact", mode_bad == 0,
                    first.get("mode", f"{n_cases} cases")),
    ]


# -- published check values -------------------------------------------------


def published_values_suite(k_max: int = 200, q_max: int = 200) -> list[CheckResult]:
    """Slope lengths, the Gromov norm bound, and the 2-pi filling checks."""
    cusp = PUBLISHED.cusp
    results = []
    l6 = slope_length(cusp, 6, 1)
    results.append(
        CheckResult("published", "slope-6-length", abs(l6 - 6.7271) < 5e-4, f"|6m+l| = {l6:.6f}")
    )
    lh = slope_length(cusp, 1, 2)
    results.append(
        CheckResult("published", "slope-1/2-length", abs(lh - 6.4040) < 5e-4, f"|m+2l| = {lh:.6f}")
    )
    g = gromov_norm_bound()
    results.append(
        CheckResult(
            "published",
            "gromov-norm-vs-published",
            g.discrepancy < 1e-3,
            f"computed {g.computed:.6f}, published {g.published}",
        )
    )
    int_slopes = [(k, 1) for k in range(6, k_max + 1)]
    frac_slopes = [(1, q) for q in range(2, q_max + 1)]
    ok = all(two_pi_check(cusp, int_slopes)) and all(two_pi_check(cusp, frac_slopes))
    results.append(
        CheckResult(
            "published",
            "two-pi-filling-slopes",
            ok,
            f"(k,1) for 6<=k<={k_max} and (1,q) for 2<=q<={q_max} all exceed 2*pi",
        )
    )
    return results


def run_suites(
    suite: str,
    n_max: int | None = None,
    d_max: int | None = None,
    count: int | None = None,
    seed: int = 7,
) -> list[CheckResult]:
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    results: list[CheckResult] = []
    if suite in ("litherland", "all"):
        results += litherland_suite(n_max or 15, d_max or 30)
    if suite in ("gilmer", "all"):
        results += gilmer_suite(n_max or 12)
    if suite in ("bounds", "all"):
        results += bounds_suite(n_max * 100 if n_max else 2000)
        results += published_values_suite()
    if suite in ("gap", "all"):
        results += gap_suite(n_max or 20)
    if suite == "all":
        results += property_suite(count if count is not None else 40, seed=seed)
    return results
