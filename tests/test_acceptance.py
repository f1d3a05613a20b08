"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every comparison is at
the stated tolerance: exact rational equality unless a float tolerance is
given explicitly.  Criterion 1 carries a wall-clock budget, so it clears
the engine caches it depends on before timing itself.
"""

import math
import time
from fractions import Fraction

from knotrho.bounds import (
    LOWER_BOUND_DENOM,
    bound_report,
    lower_bound_signature,
    upper_bound,
)
from knotrho.cyclotomic import UnitRoot
from knotrho.rho import CableData, rho_finite_cyclic, rho_knot_surgery
from knotrho.seifert import (
    jn_seifert,
    knot_surgery_presentation,
    torus_knot_seifert,
    trefoil_seifert,
    unknot_seifert,
)
from knotrho.signature import (
    _minor_chain,
    _tridiag_layout,
    alexander_at,
    alexander_polynomial,
    avg_signature,
    levine_tristram,
    litherland_torus_signature,
    torus_avg_lower_bound,
)
from knotrho.verify import (
    bounds_suite,
    property_suite,
    published_values_suite,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): {status}{suffix}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_criterion_1_litherland_oracle():
    for cache in (
        _tridiag_layout,
        _minor_chain,
            alexander_polynomial,
    ):
        cache.cache_clear()
    start = time.perf_counter()
    checked = skipped = 0
    mismatches = []
    for n in range(1, 31):
        a = torus_knot_seifert(n)
        for d in range(2, 61):
            for k in range(1, d // 2 + 1):
                root = UnitRoot(k, d)
                if alexander_at(a, root).is_zero:
                    skipped += 1
                    continue
                got = levine_tristram(a, root)
                want = litherland_torus_signature(n, Fraction(k, d))
                if got != want:
                    mismatches.append((n, k, d, got, want))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 120.0
    _report(
        1,
        "Litherland oracle",
        ok,
        f"{checked} nonsingular points equal, {skipped} singular skipped, {elapsed:.1f}s",
    )


def test_criterion_2_per_level_vs_closed_form():
    knots = [("unknot", unknot_seifert())]
    knots += [(f"torus2:{i}", torus_knot_seifert(i)) for i in range(1, 11)]
    knots += [(f"jn:{i}", jn_seifert(i)) for i in range(1, 11)]
    cases = 0
    bad = []
    for label, a in knots:
        cable = CableData.trivial_cable(a)
        for n in range(2, 31):
            pres = knot_surgery_presentation(n, n)
            res = rho_finite_cyclic(pres, cable, n)  # raises on internal mismatch
            direct = rho_knot_surgery(a, n)
            if res.value != direct or res.value != Fraction(sum(res.per_level), n):
                bad.append((label, n))
            cases += 1
    _report(
        2,
        "surgery-formula per-level average equals closed form",
        not bad,
        f"{cases} (knot, slope) pairs, exact equality, zero tolerance",
    )


def test_criterion_3_average_signature_bounds():
    bad = []
    cases = 0
    for n in range(1, 31):
        at = torus_knot_seifert(n)
        aj = jn_seifert(n)
        for d in range(2, 41):
            avg_t = avg_signature(at, d)
            if avg_t < torus_avg_lower_bound(n, d):
                bad.append(("torus-bound", n, d))
            if abs(avg_signature(aj, d) - avg_t) > 2:
                bad.append(("family-gap", n, d))
            cases += 1
    _report(
        3,
        "averaged-signature bounds",
        not bad,
        f"{cases} (n, d) pairs: torus average >= bound and family gap <= 2, exactly",
    )


def test_criterion_4_slice_genus_signature_bound():
    bad = []
    cases = 0
    for n in range(1, 31):
        for a, dmax in ((torus_knot_seifert(n), 60), (jn_seifert(n), 40)):
            for d in range(2, dmax + 1):
                for k in range(1, d // 2 + 1):
                    if math.gcd(k, d) != 1:
                        continue  # reduced points cover the whole grid
                    if abs(levine_tristram(a, UnitRoot(k, d))) > 2 * n:
                        bad.append((n, k, d))
                    cases += 1
    _report(
        4,
        "signature bounded by twice the slice genus",
        not bad,
        f"|sigma| <= 2n at {cases} tested roots for both families",
    )


def test_criterion_5_published_check_values():
    results = published_values_suite(k_max=1000, q_max=1000)
    failed = [r for r in results if not r.passed]
    _report(
        5,
        "published hyperbolic check values",
        not failed,
        "; ".join(r.detail for r in results),
    )


def test_criterion_6_bound_consistency_and_linear_growth():
    results = bounds_suite(n_cap=10**4)
    failed = [r for r in results if not r.passed]
    growth_bad = []
    for a, c in ((unknot_seifert(), 0), (trefoil_seifert(), 3), (jn_seifert(2), 8)):
        for n in (1000, 2000, 5000, 10**4):
            ratio_upper = Fraction(upper_bound(n, c), n)
            if not 96 <= ratio_upper <= 96 + 128 * c:
                growth_bad.append((c, n))
            rep = bound_report(a, n, crossing=c)
            lo, hi = Fraction(1, 2 * LOWER_BOUND_DENOM), Fraction(2, LOWER_BOUND_DENOM)
            if not lo <= rep.best_lower / n <= hi:
                growth_bad.append((c, n))
    ok = not failed and not growth_bad
    _report(
        6,
        "bound consistency and linear growth",
        ok,
        f"suite: {'; '.join(r.name for r in results)}; "
        f"ratio windows hold at n in (1000, 2000, 5000, 10000)",
    )


def test_criterion_7_randomized_property_suites():
    results = property_suite(count=200, size_max=12, seed=20240817)
    failed = [r for r in results if not r.passed]
    _report(
        7,
        "randomized property suites",
        not failed,
        f"5 properties x {results[0].detail.split()[0]} cases, zero failures"
        if not failed
        else failed[0].detail,
    )


def test_criterion_8_trefoil_end_to_end():
    trefoil = trefoil_seifert()
    closed = rho_knot_surgery(trefoil, 3)
    pres = knot_surgery_presentation(3, 3)
    via_levels = rho_finite_cyclic(pres, CableData.trivial_cable(trefoil), 3)
    thm_b = lower_bound_signature(trefoil, 3)
    ok = (
        closed == Fraction(14, 9)
        and via_levels.value == Fraction(14, 9)
        and Fraction(sum(via_levels.per_level), 3) == Fraction(14, 9)
        and thm_b == Fraction(2, 627419520)
    )
    _report(
        8,
        "trefoil end to end",
        ok,
        "rho = 14/9 by closed form and by per-level sum; lower bound = 2/627419520",
    )
