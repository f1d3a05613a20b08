"""Answers computed apart from the program, and the checks that use them.

Nothing here imports knotrho.  Signatures come from the torus-knot closed
form or from eigenvalues of (1-w)A + (1-conj(w))A^T with a separation
margin: relative to the spectral radius, an eigenvalue is zero below
ZERO_TOL and must otherwise clear SEPARATION.  Machine-float eigenvalues
(error about m * 1e-16) decide almost every point; a point with an
eigenvalue inside the margin is recomputed with mpmath at MP_DIGITS digits
and the margin scaled down to match.  Each check returns a list of
problems, empty when the answer is right.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath
import numpy as np

from workloads import family_rows

# Denominator of the signature lower bound on complexity (3 x 209139840).
LOWER_BOUND_DENOM = 627419520
ZERO_TOL = 1e-12
SEPARATION = 1e-9
MP_DIGITS = 60
MP_ZERO_TOL = 1e-45
MP_SEPARATION = 1e-35


class ReferenceUndecided(Exception):
    """An eigenvalue fell between the zero tolerance and the margin."""


def torus_closed_form(n: int, x: Fraction) -> int:
    """sigma of the (2, 2n+1) torus knot at e^{2 pi i x}, 0 < x <= 1/2, away
    from jumps: 2n - 2 floor((2n+1)(1/2 - x))."""
    t = (2 * n + 1) * (Fraction(1, 2) - x)
    return 2 * n - 2 * (t.numerator // t.denominator)


def torus_jump(n: int, k: int, d: int) -> bool:
    """True when w = e^{2 pi i k/d} has w^{2n+1} = -1 and w != -1."""
    return (2 * (2 * n + 1) * k) % (2 * d) == d and 2 * k != d


def torus_average(n: int, d: int) -> Fraction:
    """Closed-form average of sigma over the d-th roots of unity (odd d has
    no jump points; the conjugate half mirrors k <= d/2)."""
    total = 0
    for k in range(1, d // 2 + 1):
        s = 2 * n - 2 * ((2 * n + 1) * (d - 2 * k) // (2 * d))
        total += s if 2 * k == d else 2 * s
    return Fraction(total, d)


def _classify(ev, zero_tol, separation):
    """(positive, zero, negative) counts, or None inside the margin."""
    scale = max(1.0, max(abs(x) for x in ev))
    pos = zero = 0
    for x in ev:
        mag = abs(x) / scale
        if zero_tol < mag < separation:
            return None
        if mag <= zero_tol:
            zero += 1
        elif x > 0:
            pos += 1
    return pos, zero, len(ev) - pos - zero


def _mp_eigenvalues(rows, k: int, d: int) -> list:
    """Eigenvalues at the working precision of the caller's mpmath context."""
    w = mpmath.expjpi(mpmath.mpf(2 * k) / d)
    m = len(rows)
    h = mpmath.matrix(m, m)
    for i in range(m):
        for j in range(m):
            h[i, j] = (1 - w) * rows[i][j] + (1 - mpmath.conj(w)) * rows[j][i]
    return [mpmath.re(x) for x in mpmath.eighe(h, eigvals_only=True)]


def eigen_signatures(rows, d: int, ks) -> list[tuple[int, int, int]]:
    """(positive, zero, negative) eigenvalue counts at each k/d."""
    a = np.array(rows, dtype=float)
    w = np.exp(2j * np.pi * np.asarray(ks, dtype=float) / d)[:, None, None]
    eigs = np.linalg.eigvalsh((1 - w) * a + (1 - np.conj(w)) * a.T)
    out = []
    for k, ev in zip(ks, eigs):
        counts = _classify([float(x) for x in ev], ZERO_TOL, SEPARATION)
        if counts is None:
            with mpmath.workdps(MP_DIGITS):
                counts = _classify(_mp_eigenvalues(rows, k, d), MP_ZERO_TOL, MP_SEPARATION)
        if counts is None:
            raise ReferenceUndecided(f"eigenvalue within the margin at {k}/{d}")
        out.append(counts)
    return out


def eigen_average(rows, d: int) -> Fraction:
    """Average of sigma over the d-th roots of unity other than 1."""
    ks = list(range(1, d // 2 + 1))
    total = 0
    for k, (p, _, q) in zip(ks, eigen_signatures(rows, d, ks)):
        total += (p - q) if 2 * k == d else 2 * (p - q)
    return Fraction(total, d)


def jn_paper_bound(n: int, d: int) -> Fraction:
    """(1 - 1/d^2) n - (5d - 1)/(2d), the paper's twist-family average bound."""
    return Fraction(n * (d * d - 1), d * d) - Fraction(5 * d - 1, 2 * d)


# -- per-workload checks ----------------------------------------------------


def check_prime_avg(spec: dict, answer, memo: dict) -> list[str]:
    value, certified = answer
    n, d = spec["n"], spec["d"]
    key = (spec["family"], n, d)
    if key not in memo:
        if spec["family"] == "torus2":
            memo[key] = torus_average(n, d)
        else:
            memo[key] = eigen_average(family_rows("jn", n), d)
    expected = memo[key]
    bad = []
    if value != expected:
        bad.append(f"average {value} != reference {expected}")
    if not certified:
        bad.append("result not certified")
    if spec["family"] == "jn" and value < jn_paper_bound(n, d):
        bad.append(f"average {value} below the paper's bound {jn_paper_bound(n, d)}")
    return bad


def check_scrambled(spec: dict, answer, memo: dict) -> list[str]:
    n, d = spec["n"], spec["d"]
    size = 2 * n
    bad = []
    if len(answer) != d // 2:
        return [f"profile has {len(answer)} points, expected {d // 2}"]
    eps = Fraction(1, 4 * d * (2 * n + 1))
    for k, (sigma, (p, z, q), singular) in enumerate(answer, start=1):
        x = Fraction(k, d)
        jump = torus_jump(n, k, d)
        if jump:
            want = Fraction(torus_closed_form(n, x - eps) + torus_closed_form(n, x + eps), 2)
            want_z = 1
        else:
            want, want_z = torus_closed_form(n, x), 0
        if sigma != want:
            bad.append(f"sigma({k}/{d}) = {sigma}, expected {want}")
        if p + z + q != size or p - q != sigma:
            bad.append(f"inertia {(p, z, q)} inconsistent at {k}/{d}")
        if z != want_z:
            bad.append(f"nullity {z} at {k}/{d}, expected {want_z}")
        if singular != jump:
            bad.append(f"singular flag {singular} at {k}/{d}, expected {jump}")
    return bad


def check_twist(spec: dict, answer, memo: dict) -> list[str]:
    code, out = answer
    if code != 0:
        return [f"exit code {code}"]
    try:
        rec = json.loads(out)
    except json.JSONDecodeError:
        return [f"output is not one JSON record: {out[:120]!r}"]
    n, slope = spec["n"], spec["slope"]
    d = abs(slope)
    key = (n, d)
    if key not in memo:
        memo[key] = eigen_average(family_rows("jn", n), d)
    avg = memo[key]
    bad = []
    if spec["cmd"] == "bounds":
        if Fraction(rec["avg_sig"]) != avg:
            bad.append(f"avg_sig {rec['avg_sig']} != reference {avg}")
        want = Fraction(3 * abs(avg) - d + 1, LOWER_BOUND_DENOM)
        if Fraction(rec["lower_signature"]) != want:
            bad.append(f"lower_signature {rec['lower_signature']} != {want}")
        return bad
    mirrored_avg = avg if slope > 0 else -avg
    want = Fraction(d, 3) + Fraction(2, 3 * d) - 1 + mirrored_avg
    rho = Fraction(rec["rho"])
    if rho != want:
        bad.append(f"rho {rho} != {want}")
    levels = [Fraction(v) for v in rec["per_level"].split(";")]
    if len(levels) != d or levels[0] != 0:
        bad.append(f"per_level has {len(levels)} entries, first {levels[0]}")
    elif any(levels[k] != levels[d - k] for k in range(1, d)):
        bad.append("per_level is not symmetric in k <-> d - k")
    elif Fraction(sum(levels), d) != rho:
        bad.append(f"per-level mean {Fraction(sum(levels), d)} != rho {rho}")
    return bad


CHECKS = {
    "prime-avg": check_prime_avg,
    "scrambled-scan": check_scrambled,
    "twist-table": check_twist,
}
