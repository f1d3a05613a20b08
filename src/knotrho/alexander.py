"""The Alexander polynomial of a Seifert matrix and its unit-circle roots.

Delta(t) = det(A^T - t A) in Z[t], by the band continuant for tridiagonal
matrices and fraction-free Bareiss elimination otherwise.  For a knot,
Delta is palindromic, Delta(t) = t^g Q(t + 1/t) with Q in Z[x], and its
roots e^(i theta) on the unit circle are the roots x = 2 cos theta of Q in
[-2, 2].  Those are isolated once per matrix by a Sturm sequence of the
squarefree part of Q over the integers and refined to dyadic enclosures;
the signature engine's exact averages sum by the arcs between them.
"""
from __future__ import annotations

import math

from .cyclotomic import CyclotomicElement, UnitRoot, _poly_divexact, _poly_trim, cyc_field
from .exceptions import InternalInconsistencyError, InvalidParameterError
from .floatpass import _EPS, _tridiag_layout
from .seifert import SeifertMatrix, per_matrix_cache

_ROOT_BITS = 48  # root enclosures are refined to width 2^-48 in x
_NEWTON_SLACK = 8  # half-width, in units of 2^-48, of the bracket tried around a float root


# -- integer polynomials and the Alexander polynomial -------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += c * cb
    return out


def _poly_sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


@per_matrix_cache
def alexander_polynomial(a: SeifertMatrix) -> tuple[int, ...]:
    """det(A^T - t A) in Z[t] (ascending coefficients; 1 for the empty matrix)."""
    m = a.size
    if m == 0:
        return (1,)
    mat = [
        [[a.entries[j][i], -a.entries[i][j]] for j in range(m)]
        for i in range(m)
    ]
    if _tridiag_layout(a)[0] is not None:
        prev2, prev1 = [1], mat[0][0]
        for i in range(1, m):
            term1 = _poly_mul(mat[i][i], prev1)
            term2 = _poly_mul(_poly_mul(mat[i][i - 1], mat[i - 1][i]), prev2)
            prev2, prev1 = prev1, _poly_trim(_poly_sub(term1, term2))
        return tuple(_poly_trim(prev1))
    # Fraction-free Bareiss over Z[t].
    sign = 1
    prev = [1]
    for k in range(m - 1):
        if _poly_trim(list(mat[k][k])) == [0]:
            for i in range(k + 1, m):
                if _poly_trim(list(mat[i][k])) != [0]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return (0,)
        pivot = mat[k][k]
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                num = _poly_sub(_poly_mul(mat[i][j], pivot), _poly_mul(mat[i][k], mat[k][j]))
                mat[i][j] = _poly_divexact(num, prev)
            mat[i][k] = [0]
        prev = pivot
    out = [sign * c for c in mat[m - 1][m - 1]]
    return tuple(_poly_trim(out))


def alexander_at(a: SeifertMatrix, root: UnitRoot) -> CyclotomicElement:
    """det(A^T - w A) as an exact cyclotomic element; zero iff the Hermitian
    form is singular at w (w must not be 1)."""
    if root.is_one:
        raise InvalidParameterError("alexander_at is undefined at omega = 1")
    return cyc_field(root.den).element(alexander_polynomial(a))


# -- unit-circle roots: Sturm isolation over Z --------------------------------


def _poly_deriv(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:] or [0]


def _primitive(p: list[int]) -> list[int]:
    """p divided by its (positive) content."""
    g = 0
    for c in p:
        g = math.gcd(g, c)
    return [c // g for c in p] if g > 1 else p


def _prem(u: list[int], v: list[int]) -> list[int]:
    """Pseudo-remainder lc(v)^(deg u - deg v + 1) u mod v over Z."""
    u = list(u)
    dv = len(v) - 1
    lc = v[-1]
    for i in range(len(u) - 1, dv - 1, -1):
        top = u[i]
        u = [lc * c for c in u]
        for j, c in enumerate(v):
            u[i - dv + j] -= top * c
    return _poly_trim(u[:dv] or [0])


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm sequence p, p', -rem, ... over Z: each remainder is a
    pseudo-remainder times -sign(lc^(delta+1)), made primitive, so it is a
    positive multiple of the rational Sturm remainder.  It ends at a
    multiple of gcd(p, p')."""
    chain = [p, _poly_deriv(p)]
    while len(chain[-1]) > 1:
        u, v = chain[-2], chain[-1]
        r = _prem(u, v)
        if r == [0]:
            break
        flip = v[-1] < 0 and (len(u) - len(v)) % 2 == 0
        chain.append(_primitive(r if flip else [-c for c in r]))
    return chain


def _dyadic_sign(p: list[int], num: int) -> int:
    """Sign of p(num / 2^_ROOT_BITS), by integer Horner on the numerator
    p(x) 2^(_ROOT_BITS deg p), which has the same sign."""
    acc = p[-1]
    scale = 1
    for c in reversed(p[:-1]):
        scale <<= _ROOT_BITS
        acc = acc * num + c * scale
    return (acc > 0) - (acc < 0)


def _sign_variations(chain, num: int) -> int:
    """Sign changes along the chain at num / 2^_ROOT_BITS, zeros dropped."""
    out = 0
    prev = 0
    for p in chain:
        s = _dyadic_sign(p, num)
        if s:
            out += prev * s < 0
            prev = s
    return out


def _float_newton(q: list[int], lo: int, hi: int, s_lo: int):
    """Safeguarded float Newton estimate, in units of 2^-_ROOT_BITS, of the
    root of q in (lo, hi), where q has sign s_lo at lo; None when the
    floats overflow.  Iterates that leave the current bracket are replaced
    by its midpoint.  Only a guess: _refine_root checks it with exact signs."""
    unit = 1 << _ROOT_BITS
    try:
        f = [float(c) for c in reversed(q)]
    except OverflowError:
        return None
    a, b = lo / unit, hi / unit
    x = 0.5 * (a + b)
    for _ in range(64):
        v = dv = 0.0
        for c in f:
            dv = dv * x + v
            v = v * x + c
        if not (math.isfinite(v) and math.isfinite(dv)):
            return None
        if v == 0.0:
            break
        if (v > 0.0) == (s_lo > 0):
            a = x
        else:
            b = x
        nxt = x - v / dv if dv else a  # a fails the bracket test: bisect
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
        if abs(nxt - x) <= _EPS:
            break
        x = nxt
    return round(x * unit)


def _refine_root(q: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Shrink (lo, hi], holding one simple root of the squarefree q with
    q(lo) != 0, to width one unit; (c, c) for an exact dyadic root c.
    Endpoints are in units of 2^-_ROOT_BITS.  A float Newton guess g
    narrows the interval to [g - slack, g + slack] when exact signs show
    the root there; sign bisection does the rest."""
    s_lo = _dyadic_sign(q, lo)
    if _dyadic_sign(q, hi) == 0:
        return hi, hi
    guess = _float_newton(q, lo, hi, s_lo)
    if guess is not None:
        a, b = max(lo, guess - _NEWTON_SLACK), min(hi, guess + _NEWTON_SLACK)
        if _dyadic_sign(q, a) == s_lo and _dyadic_sign(q, b) == -s_lo:
            lo, hi = a, b
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = _dyadic_sign(q, mid)
        if s == 0:
            return mid, mid
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


@per_matrix_cache
def _alexander_root_enclosures(a: SeifertMatrix) -> tuple[tuple[float, float], ...]:
    """Disjoint closed enclosures [lo, hi] of the distinct roots of Q in
    [-2, 2], in descending order, where Delta(t) = t^g Q(t + 1/t) for the
    knot matrix a of size 2g.  Their endpoints are dyadic floats, exact.

    Delta is palindromic for a knot, so with t^j + t^-j = V_j(t + 1/t),
    V_0 = 2, V_1 = x and V_(j+1) = x V_j - V_(j-1), Q = c_g + sum c_(g+j) V_j.
    The roots of Delta on the unit circle are the t = e^(i theta) with
    Q(2 cos theta) = 0.  The Sturm chain of the squarefree part counts the
    distinct roots of Q in (lo, hi] for any lo < hi (a count that repeated
    roots of Delta, as in K # K, would break for the chain of Q itself);
    bisection splits every interval until each holds one root, which sign
    bisection of the squarefree part then refines.  An interval of unit
    width that still holds several roots is kept as one enclosure.
    """
    m = a.size
    g = m // 2
    c = list(alexander_polynomial(a))
    c += [0] * (m + 1 - len(c))
    if any(c[i] != c[m - i] for i in range(m + 1)):
        raise InternalInconsistencyError("Alexander polynomial of a knot is not palindromic")
    q = [c[g]] + [0] * g
    v_prev, v = [2], [0, 1]
    for j in range(1, g + 1):
        for i, x in enumerate(v):
            q[i] += c[g + j] * x
        v_prev, v = v, _poly_sub([0] + v, v_prev)
    q = _poly_trim(q)
    if len(q) == 1:
        return ()
    chain = _sturm_chain(q)
    if len(chain[-1]) > 1:
        q = _poly_divexact(_primitive(q), _primitive(chain[-1]))
        chain = _sturm_chain(q)
    unit = 1 << _ROOT_BITS
    found = []
    if _dyadic_sign(q, -2 * unit) == 0:  # the count below covers (-2, 2]
        found.append((-2 * unit, -2 * unit))
    lo, hi = -2 * unit, 2 * unit
    todo = [(lo, hi, _sign_variations(chain, lo), _sign_variations(chain, hi))]
    while todo:
        lo, hi, v_lo, v_hi = todo.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1 and _dyadic_sign(q, lo) != 0:
            found.append(_refine_root(q, lo, hi))
        elif hi - lo == 1:
            found.append((lo, hi))
        else:
            mid = (lo + hi) // 2
            v_mid = _sign_variations(chain, mid)
            todo += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return tuple(sorted(((lo / unit, hi / unit) for lo, hi in found), reverse=True))
