"""The Alexander polynomial of a Seifert matrix and its unit-circle roots.

Delta(t) = det(A^T - t A) in Z[t], by the band continuant for tridiagonal
matrices and fraction-free Bareiss elimination otherwise.  For a knot,
Delta is palindromic, Delta(t) = t^g Q(t + 1/t) with Q in Z[x], and its
roots e^(i theta) on the unit circle are the roots x = 2 cos theta of Q in
[-2, 2].  Those are isolated once per matrix.  A tridiagonal knot reads Q
off its band, with no Delta built; other knots convert Delta.  A float
stage samples Q(2 cos theta) in the cosine basis, where it is well
conditioned at high degree, and refines every sign change by Newton steps
on Clenshaw's recurrence.  Each float root is then rounded outward to a
dyadic bracket of width 2^-40, certified by the signs of Q at its two
ends and by Descartes' rule of signs: disjoint brackets with a sign
change each, as many as the sign variations of Q carried by a Moebius map
from (-2, 2) onto (0, inf), hold one simple root each, and there is no
other root.  The signs come from Clenshaw's recurrence on the same
scaled coefficients with a rigorous running error bound; integer Horner
at the dyadic point decides only where the float value does not clear
it, and at a dyadic candidate root.  Any other case (more variations than brackets, from complex
roots near the interval or from the repeated roots of K # K; roots closer
together than the sampling step; clustered roots that the floats cannot
place within 2^-41) falls back to the Sturm chain of the squarefree part
q of Q: its count certifies float brackets of q, or else Sturm bisection
over Z gives the enclosures.  The signature engine's exact averages sum
by the arcs between the enclosures.
"""
from __future__ import annotations

import math
from itertools import accumulate

from .cyclotomic import CyclotomicElement, UnitRoot, _poly_divexact, _poly_trim, cyc_field
from .exceptions import InternalInconsistencyError, InvalidParameterError
from .seifert import SeifertMatrix, per_matrix_cache

_ROOT_BITS = 48  # enclosure endpoints are multiples of 2^-48 in x
_HALF_WIDTH = 1 << 7  # half-width of a float bracket, in units of 2^-48: width 2^-40
_SAMPLES_PER_DEGREE = 3  # float samples of q(2 cos theta) per unit of degree


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
    e = a.entries
    if a._tridiagonal:
        # Continuant of the band of A^T - tA: diagonal a_ii - a_ii t, and
        # beside it p - q t and q - p t, p = a_(i-1,i), q = a_(i,i-1), whose
        # product is pq - (p^2 + q^2) t + pq t^2.
        prev2, prev1 = [1], [e[0][0], -e[0][0]]
        for i in range(1, m):
            d, p, q = e[i][i], e[i - 1][i], e[i][i - 1]
            nxt = [0] * (i + 2)
            if d:
                for j, c in enumerate(prev1):
                    nxt[j] += d * c
                    nxt[j + 1] -= d * c
            if p or q:
                pq, s = p * q, p * p + q * q
                for j, c in enumerate(prev2):
                    nxt[j] -= pq * c
                    nxt[j + 1] += s * c
                    nxt[j + 2] -= pq * c
            prev2, prev1 = prev1, nxt
        return tuple(_poly_trim(prev1))
    mat = [[[e[j][i], -e[i][j]] for j in range(m)] for i in range(m)]
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


# -- Q(x), with Delta(t) = t^g Q(t + 1/t), and the Descartes count -------------


def _band_q(a: SeifertMatrix) -> list[int]:
    """Q of the tridiagonal knot matrix a, from its band.

    Divide the continuant D_i of A^T - tA by t^(i/2) and put
    u = t^(1/2) - t^(-1/2), so u^2 = x - 2 for x = t + 1/t.  The diagonal
    a_ii (1 - t) becomes -a_ii u and the off-diagonal product
    pq - (p^2 + q^2) t + pq t^2 becomes pq x - p^2 - q^2, so D_i / t^(i/2)
    is u^(i mod 2) R_i with R_0 = 1, R_1 = -a_11 and, for 1-based i,
    R_i = -a_ii (x - 2 if i is even, else 1) R_(i-1) - (pq x - p^2 - q^2) R_(i-2),
    p = a_(i-1,i), q = a_(i,i-1).  Q = R_m.
    """
    m = a.size
    if m == 0:
        return [1]
    e = a.entries
    prev2, prev1 = [1], [-e[0][0]]
    for i in range(1, m):
        d, p, q = e[i][i], e[i - 1][i], e[i][i - 1]
        nxt = [0] * ((i + 1) // 2 + 1)
        if d and i % 2:  # 1-based i + 1 even: -d (x - 2) R_(i-1)
            for j, c in enumerate(prev1):
                nxt[j] += 2 * d * c
                nxt[j + 1] -= d * c
        elif d:
            for j, c in enumerate(prev1):
                nxt[j] -= d * c
        if p or q:
            pq, s = p * q, p * p + q * q
            for j, c in enumerate(prev2):
                nxt[j] += s * c
                nxt[j + 1] -= pq * c
        prev2, prev1 = prev1, nxt
    return _poly_trim(prev1)


def _delta_q(delta: tuple[int, ...], m: int) -> list[int]:
    """Q from the Alexander polynomial delta of a knot matrix of size
    m = 2g.  Delta is palindromic, so with t^j + t^-j = V_j(t + 1/t),
    V_0 = 2, V_1 = x and V_(j+1) = x V_j - V_(j-1), Q = c_g + sum c_(g+j) V_j.
    """
    g = m // 2
    c = list(delta) + [0] * (m + 1 - len(delta))
    if any(c[i] != c[m - i] for i in range(m + 1)):
        raise InternalInconsistencyError("Alexander polynomial of a knot is not palindromic")
    q = [c[g]] + [0] * g
    v_prev, v = [2], [0, 1]
    for j in range(1, g + 1):
        for i, x in enumerate(v):
            q[i] += c[g + j] * x
        v_prev, v = v, _poly_sub([0] + v, v_prev)
    return _poly_trim(q)


def _knot_q(a: SeifertMatrix) -> list[int]:
    """Q with Delta(t) = t^g Q(t + 1/t), for the knot matrix a of size 2g:
    from the band for a tridiagonal matrix, else from Delta."""
    return _band_q(a) if a._tridiagonal else _delta_q(alexander_polynomial(a), a.size)


def _shift_by_one(r: list[int]) -> list[int]:
    """Descending coefficients of p(x + 1), from those r of p: Horner's
    Taylor shift, whose every pass is a running sum."""
    r = list(r)
    for top in range(len(r), 1, -1):
        r[:top] = accumulate(r[:top])
    return r


def _at_minus_2x(p: list[int]) -> list[int]:
    """Coefficients of p(-2x), from those of p, both ascending."""
    return [(-c if i & 1 else c) << i for i, c in enumerate(p)]


def _descartes_bound(q: list[int]) -> int:
    """V, the sign variations of T(y) = (1 + y)^n q(4/(1 + y) - 2), n = deg q.

    x = 4/(1 + y) - 2 maps y in (0, inf) one to one onto x in (-2, 2), so
    by Descartes' rule of signs V is at least the number of roots of q in
    (-2, 2), counted with multiplicity, and of the same parity; it equals
    that number when q is real-rooted (Collins and Akritas, 1976).  Two
    Taylor shifts give T: q(-2v - 2) from q(-2v), then with z = -v/2
    q(4z - 2), whose reversal shifted by one is T.
    """
    r = _shift_by_one(_at_minus_2x(q)[::-1])
    r = _shift_by_one(_at_minus_2x(r[::-1]))
    signs = [c > 0 for c in r if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


# -- the squarefree polynomial of the unit-circle roots and its Sturm chain -----


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
    p(x) 2^(b deg p) of x = num' / 2^b in lowest terms (b <= _ROOT_BITS),
    which has the same sign."""
    zeros = min((num & -num).bit_length() - 1 if num else _ROOT_BITS, _ROOT_BITS)
    num >>= zeros
    bits = _ROOT_BITS - zeros
    acc = p[-1]
    shift = 0
    for c in reversed(p[:-1]):
        shift += bits
        acc = acc * num + (c << shift)
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


def _sturm_count(chain) -> int:
    """Distinct roots in (-2, 2] of the first polynomial of the chain."""
    unit = 1 << _ROOT_BITS
    return _sign_variations(chain, -2 * unit) - _sign_variations(chain, 2 * unit)


def _root_polynomial(q: list[int]) -> tuple[list[int], list[list[int]]]:
    """(q, Sturm chain of q) for the squarefree part of the given q, which
    is q itself, the same list, when q is squarefree.

    The chain of the squarefree part counts the distinct roots of q in
    (lo, hi] for any lo < hi, a count that repeated roots of Delta, as in
    K # K, would break for the chain of Q itself.
    """
    chain = _sturm_chain(q)
    if len(chain[-1]) > 1:
        q = _poly_divexact(_primitive(q), _primitive(chain[-1]))
        chain = _sturm_chain(q)
    return q, chain


# -- float roots in the cosine basis ---------------------------------------------


def _cosine_coefficients(q: list[int]) -> list[int]:
    """b with q(2 cos theta) = b_0 + sum_(j >= 1) b_j V_j(2 cos theta), where
    V_j(2 cos theta) = 2 cos j theta: (t + 1/t)^i = sum_k C(i, k) t^(i - 2k)."""
    b = [0] * len(q)
    for i, c in enumerate(q):
        if c:
            binom = c
            for k in range(i // 2 + 1):
                b[i - 2 * k] += binom
                binom = binom * (i - k) // (k + 1)
    return b


def _cosine_floats(q: list[int]) -> tuple[list[float], float, float]:
    """(rev, f0, weight): q(2 cos theta) / top = f_0 + sum_(j >= 1) f_j V_j,
    with b = _cosine_coefficients(q), top = max |b_j| and each f_j = b_j / top
    correctly rounded, whatever the size of b_j, so |f_j| <= 1 and no value
    overflows; rev = [f_n, ..., f_1] and weight = 2 (|f_0| + 2 sum |f_j|),
    the coefficients' share of _float_sign's bound."""
    b = _cosine_coefficients(q)
    top = max(map(abs, b))
    f = [c / top for c in b]
    return f[:0:-1], f[0], 2.0 * (abs(f[0]) + 2.0 * math.fsum(map(abs, f[1:])))


def _clenshaw(rev: list[float], f0: float, x: float) -> float:
    """F(x) for F = f_0 + sum_(j >= 1) f_j V_j(x), rev = [f_n, ..., f_1], by
    Clenshaw's recurrence u_j = f_j + x u_(j+1) - u_(j+2), F = f_0 + x u_1 - 2 u_2."""
    u = u2 = 0.0
    for c in rev:
        u, u2 = c + x * u - u2, u
    return f0 + x * u - 2.0 * u2


_CLENSHAW_ERR = 2.0**-52  # twice the unit roundoff u = 2^-53
_SUBNORMAL = 2.0**-1074  # twice the absolute error of an underflowing product or quotient


def _float_sign(cosine, x: float) -> int:
    """Sign of q(x) at a float x in [-2, 2], from Clenshaw's recurrence on
    cosine = _cosine_floats(q), or 0 where the computed value v does not
    clear its rounding bound, which it never does at a root.

    A running error bound (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 5).  Each step u^_j = fl(fl(f_j + fl(x u^_(j+1))) - u^_(j+2))
    commits an error d_j, so the computed u^ are the exact recurrence of
    the coefficients f_j + d_j, and v = F(x) + d_0 + sum d_j V_j(x) with
    |V_j(x)| = |2 cos j theta| <= 2 on [-2, 2].  Round to nearest gives
    |fl(a) - a| <= u |fl(a)|, plus 2^-1075 for an underflowing product, so
    |d_j| <= (1 + u)^2 u (|f_j| + 4 |u^_(j+1)| + |u^_j|) + 2^-1075, and the
    last step likewise with |v|.  Rounding b_j / top moves F by at most
    u (|f_0| + 2 sum |f_j|) + (2n + 1) 2^-1075.  In all,
        |v - q(x) / top| <= (1 + u)^2 u (|v| + weight + 10 sum |u^_j|) + (4n + 2) 2^-1075,
    and the bound below, with 2u for u, also covers its own rounding.  A
    value or bound that overflows compares as undecided.
    """
    rev, f0, weight = cosine
    u = u2 = total = 0.0
    for c in rev:
        u, u2 = c + x * u - u2, u
        total += abs(u)
    v = f0 + x * u - 2.0 * u2
    bound = _CLENSHAW_ERR * (abs(v) + weight + 10.0 * total) + (4 * len(rev) + 2) * _SUBNORMAL
    return (v > bound) - (v < -bound)


def _newton_root(rev: list[float], f0: float, lo: float, f_lo: float, hi: float, f_hi: float):
    """Float root of F in (lo, hi), where F takes the values f_lo and f_hi
    of opposite signs: Newton steps from the secant point, F' by
    differentiating the recurrence, until a step falls below 2^-44; a step
    that would leave the shrinking bracket bisects it instead."""
    tol = 2.0 ** (4 - _ROOT_BITS)
    up = f_lo > 0.0
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    for _ in range(200):
        u = u2 = du = du2 = 0.0
        for c in rev:
            u, u2, du, du2 = c + x * u - u2, u, u + x * du - du2, du
        v = f0 + x * u - 2.0 * u2
        if v == 0.0:
            return x
        if (v > 0.0) == up:
            lo = x
        else:
            hi = x
        dv = u + x * du - 2.0 * du2
        step = v / dv if dv else math.inf
        if -tol <= step <= tol:
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return x


def _float_roots(cosine) -> list[float]:
    """Float estimates of the roots of q in (-2, 2), descending, from
    cosine = _cosine_floats(q).  Samples at theta = pi s / S,
    S = _SAMPLES_PER_DEGREE (deg q + 1), find every root whose neighbours
    lie at least one step away."""
    rev, f0, _ = cosine
    steps = _SAMPLES_PER_DEGREE * (len(rev) + 1)
    roots = []
    x_prev = v_prev = zero = None
    for s in range(steps + 1):
        x = 2.0 * math.cos(math.pi * s / steps)
        v = _clenshaw(rev, f0, x)
        if v == 0.0:
            zero = x if zero is None else zero
            continue
        if v_prev is not None and (v > 0.0) != (v_prev > 0.0):
            roots.append(zero if zero is not None else _newton_root(rev, f0, x, v, x_prev, v_prev))
        zero = None
        x_prev, v_prev = x, v
    return roots


def _certified_brackets(
    q: list[int], cosine, count: int, roots: list[float]
) -> list[tuple[int, int]] | None:
    """Enclosures (lo, hi) of the roots of q in [-2, 2], in units of
    2^-_ROOT_BITS, from the descending float roots; None unless certified.

    Each root becomes a bracket of width 2 _HALF_WIDTH around it, clipped to
    [-2, 2], or, when a dyadic root of q may be that close (its denominator
    divides the leading coefficient), the point itself if q vanishes there
    and otherwise a bracket with that end.  q must take nonzero opposite
    signs at the two ends of a bracket, so each holds an odd number of
    roots, and the brackets must be disjoint.  Those signs come from
    _float_sign on cosine = _cosine_floats(q), and from _dyadic_sign where
    it declines and at the dyadic candidate.  count bounds the roots of q
    in (-2, 2) that the brackets can hold: the Descartes count of Q, which
    counts them with multiplicity, or the Sturm count of the squarefree q,
    which counts distinct roots in (-2, 2].  As many brackets as count
    then hold one root each, simple for the Descartes count, and there
    are no others, given q(-2) != 0, which the caller checks, and for the
    Descartes count q(2) != 0, which holds for a knot: Q(2) = Delta(1) = +-1.
    """
    if len(roots) != count:
        return None
    unit = 1 << _ROOT_BITS
    lc = q[-1]
    step = 1 << max(_ROOT_BITS - ((lc & -lc).bit_length() - 1), 0)
    out = []
    for x in roots:
        c = x * unit  # exact: unit is a power of two
        cand = round(c / step) * step
        if abs(c - cand) <= _HALF_WIDTH:
            s = _dyadic_sign(q, cand)
            if s == 0:
                if out and out[-1][0] <= cand:
                    return None
                out.append((cand, cand))
                continue
            lo, hi = (cand, cand + 2 * _HALF_WIDTH) if c >= cand else (cand - 2 * _HALF_WIDTH, cand)
        else:
            s = None
            lo, hi = round(c) - _HALF_WIDTH, round(c) + _HALF_WIDTH
        lo, hi = max(lo, -2 * unit), min(hi, 2 * unit)
        # lo / unit and hi / unit are exact: |lo|, |hi| <= 2^(_ROOT_BITS + 1)
        s_lo = s if s is not None and lo == cand else _float_sign(cosine, lo / unit) or _dyadic_sign(q, lo)
        s_hi = s if s is not None and hi == cand else _float_sign(cosine, hi / unit) or _dyadic_sign(q, hi)
        if s_lo * s_hi >= 0 or (out and out[-1][0] <= hi):
            return None
        out.append((lo, hi))
    return out


def _refine_root(q: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Shrink (lo, hi], holding one simple root of the squarefree q with
    q(lo) != 0, to width one unit by sign bisection; (c, c) for an exact
    dyadic root c.  Endpoints are in units of 2^-_ROOT_BITS."""
    s_lo = _dyadic_sign(q, lo)
    if _dyadic_sign(q, hi) == 0:
        return hi, hi
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


def _sturm_bisection(q: list[int], chain) -> list[tuple[int, int]]:
    """Enclosures (lo, hi) of the distinct roots of q in [-2, 2], in units of
    2^-_ROOT_BITS, by the Sturm chain: bisection splits every interval until
    each holds one root, which sign bisection of q then shrinks to unit
    width, or to a point at an exact dyadic root.  An interval of unit
    width that still holds several roots is kept as one enclosure."""
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
    return found


@per_matrix_cache
def _alexander_root_enclosures(a: SeifertMatrix) -> tuple[tuple[float, float], ...]:
    """Disjoint closed enclosures [lo, hi], of width at most 2^-40, of the
    distinct roots of Q in [-2, 2], in descending order, where
    Delta(t) = t^g Q(t + 1/t) for the knot matrix a of size 2g.  Their
    endpoints are dyadic floats, exact; an exact dyadic root is a point.

    The roots of Delta on the unit circle are the t = e^(i theta) with
    Q(2 cos theta) = 0.  Float brackets of the roots of Q (_float_roots)
    are certified by the Descartes count of Q (_certified_brackets with
    _descartes_bound); a count of 0 needs no float stage.  Where that fails
    (a count past the brackets, a repeated root, Q(-2) = 0), the Sturm
    chain of the squarefree part q of Q certifies float brackets of q, or
    failing that gives the enclosures by Sturm bisection (_sturm_bisection).
    """
    big_q = _knot_q(a)
    if len(big_q) == 1:
        return ()
    found = roots = None
    if sum(c * (-2) ** i for i, c in enumerate(big_q)):  # Q(-2) != 0: Delta(-1) is odd for a knot
        count = _descartes_bound(big_q)
        cosine = _cosine_floats(big_q) if count else None
        roots = _float_roots(cosine) if count else []
        found = _certified_brackets(big_q, cosine, count, roots)
    if found is None:
        q, chain = _root_polynomial(big_q)
        if roots is not None:  # q(-2) != 0
            if q is not big_q:  # Q has a repeated factor
                cosine = _cosine_floats(q)
                roots = _float_roots(cosine)
            found = _certified_brackets(q, cosine, _sturm_count(chain), roots)
        if found is None:
            found = _sturm_bisection(q, chain)
    unit = 1 << _ROOT_BITS
    return tuple(sorted(((lo / unit, hi / unit) for lo, hi in found), reverse=True))
