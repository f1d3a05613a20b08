"""The Alexander polynomial of a Seifert matrix and its unit-circle roots.

Delta(t) = det(A^T - t A) in Z[t], by fraction-free Bareiss elimination,
except for tridiagonal matrices.  Their band has one recurrence in
x = t + 1/t (_band_q), which gives Delta, Q below and, run over the
residues of x = zeta + 1/zeta, the signs of the leading minors of the
Hermitian form that the signature engine tests at a singular point.  For
a knot, Delta is palindromic, Delta(t) = t^g Q(t + 1/t) with Q in Z[x],
and its roots e^(i theta) on the unit circle are the roots
x = 2 cos theta of Q in [-2, 2].  Those are isolated once per matrix
(_root_arcs), from Q in the cosine basis: a tridiagonal knot reads it off
its band, run in that basis, and any other knot off the upper half of
Delta; one conversion (_from_cosine) gives Q in Z[x] for the exact steps,
made only where one needs it.  A float stage samples Q(2 cos theta) in
the cosine basis, where it is well conditioned at high degree, and
refines every sign change by Newton steps on Clenshaw's recurrence.  Each
float root is then rounded outward to a dyadic bracket of width 2^-40,
certified by the signs of Q at its two ends and by a count of the roots:
disjoint brackets with a sign change each hold one simple root each, and
there is no other root, if there are deg Q of them, or deg Q - 1 of the
parity that the signs of Q(2) and Q(-2) give.  Neither sign is zero for
a knot: Q(2) = Delta(1) = +-1, and Q(-2) = +-Delta(-1) is odd, as
A + A^T = A - A^T mod 2.  The signs come from Clenshaw's recurrence on the same
scaled coefficients with a rigorous running error bound; integer Horner
at the dyadic point decides only where the float value does not clear
it, and at a dyadic candidate root.  Any other case (two or more roots
of Q off [-2, 2], which are roots of Delta off the unit circle; the
repeated roots of K # K; roots closer together than the sampling step;
clustered roots that the floats cannot place within 2^-41) falls back to
Descartes bisection of Q over the dyadic tree of [-2, 2], on the
squarefree part q of Q where a repeated root keeps a cell of unit width
from isolating a root: the number of roots it isolates certifies the
float brackets of q, or else its cells, refined by sign bisection to
width 2^-48, are the enclosures.  The signature engine's exact averages sum by
the arcs between the enclosures.  For a tridiagonal knot, the signature
on every arc follows from the enclosures too, in the same entry: the band
pass that gives Q gives the penultimate leading minor R_(m-1) as well,
and one certified sign of R_(m-1) per enclosure, with the sign of Q on
each arc that isolation certified at the bracket ends, tells by
Haynsworth's inertia additivity how sigma changes across each
enclosure.
"""
from __future__ import annotations

import math
from itertools import accumulate, zip_longest

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
    """det(A^T - t A) in Z[t] (ascending coefficients; 1 for the empty matrix):
    t^(m // 2) (t - 1)^(m mod 2) R_m(t + 1/t) for a tridiagonal matrix of
    size m, with the cosine coefficient b_j of R_m, which the band
    recurrence (_band_q) gives in that basis, at both t^(m // 2 - j) and
    t^(m // 2 + j); by Bareiss elimination otherwise."""
    m = a.size
    if a._tridiagonal:
        b = _band_q(a, 0, m, _cosine_times_x)[-1] if m else [1]
        b += [0] * (m // 2 + 1 - len(b))
        delta = b[:0:-1] + b
        if m % 2:
            delta = _poly_sub([0] + delta, delta)
        return tuple(_poly_trim(delta))
    e = a.entries
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


# -- the band recurrence, Q(x) with Delta(t) = t^g Q(t + 1/t), sign variations


def _band_q(a: SeifertMatrix, start: int, stop: int, times_x) -> list[list]:
    """[R_1, ..., R_(stop - start)] of the nonempty block [start, stop) of
    the tridiagonal matrix a, as lists that times_x multiplies by x: in
    the cosine basis (_cosine_times_x), or residues of x = zeta + 1/zeta
    mod Phi_d.

    Divide the continuant D_i of the block of A^T - tA by t^(i/2) and put
    u = t^(1/2) - t^(-1/2), so u^2 = x - 2 for x = t + 1/t.  The diagonal
    a_ii (1 - t) becomes -a_ii u and the off-diagonal product
    pq - (p^2 + q^2) t + pq t^2 becomes pq x - p^2 - q^2, so D_i / t^(i/2) is
    u^(i mod 2) R_i with R_0 = 1, R_1 = -a_11 and, i counting from 1 at start,
    R_i = -a_ii (x - 2 if i is even, else 1) R_(i-1) - (pq x - p^2 - q^2) R_(i-2),
    p = a_(i-1,i), q = a_(i,i-1).  Q = R_m for a knot of size m.  At
    w = e^(i theta) != 1, H = (1 - conj w)(A^T - wA) and (1 - conj w) w^(1/2) = u,
    so the i-th leading minor of the block of H is
    u^(i + i mod 2) R_i = (x - 2)^ceil(i/2) R_i(x), x = 2 cos theta < 2.
    A step multiplies R_(i-1) by x only where a_ii != 0 and i is even, and
    R_(i-2) only where pq != 0.
    """
    e = a.entries
    prev2, prev1 = [1], [-e[start][start]]
    out = [prev1]
    even = False
    for i in range(start + 1, stop):
        even = not even
        d, p, q = e[i][i], e[i - 1][i], e[i][i - 1]
        s, pq = p * p + q * q, p * q
        if d and even:  # -d (x - 2) R_(i-1) = d (2 R_(i-1) - x R_(i-1))
            terms = zip_longest(prev1, times_x(prev1), prev2, fillvalue=0)
            new = [d * (2 * r1 - y1) + s * r2 for r1, y1, r2 in terms]
        else:
            new = [s * r2 - d * r1 for r1, r2 in zip_longest(prev1, prev2, fillvalue=0)]
        if pq:  # - pq x R_(i-2)
            new = [n - pq * y for n, y in zip_longest(new, times_x(prev2), fillvalue=0)]
        prev2, prev1 = prev1, new
        out.append(new)
    return out


def _cosine_times_x(b: list[int]) -> list[int]:
    """x F for F = b_0 + sum_(j >= 1) b_j V_j(x), in the same basis:
    x V_j = V_(j+1) + V_(j-1) and x V_1 = V_2 + 2, so the new b_0 is 2 b_1
    and the new b_j is b_(j-1) + b_(j+1)."""
    return [2 * b[1] if len(b) > 1 else 0] + [u + w for u, w in zip(b, b[2:] + [0, 0])]


def _from_cosine(b: list[int]) -> list[int]:
    """F in Z[x] for F = b_0 + sum_(j >= 1) b_j V_j(x), where V_0 = 2, V_1 = x
    and V_(j+1) = x V_j - V_(j-1), so that V_j(t + 1/t) = t^j + t^-j."""
    f = [b[0]] + [0] * (len(b) - 1)
    v_prev, v = [2], [0, 1]
    for c in b[1:]:
        for i, x in enumerate(v):
            f[i] += c * x
        v_prev, v = v, _poly_sub([0] + v, v_prev)
    return _poly_trim(f)


def _exact_q(b: list[int], q: list[int]) -> list[int]:
    """q, which holds F in Z[x] for F = b_0 + sum_(j >= 1) b_j V_j, or is
    empty until an exact step needs F, when _from_cosine fills it."""
    if not q:
        q += _from_cosine(b)
    return q


def _delta_q(delta: tuple[int, ...], m: int) -> list[int]:
    """Q from the Alexander polynomial delta = sum c_i t^i of a knot matrix
    of size m = 2g.  Delta is palindromic, so Q = c_g + sum c_(g+j) V_j."""
    c = list(delta) + [0] * (m + 1 - len(delta))
    if any(c[i] != c[m - i] for i in range(m + 1)):
        raise InternalInconsistencyError("Alexander polynomial of a knot is not palindromic")
    return _from_cosine(c[m // 2:])


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


def _on_unit_interval(q: list[int]) -> list[int]:
    """Ascending coefficients of q(4z - 2), by two Taylor shifts: q(-2v - 2)
    from q(-2v), then z = -v/2."""
    r = _shift_by_one(_at_minus_2x(q)[::-1])
    return _at_minus_2x(r[::-1])


def _variations(p: list[int]) -> int:
    """V(p), the sign variations of T(y) = (1 + y)^n p(1/(1 + y)) for the
    ascending coefficients p of degree n: z = 1/(1 + y) maps y in (0, inf)
    onto z in (0, 1), so by Descartes' rule of signs V is at least the
    number of roots of p in (0, 1), counted with multiplicity, and of the
    same parity; V = 0 means none and V = 1 one simple root (Collins and
    Akritas, 1976).  Roots at 0 and 1 are zero coefficients of T, skipped."""
    signs = [c > 0 for c in _shift_by_one(p) if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


# -- Descartes bisection --------------------------------------------------------


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


def _squarefree(q: list[int]) -> list[int]:
    """q divided by gcd(q, q'), the last of the primitive pseudo-remainder
    sequence of q and q'; q itself, the same list, when that is constant."""
    u, v = q, _poly_deriv(q)
    while len(v) > 1:
        r = _prem(u, v)
        if r == [0]:
            return _poly_divexact(_primitive(q), _primitive(v))
        u, v = v, _primitive(r)
    return q


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


def _descartes_bisection(q: list[int], squarefree: bool = False):
    """(q, cells, several): cells (lo, hi), in units of 2^-_ROOT_BITS, that
    enclose the distinct roots of q in [-2, 2], one each, by the
    Vincent-Collins-Akritas method (Rouillier and Zimmermann, J. Comput.
    Appl. Math. 162, 2004), of which several have unit width and may hold
    several roots or none.  If a unit cell keeps V >= 2, or a midpoint is a
    repeated root, and q is not known to be squarefree, it runs again on
    the squarefree part, returned as q.

    A node (lo, hi) of the dyadic tree of [-2, 2], split at (lo + hi) // 2,
    keeps p(z) = c q(lo + (hi - lo) z), c > 0: 2^n p(z/2) for the left half
    and that shifted by one for the right, whose two lowest terms then tell
    q(mid) = 0 and q'(mid) = 0.  Ends of [-2, 2] and midpoints where q
    vanishes are points.  A node with V(p) = 0 holds no other root, and one
    with V(p) = 1 and q(lo) != 0 is a cell for _refine_root.  Others split
    down to unit width, where V(p) >= 1 makes a cell: one root beside the
    root lo, or, for V(p) >= 2 in the squarefree q, two roots within
    2^-_ROOT_BITS or a complex pair within about that distance of the axis,
    when it may be empty.  Every sigma stays correct even then: the arcs
    decide each grid point in such a cell on its own.
    """
    unit = 1 << _ROOT_BITS
    cells = [(x, x) for x in (-2 * unit, 2 * unit) if not _dyadic_sign(q, x)]
    several, n = 0, len(q) - 1
    todo = [(-2 * unit, 2 * unit, _on_unit_interval(q))]
    while todo:
        lo, hi, p = todo.pop()
        v = _variations(p)
        if v == 0:
            continue
        if v == 1 and p[0]:
            cells.append((lo, hi))
        elif hi - lo == 1:
            if v > 1 and not squarefree:
                return _descartes_bisection(_squarefree(q), True)
            cells.append((lo, hi))
            several += v > 1
        else:
            mid = (lo + hi) // 2
            left = [c << (n - i) for i, c in enumerate(p)]
            right = _shift_by_one(left[::-1])[::-1]
            if not right[0]:
                if not (right[1] or squarefree):
                    return _descartes_bisection(_squarefree(q), True)
                cells.append((mid, mid))
            todo += [(lo, mid, left), (mid, hi, right)]
    return q, cells, several


# -- float roots in the cosine basis ---------------------------------------------


def _cosine_coefficients(q: list[int]) -> list[int]:
    """b with q(2 cos theta) = b_0 + sum_(j >= 1) b_j V_j(2 cos theta), where
    V_j(2 cos theta) = 2 cos j theta: (t + 1/t)^i = sum_k C(i, k) t^(i - 2k).
    Root isolation needs it only for the squarefree part of Q, which it
    builds in Z[x]."""
    b = [0] * len(q)
    for i, c in enumerate(q):
        if c:
            binom = c
            for k in range(i // 2 + 1):
                b[i - 2 * k] += binom
                binom = binom * (i - k) // (k + 1)
    return b


def _scaled_floats(b: list[int]) -> tuple[list[float], float, float, float]:
    """(rev, f0, weight, slope) for F = b_0 + sum_(j >= 1) b_j V_j, not all
    b_j zero: F / top = f_0 + sum_(j >= 1) f_j V_j, with top = max |b_j| and
    each f_j = b_j / top correctly rounded, whatever the size of b_j, so
    |f_j| <= 1 and no value overflows; rev = [f_n, ..., f_1] and
    weight = 2 (|f_0| + 2 sum |f_j|), the coefficients' share of
    _float_sign's bound.  slope bounds |F'| / top on [-2, 2], as
    |V_j'(2 cos theta)| = |j sin j theta / sin theta| <= j^2: it is
    sum j^2 |f_j|, raised by 2^-50 of itself to cover the rounding of each
    product and of the sum, and of what _float_sign makes of it."""
    top = max(map(abs, b))
    f = [c / top for c in b]
    slope = (1.0 + 2.0**-50) * math.fsum(j * j * abs(c) for j, c in enumerate(f))
    return f[:0:-1], f[0], 2.0 * (abs(f[0]) + 2.0 * math.fsum(map(abs, f[1:]))), slope


def _clenshaw(rev: list[float], f0: float, x: float) -> float:
    """F(x) for F = f_0 + sum_(j >= 1) f_j V_j(x), rev = [f_n, ..., f_1], by
    Clenshaw's recurrence u_j = f_j + x u_(j+1) - u_(j+2), F = f_0 + x u_1 - 2 u_2."""
    u = u2 = 0.0
    for c in rev:
        u, u2 = c + x * u - u2, u
    return f0 + x * u - 2.0 * u2


_CLENSHAW_ERR = 2.0**-52  # twice the unit roundoff u = 2^-53
_SUBNORMAL = 2.0**-1074  # twice the absolute error of an underflowing product or quotient


def _float_sign(cosine, x: float, width: float = 0.0) -> int:
    """Sign of q on [x - width, x + width] within [-2, 2], from Clenshaw's
    recurrence at x on cosine = _scaled_floats of its cosine coefficients,
    or 0 where the computed value v does not clear its rounding bound,
    widened by width * slope, which bounds how far q / top moves from x;
    it never does at a root.

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
    value or bound that overflows compares as undecided.  The width term
    is added last; the margin in slope covers its rounding.
    """
    rev, f0, weight, slope = cosine
    u = u2 = total = 0.0
    for c in rev:
        u, u2 = c + x * u - u2, u
        total += abs(u)
    v = f0 + x * u - 2.0 * u2
    bound = _CLENSHAW_ERR * (abs(v) + weight + 10.0 * total) + (4 * len(rev) + 2) * _SUBNORMAL
    bound += width * slope
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
    cosine = _scaled_floats of its cosine coefficients.  Samples at
    theta = pi s / S, S = _SAMPLES_PER_DEGREE (deg q + 1), find every root
    whose neighbours lie at least one step away."""
    rev, f0 = cosine[:2]
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


def _sign_at(b: list[int], q: list[int], cosine, num: int) -> int:
    """Sign of F at num / 2^_ROOT_BITS in [-2, 2], F with the cosine
    coefficients b: _float_sign on cosine = _scaled_floats(b), or, where
    that declines, _dyadic_sign on F in Z[x], held in q (_exact_q)."""
    # num / 2^_ROOT_BITS is exact: |num| <= 2^(_ROOT_BITS + 1)
    return _float_sign(cosine, num / (1 << _ROOT_BITS)) or _dyadic_sign(_exact_q(b, q), num)


def _certified_brackets(
    b: list[int], q: list[int], cosine, count: int, roots: list[float]
) -> list[tuple[int, int, int]] | None:
    """Enclosures (lo, hi, below) of the roots of a polynomial F in
    [-2, 2], in units of 2^-_ROOT_BITS, from the descending float roots;
    None unless certified.  F has the cosine coefficients b, of which
    cosine is _scaled_floats, and q holds F in Z[x] or is empty until an
    exact sign needs it (_exact_q, _sign_at).

    Each root becomes a bracket of width 2 _HALF_WIDTH around it, clipped to
    [-2, 2], or, when a dyadic root of F may be that close (its denominator
    divides the leading coefficient b[-1]), the point itself if F vanishes
    there and otherwise a bracket with that end.  F must take nonzero
    opposite signs at the two ends of a bracket, so each holds an odd
    number of roots, and the brackets must be disjoint.  Those signs come
    from _sign_at, and from _dyadic_sign at the dyadic candidate.  count
    is a certified number of roots of F in (-2, 2), the number that degree
    and parity allow or that Descartes bisection isolated (see
    _root_enclosures), and as many brackets as count then hold one simple
    root each, and there are no others.  below is the sign of
    F on the gap below the enclosure, as far as the bracket signs certify
    it: F(lo) for a bracket; for a point, the sign at the high end of the
    bracket that comes next, or 0 where a point or nothing does.
    """
    if len(roots) != count:
        return None
    unit = 1 << _ROOT_BITS
    lc = b[-1]
    step = 1 << max(_ROOT_BITS - ((lc & -lc).bit_length() - 1), 0)
    out = []
    for x in roots:
        c = x * unit  # exact: unit is a power of two
        cand = round(c / step) * step
        if abs(c - cand) <= _HALF_WIDTH:
            s = _dyadic_sign(_exact_q(b, q), cand)
            if s == 0:
                if out and out[-1][0] <= cand:
                    return None
                out.append((cand, cand, 0))
                continue
            lo, hi = (cand, cand + 2 * _HALF_WIDTH) if c >= cand else (cand - 2 * _HALF_WIDTH, cand)
        else:
            s = None
            lo, hi = round(c) - _HALF_WIDTH, round(c) + _HALF_WIDTH
        lo, hi = max(lo, -2 * unit), min(hi, 2 * unit)
        s_lo = s if s is not None and lo == cand else _sign_at(b, q, cosine, lo)
        s_hi = s if s is not None and hi == cand else _sign_at(b, q, cosine, hi)
        if s_lo * s_hi >= 0 or (out and out[-1][0] <= hi):
            return None
        if out and not out[-1][2]:  # a point above, with no root between: F has the sign s_hi below it
            out[-1] = (*out[-1][:2], s_hi)
        out.append((lo, hi, s_lo))
    return out


def _refine_root(q: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Shrink (lo, hi), holding one simple root of q with q(lo) != 0, to
    width one unit of 2^-_ROOT_BITS by sign bisection; (c, c) for an exact
    dyadic root c.  A unit cell or a point is returned as it is."""
    s_lo = _dyadic_sign(q, lo)
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


def _degree_certifies(n: int, k: int, at_2: int, at_minus_2: int) -> bool:
    """Whether k disjoint brackets, each with nonzero opposite signs of Q at
    its ends and so an odd number of roots, hold every root of Q, of degree
    n, in (-2, 2), one simple root each, given Q(2) = at_2 and
    Q(-2) = at_minus_2, both odd for a knot.  They hold k roots or more,
    and Q has n.  So k = n leaves one root to each bracket and none
    elsewhere.  k = n - 1 does where Q(2) != 0 and n - 1 has the parity of
    [Q(-2) Q(2) < 0], which is that of the number of roots in (-2, 2):
    that number, n - 1 or n, is then n - 1, and the root left over lies
    outside [-2, 2]."""
    return k == n or (k == n - 1 and at_2 != 0 and k % 2 == (at_2 * at_minus_2 < 0))


def _root_enclosures(b: list[int], q: list[int], cosine) -> list[tuple[int, int, int]]:
    """Disjoint closed enclosures (lo, hi, below), in units of 2^-_ROOT_BITS
    and of width at most 2^-40, of the distinct roots of Q in [-2, 2], in
    descending order; an exact dyadic root is a point.  Q has degree
    n >= 1 and the cosine coefficients b, cosine is _scaled_floats(b), and
    q holds Q in Z[x] or is empty until an exact step needs it (_exact_q).
    below is the sign of Q on the gap below [lo, hi], down to the next
    enclosure or to -2, where isolation certified it, and 0 elsewhere.

    Float brackets of the roots of Q (_float_roots, _certified_brackets)
    have two certificates.  The first is degree and parity
    (_degree_certifies), with Q(+-2) = b_0 + 2 sum (+-1)^j b_j read off b
    (V_j(+-2) = 2 (+-1)^j); for a knot Q(2) = Delta(1) = +-1 and
    Q(-2) = +-Delta(-1) is odd, so the float stage always runs.  Where it
    fails (two or more roots of Q off [-2, 2], a repeated root, roots the
    floats cannot separate or place), Descartes bisection isolates the
    distinct roots of Q, or of its squarefree part where a repeated root
    needs it, and their number is the second, unless a unit cell may hold
    several.  Its root node makes the sign variations of Q over (-2, 2),
    so wherever that Descartes count would certify the brackets, Q has
    that many simple roots there and the bisection isolates as many.
    Failing both, the cells, refined by _refine_root, are the enclosures:
    the aligned cells of width 2^-48 that hold the roots, or the dyadic
    roots themselves.  below comes from the bracket signs of Q (not of a
    squarefree part), and from Q(-2) below the last enclosure.
    """
    at_2 = b[0] + 2 * sum(b[1:])
    at_minus_2 = b[0] + 2 * sum(b[2::2]) - 2 * sum(b[1::2])
    roots = _float_roots(cosine)
    found = None
    if _degree_certifies(len(b) - 1, len(roots), at_2, at_minus_2):
        found = _certified_brackets(b, q, cosine, len(roots), roots)
    if found is None:
        square_free, cells, several = _descartes_bisection(_exact_q(b, q))
        if not several:  # one root per cell
            if square_free is q:
                found = _certified_brackets(b, q, cosine, len(cells), roots)
            else:
                b = _cosine_coefficients(square_free)
                cosine = _scaled_floats(b)
                found = _certified_brackets(b, square_free, cosine, len(cells), _float_roots(cosine))
                found = found and [(lo, hi, 0) for lo, hi, _ in found]
        if found is None:
            found = [(*_refine_root(square_free, lo, hi), 0) for lo, hi in cells]
        found.sort(reverse=True)
    if found:
        found[-1] = (*found[-1][:2], (at_minus_2 > 0) - (at_minus_2 < 0))
    return found


@per_matrix_cache
def _root_arcs(a: SeifertMatrix) -> tuple[tuple[float, float, int | None], ...]:
    """(lo, hi, sigma) per root enclosure of the knot matrix a of size
    m = 2g, in descending order: [lo, hi] encloses a distinct root of Q in
    [-2, 2], where Delta(t) = t^g Q(t + 1/t) (_root_enclosures; the
    endpoints are dyadic floats, exact), and sigma is the signature on the
    open arc below it, down to the next enclosure or to w = -1.  sigma is
    None from the first crossing whose signs are not certified on, and
    everywhere for a knot matrix that is not tridiagonal.  The arc through
    w = 1, above every enclosure, has sigma = 0 (see _arc_points in
    signature).  Q comes in the cosine basis, from one band pass for a
    tridiagonal matrix, which gives R_(m-1) as well, or from Delta.

    The leading minors of H are D_i = (x - 2)^ceil(i/2) R_i(x) (_band_q),
    so where R_(m-1) != 0, H_(m-1) is nonsingular and Haynsworth's inertia
    additivity (Linear Algebra Appl. 1, 1968) gives
    neg H = neg H_(m-1) + [Q R_(m-1) < 0]: the factors (x - 2)^g cancel in
    D_m / D_(m-1).  neg H_(m-1) cannot change where R_(m-1) has no zero.
    So if R_(m-1) has the certified sign s on an enclosure, and Q the
    signs P- above and P+ below it, sigma changes across it by
    -2 ([s P+ < 0] - [s P- < 0]), however many roots, of whatever
    multiplicity, the enclosure holds.  The sign of R_(m-1) comes from
    _float_sign at the enclosure's midpoint, widened by its half-width,
    or, at a point enclosure, from the exact sign of R_(m-1) in Z[x],
    converted only then, where that declines.  P on each arc is the sign of
    Q that isolation certified below the enclosure above it
    (_root_enclosures), or else the sign at the dyadic point halfway down
    to the next enclosure; P = sign Q(2) = Delta(1) on the arc through
    w = 1.  Block sums such as K # K, where R_(m-1) vanishes at the roots,
    decline.  One entry per matrix, of one triple per enclosure.
    """
    m = a.size
    below = ()  # R_(m-1), from the band only
    if a._tridiagonal and m:
        *_, below, b = _band_q(a, 0, m, _cosine_times_x)
        q = []  # Q in Z[x], converted only for an exact step
    else:
        delta = alexander_polynomial(a)
        q, b = _delta_q(delta, m), list(delta[m // 2:])
    b = _poly_trim(b)
    if len(b) == 1:
        return ()
    q_floats = _scaled_floats(b)
    found = _root_enclosures(b, q, q_floats)
    unit = 1 << _ROOT_BITS
    sigmas = []
    if any(below):
        below_floats = _scaled_floats(below)
        exact_below = []  # R_(m-1) in Z[x], built only if a float sign declines at a point
        above = 1 if b[0] + 2 * sum(b[1:]) > 0 else -1  # Q(2), as V_j(2) = 2
        sigma = 0
        for i, (lo, hi, p) in enumerate(found):
            # (lo + hi) / 2 and (hi - lo) / 2, in x, are exact
            s = _float_sign(below_floats, (lo + hi) / (2 * unit), (hi - lo) / (2 * unit))
            if not s and lo == hi:
                s = _dyadic_sign(_exact_q(below, exact_below), lo)
            if s and not p:
                # Q has no root in (low, lo), and low is one only at a point enclosure
                low = found[i + 1][1] if i + 1 < len(found) else -2 * unit
                p = _sign_at(b, q, q_floats, (lo + low) // 2)
            if not (s and p):
                break
            sigma -= 2 * ((s * p < 0) - (s * above < 0))
            sigmas.append(sigma)
            above = p
    return tuple((lo / unit, hi / unit, sigma) for (lo, hi, _), sigma in zip_longest(found, sigmas))
