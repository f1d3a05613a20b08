"""Sound machine-float kernels for the signature engine.

For an integer Seifert matrix A the form is H = (1-w)A + (1-conj(w))A^T.
Every value here is a float midpoint with a rigorous radius, or a count
certified against such radii, so a decision taken here needs no exact
arithmetic.  Tridiagonality and the split into unreduced blocks are read
off the integers once per matrix (_tridiag_layout).  An unreduced
tridiagonal block is decided by a backward-stable pivot count: its entries
are read straight from the integer matrix with w rounded once per root,
the negative LDL^T pivots are counted at the two shifts -delta and +delta
in one pass over the block, and delta exceeds a rigorous bound on how far
the matrix each count is exact for lies from H (input radii plus
rounding, by Weyl; derived in _two_shift_counts).  Generic forms run a
midpoint-radius elimination (_generic_float_pass) with a 2x2 block pivot
of certified negative determinant wherever no diagonal entry of a Schur
complement is certified nonzero; it reports the size of the complement it
stalls at.
"""
from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

from .seifert import SeifertMatrix, per_matrix_cache

_EPS = 2.0 ** -52
_ETA = 4e-323  # absorbs underflow in radius arithmetic
# Error of each component of the rounded root e^{2 pi i num/den}; derived in
# cyclotomic._float_eval_with_bound.
_ROOT_ERR = 21.0 * _EPS
_TINY = sys.float_info.min  # smallest normal double
_HUGE = sys.float_info.max


# -- tridiagonal layout ------------------------------------------------------


def _blocks(breaks) -> tuple[tuple[int, int], ...]:
    """Half-open index ranges of the blocks of a tridiagonal matrix whose
    off-diagonal i (between rows i and i+1) vanishes exactly when breaks[i]."""
    out = []
    start = 0
    for i, brk in enumerate(breaks):
        if brk:
            out.append((start, i + 1))
            start = i + 1
    out.append((start, len(breaks) + 1))
    return tuple(out)


class _Band(NamedTuple):
    """Integer data of a tridiagonal H = (1-w)A + (1-conj(w))A^T.

    With c = 1 - Re w and s = Im w, the diagonal is h_ii = diag[i] * c and
    the squared off-diagonal |h_{i,i+1}|^2 = sum_sq[i] * c^2 + diff_sq[i] * s^2.
    """

    diag: tuple[int, ...]  # 2 a_ii
    sum_sq: tuple[int, ...]  # (a_{i,i+1} + a_{i+1,i})^2
    diff_sq: tuple[int, ...]  # (a_{i,i+1} - a_{i+1,i})^2
    diag_max: int  # max |diag[i]|
    sum_sq_max: int
    diff_sq_max: int


@per_matrix_cache
def _tridiag_layout(a: SeifertMatrix):
    """(band, unreduced blocks for non-real w, unreduced blocks at w = -1),
    read off the integer matrix; all three are None for a matrix that is
    not tridiagonal.

    h_ij = (1-w)a_ij + (1-conj(w))a_ji.  For non-real w, 1-w and
    1-conj(w) are linearly independent over Q, so h_ij = 0 iff
    a_ij = a_ji = 0; at w = -1, h_ij = 2(a_ij + a_ji).
    """
    if not a._tridiagonal:
        return None, None, None
    if a.size == 0:
        return _Band((), (), (), 0, 0, 0), (), ()
    e = a.entries
    pairs = [(e[i][i + 1], e[i + 1][i]) for i in range(a.size - 1)]
    diag = tuple(2 * e[i][i] for i in range(a.size))
    sum_sq = tuple((p + q) ** 2 for p, q in pairs)
    diff_sq = tuple((p - q) ** 2 for p, q in pairs)
    band = _Band(
        diag, sum_sq, diff_sq, max(map(abs, diag)), max(sum_sq, default=0), max(diff_sq, default=0)
    )
    return (
        band,
        _blocks([p == 0 and q == 0 for p, q in pairs]),
        _blocks([p + q == 0 for p, q in pairs]),
    )


# -- midpoint-radius float arithmetic (sound, Rump-style) --------------------


def _mr_sub(v1, r1, v2, r2):
    v = v1 - v2
    return v, r1 + r2 + 4.0 * _EPS * abs(v) + _ETA


def _mr_mul(v1, r1, v2, r2):
    v = v1 * v2
    r = abs(v1) * r2 + abs(v2) * r1 + r1 * r2 + 4.0 * _EPS * abs(v) + _ETA
    return v, r


class _FloatPassFailed(Exception):
    """Raised internally when a sign cannot be certified at machine precision."""


def _mr_int(x: int):
    try:
        v = float(x)
    except OverflowError:
        raise _FloatPassFailed from None
    return v, (0.0 if abs(x) <= 1 << 53 else abs(v) * _EPS)


def _mr_root(num: int, den: int):
    """(1 - Re w, Im w), each as (value, radius), for w = e^{2 pi i num/den}."""
    w = cmath.exp(2j * math.pi * num / den)
    return _mr_sub(1.0, 0.0, w.real, _ROOT_ERR), (w.imag, _ROOT_ERR)


def _mr_seifert_parts(p: int, q: int, omc, s):
    """Real and imaginary parts of h = (1-w)p + (1-conj(w))q
    = (p+q)(1 - Re w) - i(p-q) Im w, each as (value, radius)."""
    return _mr_mul(*_mr_int(p + q), *omc), _mr_mul(*_mr_int(q - p), *s)


def _mr_seifert_table(a: SeifertMatrix, omc, s):
    """Every entry of H as (complex value, radius), or None on overflow."""
    out = []
    try:
        for row, col in zip(a.entries, zip(*a.entries)):
            out_row = []
            for p, q in zip(row, col):
                re, im = _mr_seifert_parts(p, q, omc, s)
                out_row.append((complex(re[0], im[0]), re[1] + im[1]))
            out.append(out_row)
    except _FloatPassFailed:
        return None
    return out


# -- tridiagonal pivot count -------------------------------------------------


def _two_shift_counts(band: _Band, start: int, stop: int, omc, im):
    """Certified negative counts of the unreduced block [start, stop) of H
    and of its leading block [start, stop - 1), each None where the count
    does not certify it; omc and im come from _mr_root.

    H is unitarily similar (by a diagonal of phases) to the real tridiagonal
    T with diagonal alpha_i = 2 a_ii (1 - Re w) and off-diagonals
    sqrt(beta_i), beta_i = (p+q)^2 (1 - Re w)^2 + (p-q)^2 (Im w)^2.  Below,
    c and s are the rounded floats, within rc and rs of 1 - Re w and |Im w|;
    A, P, Q bound |2 a_ii|, (p+q)^2, (p-q)^2 over the matrix; u = eps/2 is
    the unit roundoff.

    Inputs.  alpha^_i = fl(2 a_ii c) is within A rc + 3u A c of alpha_i, and
    beta^_i (four roundings of nonnegative terms) within
        e_beta = P (2c rc + rc^2) + Q (2s rs + rs^2) + 3 eps max beta^
    of beta_i.  As |sqrt x - sqrt y| <= sqrt|x - y| and, for x > 0,
    <= |x - y| / sqrt x, the float matrix T^ (diagonal alpha^, off-diagonals
    sqrt beta^) has off-diagonals within
        off = min(sqrt e_beta, e_beta / sqrt min beta^)
    of T's.

    Count.  A pivot is computed as q^_i = ((alpha^_i - x)(1 + e1) -
    (beta^_{i-1} / q^_{i-1})(1 + e2) + t)(1 + e3) with |e_k| <= u and an
    underflow term |t| <= 2^-1075 from the division (subtractions that land
    among subnormals are exact; a zero, subnormal or non-finite pivot stops
    the count).  So q~_i = q^_i / (1 + e3_i) are the exact pivots of
    T~ - xI, where T~ has diagonal alpha^_i + e1 (alpha^_i - x) + t and
    squared off-diagonals beta^_i (1 + e2_{i+1}) / (1 + e3_i), and q~_i has
    the sign of q^_i: by Sylvester the count of negative q^ is the number
    of eigenvalues of T~ below x.  T~ - T^ has diagonal entries at most
    u (1 + u)^2 A c + u |x| + |t| and off-diagonals at most
    2 eps sqrt max beta^.

    Bound.  The 2-norm of a symmetric tridiagonal is at most its largest
    absolute row sum, so by Weyl every eigenvalue of T~ lies within
    eta + eps |x| of the matching eigenvalue of T, with
        eta = A (rc + 2 eps c) + 2 off + 4 eps sqrt max beta^ + _ETA,
    for any |x| >= 8u A c: the diagonal errors above add up to
    A rc + (4u + 2u^2 + u^3) A c + u |x| + |t|, and eps |x| = 2u |x| covers
    the second-order terms.

    Certificate.  At x = -delta and x = +delta with delta = 2 eta >= 8u A c
    (so that eta + eps delta < delta), the count at -delta is at most the
    number of negative eigenvalues of T and the count at +delta at least
    the number of nonpositive ones.  Equal counts certify that T is
    nonsingular with that many negative eigenvalues.  The first m-1 pivots
    are those of the leading block, whose perturbations obey the same
    bounds, so their counts certify it alike.

    One loop advances both pivot sequences, q_1 = alpha_1 - x and
    q_i = (alpha_i - x) - beta_{i-1} / q_{i-1} at x = -delta and +delta,
    from alpha and beta computed once; a zero, subnormal or non-finite
    pivot in either sequence certifies nothing.
    """
    c, rc = omc
    s, rs = abs(im[0]), im[1]
    c2, s2 = c * c, s * s
    diag = band.diag
    try:
        beta = [
            p * c2 + q * s2
            for p, q in zip(band.sum_sq[start:stop - 1], band.diff_sq[start:stop - 1])
        ]
        bmin, bmax = min(beta), max(beta)
        e_beta = (
            band.sum_sq_max * (2.0 * c * rc + rc * rc)
            + band.diff_sq_max * (2.0 * s * rs + rs * rs)
            + 3.0 * _EPS * bmax
        )
        off = math.sqrt(e_beta)
        if bmin > 0.0:
            off = min(off, e_beta / math.sqrt(bmin))
        # Converting diag_max to a float also converts every 2 a_ii below.
        eta = (
            band.diag_max * (rc + 2.0 * _EPS * c)
            + 2.0 * off
            + 4.0 * _EPS * math.sqrt(bmax)
            + _ETA
        )
    except OverflowError:
        return None, None
    if not eta < _HUGE:
        return None, None
    delta = 2.0 * eta
    tiny, huge = _TINY, _HUGE
    alpha = diag[start] * c
    q_lo, q_hi = alpha + delta, alpha - delta
    n_lo = n_hi = 0
    for x, b in zip(diag[start + 1:stop], beta):
        if not (tiny <= abs(q_lo) <= huge and tiny <= abs(q_hi) <= huge):
            return None, None
        n_lo += q_lo < 0.0
        n_hi += q_hi < 0.0
        alpha = x * c
        q_lo = alpha + delta - b / q_lo
        q_hi = alpha - delta - b / q_hi
    if not (tiny <= abs(q_lo) <= huge and tiny <= abs(q_hi) <= huge):
        return None, None
    lead = n_lo if n_lo == n_hi else None
    n_lo += q_lo < 0.0
    n_hi += q_hi < 0.0
    return (n_lo if n_lo == n_hi else None), lead


# -- generic elimination ------------------------------------------------------


def _mr_block_pivot(mat):
    """A certified 2x2 pivot of a Hermitian complement whose diagonal is
    undecided: (i, j, D) with D = |h_ij|^2 - h_ii h_jj > 0 as (value,
    radius), so the block has determinant -D < 0 and inertia (1, 0, 1); or
    None.  Tries the largest off-diagonal entry."""
    size = len(mat)
    if size < 2:
        return None
    _, i, j = max((abs(mat[i][j][0]), i, j) for i in range(size) for j in range(i + 1, size))
    h, rh = mat[i][j]
    nrm = _mr_mul(h, rh, h.conjugate(), rh)
    ac = _mr_mul(*mat[i][i], *mat[j][j])
    d, rd = _mr_sub(nrm[0], nrm[1], ac[0], ac[1])
    if d.real > rd + size * _ETA:
        return i, j, (d, rd)
    return None


def _generic_float_pass(mat) -> tuple[int, int, int]:
    """Certified machine-float pivoted elimination: (p, n, r), where p and
    n count the positive and negative pivots it certified and r is the size
    of the Schur complement it stalled at (0 when it completed).

    mat holds the entries as (complex value, radius).  Works on
    pivot-scaled Schur complements, which need no division: sigma, the
    sign of the accumulated scale, turns each pivot sign into its count,
    and a power of two keeps the scale in range.  The pivot is the largest
    diagonal entry whose enclosure excludes zero; when there is none, a
    2x2 block whose determinant is certified negative, which contributes
    (1, 0, 1) and scales the complement by minus that determinant, a
    positive number.  Every pivot taken is thus certified nonsingular, so
    with J the pivot indices, H_J is nonsingular with inertia (p, 0, n),
    and by Haynsworth In(H) = (p, 0, n) + In(H/H_J).
    A completed pass (r = 0) therefore certifies a nonsingular form.  It
    stalls, with r > 0, when neither kind of pivot is certified or when the
    next complement overflows.  A stall at r = 1 leaves the 1x1 complement
    det H / det H_J, up to a nonzero scale, so its sign is the sign of
    det H; _generic_seifert_inertia decides it when det H = 0.
    """
    p = n = 0
    sigma = 1
    while mat:
        size = len(mat)
        best = None
        for i in range(size):
            v, r = mat[i][i]
            re = v.real
            if abs(re) > r + size * _ETA:
                if best is None or abs(re) > best[0]:
                    best = (abs(re), i, 1 if re > 0 else -1)
        if best is not None:
            _, j, s = best
            contribution = sigma * s
            if contribution > 0:
                p += 1
            else:
                n += 1
            sigma = contribution
            piv = mat[j][j]
            rest = [k for k in range(size) if k != j]

            def entry(x, yi):
                y = rest[yi]
                return _mr_sub(*_mr_mul(*piv, *mat[x][y]), *_mr_mul(*mat[x][j], *mat[j][y]))

        else:
            block = _mr_block_pivot(mat)
            if block is None:
                return p, n, size
            i, j, det = block
            p += 1
            n += 1
            rest = [k for k in range(size) if k not in (i, j)]
            # D * C + B adj(P) B^* with P = [[a, h], [conj h, c]] on rows i, j:
            # entry (x, y) is D c_xy - b_xi u_y - b_xj v_y, where
            # u_y = h b_jy - c b_iy and v_y = conj(h) b_iy - a b_jy.
            a, h, hbar, c = mat[i][i], mat[i][j], mat[j][i], mat[j][j]
            us = [_mr_sub(*_mr_mul(*h, *mat[j][y]), *_mr_mul(*c, *mat[i][y])) for y in rest]
            vs = [_mr_sub(*_mr_mul(*hbar, *mat[i][y]), *_mr_mul(*a, *mat[j][y])) for y in rest]

            def entry(x, yi):
                t = _mr_sub(*_mr_mul(*det, *mat[x][rest[yi]]), *_mr_mul(*mat[x][i], *us[yi]))
                return _mr_sub(*t, *_mr_mul(*mat[x][j], *vs[yi]))

        # The complement is Hermitian, so the conjugate of an enclosure of
        # entry (x, y) encloses entry (y, x): only the upper triangle is computed.
        size = len(rest)
        new = [[None] * size for _ in range(size)]
        peak = 0.0
        for xi, x in enumerate(rest):
            for yi in range(xi, size):
                val = entry(x, yi)
                if not math.isfinite(val[0].real) or not math.isfinite(val[1]):
                    return p, n, size
                peak = max(peak, abs(val[0]))
                new[yi][xi] = (val[0].conjugate(), val[1])
                new[xi][yi] = val
        # Renormalize by a power of two: pivot scaling is exponential otherwise.
        if new and peak > 0.0 and not (0.25 <= peak <= 4.0):
            s = 2.0 ** -math.frexp(peak)[1]
            new = [[(v * s, r * s) for v, r in row] for row in new]
        mat = new
    return p, n, 0
