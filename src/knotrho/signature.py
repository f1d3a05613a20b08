"""Signature engine: exact inertia of Hermitian forms at roots of unity.

For an integer Seifert matrix A the form is H = (1-w)A + (1-conj(w))A^T.
Tridiagonality and the split into unreduced blocks are read off the
integers once per matrix.  An unreduced tridiagonal block is decided by a
backward-stable pivot count: its entries are read straight from the
integer matrix with w rounded once per root, the negative LDL^T pivots
are counted at the two shifts -delta and +delta, and delta exceeds a
rigorous bound on how far the matrix each count is exact for lies from
H (input radii plus rounding, by Weyl; derived in _two_shift_counts).
Equal counts certify a nonsingular block and its inertia.  Otherwise the
exact last minor of the block is tested over the cyclotomic residue ring:
a zero gives one zero eigenvalue and, by strict interlacing, the certified
count of the leading block; anything else reads every minor sign off the
exact chain (interval refinement for tiny nonzero values).  Generic forms
run a sound midpoint-radius float elimination, with a 2x2 block pivot of
certified negative determinant wherever no diagonal entry of a Schur
complement is certified nonzero, and it reports the size r of the
complement it stalls at.  r = 0 certifies a nonsingular
form.  At a jump point it stalls at r = 1, and since
det H = (1 - conj w)^m Delta(w), an exact zero of the cached Alexander
polynomial at w certifies that this last complement is zero.  Any other
stall takes exact pivoted elimination on the full entry table.  Either
way the result is certified.  Float mode is plain eigenvalue computation
with a certification threshold; float averages evaluate their roots in
fixed chunks, one stacked eigensolve per chunk, and are the only users of
NumPy, which is imported on first use.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .cyclotomic import (
    CyclotomicElement,
    UnitRoot,
    certified_sign,
    cyc_field,
    eval_with_bound,
    exact_degree,
    _divisors,
)
from .exceptions import (
    InternalInconsistencyError,
    InvalidParameterError,
)
from .seifert import SeifertMatrix, _is_tridiagonal

if TYPE_CHECKING:
    import numpy as np

_EPS = 2.0 ** -52
_ETA = 4e-323  # absorbs underflow in radius arithmetic
# Error of each component of the rounded root e^{2 pi i num/den}; derived in
# cyclotomic._float_eval_with_bound.
_ROOT_ERR = 21.0 * _EPS
_TINY = sys.float_info.min  # smallest normal double
_HUGE = sys.float_info.max

FLOAT_CERT_FACTOR = 1.0e6  # spec'd certification threshold, in units of eps*norm
FLOAT_ZERO_FACTOR = 1.0e3  # eigenvalues below this band are classified zero
FLOAT_CHUNK = 128  # roots per stacked eigensolve in float-mode averages


@dataclass(frozen=True)
class InertiaTriple:
    """Counts (positive, zero, negative) of eigenvalues of a Hermitian form."""

    positive: int
    zero: int
    negative: int
    certified: bool = True

    @property
    def signature(self) -> int:
        return self.positive - self.negative

    @property
    def size(self) -> int:
        return self.positive + self.zero + self.negative

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.zero, self.negative)


def _sum_triples(triples) -> InertiaTriple:
    p = z = n = 0
    for t in triples:
        p, z, n = p + t.positive, z + t.zero, n + t.negative
    return InertiaTriple(p, z, n, certified=True)


def _sign_triple(s: int) -> InertiaTriple:
    return InertiaTriple(int(s > 0), int(s == 0), int(s < 0), certified=True)


class HermitianForm:
    """Hermitian matrix over a cyclotomic field, tagged with the evaluation root.

    The root fixes the embedding used for all sign decisions; its reduced
    denominator is the conductor of the entry field.
    """

    __slots__ = ("root", "field", "entries")

    def __init__(self, root: UnitRoot, entries: tuple[tuple[CyclotomicElement, ...], ...]):
        self.root = root
        self.field = cyc_field(root.den)
        for row in entries:
            for e in row:
                if e.field.d != self.field.d:
                    raise InvalidParameterError("entry conductor does not match the root")
        self.entries = entries

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    @classmethod
    def from_integer_symmetric(cls, rows) -> "HermitianForm":
        """Wrap a symmetric integer matrix (evaluation at omega = 1, d = 1)."""
        root = UnitRoot(0, 1)
        fld = cyc_field(1)
        m = len(rows)
        for i in range(m):
            for j in range(m):
                if rows[i][j] != rows[j][i]:
                    raise InvalidParameterError("matrix must be symmetric")
        entries = tuple(tuple(fld.scalar(x) for x in row) for row in rows)
        return cls(root, entries)

    def to_numeric(self) -> np.ndarray:
        import numpy as np

        m = self.size
        h = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                h[i, j] = self.entries[i][j].evaluate(self.root)
        return (h + h.conj().T) / 2.0


# -- exact entries ---------------------------------------------------------


def _herm_entry(fld, p: int, q: int) -> CyclotomicElement:
    """(1-x)p + (1-x^{-1})q over the conductor-d ring."""
    if p == 0 and q == 0:
        return fld.zero()
    return (fld.one() - fld.gen()) * p + (fld.one() - fld.gen_inv()) * q


@lru_cache(maxsize=None)
def _herm_residues(a: SeifertMatrix, den: int):
    """Full entry table of (1-x)A + (1-x^{-1})A^T over the conductor-den ring.

    The residues depend only on the conductor, not on which primitive root
    evaluates them, so one table serves every k/den grid point.  Only
    generic elimination and hermitian_form read it.
    """
    fld = cyc_field(den)
    m = a.size
    e = a.entries
    return tuple(tuple(_herm_entry(fld, e[i][j], e[j][i]) for j in range(m)) for i in range(m))


def hermitian_form(a: SeifertMatrix, root: UnitRoot) -> HermitianForm:
    """H = (1-w)A + (1-conj(w))A^T with exact cyclotomic entries.

    At w = 1 this is the zero matrix (the d = 1 residue ring collapses
    1 - x to 0), matching the convention that the signature there is 0.
    """
    return HermitianForm(root, _herm_residues(a, root.den))


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


@lru_cache(maxsize=None)
def _tridiag_layout(a: SeifertMatrix):
    """(band, unreduced blocks for non-real w, unreduced blocks at w = -1),
    read off the integer matrix; all three are None for a matrix that is
    not tridiagonal.

    h_ij = (1-w)a_ij + (1-conj(w))a_ji.  For non-real w, 1-w and
    1-conj(w) are linearly independent over Q, so h_ij = 0 iff
    a_ij = a_ji = 0; at w = -1, h_ij = 2(a_ij + a_ji).
    """
    if not _is_tridiagonal(a.entries):
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


def _mr_entry(element: CyclotomicElement, root: UnitRoot):
    ev = eval_with_bound(element, root)
    if ev is None:
        raise _FloatPassFailed
    return ev


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


# -- tridiagonal kernel ------------------------------------------------------


def _sturm_inertia_from_signs(signs: list[int]) -> InertiaTriple:
    """Inertia of an unreduced Hermitian tridiagonal from its minor signs.

    signs[i-1] is the sign of the i-th leading principal minor D_i; D_0 = 1.
    Strict interlacing of leading minors gives: a zero minor leaves the
    negative count unchanged at its own step and forces +1 at the next;
    otherwise a sign change adds one negative eigenvalue.  All eigenvalues
    are simple, so z = 1 exactly when the last minor vanishes.
    """
    m = len(signs)
    neg = 0
    prev_sign = 1
    prev_zero = False
    for s in signs:
        if s == 0:
            if prev_zero:
                raise InternalInconsistencyError(
                    "two consecutive zero minors in an unreduced tridiagonal form"
                )
            prev_zero = True
        elif prev_zero:
            neg += 1
            prev_zero = False
            prev_sign = s
        else:
            if s != prev_sign:
                neg += 1
            prev_sign = s
    zero = 1 if signs[-1] == 0 else 0
    return InertiaTriple(m - neg - zero, zero, neg, certified=True)


def _chain(diag, off) -> tuple:
    """Exact leading principal minors D_1..D_k of an unreduced tridiagonal.

    D_i = a_i D_{i-1} - |b_{i-1}|^2 D_{i-2}.
    """
    chain = []
    d2 = diag[0].field.one()
    d1 = diag[0]
    chain.append(d1)
    for i in range(1, len(diag)):
        nrm = off[i - 1] * off[i - 1].conjugate()
        d2, d1 = d1, diag[i] * d1 - nrm * d2
        chain.append(d1)
    return tuple(chain)


@lru_cache(maxsize=None)
def _minor_chain(a: SeifertMatrix, den: int, start: int, stop: int) -> tuple:
    """Exact leading minors of the block [start, stop) of H, built from
    that band alone over the conductor-den ring.

    Like the entries themselves, the chain depends only on the conductor,
    so it is shared by every evaluation point k/den.
    """
    fld = cyc_field(den)
    e = a.entries
    diag = [_herm_entry(fld, e[i][i], e[i][i]) for i in range(start, stop)]
    off = [_herm_entry(fld, e[i][i + 1], e[i + 1][i]) for i in range(start, stop - 1)]
    return _chain(diag, off)


def _settle_signs(chain, root: UnitRoot) -> InertiaTriple:
    """Inertia of an unreduced tridiagonal block from its exact minor chain:
    symbolic zero test first, interval refinement only for genuinely tiny
    nonzero values."""
    return _sturm_inertia_from_signs([certified_sign(d, root)[0] for d in chain])


def _negative_pivots(alpha: list, beta: list, x: float):
    """Negative LDL^T pivots of T - xI, as (count among the first m-1,
    whether the last is negative), for the real tridiagonal T with diagonal
    alpha and squared off-diagonals beta; None when a pivot is zero,
    subnormal or not finite.

    q_1 = alpha_1 - x and q_i = (alpha_i - x) - beta_{i-1} / q_{i-1}.
    """
    q = alpha[0] - x
    neg = 0
    for a_i, b in zip(alpha[1:], beta):
        if not _TINY <= abs(q) <= _HUGE:
            return None
        neg += q < 0.0
        q = a_i - x - b / q
    if not _TINY <= abs(q) <= _HUGE:
        return None
    return neg, q < 0.0


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
    """
    c, rc = omc
    s, rs = abs(im[0]), im[1]
    c2, s2 = c * c, s * s
    try:
        alpha = [x * c for x in band.diag[start:stop]]
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
    lo = _negative_pivots(alpha, beta, -2.0 * eta)
    hi = _negative_pivots(alpha, beta, 2.0 * eta)
    if lo is None or hi is None:
        return None, None
    lead = lo[0] if lo[0] == hi[0] else None
    full = lo[0] + lo[1] if lo[0] + lo[1] == hi[0] + hi[1] else None
    return full, lead


def _block_inertia(
    a: SeifertMatrix, band: _Band, start: int, stop: int, omc, s, num: int, den: int
) -> InertiaTriple:
    """Inertia of the unreduced block [start, stop) of H at w = e^{2 pi i num/den}.

    The two-shift pivot count decides a nonsingular block outright.
    Otherwise the exact last minor is tested: if it vanishes, the block has
    a simple zero eigenvalue and, by strict interlacing, the same negative
    count as its leading block, which is nonsingular.  Only when that count
    is not certified either is every sign read off the exact chain.
    """
    m = stop - start
    full, lead = _two_shift_counts(band, start, stop, omc, s)
    if full is not None:
        return InertiaTriple(m - full, 0, full)
    chain = _minor_chain(a, den, start, stop)
    if chain[-1].is_zero and lead is not None:
        return InertiaTriple(m - 1 - lead, 1, lead)
    return _settle_signs(chain, UnitRoot(num, den))


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
    pivot-scaled Schur complements so the recurrence mirrors the exact
    path.  The pivot is the largest diagonal entry whose enclosure excludes
    zero; when there is none, a 2x2 block whose determinant is certified
    negative, which contributes (1, 0, 1) and scales the complement by
    minus that determinant, a positive number.  Every pivot taken is thus
    certified nonsingular, so with J the pivot indices, H_J is nonsingular
    with inertia (p, 0, n), and by Haynsworth In(H) = (p, 0, n) + In(H/H_J).
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
            new = []
            peak = 0.0
            for a_i in rest:
                row = []
                for b_i in rest:
                    t1 = _mr_mul(piv[0], piv[1], *mat[a_i][b_i])
                    t2 = _mr_mul(*mat[a_i][j], *mat[j][b_i])
                    val = _mr_sub(t1[0], t1[1], t2[0], t2[1])
                    if not math.isfinite(val[0].real) or not math.isfinite(val[1]):
                        return p, n, size - 1
                    peak = max(peak, abs(val[0]))
                    row.append(val)
                new.append(row)
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
            new = []
            peak = 0.0
            for x in rest:
                row = []
                for y, u, v in zip(rest, us, vs):
                    t = _mr_sub(*_mr_mul(*det, *mat[x][y]), *_mr_mul(*mat[x][i], *u))
                    val = _mr_sub(*t, *_mr_mul(*mat[x][j], *v))
                    if not math.isfinite(val[0].real) or not math.isfinite(val[1]):
                        return p, n, size - 2
                    peak = max(peak, abs(val[0]))
                    row.append(val)
                new.append(row)
        # Renormalize by a power of two: pivot scaling is exponential otherwise.
        if new and peak > 0.0 and not (0.25 <= peak <= 4.0):
            s = 2.0 ** -math.frexp(peak)[1]
            new = [[(v * s, r * s) for v, r in row] for row in new]
        mat = new
    return p, n, 0


def _generic_inertia_exact(entries, root) -> InertiaTriple:
    """Exact pivoted elimination over the cyclotomic ring.

    Pivot: greatest-magnitude (by certified midpoint) nonzero diagonal
    entry; if the whole diagonal is zero, a 2x2 off-diagonal block step
    contributes (1, 0, 1).  Schur complements are scaled by the pivot to
    stay division-free; the sigma flag un-flips the inertia contributions
    when an accumulated scale is negative.
    """
    p = n = z = 0
    sigma = 1
    active = [list(row) for row in entries]
    while active:
        size = len(active)
        best = None
        for i in range(size):
            e = active[i][i]
            if not e.is_zero:
                s, approx = certified_sign(e, root)
                if s == 0:
                    raise InternalInconsistencyError("nonzero residue evaluated to zero")
                if best is None or approx > best[0]:
                    best = (approx, i, s)
        if best is not None:
            _, j, s = best
            contribution = sigma * s
            if contribution > 0:
                p += 1
            else:
                n += 1
            sigma = contribution
            piv = active[j][j]
            rest = [k for k in range(size) if k != j]
            active = [
                [piv * active[a][b] - active[a][j] * active[j][b] for b in rest]
                for a in rest
            ]
            continue
        # Whole diagonal is exactly zero.
        pos = None
        for i in range(size):
            for j in range(i + 1, size):
                if not active[i][j].is_zero:
                    pos = (i, j)
                    break
            if pos:
                break
        if pos is None:
            z += size
            break
        i, j = pos
        p += 1
        n += 1
        h = active[i][j]
        hbar = active[j][i]
        nrm = h * hbar
        rest = [k for k in range(size) if k not in (i, j)]
        active = [
            [
                nrm * active[a][b]
                - h * active[a][i] * active[j][b]
                - hbar * active[a][j] * active[i][b]
                for b in rest
            ]
            for a in rest
        ]
    return InertiaTriple(p, z, n, certified=True)


def _inertia_exact(form: HermitianForm) -> InertiaTriple:
    """Exact inertia of a form given by residues: tridiagonality and block
    splitting are decided on the residues themselves."""
    entries = form.entries
    root = form.root
    m = len(entries)
    if m == 0:
        return InertiaTriple(0, 0, 0, certified=True)
    tridiag = all(
        entries[i][j].is_zero
        for i in range(m)
        for j in range(m)
        if abs(i - j) >= 2
    )
    if not tridiag:
        try:
            mat = [[_mr_entry(e, root) for e in row] for row in entries]
        except _FloatPassFailed:
            return _generic_inertia_exact(entries, root)
        p, n, rest = _generic_float_pass(mat)
        return InertiaTriple(p, 0, n) if rest == 0 else _generic_inertia_exact(entries, root)
    triples = []
    for start, stop in _blocks([entries[i][i + 1].is_zero for i in range(m - 1)]):
        if stop - start == 1:
            triples.append(_sign_triple(certified_sign(entries[start][start], root)[0]))
        else:
            # Forms given by residues skip the pivot count and read every
            # sign off the exact chain.
            diag = [entries[i][i] for i in range(start, stop)]
            off = [entries[i][i + 1] for i in range(start, stop - 1)]
            triples.append(_settle_signs(_chain(diag, off), root))
    return _sum_triples(triples)


def _numeric_inertias(h: np.ndarray):
    """(positive counts, negative counts, certified flags) of a stack of
    Hermitian matrices of shape (K, m, m), m > 0, from one eigensolve."""
    import numpy as np

    eigs = np.linalg.eigvalsh(h)
    mag = np.abs(eigs)
    scale = np.max(mag, axis=-1, keepdims=True)
    tau_zero = FLOAT_ZERO_FACTOR * _EPS * scale
    tau_cert = FLOAT_CERT_FACTOR * _EPS * scale
    p = np.sum(eigs > tau_zero, axis=-1)
    n = np.sum(eigs < -tau_zero, axis=-1)
    certified = ~np.any((mag > tau_zero) & (mag <= tau_cert), axis=-1)
    return p, n, certified


def _inertia_from_numeric(h: np.ndarray) -> InertiaTriple:
    m = h.shape[0]
    if m == 0:
        return InertiaTriple(0, 0, 0, certified=True)
    p, n, certified = _numeric_inertias(h[None])
    p, n = int(p[0]), int(n[0])
    return InertiaTriple(p, m - p - n, n, certified=bool(certified[0]))


def inertia(form: HermitianForm, mode: str = "exact") -> InertiaTriple:
    """Inertia triple of a Hermitian form.

    Exact mode is always certified; float mode certifies only when every
    eigenvalue classified nonzero clears 10^6 * eps * norm.
    """
    if mode == "exact":
        return _inertia_exact(form)
    if mode == "float":
        return _inertia_from_numeric(form.to_numeric())
    raise InvalidParameterError(f"mode must be 'exact' or 'float', got {mode!r}")


def _numeric_hermitians(a: SeifertMatrix, omegas) -> np.ndarray:
    """H at each w of omegas, stacked into shape (len(omegas), m, m)."""
    import numpy as np  # loaded by float mode only: exact mode never needs it

    w = np.array(omegas, dtype=complex).reshape(-1, 1, 1)
    arr = np.array(a.entries, dtype=complex).reshape(a.size, a.size)
    h = (1 - w) * arr + (1 - w.conj()) * arr.T
    return (h + h.conj().swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True)
class SignatureResult:
    value: int
    inertia: InertiaTriple
    singular: bool
    certified: bool


def _generic_seifert_inertia(a: SeifertMatrix, omc, s, num: int, den: int) -> InertiaTriple:
    """Inertia of a non-tridiagonal H at w = e^{2 pi i num/den}.

    The sound float pass decides a nonsingular form outright.  When it
    stalls at a 1x1 complement, the exact Alexander value decides it:
    H = (1 - conj w)(A^T - w A), so det H = (1 - conj w)^m Delta(w) with
    1 - conj w != 0, also for link matrices with Delta = 0.  If Delta(w) = 0,
    the complement, a nonzero multiple of det H / det H_J, is zero and
    Haynsworth gives (p, 1, n).  Every other stall takes exact pivoted
    elimination on the full residue table.
    """
    mat = _mr_seifert_table(a, omc, s)
    p, n, rest = _generic_float_pass(mat) if mat is not None else (0, 0, a.size)
    if rest == 0:
        return InertiaTriple(p, 0, n)
    root = UnitRoot(num, den)
    if rest == 1 and alexander_at(a, root).is_zero:
        return InertiaTriple(p, 1, n)
    return _generic_inertia_exact(_herm_residues(a, den), root)


@lru_cache(maxsize=None)
def _signature_exact_cached(a: SeifertMatrix, num: int, den: int) -> InertiaTriple:
    """Exact inertia of H at w = e^{2 pi i num/den}.  Callers pass the
    smaller of num and den - num: H(conj w) = conj H(w) has the same inertia,
    and check the conductor with exact_degree first."""
    omc, s = _mr_root(num, den)
    band, blocks, blocks_den2 = _tridiag_layout(a)
    if band is None:
        return _generic_seifert_inertia(a, omc, s, num, den)
    triples = []
    for start, stop in blocks_den2 if den == 2 else blocks:
        if stop - start == 1:
            # h_ii = 2 a_ii (1 - Re w) with 1 - Re w > 0: the sign of a_ii.
            triples.append(_sign_triple(a.entries[start][start]))
        else:
            triples.append(_block_inertia(a, band, start, stop, omc, s, num, den))
    return _sum_triples(triples)


def signature_details(a: SeifertMatrix, root: UnitRoot, mode: str = "exact") -> SignatureResult:
    """Signature with its inertia triple, singularity and certification flags."""
    if root.is_one:
        triple = InertiaTriple(0, a.size, 0, certified=True)
        return SignatureResult(0, triple, a.size > 0, True)
    if mode == "exact":
        exact_degree(root.den)  # refuse huge conductors even where floats would decide
        triple = _signature_exact_cached(a, min(root.num, root.den - root.num), root.den)
    elif mode == "float":
        triple = _inertia_from_numeric(_numeric_hermitians(a, [root.to_complex()])[0])
    else:
        raise InvalidParameterError(f"mode must be 'exact' or 'float', got {mode!r}")
    return SignatureResult(triple.signature, triple, triple.zero > 0, triple.certified)


def levine_tristram(a: SeifertMatrix, root: UnitRoot, mode: str = "exact") -> int:
    """sigma_K(omega): signature of (1-w)A + (1-conj(w))A^T; 0 at w = 1."""
    return signature_details(a, root, mode).value


# -- Alexander polynomial -----------------------------------------------------


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


def _poly_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division in Z[t]; top-down long division, each step must divide."""
    num = _poly_trim(list(num))
    den = _poly_trim(list(den))
    lead = den[-1]
    dn = len(den) - 1
    if len(num) == 1 and num[0] == 0:
        return [0]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out[i - dn] = q
            base = i - dn
            for j, dj in enumerate(den):
                num[base + j] -= q * dj
    if any(num[:dn]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
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
    fld = cyc_field(root.den)
    poly = alexander_polynomial(a)
    acc = fld.zero_list()
    for c in reversed(poly):
        acc = fld.mul_x_list(acc)
        acc[0] += c
    return fld.element(acc)


# -- averaged signatures -------------------------------------------------------


def _primitive_numerators(den: int) -> tuple[list[int], int]:
    """Numerators k of one primitive den-th root per conjugate pair, and the
    weight 2 (or 1 at den = 2, whose only primitive root is real)."""
    if den == 2:
        return [1], 1
    return [k for k in range(1, (den + 1) // 2) if math.gcd(k, den) == 1], 2


@lru_cache(maxsize=None)
def _primitive_signature_sum_exact(a: SeifertMatrix, den: int) -> int:
    """Sum of sigma over the primitive den-th roots of unity (den > 1); the
    conductor is checked once for the whole grid."""
    exact_degree(den)
    ks, weight = _primitive_numerators(den)
    return weight * sum(_signature_exact_cached(a, k, den).signature for k in ks)


def _primitive_signature_sum_float(a: SeifertMatrix, den: int) -> tuple[int, bool]:
    """Float-mode sum over the primitive den-th roots and whether every term
    is certified; each chunk of FLOAT_CHUNK roots is one stacked eigensolve,
    term for term equal to signature_details(a, root, "float")."""
    ks, weight = _primitive_numerators(den)
    total, certified = 0, True
    for i in range(0, len(ks), FLOAT_CHUNK):
        omegas = [UnitRoot(k, den).to_complex() for k in ks[i:i + FLOAT_CHUNK]]
        p, n, cert = _numeric_inertias(_numeric_hermitians(a, omegas))
        total += weight * int((p - n).sum())
        certified = certified and bool(cert.all())
    return total, certified


@dataclass(frozen=True)
class AvgSignatureResult:
    value: Fraction
    certified: bool


def avg_signature_details(a: SeifertMatrix, d: int, mode: str = "exact") -> AvgSignatureResult:
    """Average of sigma over the d-th roots of unity other than 1, divided by d.

    Grouping the k/d grid by reduced denominator caches each primitive-root
    sum once; conjugation symmetry halves the work.
    """
    if d < 1:
        raise InvalidParameterError(f"root count d must be positive, got {d}")
    if a.size == 0 or d == 1:
        return AvgSignatureResult(Fraction(0), True)
    total = 0
    certified = True
    for dd in _divisors(d):
        if dd == 1:
            continue
        if mode == "exact":
            total += _primitive_signature_sum_exact(a, dd)
        else:
            s, cert = _primitive_signature_sum_float(a, dd)
            total += s
            certified = certified and cert
    return AvgSignatureResult(Fraction(total, d), certified)


def avg_signature(a: SeifertMatrix, d: int, mode: str = "exact") -> Fraction:
    return avg_signature_details(a, d, mode).value


# -- torus-knot closed forms ----------------------------------------------------


def litherland_torus_signature(n: int, x: Fraction) -> int:
    """Closed-form signature of the (2, 2n+1) torus knot at e^{2 pi i x},
    for rational x in (0, 1/2]: 2n - 2*floor((2n+1)(1/2 - x))."""
    if n < 1:
        raise InvalidParameterError(f"torus parameter must be >= 1, got {n}")
    x = Fraction(x)
    if not (0 < x <= Fraction(1, 2)):
        raise InvalidParameterError(f"x must lie in (0, 1/2], got {x}")
    return 2 * n - 2 * math.floor((2 * n + 1) * (Fraction(1, 2) - x))


def torus_avg_lower_bound(n: int, d: int) -> Fraction:
    """(1 - 1/d^2) n - (d-1)/(2d): lower bound for the torus-knot signature average."""
    if n < 1 or d < 2:
        raise InvalidParameterError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    return Fraction(n * (d * d - 1), d * d) - Fraction(d - 1, 2 * d)


def jn_avg_lower_bound(n: int, d: int) -> Fraction:
    """(1 - 1/d^2) n - (5d-1)/(2d): twist-family average bound (nonnegative
    for n >= 3, d >= 2; zero only at n = 3, d = 2)."""
    if n < 1 or d < 2:
        raise InvalidParameterError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    return Fraction(n * (d * d - 1), d * d) - Fraction(5 * d - 1, 2 * d)
