"""Signature engine: exact inertia of Hermitian forms at roots of unity.

For an integer Seifert matrix A the form is H = (1-w)A + (1-conj(w))A^T.
The sound float kernels of floatpass decide most signs: the two-shift
LDL^T pivot count for each unreduced tridiagonal block, and the
midpoint-radius elimination for generic forms.  Where a tridiagonal count
does not certify, the exact last minor of the block is tested over the
cyclotomic residue ring: a zero gives one zero eigenvalue and, by strict
interlacing, the certified count of the leading block; anything else reads
every minor sign off the exact chain (interval refinement for tiny nonzero
values).  A generic pass that stalls at a 1x1 complement at a jump point
is decided by the exact Alexander value: det H = (1 - conj w)^m Delta(w),
so Delta(w) = 0 certifies that the complement is zero.  A knot is
nonsingular with signature 0 on the arc of the unit circle through w = 1,
up to the first root of Delta, so any other stall on that arc, such as
next to w = 1, is decided from the root enclosures.  Any other stall takes exact
pivoted elimination on the full entry table.  Either way the result is
certified.

An average walks the grid points k = 1 .. d // 2, one per conjugate pair
of d-th roots: a route picks the points (k, weight) and one loop sums
weight * sigma.  Exact averages of knots over large grids go by arcs:
sigma is constant on each open arc between the unit-circle roots of
Delta, whose enclosures come from alexander.  An acos guess and a short
walk place the grid points x_k = 2 cos(2 pi k/d) against each enclosure
in O(1), with the rounding bound of the root, and the route picks one
point per run of points inside an arc other than the arc through w = 1,
where sigma = 0, weighted by the run, and every point whose enclosure
meets a root, so its cost no longer grows with d.
Links and small grids take the whole grid.
Float mode is plain eigenvalue computation with a certification
threshold; float averages evaluate the whole grid in fixed chunks, one
stacked eigensolve per chunk, and are the only users of NumPy, which is
imported on first use.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .cyclotomic import (
    CyclotomicElement,
    UnitRoot,
    certified_sign,
    cyc_field,
    eval_with_bound,
    exact_degree,
    _divisors,
)
from .alexander import _alexander_root_enclosures, alexander_at, alexander_polynomial
from .exceptions import (
    ConductorLimitError,
    InternalInconsistencyError,
    InvalidParameterError,
)
from .floatpass import (
    _EPS,
    _ROOT_ERR,
    _Band,
    _FloatPassFailed,
    _blocks,
    _generic_float_pass,
    _mr_root,
    _mr_seifert_table,
    _tridiag_layout,
    _two_shift_counts,
)
from .seifert import SeifertMatrix, per_matrix_cache

if TYPE_CHECKING:
    import numpy as np

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


@per_matrix_cache
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


def _mr_entry(element: CyclotomicElement, root: UnitRoot):
    ev = eval_with_bound(element, root)
    if ev is None:
        raise _FloatPassFailed
    return ev


# -- exact tridiagonal kernel ------------------------------------------------


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


@per_matrix_cache
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


def _block_counts(
    a: SeifertMatrix, band: _Band, start: int, stop: int, omc, s, num: int, den: int
) -> tuple[int, int]:
    """(negative, zero) eigenvalue counts of the unreduced block [start, stop)
    of H at w = e^{2 pi i num/den}.

    The two-shift pivot count decides a nonsingular block outright.
    Otherwise the exact last minor is tested: if it vanishes, the block has
    a simple zero eigenvalue and, by strict interlacing, the same negative
    count as its leading block, which is nonsingular.  Only when that count
    is not certified either is every sign read off the exact chain.
    """
    full, lead = _two_shift_counts(band, start, stop, omc, s)
    if full is not None:
        return full, 0
    chain = _minor_chain(a, den, start, stop)
    if chain[-1].is_zero and lead is not None:
        return lead, 1
    settled = _settle_signs(chain, UnitRoot(num, den))
    return settled.negative, settled.zero


# -- exact generic elimination ------------------------------------------------


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
    neg = zero = 0
    for start, stop in _blocks([entries[i][i + 1].is_zero for i in range(m - 1)]):
        if stop - start == 1:
            sign = certified_sign(entries[start][start], root)[0]
            neg += sign < 0
            zero += sign == 0
        else:
            # Forms given by residues skip the pivot count and read every
            # sign off the exact chain.
            diag = [entries[i][i] for i in range(start, stop)]
            off = [entries[i][i + 1] for i in range(start, stop - 1)]
            settled = _settle_signs(_chain(diag, off), root)
            neg += settled.negative
            zero += settled.zero
    return InertiaTriple(m - neg - zero, zero, neg)


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


def _mode_error(mode: str) -> InvalidParameterError:
    return InvalidParameterError(f"mode must be 'exact' or 'float', got {mode!r}")


def inertia(form: HermitianForm, mode: str = "exact") -> InertiaTriple:
    """Inertia triple of a Hermitian form.

    Exact mode is always certified; float mode certifies only when every
    eigenvalue classified nonzero clears 10^6 * eps * norm.
    """
    if mode == "exact":
        return _inertia_exact(form)
    if mode == "float":
        return _inertia_from_numeric(form.to_numeric())
    raise _mode_error(mode)


def _complex_entries(a: SeifertMatrix) -> np.ndarray:
    """A as an m x m complex array, for float mode."""
    import numpy as np  # loaded by float mode only: exact mode never needs it

    return np.array(a.entries, dtype=complex).reshape(a.size, a.size)


def _numeric_hermitians(arr: np.ndarray, omegas) -> np.ndarray:
    """H = (1 - w) A + (1 - conj w) A^T at each w of omegas, from A as a
    complex array (_complex_entries), stacked into shape (len(omegas), m, m).
    The floats are Hermitian bit for bit, so eigvalsh may read either
    triangle: entry (j, i) sums the conjugates of the two products that
    entry (i, j) sums, and rounding commutes with conjugation."""
    import numpy as np

    w = np.array(omegas, dtype=complex).reshape(-1, 1, 1)
    return (1 - w) * arr + (1 - w.conj()) * arr.T


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
    Haynsworth gives (p, 1, n).  For a knot matrix, a w whose
    x = 2 cos(2 pi num/den) is certified above the largest root enclosure
    of Delta lies on the arc through w = 1, where H is nonsingular with
    signature 0 (see _arc_points).  Stalls next to w = 1, where the real
    part of H is O(|1 - w|^2) against O(|1 - w|) for its imaginary part,
    are decided so.  Links, whose A - A^T may be singular, and every other
    stall take exact pivoted elimination on the full residue table.
    """
    mat = _mr_seifert_table(a, omc, s)
    p, n, rest = _generic_float_pass(mat) if mat is not None else (0, 0, a.size)
    if rest == 0:
        return InertiaTriple(p, 0, n)
    root = UnitRoot(num, den)
    if rest == 1 and alexander_at(a, root).is_zero:
        return InertiaTriple(p, 1, n)
    if a.kind == "knot":
        enclosures = _alexander_root_enclosures(a)
        if not enclosures or _grid_x(num, den) - _X_MARGIN > enclosures[0][1]:
            return InertiaTriple(a.size // 2, 0, a.size // 2)
    return _generic_inertia_exact(_herm_residues(a, den), root)


@per_matrix_cache
def _signature_exact_cached(a: SeifertMatrix, num: int, den: int) -> InertiaTriple:
    """Exact inertia of H at w = e^{2 pi i num/den}.  Callers pass the
    smaller of num and den - num: H(conj w) = conj H(w) has the same inertia,
    and check the conductor with exact_degree first."""
    omc, s = _mr_root(num, den)
    band, blocks, blocks_den2 = _tridiag_layout(a)
    if band is None:
        return _generic_seifert_inertia(a, omc, s, num, den)
    neg = zero = 0
    for start, stop in blocks_den2 if den == 2 else blocks:
        if stop - start == 1:
            # h_ii = 2 a_ii (1 - Re w) with 1 - Re w > 0: the sign of a_ii.
            entry = a.entries[start][start]
            neg += entry < 0
            zero += entry == 0
        else:
            block_neg, block_zero = _block_counts(a, band, start, stop, omc, s, num, den)
            neg += block_neg
            zero += block_zero
    return InertiaTriple(a.size - neg - zero, zero, neg)


def signature_details(a: SeifertMatrix, root: UnitRoot, mode: str = "exact") -> SignatureResult:
    """Signature with its inertia triple, singularity and certification flags."""
    if mode not in ("exact", "float"):
        raise _mode_error(mode)
    if root.is_one:
        triple = InertiaTriple(0, a.size, 0, certified=True)
        return SignatureResult(0, triple, a.size > 0, True)
    if mode == "exact":
        exact_degree(root.den)  # refuse huge conductors even where floats would decide
        triple = _signature_exact_cached(a, min(root.num, root.den - root.num), root.den)
    else:
        h = _numeric_hermitians(_complex_entries(a), [root.to_complex()])
        triple = _inertia_from_numeric(h[0])
    return SignatureResult(triple.signature, triple, triple.zero > 0, triple.certified)


def levine_tristram(a: SeifertMatrix, root: UnitRoot, mode: str = "exact") -> int:
    """sigma_K(omega): signature of (1-w)A + (1-conj(w))A^T; 0 at w = 1."""
    return signature_details(a, root, mode).value


# -- averaged signatures -------------------------------------------------------


def _grid_points(d: int, k0: int, k1: int):
    """The grid points k0 .. k1 - 1 of the d-th roots, each standing for its
    conjugate pair: (k, weight) with weight 2, or 1 at the real point k = d/2."""
    for k in range(k0, k1):
        yield k, 2 - (2 * k == d)


def _exact_sum(a: SeifertMatrix, d: int, points) -> int:
    """Sum of weight * sigma over grid points (k, weight) of the d-th roots,
    one certified signature per point at its reduced fraction; the caller
    checks the conductors."""
    total = 0
    for k, weight in points:
        g = math.gcd(k, d)
        total += weight * _signature_exact_cached(a, k // g, d // g).signature
    return total


def _exact_grid_sum(a: SeifertMatrix, d: int) -> int:
    """Sum of sigma over the d-th roots of unity other than 1, one signature
    per conjugate pair: the reference the arc route is tested against."""
    return _exact_sum(a, d, _grid_points(d, 1, d // 2 + 1))


def _float_grid_sum(a: SeifertMatrix, d: int) -> tuple[int, bool]:
    """Float-mode sum of sigma over the d-th roots of unity other than 1 and
    whether every term is certified; each chunk of FLOAT_CHUNK grid points is
    one stacked eigensolve, term for term equal to
    signature_details(a, UnitRoot(k, d), "float")."""
    arr = _complex_entries(a)
    half = d // 2
    total, certified = 0, True
    for k0 in range(1, half + 1, FLOAT_CHUNK):
        ks = range(k0, min(k0 + FLOAT_CHUNK, half + 1))
        # from the reduced fraction: UnitRoot(k, d).to_complex(), bit for bit
        omegas = [cmath.exp(2j * math.pi * (k // (g := math.gcd(k, d))) / (d // g)) for k in ks]
        p, n, cert = _numeric_inertias(_numeric_hermitians(arr, omegas))
        total += 2 * int((p - n).sum())
        certified = certified and bool(cert.all())
    if 2 * half == d:  # the real point k = d/2, last of the last chunk, weighs 1
        total -= int(p[-1] - n[-1])
    return total, certified


def _grid_x(k: int, d: int) -> float:
    """2 Re e^{2 pi i k/d} rounded as in _mr_root: within 2 _ROOT_ERR of
    the true 2 cos(2 pi k/d)."""
    return 2.0 * cmath.exp(2j * math.pi * k / d).real


# Bound on |_grid_x(k, d) - 2 cos(2 pi k/d)|, widened to cover the
# rounding of _grid_x(k, d) -/+ _X_MARGIN as well.
_X_MARGIN = 2.0 * _ROOT_ERR + 4.0 * _EPS


def _first_grid_index(d: int, end: float, below: bool, start: int = 0) -> int:
    """A k in start + 1 .. d // 2 + 1 with past(k) true and past(k - 1)
    false, taking past(start) false and past(d // 2 + 1) true, where
    past(k) says that x_k is not certified above end,
    _grid_x(k, d) - _X_MARGIN <= end, or, when below, that it is certified
    below end, _grid_x(k, d) + _X_MARGIN < end.  The caller vouches for
    past(start) being false.  Rounded, past need not be monotone.  The
    first four probes walk from the k where 2 cos(2 pi k/d) falls to
    end -/+ _X_MARGIN; bisection does the rest."""
    half = 0.5 * (end - _X_MARGIN if below else end + _X_MARGIN)
    half = -1.0 if half < -1.0 else 1.0 if half > 1.0 else half
    lo, hi = start, d // 2 + 1
    k = math.ceil(d * math.acos(half) / (2.0 * math.pi))
    probes = 0
    while hi - lo > 1:
        if probes < 4:
            k = lo + 1 if k <= lo else hi - 1 if k >= hi else k
        else:
            k = (lo + hi) // 2
        probes += 1
        x_k = _grid_x(k, d)
        if x_k + _X_MARGIN < end if below else x_k - _X_MARGIN <= end:
            hi, k = k, k - 1
        else:
            lo, k = k, k + 1
    return hi


def _arc_points(a: SeifertMatrix, d: int) -> list[tuple[int, int]]:
    """Grid points (k, weight) whose weighted signatures sum to the sum of
    sigma over the d-th roots of unity other than 1, for a knot matrix: one
    point per run of grid points inside an open arc between unit-circle
    roots of Delta other than the arc through w = 1, plus every point that
    may meet a root.

    The grid points k = 1 .. d // 2 stand for their conjugate pairs
    (weight 2, or 1 at k = d/2) and sit at x_k = 2 cos(2 pi k/d), which
    decreases strictly in k.  For each root enclosure [lo, hi] of
    _alexander_root_enclosures, _first_grid_index places a point `first`
    whose predecessor is certified above hi, so all earlier points are,
    and a point `below` certified below lo, so all later points are.  The
    walk for `below` goes on from first - 1, which is not certified below
    lo: it is certified above hi, or, where `first` is raised to the
    previous root's `below`, not certified below that root's lo > hi.  The
    points from `first` to `below` may meet the root; each is its own
    point.  Every maximal run of the other points lies in one open arc,
    where det H = (1 - conj w)^m Delta(w) != 0, so H is nonsingular along
    the arc and sigma is constant on it: the run is its middle point with
    the run's total weight.

    The run before the largest enclosure's `first` is certified above
    every root, so it lies on the arc through w = 1, where sigma = 0 for
    a knot: with w = e^{i theta}, H / sin theta = tan(theta/2)(A + A^T)
    - i(A - A^T) tends to -i(A - A^T) as theta -> 0, which is nonsingular
    (A - A^T is unimodular) and has signature 0 (its complex conjugate,
    which has the same eigenvalues, is its negative).  That run gets no
    point, and a knot whose Delta has no unit-circle roots gets none.
    """
    half = d // 2
    points = []
    pos = None

    def run(k0: int, k1: int) -> None:
        """The run k0 .. k1 - 1, if any, as its middle point."""
        if k1 > k0:
            points.append(((k0 + k1 - 1) // 2, 2 * (k1 - k0) - (k1 > half and 2 * half == d)))

    for lo, hi in _alexander_root_enclosures(a):
        first = _first_grid_index(d, hi, False)
        if pos is None:
            pos = first  # skip the arc through w = 1
        first = max(first, pos)
        below = _first_grid_index(d, lo, True, first - 1)
        run(pos, first)
        points.extend(_grid_points(d, first, below))
        pos = below
    if pos is not None:
        run(pos, half + 1)
    return points


def _sum_by_arcs(a: SeifertMatrix, d: int) -> bool:
    """Whether an exact average takes the arc route: for knots once
    d > 4m + 16, m the size.  Timed with cleared caches on the jn and
    torus2 families of sizes 2 to 120, the arc route, root isolation
    included, beat the whole grid from about d = 4m at sizes 12 to 120,
    and from d = 12 to 40 at smaller sizes, where its fixed cost dominates."""
    return a.kind == "knot" and d > 4 * a.size + 16


@dataclass(frozen=True)
class AvgSignatureResult:
    value: Fraction
    certified: bool


def avg_signature_details(a: SeifertMatrix, d: int, mode: str = "exact") -> AvgSignatureResult:
    """Average of sigma over the d-th roots of unity other than 1, divided by d.

    Both modes walk the grid points k = 1 .. d // 2, each standing for its
    conjugate pair (weight 2, or 1 at k = d/2).  Exact mode first checks
    the conductor d, which clears every divisor of d; a refused d raises
    ConductorLimitError for its smallest refused divisor, so the error does
    not depend on the route.  A knot matrix of size m with d > 4m + 16 is
    then summed over _arc_points: one certified signature per run of grid
    points between unit-circle roots of Delta, except the run on the arc
    through w = 1, plus one per grid point whose enclosure meets a root, each
    root placed in the grid in O(1), so the cost no longer grows with d.
    Links, whose Delta may vanish identically, and small grids sum one
    certified signature per grid point; that loop is also the reference
    the arc route is tested against.  Float mode sums the whole grid in
    chunks of stacked eigensolves.  Any other mode raises
    InvalidParameterError before any work.
    """
    if mode not in ("exact", "float"):
        raise _mode_error(mode)
    if d < 1:
        raise InvalidParameterError(f"root count d must be positive, got {d}")
    if a.size == 0 or d == 1:
        return AvgSignatureResult(Fraction(0), True)
    if mode == "float":
        total, certified = _float_grid_sum(a, d)
        return AvgSignatureResult(Fraction(total, d), certified)
    try:
        exact_degree(d)
    except ConductorLimitError:
        # phi(d') divides phi(d) for every divisor d' of d, so only a refused
        # d needs the walk, which names the smallest refused conductor.
        for dd in _divisors(d)[1:]:
            exact_degree(dd)
        raise
    if _sum_by_arcs(a, d):
        total = _exact_sum(a, d, _arc_points(a, d))
    else:
        total = _exact_grid_sum(a, d)
    return AvgSignatureResult(Fraction(total, d), True)


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
