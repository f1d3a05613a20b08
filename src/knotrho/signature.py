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
so Delta(w) = 0 certifies that the complement is zero.  Any other stall
takes exact pivoted elimination on the full entry table.  Either way the
result is certified.

Exact averages of knots over large grids go by arcs: sigma is constant on
each open arc between the unit-circle roots of Delta, whose enclosures
come from alexander.  An acos guess and a short walk place the grid
points x_k = 2 cos(2 pi k/d) against each enclosure in O(1), with the
rounding bound of the root, and the average takes one signature per run
of points inside an arc and one per point whose enclosure meets a root,
so its cost no longer grows with d.  Links and small grids sum one
signature per conjugate pair.
Float mode is plain eigenvalue computation with a certification
threshold; float averages evaluate their roots in fixed chunks, one
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


@per_matrix_cache
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
    if mode not in ("exact", "float"):
        raise _mode_error(mode)
    if root.is_one:
        triple = InertiaTriple(0, a.size, 0, certified=True)
        return SignatureResult(0, triple, a.size > 0, True)
    if mode == "exact":
        exact_degree(root.den)  # refuse huge conductors even where floats would decide
        triple = _signature_exact_cached(a, min(root.num, root.den - root.num), root.den)
    else:
        triple = _inertia_from_numeric(_numeric_hermitians(a, [root.to_complex()])[0])
    return SignatureResult(triple.signature, triple, triple.zero > 0, triple.certified)


def levine_tristram(a: SeifertMatrix, root: UnitRoot, mode: str = "exact") -> int:
    """sigma_K(omega): signature of (1-w)A + (1-conj(w))A^T; 0 at w = 1."""
    return signature_details(a, root, mode).value


# -- averaged signatures -------------------------------------------------------


def _primitive_numerators(den: int) -> tuple[list[int], int]:
    """Numerators k of one primitive den-th root per conjugate pair, and the
    weight 2 (or 1 at den = 2, whose only primitive root is real)."""
    if den == 2:
        return [1], 1
    return [k for k in range(1, (den + 1) // 2) if math.gcd(k, den) == 1], 2


@per_matrix_cache
def _primitive_signature_sum_exact(a: SeifertMatrix, den: int) -> int:
    """Sum of sigma over the primitive den-th roots of unity (den > 1), one
    certified signature per conjugate pair; the caller checks the conductor."""
    ks, weight = _primitive_numerators(den)
    return weight * sum(_signature_exact_cached(a, k, den).signature for k in ks)


def _primitive_signature_sum_float(a: SeifertMatrix, den: int) -> tuple[int, bool]:
    """Float-mode sum over the primitive den-th roots and whether every term
    is certified; each chunk of FLOAT_CHUNK roots is one stacked eigensolve,
    term for term equal to signature_details(a, root, "float")."""
    ks, weight = _primitive_numerators(den)
    total, certified = 0, True
    for i in range(0, len(ks), FLOAT_CHUNK):
        # k is coprime to den: this is UnitRoot(k, den).to_complex(), bit for bit
        omegas = [cmath.exp(2j * math.pi * k / den) for k in ks[i:i + FLOAT_CHUNK]]
        p, n, cert = _numeric_inertias(_numeric_hermitians(a, omegas))
        total += weight * int((p - n).sum())
        certified = certified and bool(cert.all())
    return total, certified


def _grid_x(k: int, d: int) -> float:
    """2 Re e^{2 pi i k/d} rounded as in _mr_root: within 2 _ROOT_ERR of
    the true 2 cos(2 pi k/d)."""
    return 2.0 * cmath.exp(2j * math.pi * k / d).real


def _first_grid_index(d: int, x: float, beyond) -> int:
    """A k in 1 .. d // 2 + 1 with beyond(k) true and beyond(k - 1) false,
    taking beyond(0) false and beyond(d // 2 + 1) true; beyond, a test of
    x_k <= x up to rounding, need not be monotone.  The first four probes
    walk from the k where 2 cos(2 pi k/d) falls to x; bisection does the rest."""
    lo, hi = 0, d // 2 + 1
    k = math.ceil(d * math.acos(min(max(0.5 * x, -1.0), 1.0)) / (2.0 * math.pi))
    probes = 0
    while hi - lo > 1:
        k = min(max(k, lo + 1), hi - 1) if probes < 4 else (lo + hi) // 2
        probes += 1
        if beyond(k):
            hi, k = k, k - 1
        else:
            lo, k = k, k + 1
    return hi


def _exact_sum_by_arcs(a: SeifertMatrix, d: int) -> int:
    """Sum of sigma over the d-th roots of unity other than 1, for a knot
    matrix, with one certified signature per run of grid points inside an
    open arc between unit-circle roots of Delta.

    The grid points k = 1 .. d // 2 stand for their conjugate pairs
    (weight 2, or 1 at k = d/2) and sit at x_k = 2 cos(2 pi k/d), which
    decreases strictly in k.  For each root enclosure [lo, hi] of
    _alexander_root_enclosures, _first_grid_index places a point `first`
    whose predecessor is certified above hi, so all earlier points are,
    and a point `below` certified below lo, so all later points are.  The
    points from `first` to `below` may meet the root; each gets its own
    signature.  Every maximal run of the other points lies in one open
    arc, where det H = (1 - conj w)^m Delta(w) != 0, so H is nonsingular
    along the arc and sigma is constant on it: the run contributes its
    weight times sigma at its middle point.  Each sigma comes from
    _signature_exact_cached, so every value stays certified.
    """
    half = d // 2
    margin = 2.0 * _ROOT_ERR + 4.0 * _EPS  # also covers rounding x_k -/+ margin

    def weight(k0: int, k1: int) -> int:
        """Total weight of the grid points k0 .. k1 - 1."""
        return 2 * (k1 - k0) - (k1 > half and 2 * half == d)

    def sigma(k: int) -> int:
        g = math.gcd(k, d)
        return _signature_exact_cached(a, k // g, d // g).signature

    total = 0
    pos = 1
    for lo, hi in _alexander_root_enclosures(a):
        first = _first_grid_index(d, hi + margin, lambda k: _grid_x(k, d) - margin <= hi)
        below = _first_grid_index(d, lo - margin, lambda k: _grid_x(k, d) + margin < lo)
        first = max(first, pos)
        below = max(below, first)
        if first > pos:
            total += weight(pos, first) * sigma((pos + first - 1) // 2)
        total += sum(weight(k, k + 1) * sigma(k) for k in range(first, below))
        pos = below
    if pos <= half:
        total += weight(pos, half + 1) * sigma((pos + half) // 2)
    return total


def _sum_by_arcs(a: SeifertMatrix, d: int) -> bool:
    """Whether an exact average takes the arc route: for knots once
    d > m^2/4 + 8m, m the size.  On the jn and torus2 families of sizes 2
    to 120 the arc route measured faster than the per-divisor loop past
    about d = 8m for m <= 30 and past about m^2/4 for larger m, where root
    isolation of the degree-m/2 polynomial Q dominates its cost."""
    m = a.size
    return a.kind == "knot" and 4 * d > m * (m + 32)


@dataclass(frozen=True)
class AvgSignatureResult:
    value: Fraction
    certified: bool


def avg_signature_details(a: SeifertMatrix, d: int, mode: str = "exact") -> AvgSignatureResult:
    """Average of sigma over the d-th roots of unity other than 1, divided by d.

    Exact mode first checks the conductor of every divisor of d, in
    ascending order, so ConductorLimitError does not depend on the route.
    A knot matrix of size m with 4d > m(m + 32) is then summed by arcs
    (_exact_sum_by_arcs): one certified signature per run of grid points
    between unit-circle roots of Delta, plus one per grid point whose
    enclosure meets a root, each root placed in the grid in O(1), so the
    cost no longer grows with d.  Links,
    whose Delta may vanish identically, and small grids group the k/d grid
    by reduced denominator, caching each primitive-root sum once with one
    signature per conjugate pair; that loop is also the reference the arc
    route is tested against.  Float mode always takes the per-divisor loop.
    Any other mode raises InvalidParameterError before any work.
    """
    if mode not in ("exact", "float"):
        raise _mode_error(mode)
    if d < 1:
        raise InvalidParameterError(f"root count d must be positive, got {d}")
    if a.size == 0 or d == 1:
        return AvgSignatureResult(Fraction(0), True)
    divisors = _divisors(d)[1:]
    if mode == "exact":
        for dd in divisors:
            exact_degree(dd)
        if _sum_by_arcs(a, d):
            return AvgSignatureResult(Fraction(_exact_sum_by_arcs(a, d), d), True)
        total = sum(_primitive_signature_sum_exact(a, dd) for dd in divisors)
        return AvgSignatureResult(Fraction(total, d), True)
    total = 0
    certified = True
    for dd in divisors:
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
