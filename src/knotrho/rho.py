"""Casson-Gordon invariants and the finite-cyclic rho invariant.

For a surgery presentation (Lambda, residues r_i, modulus d) and cable data
resolving the companion link L', the level invariants are

    sigma_k = sigma_{L'}(e^{2 pi i k/d}) - sign(Lambda)
              + (2(d-k)k/d^2) * sum_{i,j} r_i r_j Lambda_ij,   0 < k < d,

with sigma_0 = 0, and the rho invariant is both their average and the
closed form

    rho = avg-sigma(L', d) - ((d-1)/d) sign(Lambda)
          + ((d^2-1)/(3d^2)) * sum_{i,j} r_i r_j Lambda_ij.

The closed form is the source of truth; the per-level average is recomputed
as a mandatory cross-check and a mismatch raises (it would mean an engine
bug, not bad input).  For a knot at large d the closed form's average is
summed by arcs between the roots of the Alexander polynomial, while the
levels take one signature per conjugate pair of roots, so the check
compares two independent routes.  Level k and level d - k read the same
signature: sigma_{L'} at the conjugate root is the same.
"""

from __future__ import annotations

from fractions import Fraction

from .exceptions import (
    InternalInconsistencyError,
    InvalidParameterError,
    InvalidSlopeError,
    MissingCableDataError,
)
from .records import Record
from .seifert import SeifertMatrix, SurgeryPresentation, knot_surgery_presentation, mirror
from .signature import (
    HermitianForm,
    _mode_error,
    avg_signature,
    inertia,
    levine_tristram,
)
from .cyclotomic import UnitRoot


class CableData(Record):
    """Seifert data for the companion link L'.

    With every residue r_i = 1 the cable is the link itself, so matrix is
    its Seifert matrix (for a knot surgery: the knot's).  Any other residue
    pattern needs a user-supplied Seifert matrix for the full cable link;
    the engine never constructs cable Seifert matrices itself.  components
    counts the components of L' (cables must be nonempty).
    """

    _fields = ("matrix", "components", "trivial")

    def __init__(self, matrix: SeifertMatrix, components: int = 1, trivial: bool = True):
        if components < 1:
            raise MissingCableDataError("a cable link must be nonempty")
        self.__dict__.update(matrix=matrix, components=components, trivial=trivial)

    @classmethod
    def trivial_cable(cls, matrix: SeifertMatrix) -> "CableData":
        return cls(matrix=matrix, components=1, trivial=True)

    @classmethod
    def explicit(cls, matrix: SeifertMatrix, components: int) -> "CableData":
        return cls(matrix=matrix, components=components, trivial=False)

    def mirrored(self) -> "CableData":
        return CableData(mirror(self.matrix), self.components, self.trivial)


class RhoResult(Record):
    """Rho invariant with its per-level decomposition.

    value == (1/d) * sum(per_level) holds exactly (enforced at build time);
    per_level[0] == 0 always.
    """

    _fields = ("value", "per_level", "presentation")

    def __init__(
        self, value: Fraction, per_level: tuple[Fraction, ...], presentation: SurgeryPresentation
    ):
        self.__dict__.update(value=value, per_level=per_level, presentation=presentation)


def sign_linking_matrix(pres: SurgeryPresentation) -> int:
    """Signature of the integer symmetric linking matrix, exactly."""
    form = HermitianForm.from_integer_symmetric(pres.linking)
    return inertia(form, "exact").signature


def _validate_cable(pres: SurgeryPresentation, cable: CableData) -> None:
    if cable.trivial:
        # residue 1 mod d means the cable is the component itself; for d = 1
        # the map is trivial and every residue qualifies.
        bad = [i for i, r in enumerate(pres.residues) if (r - 1) % pres.modulus != 0]
        if bad:
            raise MissingCableDataError(
                "residues "
                + ", ".join(f"r_{i}={pres.residues[i]}" for i in bad)
                + " are not 1: supply a Seifert matrix for the cable link"
            )


def _normalize(pres: SurgeryPresentation, cable: CableData):
    """Mirror single-component negative-framing presentations.

    Downstream ops own the mirror reduction for negative slopes; a mirrored
    presentation describes the oppositely-oriented surgery, matching the
    knot-surgery closed form's convention.  Multi-component presentations
    are evaluated verbatim.
    """
    if pres.components == 1 and pres.linking[0][0] < 0:
        flipped = SurgeryPresentation(
            ((-pres.linking[0][0],),), pres.residues, pres.modulus
        )
        return flipped, cable.mirrored()
    return pres, cable


def casson_gordon_sigma(
    pres: SurgeryPresentation,
    cable: CableData,
    k: int,
    mode: str = "exact",
) -> Fraction:
    """Level invariant sigma_k for 0 < k < d, as an exact rational."""
    d = pres.modulus
    if not 0 < k < d:
        raise InvalidParameterError(f"level k must satisfy 0 < k < {d}, got {k}")
    _validate_cable(pres, cable)
    pres, cable = _normalize(pres, cable)
    sig_link = levine_tristram(cable.matrix, UnitRoot(k, d), mode)
    correction = Fraction(2 * (d - k) * k, d * d) * pres.residue_quadratic()
    return sig_link - sign_linking_matrix(pres) + correction


def rho_finite_cyclic(
    pres: SurgeryPresentation,
    cable: CableData,
    d: int,
    mode: str = "exact",
) -> RhoResult:
    """Rho invariant over Z_d via the closed form, with per-level cross-check."""
    if d != pres.modulus:
        raise InvalidParameterError(
            f"d = {d} does not match the presentation modulus {pres.modulus}"
        )
    _validate_cable(pres, cable)
    pres_n, cable_n = _normalize(pres, cable)
    if mode not in ("exact", "float"):
        raise _mode_error(mode)
    if d == 1:
        return RhoResult(Fraction(0), (Fraction(0),), pres_n)
    quad = pres_n.residue_quadratic()
    sgn = sign_linking_matrix(pres_n)
    closed = (
        avg_signature(cable_n.matrix, d, mode)
        - Fraction(d - 1, d) * sgn
        + Fraction(d * d - 1, 3 * d * d) * quad
    )
    sigmas = [levine_tristram(cable_n.matrix, UnitRoot(k, d), mode) for k in range(1, d // 2 + 1)]
    levels = [Fraction(0)] + [
        sigmas[min(k, d - k) - 1] - sgn + Fraction(2 * (d - k) * k, d * d) * quad for k in range(1, d)
    ]
    averaged = Fraction(sum(levels), d)
    if averaged != closed:
        raise InternalInconsistencyError(
            f"per-level average {averaged} disagrees with closed form {closed}"
        )
    return RhoResult(closed, tuple(levels), pres_n)


def rho_knot_surgery(a: SeifertMatrix, n: int, mode: str = "exact") -> Fraction:
    """Rho of the n-framed knot surgery over its first homology:
    |n|/3 + 2/(3|n|) - 1 + avg-sigma(K', |n|), mirroring K when n < 0."""
    if n == 0:
        raise InvalidSlopeError("surgery slope must be nonzero")
    knot = a if n > 0 else mirror(a)
    m = abs(n)
    return (
        Fraction(m, 3)
        + Fraction(2, 3 * m)
        - 1
        + avg_signature(knot, m, mode)
    )


def rho_knot_surgery_result(a: SeifertMatrix, n: int, mode: str = "exact") -> RhoResult:
    """Full RhoResult for a knot surgery (per-level values included)."""
    pres = knot_surgery_presentation(n, abs(n))
    return rho_finite_cyclic(pres, CableData.trivial_cable(a), abs(n), mode)
