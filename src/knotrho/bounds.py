"""Triangulation-complexity bounds and Gromov-norm gap estimates.

All bound formulas are exact rational arithmetic; hyperbolic data (the
surgery-link volume, cusp translations, ideal-tetrahedron volume) are
frozen published constants, consumed as inputs and never recomputed.
Vacuous (negative) lower bounds are returned as-is and flagged, never
clamped, so callers can see when a bound carries no information.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .exceptions import InvalidParameterError, InvalidSlopeError
from .records import Record
from .seifert import SeifertMatrix
from .signature import avg_signature

# Universal bound: |rho| <= this constant times the number of tetrahedra.
UNIVERSAL_RHO_PER_TET = 209139840
# Denominator of every signature-flavoured complexity lower bound (= 3x above).
LOWER_BOUND_DENOM = 627419520
# Surgery upper bound: complexity <= UPPER_SLOPE_COEFF*|n| + UPPER_CROSSING_COEFF*c(K).
UPPER_SLOPE_COEFF = 96
UPPER_CROSSING_COEFF = 128


class CuspData(Record):
    """Translation lengths of the meridian and longitude on a maximal cusp."""

    _fields = ("meridian", "longitude")

    def __init__(self, meridian: complex, longitude: float):
        if not longitude > 0:
            raise InvalidParameterError(
                f"longitude translation must be positive, got {longitude}"
            )
        self.__dict__.update(meridian=meridian, longitude=longitude)


class PublishedConstants(Record):
    """Frozen published constants with provenance tags.

    The hyperbolic data describe the two-component surgery-description link
    whose 1/n-filling produces the twist knot family; they come from
    hyperbolic-geometry software and are treated as inputs here.
    """

    _fields = (
        "universal_rho_per_tet",
        "lower_bound_denom",
        "upper_slope_coeff",
        "upper_crossing_coeff",
        "link_volume",
        "ideal_tet_volume",
        "norm_bound_published",
        "cusp",
    )

    def __init__(
        self,
        universal_rho_per_tet: int = UNIVERSAL_RHO_PER_TET,
        lower_bound_denom: int = LOWER_BOUND_DENOM,
        upper_slope_coeff: int = UPPER_SLOPE_COEFF,
        upper_crossing_coeff: int = UPPER_CROSSING_COEFF,
        link_volume: float = 5.3335,
        ideal_tet_volume: float = 1.01494,
        norm_bound_published: float = 5.2552,
        cusp: CuspData = CuspData(-0.4204 + 1.1124j, 3.3636),
    ):
        self.__dict__.update(
            universal_rho_per_tet=universal_rho_per_tet,
            lower_bound_denom=lower_bound_denom,
            upper_slope_coeff=upper_slope_coeff,
            upper_crossing_coeff=upper_crossing_coeff,
            link_volume=link_volume,
            ideal_tet_volume=ideal_tet_volume,
            norm_bound_published=norm_bound_published,
            cusp=cusp,
        )

    @property
    def provenance(self) -> dict[str, str]:
        return {
            "universal_rho_per_tet": "universal linear bound on rho per tetrahedron",
            "lower_bound_denom": "3 x universal_rho_per_tet",
            "upper_slope_coeff": "surgery triangulation upper bound, slope term",
            "upper_crossing_coeff": "surgery triangulation upper bound, crossing term",
            "link_volume": "published hyperbolic volume of the surgery-description link",
            "ideal_tet_volume": "volume of the regular ideal tetrahedron in H^3",
            "norm_bound_published": "published Gromov norm bound link_volume/ideal_tet_volume",
            "cusp": "published maximal-cusp translation lengths (both cusps agree)",
        }


PUBLISHED = PublishedConstants()

TWO_PI = 2.0 * math.pi


class BoundReport(Record):
    """Every applicable complexity bound for one (knot, slope) instance."""

    _fields = (
        "slope",
        "lower_signature",
        "lower_crossing",
        "lower_slice_genus",
        "upper",
        "best_lower",
        "avg_signature",
        "crossing",
        "g4",
    )

    def __init__(
        self,
        slope: int,
        lower_signature: Fraction,
        lower_crossing: Optional[Fraction],
        lower_slice_genus: Optional[Fraction],
        upper: Optional[int],
        best_lower: Fraction,
        avg_signature: Fraction,
        crossing: Optional[int],
        g4: Optional[int],
    ):
        self.__dict__.update(
            slope=slope,
            lower_signature=lower_signature,
            lower_crossing=lower_crossing,
            lower_slice_genus=lower_slice_genus,
            upper=upper,
            best_lower=best_lower,
            avg_signature=avg_signature,
            crossing=crossing,
            g4=g4,
        )

    @property
    def vacuous(self) -> bool:
        return self.best_lower <= 0


def lower_bound_slice_genus(n: int, g4: int) -> Fraction:
    """(|n| - 3 - 6*g4) / 627419520; may be negative (vacuous), returned as-is."""
    if n == 0:
        raise InvalidSlopeError("surgery slope must be nonzero")
    if g4 < 0:
        raise InvalidParameterError(f"slice genus must be nonnegative, got {g4}")
    return Fraction(abs(n) - 3 - 6 * g4, LOWER_BOUND_DENOM)


def lower_bound_crossing(n: int, c: int) -> Fraction:
    """(|n| - 3 - 6*c) / 627419520: crossing number dominates slice genus."""
    if n == 0:
        raise InvalidSlopeError("surgery slope must be nonzero")
    if c < 0:
        raise InvalidParameterError(f"crossing number must be nonnegative, got {c}")
    return Fraction(abs(n) - 3 - 6 * c, LOWER_BOUND_DENOM)


def lower_bound_signature(a: SeifertMatrix, n: int, mode: str = "exact") -> Fraction:
    """(3|avg-sigma(K, |n|)| - |n| + 1) / 627419520."""
    if n == 0:
        raise InvalidSlopeError("surgery slope must be nonzero")
    avg = avg_signature(a, abs(n), mode)
    return Fraction(3 * abs(avg) - abs(n) + 1, 1) / LOWER_BOUND_DENOM


def upper_bound(n: int, c: int) -> int:
    """96|n| + 128*c(K)."""
    if c < 0:
        raise InvalidParameterError(f"crossing number must be nonnegative, got {c}")
    return UPPER_SLOPE_COEFF * abs(n) + UPPER_CROSSING_COEFF * c


def universal_rho_bound(complexity: int) -> int:
    """209139840 * c(M): every rho value is bounded by this."""
    if complexity < 0:
        raise InvalidParameterError(f"complexity must be nonnegative, got {complexity}")
    return UNIVERSAL_RHO_PER_TET * complexity


def complexity_from_rho(rho: Fraction) -> Fraction:
    """|rho| / 209139840: the universal bound read as a complexity lower bound."""
    return abs(Fraction(rho)) / UNIVERSAL_RHO_PER_TET


def slope_length(cusp: CuspData, p: int, q: int) -> float:
    """|p * meridian + q * longitude| on the maximal cusp torus."""
    if p == 0 and q == 0:
        raise InvalidSlopeError("slope (0, 0) is not a curve")
    return abs(p * cusp.meridian + q * cusp.longitude)


def two_pi_check(cusp: CuspData, slopes: list[tuple[int, int]]) -> list[bool]:
    """True per slope iff its length exceeds 2*pi (hyperbolic filling test)."""
    return [slope_length(cusp, p, q) > TWO_PI for p, q in slopes]


class GromovNormBound(Record):
    """The Gromov norm bound as computed here and as published."""

    _fields = ("computed", "published")

    def __init__(self, computed: float, published: float):
        self.__dict__.update(computed=computed, published=published)

    @property
    def discrepancy(self) -> float:
        return abs(self.computed - self.published)


def gromov_norm_bound(constants: PublishedConstants = PUBLISHED) -> GromovNormBound:
    """Norm bound volume/v3: the freshly-divided value and the published one.

    The two differ by ~2e-4 (rounding in the published figure); both are
    reported rather than silently reconciled.
    """
    return GromovNormBound(
        computed=constants.link_volume / constants.ideal_tet_volume,
        published=constants.norm_bound_published,
    )


def gap_lower_bound(n: int, d: int) -> Fraction:
    """Gap bound (3(1 - 1/d^2) n - (d+7)) / 627419520 - 6 for n > 2, d > 1."""
    if d <= 1:
        raise InvalidParameterError(f"need a fixed d > 1, got {d}")
    if n <= 2:
        raise InvalidParameterError(f"gap bound requires n > 2, got {n}")
    inner = 3 * Fraction(d * d - 1, d * d) * n - (d + 7)
    return inner / LOWER_BOUND_DENOM - 6


def bound_report(
    a: SeifertMatrix,
    n: int,
    crossing: Optional[int] = None,
    g4: Optional[int] = None,
    mode: str = "exact",
) -> BoundReport:
    """Aggregate every bound that applies to surgery slope n on the knot."""
    if n == 0:
        raise InvalidSlopeError("surgery slope must be nonzero")
    avg = avg_signature(a, abs(n), mode)
    lower_sig = Fraction(3 * abs(avg) - abs(n) + 1, 1) / LOWER_BOUND_DENOM
    lows = [lower_sig]
    lower_cross = None
    if crossing is not None:
        lower_cross = lower_bound_crossing(n, crossing)
        lows.append(lower_cross)
    lower_g4 = None
    if g4 is not None:
        lower_g4 = lower_bound_slice_genus(n, g4)
        lows.append(lower_g4)
    upper = upper_bound(n, crossing) if crossing is not None else None
    return BoundReport(
        slope=n,
        lower_signature=lower_sig,
        lower_crossing=lower_cross,
        lower_slice_genus=lower_g4,
        upper=upper,
        best_lower=max(lows),
        avg_signature=avg,
        crossing=crossing,
        g4=g4,
    )
