"""Complexity bounds, slope lengths, and the gap estimate."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotrho.bounds import (
    LOWER_BOUND_DENOM,
    PUBLISHED,
    CuspData,
    UNIVERSAL_RHO_PER_TET,
    bound_report,
    complexity_from_rho,
    gap_lower_bound,
    gromov_norm_bound,
    lower_bound_crossing,
    lower_bound_signature,
    lower_bound_slice_genus,
    slope_length,
    two_pi_check,
    universal_rho_bound,
    upper_bound,
)
from knotrho import bounds, rho
from knotrho.exceptions import InvalidParameterError, InvalidSlopeError
from knotrho.rho import rho_knot_surgery, rho_knot_surgery_result
from knotrho.seifert import jn_seifert, knot_surgery_presentation, trefoil_seifert, unknot_seifert

TREFOIL = trefoil_seifert()
UNKNOT = unknot_seifert()


def test_constant_relation():
    assert LOWER_BOUND_DENOM == 3 * UNIVERSAL_RHO_PER_TET


def test_lower_bound_slice_genus_examples():
    assert lower_bound_slice_genus(627419523, 0) == 1
    assert lower_bound_slice_genus(5, 1) == Fraction(-4, LOWER_BOUND_DENOM)
    assert lower_bound_slice_genus(3, 0) == 0
    with pytest.raises(InvalidSlopeError):
        lower_bound_slice_genus(0, 0)
    with pytest.raises(InvalidParameterError):
        lower_bound_slice_genus(5, -1)


def test_lower_bound_crossing_examples():
    assert lower_bound_crossing(10, 0) == Fraction(7, LOWER_BOUND_DENOM)
    assert lower_bound_crossing(3, 5) == Fraction(-30, LOWER_BOUND_DENOM)


@given(st.integers(1, 10**6), st.integers(0, 40), st.integers(0, 40))
def test_crossing_bound_below_slice_genus_bound(n, g4, extra):
    c = g4 + extra
    assert lower_bound_crossing(n, c) <= lower_bound_slice_genus(n, g4) <= upper_bound(n, c)


def test_lower_bound_signature_examples():
    assert lower_bound_signature(TREFOIL, 3) == Fraction(2, LOWER_BOUND_DENOM)
    assert lower_bound_signature(UNKNOT, 5) == Fraction(-4, LOWER_BOUND_DENOM)
    assert lower_bound_signature(TREFOIL, 1) == 0
    assert lower_bound_signature(TREFOIL, -3) == Fraction(2, LOWER_BOUND_DENOM)


def test_upper_bound_examples():
    assert upper_bound(5, 0) == 480
    assert upper_bound(0, 0) == 0
    assert upper_bound(2, 3) == 576
    assert upper_bound(-5, 0) == 480


def test_universal_bound_examples():
    assert universal_rho_bound(0) == 0
    assert universal_rho_bound(1) == 209139840
    assert universal_rho_bound(3) == LOWER_BOUND_DENOM


def test_complexity_from_rho_examples():
    assert complexity_from_rho(Fraction(14, 9)) == Fraction(14, 9 * UNIVERSAL_RHO_PER_TET)
    assert complexity_from_rho(Fraction(0)) == 0
    assert complexity_from_rho(Fraction(-UNIVERSAL_RHO_PER_TET)) == 1


def test_slope_length_check_values():
    cusp = PUBLISHED.cusp
    assert slope_length(cusp, 6, 1) == pytest.approx(6.7271, abs=5e-4)
    assert slope_length(cusp, 1, 2) == pytest.approx(6.4040, abs=5e-4)
    assert slope_length(cusp, 0, 1) == pytest.approx(3.3636, abs=1e-12)
    with pytest.raises(InvalidSlopeError):
        slope_length(cusp, 0, 0)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-5, 5))
def test_slope_length_homogeneity(p, q, k):
    if (p, q) == (0, 0) or k == 0:
        return
    cusp = PUBLISHED.cusp
    assert slope_length(cusp, k * p, k * q) == pytest.approx(
        abs(k) * slope_length(cusp, p, q), rel=1e-12
    )


def test_two_pi_check_examples():
    cusp = PUBLISHED.cusp
    assert two_pi_check(cusp, [(6, 1), (1, 1), (0, 1)]) == [True, False, False]
    assert slope_length(cusp, 1, 1) == pytest.approx(3.147, abs=5e-3)


def test_cusp_validation():
    with pytest.raises(InvalidParameterError):
        CuspData(1j, -1.0)


def test_gromov_norm_bound():
    g = gromov_norm_bound()
    assert g.computed == pytest.approx(5.2550, abs=1e-4)
    assert g.published == 5.2552
    assert g.discrepancy < 1e-3
    assert g.computed < PUBLISHED.link_volume  # dividing by v3 > 1


def test_gap_lower_bound_examples():
    want = Fraction(-9, 4) / LOWER_BOUND_DENOM - 6
    assert gap_lower_bound(3, 2) == want
    with pytest.raises(InvalidParameterError):
        gap_lower_bound(2, 2)
    with pytest.raises(InvalidParameterError):
        gap_lower_bound(5, 1)


@given(st.integers(3, 500), st.integers(2, 30))
def test_gap_bound_monotone_in_n(n, d):
    assert gap_lower_bound(n + 1, d) > gap_lower_bound(n, d)


def test_gap_bound_linear_growth():
    d = 3
    slope = Fraction(3 * (d * d - 1), d * d) / LOWER_BOUND_DENOM
    g1, g2 = gap_lower_bound(1000, d), gap_lower_bound(2000, d)
    assert g2 - g1 == slope * 1000


def test_bound_report_trefoil():
    rep = bound_report(TREFOIL, 3, crossing=3)
    assert rep.lower_signature == Fraction(2, LOWER_BOUND_DENOM)
    assert rep.upper == 672
    assert rep.best_lower == Fraction(2, LOWER_BOUND_DENOM)
    assert not rep.vacuous
    assert rep.avg_signature == Fraction(4, 3)


def test_bound_report_large_slope_unknot():
    rep = bound_report(UNKNOT, 627419524, crossing=0)
    assert rep.best_lower > 1
    assert rep.upper == 96 * 627419524
    assert rep.best_lower <= rep.upper


def test_bound_report_requires_nonzero_slope():
    with pytest.raises(InvalidSlopeError):
        bound_report(TREFOIL, 0)


@pytest.mark.parametrize("slope", [7.0, True, False, Fraction(7), "7", None], ids=repr)
def test_every_slope_that_is_not_a_nonzero_int_is_refused_before_any_work(slope, monkeypatch):
    # A float slope used to compute the average and then fail with a bare
    # TypeError; True answered as the slope 1.
    def no_work(*args):
        raise AssertionError("an average ran for a refused slope")

    monkeypatch.setattr(bounds, "avg_signature", no_work)
    monkeypatch.setattr(rho, "avg_signature", no_work)
    monkeypatch.setattr(rho, "levine_tristram", no_work)
    calls = [
        lambda: rho_knot_surgery(jn_seifert(3), slope),
        lambda: rho_knot_surgery_result(jn_seifert(3), slope),
        lambda: bound_report(jn_seifert(3), slope, crossing=5, g4=1),
        lambda: lower_bound_signature(jn_seifert(3), slope),
        lambda: lower_bound_crossing(slope, 1),
        lambda: lower_bound_slice_genus(slope, 1),
        lambda: knot_surgery_presentation(slope, 7),
    ]
    for call in calls:
        with pytest.raises(InvalidSlopeError, match="surgery slope must be"):
            call()
    with pytest.raises(InvalidSlopeError, match="surgery slope must be an integer"):
        lower_bound_crossing(7.5, 1)


def test_counts_and_gap_arguments_that_are_not_ints_are_refused():
    # Each used to answer or fail late: upper_bound(7, 1.5) gave 864.0,
    # universal_rho_bound(1.5) 313709760.0 and gap_lower_bound(3.5, 2) a
    # float; gap_lower_bound(5, 2.0) and lower_bound_crossing(7, 1.5)
    # raised a bare TypeError; the slice genus True counted as 1.
    calls = (
        (lambda: upper_bound(7, 1.5), "crossing number"),
        (lambda: universal_rho_bound(1.5), "complexity"),
        (lambda: gap_lower_bound(3.5, 2), "n"),
        (lambda: gap_lower_bound(5, 2.0), "d"),
        (lambda: lower_bound_crossing(7, 1.5), "crossing number"),
        (lambda: lower_bound_crossing(7, True), "crossing number"),
        (lambda: lower_bound_slice_genus(7, True), "slice genus"),
        (lambda: lower_bound_slice_genus(7, Fraction(1)), "slice genus"),
    )
    for call, name in calls:
        with pytest.raises(InvalidParameterError, match=f"^{name} must be an integer, got "):
            call()
    with pytest.raises(InvalidParameterError, match="complexity must be nonnegative, got -1"):
        universal_rho_bound(-1)
    assert upper_bound(7, 2) == 96 * 7 + 128 * 2
    assert universal_rho_bound(2) == 2 * UNIVERSAL_RHO_PER_TET


@pytest.mark.parametrize("crossing, g4, name", [(1.5, None, "crossing number"), (None, True, "slice genus"),
                                                (3, 1.0, "slice genus"), (-1, None, "crossing number")])
def test_bound_report_refuses_bad_counts_before_any_work(crossing, g4, name, monkeypatch):
    def no_work(*args):
        raise AssertionError("an average ran for a refused count")

    monkeypatch.setattr(bounds, "avg_signature", no_work)
    with pytest.raises(InvalidParameterError, match=f"^{name} must be "):
        bound_report(jn_seifert(3), 7, crossing=crossing, g4=g4)


def test_bound_report_vacuous_flag():
    rep = bound_report(UNKNOT, 2)
    assert rep.vacuous
    assert rep.upper is None
    assert rep.lower_crossing is None


def test_report_invariant_on_grid():
    for a, c in ((UNKNOT, 0), (TREFOIL, 3), (jn_seifert(2), 8)):
        for n in (1, 2, 3, 5, 9, 17, 33):
            rep = bound_report(a, n, crossing=c)
            assert rep.best_lower <= rep.upper
            assert rep.best_lower == max(
                x for x in (rep.lower_signature, rep.lower_crossing) if x is not None
            )


def test_rho_chain_dominates_signature_bound():
    for a in (UNKNOT, TREFOIL, jn_seifert(2), jn_seifert(3)):
        for n in (1, 2, 3, 7, 15, 40):
            chain = complexity_from_rho(rho_knot_surgery(a, n))
            assert chain >= lower_bound_signature(a, n)
