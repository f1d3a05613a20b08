"""Cyclotomic residue arithmetic and certified sign evaluation."""

import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from knotrho.cyclotomic import (
    RING_CACHE_SIZE,
    UnitRoot,
    certified_sign,
    cyc_field,
    cyclotomic_polynomial,
    _interval_real_sign,
    _poly_divexact,
)
from knotrho.exceptions import (
    ConductorLimitError,
    InternalInconsistencyError,
    InvalidParameterError,
)

KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += c * cb
    return out


@pytest.mark.parametrize("d,coeffs", sorted(KNOWN_PHI.items()))
def test_cyclotomic_polynomial_table(d, coeffs):
    assert cyclotomic_polynomial(d) == coeffs


@pytest.mark.parametrize("d", range(1, 41))
def test_product_over_divisors_is_x_d_minus_1(d):
    prod = [1]
    for e in range(1, d + 1):
        if d % e == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(e)))
    want = [-1] + [0] * (d - 1) + [1]
    assert prod == want


def _phi_by_division(d, known):
    """Phi_d as x^d - 1 divided by Phi_e for each proper divisor e, the
    divisors' polynomials kept in known."""
    if d not in known:
        num = [-1] + [0] * (d - 1) + [1]
        for e in range(1, d):
            if d % e == 0:
                num = _poly_divexact(num, _phi_by_division(e, known))
        known[d] = tuple(num)
    return known[d]


@pytest.mark.parametrize("d", [105, 210, 385, 420, 1155, 1617, 2310])
def test_cyclotomic_polynomial_matches_division_by_the_divisors(d):
    # Many prime factors, coefficients other than 0 and +-1, and a square.
    assert cyclotomic_polynomial(d) == _phi_by_division(d, {})


def test_ring_caches_stay_bounded():
    cyc_field.cache_clear()
    cyclotomic_polynomial.cache_clear()
    for d in range(2, 3 * RING_CACHE_SIZE):
        assert cyc_field(d).d == d
        assert cyc_field.cache_info().currsize <= RING_CACHE_SIZE
        assert cyclotomic_polynomial.cache_info().currsize <= RING_CACHE_SIZE
    assert cyc_field.cache_info().currsize == RING_CACHE_SIZE
    assert cyc_field.cache_info().maxsize == cyclotomic_polynomial.cache_info().maxsize == RING_CACHE_SIZE


@pytest.mark.parametrize("d", range(1, 80))
def test_degree_is_euler_phi(d):
    phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
    assert len(cyclotomic_polynomial(d)) - 1 == phi


def test_unit_root_normalization():
    r = UnitRoot(7, 3)
    assert (r.k, r.d) == (1, 3)
    assert (r.num, r.den) == (1, 3)
    assert UnitRoot(2, 10).den == 5
    assert UnitRoot(0, 9).is_one
    assert UnitRoot(-1, 5).k == 4


def test_unit_root_conjugate_and_parse():
    r = UnitRoot(2, 7)
    assert r.conjugate() == UnitRoot(5, 7)
    assert UnitRoot.parse("3/8") == UnitRoot(3, 8)
    assert UnitRoot.parse("2") == UnitRoot(0, 1)
    with pytest.raises(InvalidParameterError):
        UnitRoot.parse("x/3")
    with pytest.raises(InvalidParameterError):
        UnitRoot(1, 0)


def test_generator_inverse():
    for d in (1, 2, 3, 4, 6, 12, 30, 100):
        fld = cyc_field(d)
        assert fld.gen() * fld.gen_inv() == fld.one()


@given(
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 30, 105]),
    st.lists(st.integers(-9, 9), max_size=50),
)
def test_multiplication_by_x_plus_its_inverse(d, coeffs):
    # full residues and shorter lists, against the dense product; Phi_105
    # has a coefficient -2
    fld = cyc_field(d)
    x_plus_xinv = fld.gen() + fld.gen_inv()
    for c in (list(fld.element(coeffs).coeffs), coeffs[:fld.degree]):
        assert fld.mul_x_plus_xinv_list(c) == list((fld.element(c) * x_plus_xinv).coeffs)


small_coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=6)
conductors = st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 24])


@given(conductors, small_coeffs, small_coeffs, small_coeffs)
def test_ring_axioms(d, ca, cb, cc):
    fld = cyc_field(d)
    a, b, c = fld.element(ca), fld.element(cb), fld.element(cc)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a - a == fld.zero()


@given(conductors, small_coeffs, small_coeffs)
def test_conjugation_is_a_ring_involution(d, ca, cb):
    fld = cyc_field(d)
    a, b = fld.element(ca), fld.element(cb)
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(conductors, small_coeffs, small_coeffs)
def test_evaluation_is_multiplicative(d, ca, cb):
    fld = cyc_field(d)
    root = UnitRoot(1, d)
    a, b = fld.element(ca), fld.element(cb)
    lhs = (a * b).evaluate(root)
    rhs = a.evaluate(root) * b.evaluate(root)
    assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))


@given(conductors, small_coeffs)
def test_norm_is_nonnegative_real(d, ca):
    fld = cyc_field(d)
    a = fld.element(ca)
    root = UnitRoot(1, d)
    s, approx = certified_sign(a.norm_squared(), root)
    assert s in (0, 1)
    if not a.is_zero:
        assert s == 1
        assert approx > 0


def test_certified_sign_exact_zero():
    fld = cyc_field(12)
    phi_as_element = fld.element(list(cyclotomic_polynomial(12)))
    assert phi_as_element.is_zero
    assert certified_sign(phi_as_element, UnitRoot(1, 12)) == (0, 0.0)


def test_certified_sign_needs_interval_refinement():
    # x + x^{-1} - (rational within 1e-60 of 2cos(2pi/5)) cannot be decided
    # in machine floats; the interval stage must resolve it.
    d = 5
    fld = cyc_field(d)
    with mpmath.workdps(80):
        target = mpmath.mpf(2) * mpmath.cos(2 * mpmath.pi / d)
        below = Fraction(int(mpmath.floor(target * mpmath.mpf(10) ** 60)), 10**60)
    elem = fld.gen() + fld.gen_inv() - fld.scalar(below)
    s, _ = certified_sign(elem, UnitRoot(1, 5))
    assert s == 1
    elem2 = fld.gen() + fld.gen_inv() - fld.scalar(below + Fraction(1, 10**59))
    s2, _ = certified_sign(elem2, UnitRoot(1, 5))
    assert s2 == -1


def test_interval_refinement_stops_at_the_norm_bound():
    # Phi_7 vanishes at every primitive 7th root, so no precision separates
    # it from zero; past the norm-bound cap the refinement must give up.
    start = time.perf_counter()
    with pytest.raises(InternalInconsistencyError):
        _interval_real_sign(list(cyclotomic_polynomial(7)), 1, 7)
    with pytest.raises(InternalInconsistencyError):
        _interval_real_sign([Fraction(1, 3)] * 7, 2, 7)
    assert time.perf_counter() - start < 10.0


def test_rational_elements():
    fld = cyc_field(7)
    a = fld.scalar(Fraction(3, 4))
    assert a.is_rational
    assert a.rational_value() == Fraction(3, 4)
    with pytest.raises(InvalidParameterError):
        fld.gen().rational_value()


def test_conductor_mismatch_rejected():
    with pytest.raises(InvalidParameterError):
        cyc_field(3).gen() + cyc_field(4).gen()


def test_conductor_limit():
    with pytest.raises(ConductorLimitError):
        cyc_field(2**21)
