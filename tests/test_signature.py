"""Signature engine: frozen examples, invariants, and dual-path cross-checks."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from knotrho import alexander, cyclotomic, signature
from knotrho.cyclotomic import CycField, UnitRoot
from knotrho.exceptions import ConductorLimitError, InvalidParameterError
from knotrho.bounds import bound_report
from knotrho.rho import rho_knot_surgery, rho_knot_surgery_result
from knotrho.seifert import (
    SeifertMatrix,
    _is_tridiagonal,
    jn_seifert,
    mirror,
    torus_knot_seifert,
    trefoil_seifert,
    unknot_seifert,
)
from knotrho.signature import (
    HermitianForm,
    alexander_at,
    alexander_polynomial,
    avg_signature,
    avg_signature_details,
    hermitian_form,
    inertia,
    jn_avg_lower_bound,
    levine_tristram,
    litherland_torus_signature,
    signature_details,
    torus_avg_lower_bound,
    _generic_float_pass,
    _generic_inertia_exact,
    _herm_residues,
    _minor_chain,
    _mr_root,
    _mr_seifert_table,
    _signature_exact_cached,
    _tridiag_layout,
    _two_shift_counts,
)
from knotrho.verify import random_knot_seifert, random_root

TREFOIL = trefoil_seifert()


# -- Hermitian form -------------------------------------------------------


def test_hermitian_form_at_minus_one():
    h = hermitian_form(TREFOIL, UnitRoot(1, 2))
    values = [[e.evaluate(UnitRoot(1, 2)) for e in row] for row in h.entries]
    assert np.allclose(values, [[4, 2], [2, 4]])


def test_hermitian_form_at_one_is_zero():
    h = hermitian_form(jn_seifert(2), UnitRoot(0, 1))
    assert all(e.is_zero for row in h.entries for e in row)


def test_hermitian_form_sixth_root_entries():
    root = UnitRoot(1, 6)
    h = hermitian_form(TREFOIL, root)
    assert h[0, 0].evaluate(root) == pytest.approx(1.0)
    assert h[1, 1].evaluate(root) == pytest.approx(1.0)
    assert h[0, 1].evaluate(root) == pytest.approx(0.5 - math.sqrt(3) / 2 * 1j)


def test_hermitian_form_is_hermitian():
    rng = random.Random(5)
    for _ in range(20):
        a = random_knot_seifert(rng, size_max=8)
        root = random_root(rng)
        h = hermitian_form(a, root)
        for i in range(h.size):
            for j in range(h.size):
                assert h[i, j].conjugate() == h[j, i]


# -- inertia ---------------------------------------------------------------


def test_inertia_examples():
    assert inertia(HermitianForm.from_integer_symmetric([[1, 0], [0, 1]])).as_tuple() == (2, 0, 0)
    assert inertia(hermitian_form(TREFOIL, UnitRoot(1, 6))).as_tuple() == (1, 1, 0)
    assert inertia(hermitian_form(TREFOIL, UnitRoot(1, 2))).as_tuple() == (2, 0, 0)


def test_inertia_rejects_bad_mode():
    h = hermitian_form(TREFOIL, UnitRoot(1, 2))
    with pytest.raises(InvalidParameterError):
        inertia(h, "fast")


def test_averages_reject_bad_mode_before_any_work():
    message = "mode must be 'exact' or 'float', got 'fast'"
    for call in (
        lambda: avg_signature(TREFOIL, 12, "fast"),
        lambda: avg_signature(TREFOIL, 1, "fast"),  # before the d = 1 shortcut
        lambda: avg_signature(TREFOIL, 0, "fast"),  # and before the check of d
        lambda: rho_knot_surgery(TREFOIL, -12, "fast"),
        lambda: bound_report(TREFOIL, 12, mode="fast"),
    ):
        with pytest.raises(InvalidParameterError) as excinfo:
            call()
        assert str(excinfo.value) == message


def test_trivial_root_rejects_bad_mode():
    # the omega = 1 shortcut and rho's d = 1 return come after the mode check
    message = "mode must be 'exact' or 'float', got 'fast'"
    for call in (
        lambda: signature_details(TREFOIL, UnitRoot(0, 1), "fast"),
        lambda: signature_details(unknot_seifert(), UnitRoot(0, 1), "fast"),
        lambda: levine_tristram(TREFOIL, UnitRoot(0, 1), "fast"),
        lambda: rho_knot_surgery_result(TREFOIL, 1, "fast"),
        lambda: rho_knot_surgery_result(TREFOIL, -1, "fast"),
    ):
        with pytest.raises(InvalidParameterError) as excinfo:
            call()
        assert str(excinfo.value) == message
    assert signature_details(TREFOIL, UnitRoot(0, 1), "float").value == 0
    assert rho_knot_surgery_result(TREFOIL, -1, "float").value == 0


def test_integer_symmetric_signatures():
    assert inertia(HermitianForm.from_integer_symmetric([[5]])).signature == 1
    assert inertia(HermitianForm.from_integer_symmetric([[-2]])).signature == -1
    assert inertia(HermitianForm.from_integer_symmetric([[0, 1], [1, 0]])).as_tuple() == (1, 0, 1)
    assert inertia(HermitianForm.from_integer_symmetric([[0, 0], [0, 0]])).as_tuple() == (0, 2, 0)


# -- Levine-Tristram ------------------------------------------------------


def test_levine_tristram_examples():
    assert levine_tristram(TREFOIL, UnitRoot(1, 2)) == 2
    assert levine_tristram(unknot_seifert(), UnitRoot(2, 7)) == 0
    assert levine_tristram(jn_seifert(1), UnitRoot(1, 2)) == 0
    assert levine_tristram(TREFOIL, UnitRoot(0, 1)) == 0


def test_signature_at_singular_point_counts_zero_eigenvalue():
    res = signature_details(TREFOIL, UnitRoot(1, 6))
    assert res.value == 1
    assert res.singular
    assert res.certified


# -- Alexander -------------------------------------------------------------


def test_alexander_polynomial_values():
    assert alexander_polynomial(TREFOIL) == (1, -1, 1)
    assert alexander_polynomial(unknot_seifert()) == (1,)
    # J_1: det([[1-t, -t], [1, -1+t]]) = -(1-t)^2 + t = -1 + 3t - t^2
    assert alexander_polynomial(jn_seifert(1)) == (-1, 3, -1)


def test_alexander_at_examples():
    elem = alexander_at(TREFOIL, UnitRoot(1, 2))
    assert elem.rational_value() == 3
    assert alexander_at(TREFOIL, UnitRoot(1, 6)).is_zero
    assert alexander_at(unknot_seifert(), UnitRoot(1, 3)).rational_value() == 1
    with pytest.raises(InvalidParameterError):
        alexander_at(TREFOIL, UnitRoot(0, 1))


def test_alexander_polynomial_dense_matrix_path():
    # force the Bareiss branch with a non-tridiagonal valid knot matrix
    rng = random.Random(99)
    for _ in range(5):
        a = random_knot_seifert(rng, size_max=6)
        poly = alexander_polynomial(a)
        # evaluate det(A^T - tA) at t = 2 via exact integer determinant
        from knotrho.seifert import det_int

        m = a.size
        mat = tuple(
            tuple(a.entries[j][i] - 2 * a.entries[i][j] for j in range(m)) for i in range(m)
        )
        direct = det_int(mat)
        horner = 0
        for c in reversed(poly):
            horner = horner * 2 + c
        assert horner == direct


def test_torus_alexander_roots_at_4n_plus_2():
    for n in (1, 2, 3):
        a = torus_knot_seifert(n)
        d = 4 * n + 2
        for k in range(1, d // 2 + 1):
            root = UnitRoot(k, d)
            singular = alexander_at(a, root).is_zero
            # roots of (t^{2n+1} + 1)/(t + 1): odd k except the middle one
            assert singular == (k % 2 == 1 and k != 2 * n + 1)


# -- averaged signatures ----------------------------------------------------


def test_avg_signature_examples():
    assert avg_signature(TREFOIL, 2) == 1
    assert avg_signature(TREFOIL, 3) == Fraction(4, 3)
    assert avg_signature(unknot_seifert(), 17) == 0
    assert avg_signature(TREFOIL, 1) == 0


def test_avg_signature_brute_force_oracle():
    # independent route: sum levine_tristram over every k, no divisor caching
    for a in (TREFOIL, jn_seifert(2), torus_knot_seifert(3)):
        for d in (2, 3, 4, 6, 9, 12):
            brute = Fraction(
                sum(levine_tristram(a, UnitRoot(k, d)) for k in range(1, d)), d
            )
            assert avg_signature(a, d) == brute


def test_avg_signature_mirror_antisymmetry():
    rng = random.Random(3)
    for _ in range(15):
        a = random_knot_seifert(rng, size_max=8)
        d = rng.randint(1, 20)
        assert avg_signature(mirror(a), d) == -avg_signature(a, d)


# -- closed forms ------------------------------------------------------------


def test_litherland_examples():
    assert litherland_torus_signature(1, Fraction(1, 2)) == 2
    assert litherland_torus_signature(1, Fraction(1, 6)) == 0
    assert litherland_torus_signature(5, Fraction(1, 2)) == 10
    with pytest.raises(InvalidParameterError):
        litherland_torus_signature(1, Fraction(0))
    with pytest.raises(InvalidParameterError):
        litherland_torus_signature(1, Fraction(2, 3))


def test_torus_avg_lower_bound_examples():
    assert torus_avg_lower_bound(3, 2) == 2
    assert torus_avg_lower_bound(1, 2) == Fraction(1, 2)
    assert torus_avg_lower_bound(4, 3) == Fraction(29, 9)


def test_jn_avg_lower_bound_boundary():
    assert jn_avg_lower_bound(3, 2) == 0
    assert jn_avg_lower_bound(4, 2) > 0
    assert jn_avg_lower_bound(3, 3) > 0


def test_avg_bounds_on_sample_grid():
    for n in (1, 2, 5, 8):
        at = torus_knot_seifert(n)
        aj = jn_seifert(n)
        for d in (2, 3, 5, 8, 12):
            avg_t = avg_signature(at, d)
            assert avg_t >= torus_avg_lower_bound(n, d)
            assert abs(avg_signature(aj, d) - avg_t) <= 2


# -- oracle equivalence -------------------------------------------------------


def test_litherland_oracle_small_grid():
    for n in (1, 2, 4, 7):
        a = torus_knot_seifert(n)
        for d in range(2, 25):
            for k in range(1, d // 2 + 1):
                root = UnitRoot(k, d)
                if alexander_at(a, root).is_zero:
                    continue
                assert levine_tristram(a, root) == litherland_torus_signature(
                    n, Fraction(k, d)
                )


# -- randomized invariants ------------------------------------------------------


@given(st.integers(0, 10**9))
def test_conjugation_symmetry(seed):
    rng = random.Random(seed)
    a = random_knot_seifert(rng, size_max=10)
    root = random_root(rng, d_max=60)
    assert levine_tristram(a, root) == levine_tristram(a, root.conjugate())


@given(st.integers(0, 10**9))
def test_totality_and_size_bound(seed):
    rng = random.Random(seed)
    a = random_knot_seifert(rng, size_max=12)
    root = random_root(rng, d_max=40)
    t = inertia(hermitian_form(a, root))
    assert t.size == a.size
    assert abs(t.signature) <= a.size


@given(st.integers(0, 10**9))
def test_mirror_negates_pointwise(seed):
    rng = random.Random(seed)
    a = random_knot_seifert(rng, size_max=10)
    root = random_root(rng, d_max=40)
    assert levine_tristram(mirror(a), root) == -levine_tristram(a, root)


@given(st.integers(0, 10**9))
def test_float_certified_agrees_with_exact(seed):
    rng = random.Random(seed)
    a = random_knot_seifert(rng, size_max=10)
    root = random_root(rng, d_max=40)
    fl = signature_details(a, root, "float")
    if fl.certified:
        assert fl.inertia.as_tuple() == signature_details(a, root, "exact").inertia.as_tuple()


@given(st.integers(0, 10**9))
def test_singular_iff_alexander_zero(seed):
    rng = random.Random(seed)
    a = random_knot_seifert(rng, size_max=10)
    root = random_root(rng, d_max=40)
    t = inertia(hermitian_form(a, root))
    assert (t.zero > 0) == alexander_at(a, root).is_zero


# -- dual-path guard: tridiagonal kernel vs generic elimination -----------------


@given(st.integers(0, 10**9))
def test_tridiagonal_kernel_matches_generic_elimination(seed):
    rng = random.Random(seed)
    half = rng.randint(1, 5)
    m = 2 * half
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = rng.randint(-3, 3)
        if i + 1 < m:
            v = rng.randint(-2, 2)
            rows[i][i + 1] = v
            rows[i + 1][i] = v  # symmetric noise keeps A - A^T in normal form
    for i in range(half):
        rows[2 * i][2 * i + 1] += 1
    a = SeifertMatrix(tuple(tuple(r) for r in rows), kind="knot")
    root = random_root(rng, d_max=30)
    assert _is_tridiagonal(a.entries)
    entries = _herm_residues(a, root.den)
    fast = inertia(hermitian_form(a, root))
    slow = _generic_inertia_exact(entries, root)
    assert fast.as_tuple() == slow.as_tuple()


def test_kernel_matches_generic_at_singular_points():
    for n in (1, 2, 3):
        a = torus_knot_seifert(n)
        d = 4 * n + 2
        for k in range(1, d):
            root = UnitRoot(k, d)
            entries = _herm_residues(a, root.den)
            fast = inertia(hermitian_form(a, root))
            slow = _generic_inertia_exact(entries, root)
            assert fast.as_tuple() == slow.as_tuple()


def test_generic_block_step_with_rest_entries():
    # all-zero diagonal forces the 2x2 off-diagonal block step; the leftover
    # indices exercise its Schur update
    rows = ((0, 1, 2, 0), (1, 0, 0, 3), (2, 0, 0, 1), (0, 3, 1, 0))
    form = HermitianForm.from_integer_symmetric(rows)
    t = inertia(form, "exact")
    fl = inertia(form, "float")
    assert fl.certified
    assert t.as_tuple() == fl.as_tuple() == (2, 0, 2)


def test_generic_block_step_complex_entries():
    # strictly-upper-triangular link matrix: H has zero diagonal at every root
    a = SeifertMatrix(((0, 2, 1), (0, 0, 3), (0, 0, 0)), kind="link")
    for k, d in ((1, 5), (2, 7), (1, 2)):
        root = UnitRoot(k, d)
        ex = inertia(hermitian_form(a, root), "exact")
        fl = inertia(hermitian_form(a, root), "float")
        assert fl.certified
        assert ex.as_tuple() == fl.as_tuple()


def test_float_pass_counts_are_part_of_the_inertia():
    # Zero or mostly-zero diagonals make the pass take 2x2 pivots; whatever
    # it certifies must be part of the exact inertia, and all of it when it
    # completes.  A wrong 2x2 Schur update changes the inertia of only about
    # one form in seventy here, so the loop is long.
    rng = random.Random(17)
    for _ in range(600):
        m = rng.randint(2, 8)
        zero_diagonal = rng.random() < 0.5
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            rows[i][i] = 0 if zero_diagonal else rng.choice((0, 0, rng.randint(-3, 3)))
            for j in range(i + 1, m):
                rows[i][j] = rows[j][i] = rng.choice((0, rng.randint(-3, 3)))
        form = HermitianForm.from_integer_symmetric(rows)
        want = _generic_inertia_exact(form.entries, form.root).as_tuple()
        p, n, rest = _generic_float_pass([[(complex(x), 0.0) for x in row] for row in rows])
        assert p <= want[0] and n <= want[2] and p + n + rest == m
        if rest == 0:
            assert (p, 0, n) == want
        assert inertia(form).as_tuple() == want


def test_zero_seifert_matrix_gives_zero_form():
    a = SeifertMatrix(((0, 0), (0, 0)), kind="link")
    t = inertia(hermitian_form(a, UnitRoot(1, 3)))
    assert t.as_tuple() == (0, 2, 0)


# -- float mode --------------------------------------------------------------


def test_float_mode_matches_exact_on_families():
    for n in (1, 2, 5):
        a = torus_knot_seifert(n)
        for d in (2, 3, 7, 12):
            for k in range(1, d):
                root = UnitRoot(k, d)
                fl = signature_details(a, root, "float")
                ex = signature_details(a, root, "exact")
                assert fl.value == ex.value
                assert fl.inertia.as_tuple() == ex.inertia.as_tuple()


def test_float_mode_works_at_huge_denominator():
    # float mode never builds cyclotomic contexts, so huge d is fine
    root = UnitRoot(10**13 + 1, 6 * 10**13)
    res = signature_details(TREFOIL, root, "float")
    assert res.value in (0, 1, 2)


def test_float_mode_gray_band_is_uncertified():
    # an eigenvalue ~1e-11 sits between the zero threshold (1e3 eps |H|)
    # and the certification threshold (1e6 eps |H|)
    root = UnitRoot(10**11 + 2, 6 * 10**11)
    res = signature_details(TREFOIL, root, "float")
    assert not res.certified


def test_exact_mode_refuses_huge_conductor():
    with pytest.raises(ConductorLimitError):
        signature_details(TREFOIL, UnitRoot(10**11 + 2, 6 * 10**11), "exact")


def test_avg_signature_float_mode_details():
    res = avg_signature_details(TREFOIL, 12, "float")
    assert res.value == avg_signature(TREFOIL, 12, "exact")
    assert res.certified


# -- integer-entry float passes vs the residue oracle ---------------------------


def _residue_oracle(a, root):
    """Exact pivoted elimination on the full residue table."""
    return _generic_inertia_exact(_herm_residues(a, root.den), root).as_tuple()


def _root_with_small_conductors(rng):
    d = rng.choice((2, 3, 4, 6, rng.randint(2, 40)))
    return UnitRoot(rng.choice([k for k in range(1, d) if math.gcd(k, d) == 1]), d)


def _random_tridiagonal_link(rng, m):
    # off-diagonal pairs are sometimes zero or antisymmetric, so blocks split
    # for every root or only at w = -1
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = rng.randint(-3, 3)
        if i + 1 < m:
            p = rng.randint(-3, 3)
            rows[i][i + 1] = p
            rows[i + 1][i] = rng.choice((0, -p, p, rng.randint(-3, 3)))
    return SeifertMatrix(tuple(tuple(r) for r in rows), kind="link")


def _scrambled(a, rng):
    """P^T A P for a random unimodular P (signed column additions)."""
    m = a.size
    p = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(m):
        i, j = rng.sample(range(m), 2)
        s = rng.choice((1, -1))
        for row in p:
            row[i] += s * row[j]
    e = a.entries
    ap = [[sum(e[i][k] * p[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    rows = [[sum(p[k][i] * ap[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    return SeifertMatrix(tuple(tuple(r) for r in rows), kind=a.kind)


def _check_pivot_counts(a, root):
    """Every inertia the two-shift pivot count certifies, of an unreduced
    block or of its leading block, is the residue oracle's.  Returns the
    (full, leading) counts of each block."""
    band, blocks, blocks_den2 = _tridiag_layout(a)
    table = _herm_residues(a, root.den)
    omc, s = _mr_root(root.num, root.den)
    counts = []
    for start, stop in blocks_den2 if root.den == 2 else blocks:
        if stop - start == 1:
            continue
        full, lead = _two_shift_counts(band, start, stop, omc, s)
        for end, neg in ((stop, full), (stop - 1, lead)):
            if neg is not None:
                sub = tuple(row[start:end] for row in table[start:end])
                want = _generic_inertia_exact(sub, root).as_tuple()
                assert want == (end - start - neg, 0, neg)
        counts.append((full, lead))
    return counts


@given(st.integers(0, 10**9))
def test_integer_tridiagonal_pass_matches_residue_oracle(seed):
    rng = random.Random(seed)
    a = _random_tridiagonal_link(rng, rng.randint(1, 8))
    root = _root_with_small_conductors(rng)
    _check_pivot_counts(a, root)
    assert signature_details(a, root).inertia.as_tuple() == _residue_oracle(a, root)


@given(st.integers(0, 10**9))
def test_integer_generic_pass_matches_residue_oracle(seed):
    rng = random.Random(seed)
    a = _scrambled(torus_knot_seifert(rng.randint(1, 4)), rng)
    root = _root_with_small_conductors(rng)
    want = _residue_oracle(a, root)
    p, n, rest = _generic_float_pass(_mr_seifert_table(a, *_mr_root(root.num, root.den)))
    if rest == 0:
        assert (p, 0, n) == want
    assert signature_details(a, root).inertia.as_tuple() == want


def test_integer_passes_at_torus_jump_points():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        a = torus_knot_seifert(n)
        scrambled = _scrambled(a, rng)
        d = 4 * n + 2
        for k in range(1, d):
            root = UnitRoot(k, d)
            ((full, lead),) = _check_pivot_counts(a, root)
            if k % 2 == 1 and 2 * k != d:
                # a jump point: the zero eigenvalue defeats the count, the
                # nonsingular leading block does not (interlacing fallback)
                assert full is None and lead is not None
                assert _minor_chain(a, root.den, 0, a.size)[-1].is_zero
            want = _residue_oracle(a, root)
            assert signature_details(a, root).inertia.as_tuple() == want
            assert signature_details(scrambled, root).inertia.as_tuple() == want


def test_pivot_count_stops_when_either_sequence_stops():
    # No imaginary part and 1 - Re w = 1 with the radius chosen so that
    # delta = 2 exactly: alpha = 2 a_ii and beta = 0, so a pivot of T - 2I is
    # exactly zero, the first one for diag(1, 0) and the last for diag(4, 1),
    # while every pivot of T + 2I is positive.
    for (a00, a11), radius in (((1, 0), 0.5), ((4, 1), 0.125)):
        a = SeifertMatrix(((a00, 1), (-1, a11)), kind="link")
        band, blocks, _ = _tridiag_layout(a)
        assert blocks == ((0, 2),) and band.diag_max * radius == 1.0
        omc = (1.0, radius - 2.0 * signature._EPS)
        assert _two_shift_counts(band, 0, 2, omc, (0.0, 0.0)) == (None, None)


def test_antisymmetric_off_diagonal_splits_blocks_at_minus_one():
    # h_01 = (1-w)2 + (1-conj w)(-2) vanishes only at w = -1
    a = SeifertMatrix(((1, 2, 0), (-2, -1, 3), (0, 1, 2)), kind="link")
    _, blocks, blocks_den2 = _tridiag_layout(a)
    assert blocks == ((0, 3),)
    assert blocks_den2 == ((0, 1), (1, 3))
    minus_one = UnitRoot(1, 2)
    # H(-1) = 2(A + A^T): the block (4) and [[-4, 8], [8, 8]]
    assert signature_details(a, minus_one).inertia.as_tuple() == (2, 0, 1)
    for root in (minus_one, UnitRoot(1, 3), UnitRoot(1, 4), UnitRoot(1, 6)):
        assert signature_details(a, root).inertia.as_tuple() == _residue_oracle(a, root)
        fl = signature_details(a, root, "float")
        assert fl.certified
        assert fl.inertia.as_tuple() == _residue_oracle(a, root)


# -- chunked float averages ------------------------------------------------------


@pytest.mark.parametrize(
    "a,d",
    [
        (TREFOIL, 12),
        (jn_seifert(2), 30),
        (torus_knot_seifert(2), 10),  # every odd k/10 is a jump point
        (torus_knot_seifert(3), 14),
        (torus_knot_seifert(2), 1009),  # 504 roots: four chunks of FLOAT_CHUNK
        (torus_knot_seifert(2), 360),  # chunks spanning several divisors
        (jn_seifert(2), 2310),
    ],
)
def test_float_average_matches_per_root_float(a, d):
    per_root = [signature_details(a, UnitRoot(k, d), "float") for k in range(1, d // 2 + 1)]
    weights = [1 if 2 * k == d else 2 for k in range(1, d // 2 + 1)]
    res = avg_signature_details(a, d, "float")
    assert res.value == Fraction(sum(w * r.value for w, r in zip(weights, per_root)), d)
    assert res.certified == all(r.certified for r in per_root)


@pytest.mark.parametrize(
    "a,d",
    [
        (TREFOIL, 12),
        (torus_knot_seifert(6), 70001),
        (mirror(jn_seifert(5)), 1009),
        (_scrambled(torus_knot_seifert(4), random.Random(3)), 30),
        (random_knot_seifert(random.Random(8), size_max=12, spread=1000), 2310),
    ],
)
def test_numeric_hermitians_lower_triangle_is_bit_equal_to_symmetrised(a, d):
    # eigvalsh reads the lower triangle, which equals that of (H + H^*)/2 bit
    # for bit, so the float path needs no symmetrisation
    omegas = [UnitRoot(k, d).to_complex() for k in range(1, min(d // 2, 128) + 1)]
    h = signature._numeric_hermitians(signature._complex_entries(a), omegas)
    sym = (h + h.conj().swapaxes(-1, -2)) / 2.0
    rows, cols = np.tril_indices(a.size)
    assert h[:, rows, cols].tobytes() == sym[:, rows, cols].tobytes()


# -- residues only where floats cannot decide -----------------------------------


def _clear_engine_caches():
    for module in (signature, cyclotomic):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def test_exact_average_builds_residues_only_for_undecided_signs(monkeypatch):
    built = []
    original = CycField.__init__

    def recording_init(self, d):
        built.append(d)
        original(self, d)

    monkeypatch.setattr(CycField, "__init__", recording_init)
    _clear_engine_caches()
    # no jump point at a prime grid: the float pass decides every sign
    got = avg_signature(torus_knot_seifert(3), 1009)
    assert 1009 not in built
    assert got == Fraction(
        sum(2 * litherland_torus_signature(3, Fraction(k, 1009)) for k in range(1, 505)), 1009
    )
    _clear_engine_caches()
    # the zero minors at the jump points of the 1/10 grid need the exact fallback
    assert avg_signature(torus_knot_seifert(2), 10) == Fraction(12, 5)
    assert 10 in built


# -- twist family: decided by the pivot count alone ----------------------------------


def test_twist_family_needs_no_exact_chain(monkeypatch):
    calls = []
    original = signature.certified_sign

    def counting(element, root):
        calls.append(root)
        return original(element, root)

    monkeypatch.setattr(signature, "certified_sign", counting)
    _clear_engine_caches()
    a = jn_seifert(100)
    assert signature_details(a, UnitRoot(2, 5)).inertia.as_tuple() == (180, 0, 20)
    for n in (3, 40, 100, 150):
        for d in (5, 7, 11, 12):
            avg_signature(jn_seifert(n), d)
    assert _minor_chain.cache_info().misses == 0
    assert calls == []


def test_rho_closed_form_by_arcs_matches_the_levels_per_root():
    # The closed form sums by arcs: one signature per arc and per grid point
    # meeting a root enclosure.  The level loop then evaluates every
    # conjugate pair once, and the two independent routes agree.
    _clear_engine_caches()
    a = jn_seifert(3)
    d = 401
    enclosures = alexander._alexander_root_enclosures(a)
    assert enclosures
    boundary = sum(
        any(lo - 1e-12 <= 2 * math.cos(2 * math.pi * k / d) <= hi + 1e-12 for lo, hi in enclosures)
        for k in range(1, d // 2 + 1)
    )
    avg = avg_signature(a, d)
    info = _signature_exact_cached.cache_info()
    assert 0 < info.misses <= len(enclosures) + 1 + boundary
    res = rho_knot_surgery_result(a, d)
    info = _signature_exact_cached.cache_info()
    assert info.misses == info.currsize == d // 2
    assert res.value == Fraction(d, 3) + Fraction(2, 3 * d) - 1 + avg
    assert res.value == Fraction(sum(res.per_level), d)


# -- generic forms at jump points: the exact Alexander zero -----------------------


def test_generic_jump_points_match_exact_elimination():
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        a = _scrambled(torus_knot_seifert(n), rng)
        assert not _is_tridiagonal(a.entries)
        d = 4 * n + 2
        for k in range(1, d // 2 + 1):
            root = UnitRoot(k, d)
            if alexander_at(a, root).is_zero:
                res = signature_details(a, root)
                assert res.inertia.as_tuple() == _residue_oracle(a, root)
                assert res.inertia.zero == 1


def _count_exact_eliminations(monkeypatch):
    calls = []
    original = signature._generic_inertia_exact

    def counting(entries, root):
        calls.append(root)
        return original(entries, root)

    monkeypatch.setattr(signature, "_generic_inertia_exact", counting)
    _clear_engine_caches()
    return calls


def test_singular_generic_profile_needs_no_exact_elimination(monkeypatch):
    calls = _count_exact_eliminations(monkeypatch)
    a = _scrambled(torus_knot_seifert(5), random.Random(5))
    assert not _is_tridiagonal(a.entries)
    singular = 0
    for k in range(1, 12):
        root = UnitRoot(k, 22)
        res = signature_details(a, root)
        assert res.singular == alexander_at(a, root).is_zero
        singular += res.singular
    assert singular == 5
    assert calls == []


def test_link_with_vanishing_alexander_polynomial(monkeypatch):
    # Zero rows and columns make Delta = 0 and H singular at every root.  One
    # leaves the float pass a 1x1 complement, decided by Delta; two leave a
    # 2x2 one, which only exact elimination decides.
    calls = _count_exact_eliminations(monkeypatch)
    one = SeifertMatrix(((2, 0, 0, 1), (0, 0, 0, 0), (1, 0, -1, 1), (0, 0, 2, 1)), kind="link")
    two = SeifertMatrix(tuple(row + (0,) for row in one.entries) + ((0,) * 5,), kind="link")
    fractions = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (1, 6), (1, 12), (5, 12))
    roots = [UnitRoot(k, d) for k, d in fractions]
    for a, zero, exact_calls in ((one, 1, 0), (two, 2, len(roots))):
        assert alexander_polynomial(a) == (0,)
        assert not _is_tridiagonal(a.entries)
        calls.clear()
        got = [signature_details(a, root).inertia.as_tuple() for root in roots]
        assert len(calls) == exact_calls
        assert got == [_residue_oracle(a, root) for root in roots]
        assert all(t[1] == zero for t in got)


def test_near_one_stall_of_a_knot_is_decided_on_the_arc_through_one(monkeypatch):
    # scripts/differential.py's scrambled torus2:4.  Next to w = 1 the real
    # part of H is O(|1 - w|^2) against O(|1 - w|) for its imaginary part, and
    # the float pass stalls at a 2x2 complement; exact elimination over
    # Z[x]/Phi_10010 took over 40 s.
    calls = _count_exact_eliminations(monkeypatch)
    rng = random.Random(2024)
    a = [_scrambled(torus_knot_seifert(n), rng) for n in (2, 3, 4)][-1]
    assert _generic_float_pass(_mr_seifert_table(a, *_mr_root(1, 10010))) == (3, 3, 2)
    start = time.perf_counter()
    res = signature_details(a, UnitRoot(1, 10010))
    assert time.perf_counter() - start < 0.5
    assert res.inertia.as_tuple() == (4, 0, 4)
    assert calls == []


def test_link_stall_next_to_one_keeps_exact_elimination(monkeypatch):
    # A link's A - A^T may be singular, so the arc through w = 1 says
    # nothing: two zero rows leave a 2x2 zero complement at every root.
    calls = _count_exact_eliminations(monkeypatch)
    one = ((2, 0, 0, 1), (0, 0, 0, 0), (1, 0, -1, 1), (0, 0, 2, 1))
    a = SeifertMatrix(tuple(row + (0,) for row in one) + ((0,) * 5,), kind="link")
    for root in (UnitRoot(1, 60), UnitRoot(1, 30)):
        calls.clear()
        res = signature_details(a, root)
        assert calls == [root]
        assert res.inertia.as_tuple() == _residue_oracle(a, root)
        assert res.inertia.zero == 2


def test_float_stall_at_nonsingular_form_is_not_taken_for_a_zero():
    # At w = -1, H = 2(A + A^T) has the block [[4N, 4N+2], [4N+2, 4N]] on
    # rows 0 and 2, whose Schur complement -(16N + 4)/(4N) lies far inside
    # the float radius of entries near 2^62: the float pass stalls at its
    # last 1x1 complement although H is nonsingular.
    big = 2**60
    a = SeifertMatrix(((big, 0, 2 * big + 1), (0, 1, 0), (0, 0, big)), kind="link")
    root = UnitRoot(1, 2)
    assert _generic_float_pass(_mr_seifert_table(a, *_mr_root(1, 2))) == (2, 0, 1)
    assert not alexander_at(a, root).is_zero
    res = signature_details(a, root)
    assert res.inertia.as_tuple() == _residue_oracle(a, root) == (2, 0, 1)
    assert not res.singular


# Scrambled torus matrices (P^T A P) whose float pass, with 1x1 pivots only,
# stalls at a complement with a zero diagonal: torus2:4 at 1/3 (nonsingular,
# r = 2) and at 1/6 (a jump point, r = 3), torus2:6 at 1/5 (nonsingular, r = 2).
_ZERO_DIAGONAL_STALLS = (
    (
        ((1, -1, 1, 0, 0, 0, -1, 0), (0, 3, -1, 2, 0, 1, 2, 1), (0, -1, 1, 0, 0, 0, -1, -1),
         (1, 1, 0, 3, -1, 1, 1, 0), (0, -1, 0, -1, 1, 0, -1, 0), (1, 0, 0, 1, 0, 1, 0, 0),
         (0, 2, -1, 1, 0, 1, 2, 1), (0, 1, 0, 0, 0, 0, 0, 1)),
        UnitRoot(1, 3),
        (7, 0, 1),
    ),
    (
        ((3, 0, 1, 1, 1, -1, -1, 1), (0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, -1, 0),
         (-1, 0, 0, 1, 0, 0, -1, 0), (0, 1, 0, 0, 1, 0, 0, 0), (-1, 0, 0, -1, 0, 1, 1, 0),
         (2, 0, 0, -1, 0, 0, 2, 1), (1, 0, 0, 0, 1, 0, 0, 1)),
        UnitRoot(1, 6),
        (5, 1, 2),
    ),
    (
        ((2, 0, 0, 0, 0, -1, -1, -1, -1, 0, 0, 1), (0, 1, 0, 0, 1, 0, 0, -1, 0, 0, 0, 1),
         (0, 1, 2, 0, 0, 0, 0, -1, 1, 1, 1, 1), (-1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, -1),
         (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0),
         (0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0), (0, -1, 0, 0, -1, 0, 1, 3, 1, 0, 0, -3),
         (-1, 0, 0, 0, 0, 0, 1, 1, 2, 1, 0, -2), (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, -1),
         (0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0), (0, 1, 0, 1, 1, 0, -1, -3, -1, 0, 0, 4)),
        UnitRoot(1, 5),
        (9, 0, 3),
    ),
)


def test_float_pass_takes_2x2_pivots_on_a_zero_diagonal(monkeypatch):
    # The pass completes at the nonsingular points and leaves the 1x1 zero
    # complement at the jump point, so no exact elimination runs.
    calls = _count_exact_eliminations(monkeypatch)
    for rows, root, want in _ZERO_DIAGONAL_STALLS:
        a = SeifertMatrix(rows, kind="knot")
        p, n, rest = _generic_float_pass(_mr_seifert_table(a, *_mr_root(root.num, root.den)))
        assert (p, rest, n) == want
        assert signature_details(a, root).inertia.as_tuple() == want
        assert calls == []
        assert _residue_oracle(a, root) == want
        calls.clear()


def test_large_singular_generic_profile_is_fast(monkeypatch):
    # Exact elimination took about 4 s per jump point of this 14x14 form.
    calls = _count_exact_eliminations(monkeypatch)
    a = _scrambled(torus_knot_seifert(7), random.Random(7))
    eps = Fraction(1, 1000)
    start = time.perf_counter()
    for k in range(1, 16):
        x = Fraction(k, 30)
        sides = litherland_torus_signature(7, x - eps) + litherland_torus_signature(
            7, min(x + eps, Fraction(1, 2))
        )
        res = signature_details(a, UnitRoot(k, 30))
        assert res.value == Fraction(sides, 2)
        assert res.singular == (k % 2 == 1 and k != 15)
    assert time.perf_counter() - start < 5.0
    assert calls == []


def test_exact_conductor_checked_once_per_grid(monkeypatch):
    calls = []
    original = signature.exact_degree

    def counting(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(signature, "exact_degree", counting)
    _clear_engine_caches()
    avg_signature(torus_knot_seifert(3), 1009)
    assert calls == [1009]
    signature_details(TREFOIL, UnitRoot(2, 7))
    assert calls == [1009, 7]
    # phi(d') divides phi(d) for every divisor d' of d = 7 * 11 * 13
    avg_signature(torus_knot_seifert(3), 1001)
    assert calls == [1009, 7, 1001]


def test_exact_average_refuses_huge_conductor_with_the_same_message():
    with pytest.raises(ConductorLimitError) as direct:
        cyclotomic.exact_degree(200003)
    with pytest.raises(ConductorLimitError) as avg:
        avg_signature(TREFOIL, 200003)
    with pytest.raises(ConductorLimitError) as single:
        signature_details(TREFOIL, UnitRoot(1, 200003))
    assert str(avg.value) == str(single.value) == str(direct.value)
    # the first refused divisor, in ascending order, names the conductor on
    # both routes: arcs for the knot, the whole grid for the link
    link = SeifertMatrix(TREFOIL.entries, kind="link")
    for a in (TREFOIL, link):
        with pytest.raises(ConductorLimitError) as composite:
            avg_signature(a, 2 * 200003)
        assert str(composite.value) == str(direct.value)


# -- exact averages by arcs against the whole grid -------------------------------


def _connected_sum(a, b):
    """Seifert matrix of a # b: the block sum, whose Delta is Delta_a Delta_b."""
    m, n = a.size, b.size
    rows = [row + (0,) * n for row in a.entries] + [(0,) * m + row for row in b.entries]
    return SeifertMatrix(tuple(rows), kind="knot")


def _assert_arcs_match(a, grids):
    for d in grids:
        arcs = signature._exact_sum(a, d, signature._arc_points(a, d))
        assert arcs == signature._exact_grid_sum(a, d), (a.entries, d)


@pytest.mark.parametrize("family", [torus_knot_seifert, jn_seifert])
def test_arc_sums_match_the_per_divisor_loop_on_families(family):
    for n in range(1, 7):
        for a in (family(n), mirror(family(n))):
            _assert_arcs_match(a, (2, 3, 12, 30, 100, 211, 307, 541, 1009, 1499, 5005))


def test_arc_sums_match_on_exact_roots_and_large_grids():
    # 714 = 7 * 102 and 10007 around the 25 roots of Delta = Phi_102 of torus2:25
    _assert_arcs_match(torus_knot_seifert(25), (102, 714, 10007))


def test_arc_sums_match_with_repeated_roots():
    # Delta(K # K) = Delta_K^2: every unit-circle root is a double root
    for k in (torus_knot_seifert(2), torus_knot_seifert(3), jn_seifert(2)):
        double = _connected_sum(k, k)
        assert alexander_polynomial(double) == tuple(
            alexander._poly_mul(list(alexander_polynomial(k)), list(alexander_polynomial(k)))
        )
        _assert_arcs_match(double, (10, 14, 30, 70, 211, 1009))
    mixed = _connected_sum(torus_knot_seifert(2), mirror(torus_knot_seifert(4)))
    _assert_arcs_match(mixed, (10, 18, 90, 211))


def test_arc_sums_match_on_the_generic_path():
    rng = random.Random(21)
    for a in (
        torus_knot_seifert(2),
        torus_knot_seifert(3),
        torus_knot_seifert(4),
        jn_seifert(3),
        _connected_sum(torus_knot_seifert(1), torus_knot_seifert(1)),
    ):
        scrambled = _scrambled(a, rng)
        assert not _is_tridiagonal(scrambled.entries)
        _assert_arcs_match(scrambled, (6, 10, 18, 30, 42, 211))


def test_arc_sum_without_unit_circle_roots():
    figure_eight = jn_seifert(1)
    assert alexander._alexander_root_enclosures(figure_eight) == ()
    _assert_arcs_match(figure_eight, (2, 7, 100, 1009))
    assert avg_signature(figure_eight, 1009) == 0


def test_no_arc_point_and_zero_signature_above_the_largest_root():
    # The grid points certified above the largest root enclosure lie on the
    # arc through w = 1, where sigma = 0 for a knot.  Their signatures are
    # taken for an equal link matrix, which no arc argument decides.
    rng = random.Random(21)
    families = [build(n) for n in range(1, 7) for build in (torus_knot_seifert, jn_seifert)]
    knots = families + [mirror(k) for k in families]
    knots += [_connected_sum(k, k) for k in (torus_knot_seifert(2), torus_knot_seifert(3), jn_seifert(2))]
    knots += [_scrambled(k, rng) for k in (torus_knot_seifert(2), torus_knot_seifert(4), jn_seifert(3))]
    rng = random.Random(7)
    randoms = [random_knot_seifert(rng, size_max=8) for _ in range(150)]
    rootless = 0
    for a in knots + randoms:
        enclosures = alexander._alexander_root_enclosures(a)
        rootless += not enclosures
        top = enclosures[0][1] if enclosures else -math.inf
        link = SeifertMatrix(a.entries, kind="link")
        for d in (211, 1009):
            above = [
                k for k in range(1, d // 2 + 1) if signature._grid_x(k, d) - signature._X_MARGIN > top
            ]
            assert not {k for k, _ in signature._arc_points(a, d)} & set(above)
            if d == 1009 and not a._tridiagonal:
                # every generic point at 1009 would take 10 s: both ends of
                # the run and its middle
                above = above[:1] + above[len(above) // 2:][:1] + above[-1:]
            for k in above:
                assert _signature_exact_cached(link, k, d).as_tuple() == (a.size // 2, 0, a.size // 2)
    assert rootless == 116  # jn:1, its mirror and 114 random knots


def test_exact_average_by_arcs_skips_the_arc_through_one():
    # torus2:n has n simple unit-circle roots and no grid point of a prime
    # grid on them: one signature per arc but the one through w = 1
    for n in range(1, 7):
        _clear_engine_caches()
        a = torus_knot_seifert(n)
        assert signature._sum_by_arcs(a, 211)
        avg_signature(a, 211)
        assert _signature_exact_cached.cache_info().misses == n
    _clear_engine_caches()
    assert avg_signature(jn_seifert(1), 100003) == 0
    assert _signature_exact_cached.cache_info().misses == 0


def _bisection_enclosures(a):
    """The Sturm bisection route alone, as _alexander_root_enclosures reports it."""
    q, chain = alexander._root_polynomial(alexander._knot_q(a))
    if len(q) == 1:
        return ()
    unit = 2.0**alexander._ROOT_BITS
    found = alexander._sturm_bisection(q, chain)
    return tuple(sorted(((lo / unit, hi / unit) for lo, hi in found), reverse=True))


def _assert_enclosures(a):
    """Disjoint, descending, at most 2^-40 wide, and each holding the one
    root that Sturm bisection alone encloses; exact dyadic roots are points."""
    enclosures = alexander._alexander_root_enclosures(a)
    assert all(lo <= hi and hi - lo <= 2.0**-40 for lo, hi in enclosures)
    assert all(lo1 > hi2 for (lo1, _), (_, hi2) in zip(enclosures, enclosures[1:]))
    reference = _bisection_enclosures(a)
    assert len(enclosures) == len(reference), a.entries
    for (lo, hi), (rlo, rhi) in zip(enclosures, reference):
        assert lo <= rlo <= rhi <= hi
        assert (lo == hi) == (rlo == rhi)
    return enclosures


def test_root_enclosures_are_disjoint_and_hold_every_unit_circle_root():
    # torus2:n: Delta = Phi_(4n+2), roots 2 cos(pi (2j+1)/(2n+1)), j = 0..n-1
    for n in range(1, 61):
        enclosures = alexander._alexander_root_enclosures(torus_knot_seifert(n))
        roots = [2 * math.cos(math.pi * (2 * j + 1) / (2 * n + 1)) for j in range(n)]
        assert len(enclosures) == n
        assert all(lo - 1e-12 <= x <= hi + 1e-12 for (lo, hi), x in zip(enclosures, roots))
        assert all(lo1 > hi2 for (lo1, _), (_, hi2) in zip(enclosures, enclosures[1:]))
        assert all(hi - lo <= 2.0**-40 for lo, hi in enclosures)
    # the trefoil's root x = 1 is exact: a point
    assert alexander._alexander_root_enclosures(TREFOIL) == ((1.0, 1.0),)
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 15, 30, 60):
        _assert_enclosures(jn_seifert(n))
        _assert_enclosures(mirror(torus_knot_seifert(n)))
    rng = random.Random(41)
    for _ in range(60):
        size, spread = rng.choice((4, 8, 12)), rng.choice((1, 3))
        _assert_enclosures(random_knot_seifert(rng, size_max=size, spread=spread))
    for k in (TREFOIL, torus_knot_seifert(5), jn_seifert(4), jn_seifert(12)):
        _assert_enclosures(_connected_sum(k, k))


def test_root_isolation_falls_back_to_bisection_for_close_roots():
    # Delta(torus2:8 # jn:8) = Delta_torus2:8 Delta_jn:8: two of its 15
    # unit-circle roots lie closer than the float sampling step, so the
    # float stage finds 13 sign changes against a Sturm count of 15.
    a = _connected_sum(torus_knot_seifert(8), jn_seifert(8))
    q, chain = alexander._root_polynomial(alexander._knot_q(a))
    assert len(alexander._float_roots(q)) == 13
    assert alexander._sturm_count(chain) == alexander._descartes_bound(q) == 15
    assert alexander._certified_brackets(q, 15, alexander._float_roots(q)) is None
    enclosures = alexander._alexander_root_enclosures(a)
    assert len(enclosures) == 15
    assert enclosures == _bisection_enclosures(a)
    _assert_arcs_match(a, (1009,))


def test_certified_roots_cost_two_exact_signs_each(monkeypatch):
    # The Descartes count of Q certifies the float brackets of the families,
    # so no Sturm chain is built; every exact sign is one end of a bracket,
    # whatever the degree.
    calls = {"chain": 0, "sign": 0}
    sign, chain = alexander._dyadic_sign, alexander._sturm_chain

    def counting_sign(p, num):
        calls["sign"] += 1
        return sign(p, num)

    def counting_chain(p):
        calls["chain"] += 1
        return chain(p)

    monkeypatch.setattr(alexander, "_dyadic_sign", counting_sign)
    monkeypatch.setattr(alexander, "_sturm_chain", counting_chain)
    # torus2:1 and torus2:25 have the exact root x = 1, a point enclosure
    knots = [torus_knot_seifert(1), torus_knot_seifert(25)]
    knots += [build(n) for n in (2, 3, 6, 15, 30, 60, 150) for build in (jn_seifert, torus_knot_seifert)]
    for a in knots:
        alexander._alexander_root_enclosures.cache_clear()
        calls.update(chain=0, sign=0)
        enclosures = alexander._alexander_root_enclosures(a)
        assert enclosures
        assert calls["chain"] == 0
        assert calls["sign"] <= 2 * len(enclosures)
    assert (1.0, 1.0) in alexander._alexander_root_enclosures(torus_knot_seifert(25))


def test_certificate_rejects_a_float_root_found_twice():
    # Two float estimates of one root of q = x^2 - x - 1 give as many
    # brackets as the root count, each with a sign change, but they overlap
    # and miss the other root.
    q, chain = alexander._root_polynomial(alexander._knot_q(torus_knot_seifert(2)))
    assert q == [-1, -1, 1]
    assert alexander._sturm_count(chain) == alexander._descartes_bound(q) == 2
    good = [(1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2]
    assert alexander._certified_brackets(q, 2, good) is not None
    twice = [good[0], good[0] - 2.0**-46]
    assert alexander._certified_brackets(q, 2, twice) is None
    assert alexander._certified_brackets(q, 3, good) is None
    # Two float estimates of the dyadic root x = 1 of the trefoil's
    # q = x - 1 both round to the point enclosure (1, 1): a second point
    # on the first must be rejected like an overlapping bracket.
    q = alexander._knot_q(torus_knot_seifert(1))
    assert q == [-1, 1]
    unit = 1 << alexander._ROOT_BITS
    assert alexander._certified_brackets(q, 1, [1.0]) == [(unit, unit)]
    assert alexander._certified_brackets(q, 2, [1.0, 1.0 - 2.0**-50]) is None


def _random_tridiagonal_knot(rng, g):
    """A tridiagonal knot matrix of size 2g: A - A^T is unimodular iff
    a_(i,i+1) - a_(i+1,i) = +-1 at every odd 1-based i; the other
    off-diagonal pairs are free, and sometimes zero."""
    m = 2 * g
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = rng.randint(-3, 3)
        if i + 1 < m:
            p = rng.randint(-3, 3)
            q = p - rng.choice((1, -1)) if i % 2 == 0 else rng.choice((0, p, -p, rng.randint(-3, 3)))
            rows[i][i + 1], rows[i + 1][i] = p, q
    return SeifertMatrix(tuple(tuple(r) for r in rows), kind="knot")


@given(st.integers(0, 10**9))
def test_q_from_the_band_matches_the_conversion_from_delta(seed):
    rng = random.Random(seed)
    a = _random_tridiagonal_knot(rng, rng.randint(0, 6))
    for k in (a, mirror(a)):
        assert k._tridiagonal
        assert alexander._band_q(k) == alexander._delta_q(alexander_polynomial(k), k.size)


def test_q_from_the_band_on_the_families():
    assert alexander._band_q(unknot_seifert()) == [1]
    for n in range(1, 61):
        for build in (torus_knot_seifert, jn_seifert):
            a = build(n)
            assert alexander._band_q(a) == alexander._delta_q(alexander_polynomial(a), a.size)


def _poly_from_factors(factors):
    out = [1]
    for f in factors:
        out = alexander._poly_mul(out, f)
    return out


@given(
    st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 4)), max_size=6),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 5)), max_size=3),
)
def test_descartes_bound_counts_roots_in_the_open_interval(real, quadratics):
    # real roots a / b, repeated at will, and complex pairs x^2 + p x + r
    # with p^2 < 4r, whose roots V may count in pairs
    linear = [[-a, b] for a, b in real]
    complex_pairs = [[p * p // 4 + extra, p, 1] for p, extra in quadratics]
    inside = sum(-2 * b < a < 2 * b for a, b in real)
    q = _poly_from_factors(linear + complex_pairs)
    if len(q) == 1:
        return
    v = alexander._descartes_bound(q)
    assert v >= inside and (v - inside) % 2 == 0
    if not complex_pairs:
        assert v == inside


def test_descartes_bound_on_known_polynomials():
    # x^2 - x - 1 (torus2:2): roots 1.618 and -0.618; (x - 1)^3 (x + 3);
    # x^2 + 1 has no real root but two sign changes after the map
    assert alexander._descartes_bound([-1, -1, 1]) == 2
    assert alexander._descartes_bound(_poly_from_factors([[-1, 1]] * 3 + [[3, 1]])) == 3
    assert alexander._descartes_bound([1, 0, 1]) == 2
    assert alexander._descartes_bound([-2, 1]) == 0  # the root x = 2 is not in (-2, 2)


def test_repeated_unit_circle_roots_take_the_chain_route(monkeypatch):
    # Delta(K # K) = Delta_K^2: the Descartes count doubles every root, so
    # the Sturm chain of the squarefree part decides, and the enclosures are
    # those the chain route gave before the Descartes count existed.
    built = []
    chain = alexander._sturm_chain
    monkeypatch.setattr(alexander, "_sturm_chain", lambda p: built.append(p) or chain(p))
    expected = {
        torus_knot_seifert(2): (
            ("0x1.9e3779b97eca0p+0", "0x1.9e3779b97fca0p+0"),
            ("-0x1.3c6ef372ff940p-1", "-0x1.3c6ef372fd940p-1"),
        ),
        jn_seifert(2): (("0x1.8722191a00d80p-2", "0x1.8722191a04d80p-2"),),
        TREFOIL: (("0x1.0000000000000p+0", "0x1.0000000000000p+0"),),
    }
    for k, want in expected.items():
        double = _connected_sum(k, k)
        q = alexander._knot_q(double)
        assert alexander._descartes_bound(q) == 2 * len(want)
        built.clear()
        alexander._alexander_root_enclosures.cache_clear()
        got = alexander._alexander_root_enclosures(double)
        assert built
        assert got == tuple((float.fromhex(lo), float.fromhex(hi)) for lo, hi in want)


def test_descartes_excess_is_certified_by_the_sturm_count(monkeypatch):
    # Q has one root in (-2, 2) and a complex pair that adds two sign
    # variations after the map: the Descartes count 3 rejects the one
    # float bracket, and the Sturm count certifies it without bisection.
    a = SeifertMatrix(
        (
            (3, -1, -2, -3, 2, -1),
            (-2, -3, 2, -2, -1, 3),
            (-2, 2, -2, 0, 0, 3),
            (-3, -2, -1, -3, -3, 3),
            (2, -1, 0, -3, -2, 4),
            (-1, 3, 3, 3, 3, 2),
        ),
        kind="knot",
    )
    q = alexander._knot_q(a)
    assert q == [-12169, 19011, -9897, 1717]
    assert alexander._descartes_bound(q) == 3

    def no_bisection(*args):
        raise AssertionError("Sturm bisection reached")

    monkeypatch.setattr(alexander, "_sturm_bisection", no_bisection)
    alexander._alexander_root_enclosures.cache_clear()
    enclosures = alexander._alexander_root_enclosures(a)
    assert len(enclosures) == 1
    monkeypatch.undo()
    assert _assert_enclosures(a) == enclosures


def test_exact_average_by_arcs_leaves_numpy_unloaded():
    # The float stage of root isolation runs in plain Python floats.
    code = (
        "import sys\n"
        "from knotrho.seifert import jn_seifert\n"
        "from knotrho.signature import _sum_by_arcs, avg_signature\n"
        "a = jn_seifert(30)\n"
        "assert _sum_by_arcs(a, 5003)\n"
        "avg_signature(a, 5003)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(alexander.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_exact_average_by_arcs_at_a_huge_grid_is_fast():
    a = jn_seifert(3)
    _clear_engine_caches()
    start = time.perf_counter()
    got = avg_signature(a, 100003)
    assert time.perf_counter() - start < 0.1
    assert got == Fraction(signature._exact_grid_sum(a, 100003), 100003)


def _placement_holds(d, k, beyond):
    def ext(j):
        return j > d // 2 or (j > 0 and beyond(j))

    return 1 <= k <= d // 2 + 1 and ext(k) and not ext(k - 1)


def test_grid_placement_keeps_the_binary_search_post_condition(monkeypatch):
    rng = random.Random(17)
    margin = 2.0 * signature._ROOT_ERR + 4.0 * signature._EPS
    grid_x = signature._grid_x
    calls = []
    monkeypatch.setattr(signature, "_grid_x", lambda j, d: calls.append(j) or grid_x(j, d))
    dyadic = (2.0, 1.0, 0.5, 0.0, -0.5, -1.0, -2.0, 1.0 + 2.0**-48, -2.0 + 2.0**-48)
    probes, onward = {False: [], True: []}, []
    for _ in range(400):
        d = rng.choice((rng.randint(2, 10**7), 12 * rng.randint(1, 8 * 10**5)))
        near = (2.0 - 2.0**-rng.randint(1, 50), -2.0 + 2.0**-rng.randint(1, 50))
        on_grid = grid_x(rng.randint(0, d // 2), d)
        for x in (*dyadic, *near, on_grid, rng.uniform(-2.0, 2.0)):
            for lo, hi in ((x, x), (x - 2.0**-48, x)):
                for end, below, test in (
                    (hi, False, lambda j: grid_x(j, d) - margin <= hi),
                    (lo, True, lambda j: grid_x(j, d) + margin < lo),
                ):
                    calls.clear()
                    k = signature._first_grid_index(d, end, below)
                    assert _placement_holds(d, k, test), (d, x)
                    probes[below].append(len(calls))
                # as _arc_points places them: `below` goes on from first - 1
                first = signature._first_grid_index(d, hi, False)
                calls.clear()
                k = signature._first_grid_index(d, lo, True, first - 1)
                assert k >= first and _placement_holds(d, k, lambda j: grid_x(j, d) + margin < lo)
                onward.append(len(calls))
    # O(1) per root: the walk from the acos guess settles before bisection,
    # and going on from first - 1 saves probes on placing `below`
    assert max(probes[False] + probes[True] + onward) <= 4
    assert sum(onward) < 0.8 * sum(probes[True])


def test_grid_placement_survives_a_non_monotone_test(monkeypatch):
    # The rounded grid stands in for any test: x_j lies far below or far
    # above the enclosure end exactly where beyond(j) says.
    rng = random.Random(5)
    calls = []
    for _ in range(2000):
        d = rng.randint(2, 10**6)
        flips = set(rng.sample(range(1, d // 2 + 1), min(d // 2, 5)))
        x = rng.uniform(-2.5, 2.5)
        threshold = rng.randint(0, d // 2 + 1)

        def beyond(j):
            return (j >= threshold) != (j in flips)

        def fake_x(j, _d):
            calls.append(j)
            return x - 1.0 if beyond(j) else x + 1.0

        monkeypatch.setattr(signature, "_grid_x", fake_x)
        for below in (False, True):
            calls.clear()
            k = signature._first_grid_index(d, x, below)
            assert _placement_holds(d, k, beyond)
            # a guess far off costs four walking probes, then bisection
            assert len(calls) <= 4 + (d // 2 + 1).bit_length()


def test_arc_dispatch_rule():
    # sizes up to 12 at grids from 190 sum by arcs; sizes from 30 at cover
    # orders up to 12, links and small grids keep the whole grid
    for n in range(1, 7):
        for family in (torus_knot_seifert, jn_seifert):
            assert signature._sum_by_arcs(family(n), 190)
    for n in (15, 40, 150):
        assert not signature._sum_by_arcs(jn_seifert(n), 12)
    # with cheap root isolation, size 60 sums by arcs from d = 4 * 60 + 17
    assert signature._sum_by_arcs(jn_seifert(30), 257)
    assert not signature._sum_by_arcs(jn_seifert(30), 256)
    assert not signature._sum_by_arcs(SeifertMatrix(TREFOIL.entries, kind="link"), 10**5)
    assert not signature._sum_by_arcs(TREFOIL, 4)
