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
    det_int,
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
    _tridiag_layout,
    _two_shift_counts,
)
from knotrho.verify import random_knot_seifert, random_root

import pivot_oracle
import sturm

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


def test_averages_reject_a_root_count_that_is_not_an_int_before_any_work(monkeypatch):
    # A float d would run the whole arc route, then fail in Fraction(total,
    # d); True would average over one root.  Both modes refuse them, and
    # other types, before any work, and after the mode check.
    monkeypatch.setattr(signature, "_root_arcs", lambda a: pytest.fail("work before the check"))
    monkeypatch.setattr(signature, "_float_grid_sum", lambda a, d: pytest.fail("work before the check"))
    a = jn_seifert(3)
    for d in (1009.0, 1.0, True, False, Fraction(1009), "1009", None):
        for mode in ("exact", "float"):
            with pytest.raises(InvalidParameterError) as excinfo:
                avg_signature_details(a, d, mode)
            assert str(excinfo.value) == f"root count d must be an integer, got {d!r}"
    with pytest.raises(InvalidParameterError, match="mode must be"):
        avg_signature_details(a, 1009.0, "fast")
    monkeypatch.undo()
    assert avg_signature_details(a, 1009).value == avg_signature(a, 1009)


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


@pytest.mark.parametrize(
    "rows, message",
    (
        ([[1, 2]], "form is not square: 1 rows, row of length 2"),
        ([[1], [2, 3]], "form is not square: 2 rows, row of length 1"),
        ([[1.5]], "entries must be integers, got 1.5"),
        ([[1, 2], [3, 1]], "matrix must be symmetric"),
    ),
)
def test_integer_symmetric_input_is_validated(rows, message):
    with pytest.raises(InvalidParameterError) as excinfo:
        HermitianForm.from_integer_symmetric(rows)
    assert str(excinfo.value) == message


def test_hermitian_form_must_be_square():
    fld = cyclotomic.cyc_field(5)
    with pytest.raises(InvalidParameterError, match="form is not square: 1 rows, row of length 2"):
        HermitianForm(UnitRoot(1, 5), ((fld.one(), fld.zero()),))
    with pytest.raises(InvalidParameterError, match="entry conductor does not match the root"):
        HermitianForm(UnitRoot(1, 5), ((cyclotomic.cyc_field(7).one(),),))


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
    # Two evaluations, at num and at den - num: nothing folds them into one.
    rng = random.Random(seed)
    a = random_knot_seifert(rng, size_max=10)
    root = random_root(rng, d_max=60)
    with pytest.MonkeyPatch.context() as patch:
        calls = _spy_on_the_core(patch)
        assert levine_tristram(a, root) == levine_tristram(a, root.conjugate())
    assert calls == [(root.num, root.den), (root.den - root.num, root.den)]


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


# -- dual-path guard: tridiagonal kernel vs the pivot oracle --------------------


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
    want = pivot_oracle.inertia(entries, root)
    assert inertia(hermitian_form(a, root)).as_tuple() == want
    assert _generic_inertia_exact(entries, root).as_tuple() == want


def test_kernel_matches_generic_at_singular_points():
    for n in (1, 2, 3):
        a = torus_knot_seifert(n)
        d = 4 * n + 2
        for k in range(1, d):
            root = UnitRoot(k, d)
            entries = _herm_residues(a, root.den)
            want = pivot_oracle.inertia(entries, root)
            assert inertia(hermitian_form(a, root)).as_tuple() == want
            assert _generic_inertia_exact(entries, root).as_tuple() == want


def test_generic_block_step_with_rest_entries():
    # An all-zero diagonal forces a 2x2 block step on the float pass and on
    # the pivot oracle; the leftover indices exercise its Schur update.
    rows = ((0, 1, 2, 0), (1, 0, 0, 3), (2, 0, 0, 1), (0, 3, 1, 0))
    form = HermitianForm.from_integer_symmetric(rows)
    t = inertia(form, "exact")
    fl = inertia(form, "float")
    assert fl.certified
    assert t.as_tuple() == fl.as_tuple() == (2, 0, 2)
    assert _generic_inertia_exact(form.entries, form.root).as_tuple() == (2, 0, 2)
    assert pivot_oracle.inertia(form.entries, form.root) == (2, 0, 2)


def test_generic_block_step_complex_entries():
    # strictly-upper-triangular link matrix: H has zero diagonal at every root
    a = SeifertMatrix(((0, 2, 1), (0, 0, 3), (0, 0, 0)), kind="link")
    for k, d in ((1, 5), (2, 7), (1, 2)):
        root = UnitRoot(k, d)
        form = hermitian_form(a, root)
        ex = inertia(form, "exact")
        fl = inertia(form, "float")
        assert fl.certified
        assert ex.as_tuple() == fl.as_tuple() == pivot_oracle.inertia(form.entries, root)
        assert _generic_inertia_exact(form.entries, root).as_tuple() == ex.as_tuple()


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
        want = pivot_oracle.inertia(form.entries, form.root)
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
    """The pivot oracle's inertia of the full residue table."""
    return pivot_oracle.inertia(_herm_residues(a, root.den), root)


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
                want = pivot_oracle.inertia(sub, root)
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


def _chain_oracle_inputs(rng):
    """Tridiagonal matrices for the minor chain: the families with n <= 8
    and their mirrors, two-block sums whose second block starts at an even
    and at an odd index, and random links of odd size with a zero
    off-diagonal pair."""
    out = []
    for n in range(1, 9):
        for build in (torus_knot_seifert, jn_seifert):
            out += [build(n), mirror(build(n))]
    out += [
        _connected_sum(torus_knot_seifert(2), jn_seifert(3)),
        _connected_sum(mirror(jn_seifert(2)), torus_knot_seifert(1)),
    ]
    odd, t2 = ((1, 1, 0), (0, 1, 1), (0, 0, -1)), torus_knot_seifert(2).entries
    rows = [row + (0,) * 4 for row in odd] + [(0,) * 3 + row for row in t2]
    out.append(SeifertMatrix(tuple(rows), kind="link"))
    for m in (3, 5, 7, 9):
        rows = [list(row) for row in _random_tridiagonal_link(rng, m).entries]
        i = rng.randrange(m - 1)
        rows[i][i + 1] = rows[i + 1][i] = 0
        out.append(SeifertMatrix(tuple(map(tuple, rows)), kind="link"))
    return out


def test_minor_chain_signs_match_the_residue_chain():
    # The band recurrence's chain against _chain on each block of the
    # residue table, on the blocks of non-real w and those of w = -1, for
    # d <= 60.  Exactly: the i-th minor is (2 - x)^ceil(i/2) times the i-th
    # value of the chain, x = zeta + 1/zeta, and 2 - x = |1 - w|^2 > 0 at
    # every primitive root w, so the two have the same sign at every k/d
    # and vanish together; certified signs confirm it at every k/d, d <= 30.
    rng = random.Random(20)
    for a in _chain_oracle_inputs(rng):
        _, blocks, blocks_den2 = _tridiag_layout(a)
        for d in range(2, 61):
            fld = cyclotomic.cyc_field(d)
            two_minus_x = fld.scalar(2) - fld.gen() - fld.gen_inv()
            table = _herm_residues(a, d)
            roots = [UnitRoot(k, d) for k in range(1, d // 2 + 1) if math.gcd(k, d) == 1]
            for start, stop in blocks_den2 if d == 2 else blocks:
                mine = _minor_chain(a, d, start, stop)
                diag = [table[i][i] for i in range(start, stop)]
                upper = [table[i][i + 1] for i in range(start, stop - 1)]
                lower = [table[i + 1][i] for i in range(start, stop - 1)]
                ref = signature._chain(diag, upper, lower)
                assert len(mine) == len(ref) == stop - start
                factor = fld.one()
                for i, (x, y) in enumerate(zip(mine, ref), 1):
                    factor = factor * two_minus_x if i % 2 else factor
                    assert factor * x == y, (a, d, start, i)
                for root in roots if d <= 30 else ():
                    want = [cyclotomic.certified_sign(x, root)[0] for x in ref]
                    assert [cyclotomic.certified_sign(x, root)[0] for x in mine] == want, (a, root)


def test_jump_point_chain_takes_no_dense_product(monkeypatch):
    # The chain at a jump point multiplies by x = zeta + 1/zeta in O(phi(d))
    # per step: no product of two residues, as the entry-by-entry chain took.
    products = []
    original = CycField.mul_lists

    def counting(self, a, b):
        products.append(self.d)
        return original(self, a, b)

    monkeypatch.setattr(CycField, "mul_lists", counting)
    _clear_engine_caches()
    a = torus_knot_seifert(100)
    assert signature_details(a, UnitRoot(1, 402)).inertia.as_tuple() == (100, 1, 99)
    assert _minor_chain.cache_info().misses == 1
    assert products == []


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


def _enclosures(a):
    """The root enclosures (lo, hi) of the merged per-matrix entry."""
    return tuple((lo, hi) for lo, hi, _ in alexander._root_arcs(a))


def _sigmas(a):
    """The arc signatures of the merged per-matrix entry, one per enclosure."""
    return tuple(sigma for _, _, sigma in alexander._root_arcs(a))


def _knot_q(a):
    """Q with Delta(t) = t^g Q(t + 1/t) for the knot matrix a, from Delta."""
    return alexander._delta_q(alexander_polynomial(a), a.size)


def _descartes_count(q):
    """V of q over (-2, 2), through q(4z - 2): the Descartes count, at
    least the number of roots there with multiplicity and of its parity,
    and equal to it when q is real-rooted."""
    return alexander._variations(alexander._on_unit_interval(q))


def _q_from_the_band(a):
    """Q of the tridiagonal knot matrix a, from its band in the cosine
    basis, as root isolation reads it."""
    if not a.size:
        return [1]
    return alexander._from_cosine(alexander._band_q(a, 0, a.size, alexander._cosine_times_x)[-1])


def _cosine_floats(q):
    """The scaled float cosine coefficients of q in Z[x], as root isolation
    reads them."""
    return alexander._scaled_floats(alexander._cosine_coefficients(q))


def _certified_brackets(q, cosine, count, roots):
    """alexander._certified_brackets for q in Z[x]."""
    return alexander._certified_brackets(alexander._cosine_coefficients(q), q, cosine, count, roots)


def _times_x(r):
    """x r for r in Z[x]: the band recurrence in the monomial basis."""
    return [0] + r


def _spy_on_the_core(monkeypatch) -> list:
    """Record the (num, den) of every call to the signature engine's core."""
    calls = []
    core = signature._exact_counts

    def counting(a, layout, num, den):
        calls.append((num, den))
        return core(a, layout, num, den)

    monkeypatch.setattr(signature, "_exact_counts", counting)
    return calls


def _declined(a):
    """_root_arcs as it reads where no crossing is certified."""
    return tuple((lo, hi, None) for lo, hi in _enclosures(a))


def test_rho_closed_form_by_arcs_matches_the_levels_per_root(monkeypatch):
    # The closed form sums by arcs: the root crossings give sigma on every
    # arc, so only the grid points meeting a root enclosure reach the core;
    # with the crossings declined, one signature per arc as well.  The level
    # loop then evaluates every conjugate pair once, and the two independent
    # routes agree.
    _clear_engine_caches()
    a = jn_seifert(3)
    d = 401
    enclosures = _enclosures(a)
    assert enclosures
    boundary = sum(
        any(lo - 1e-12 <= 2 * math.cos(2 * math.pi * k / d) <= hi + 1e-12 for lo, hi in enclosures)
        for k in range(1, d // 2 + 1)
    )
    calls = _spy_on_the_core(monkeypatch)
    for declined in (False, True):
        if declined:
            monkeypatch.setattr(signature, "_root_arcs", _declined)
        calls.clear()
        avg = avg_signature(a, d)
        arcs = calls[:]
        if declined:
            assert 0 < len(arcs) <= len(enclosures) + 1 + boundary
        else:
            assert len(arcs) <= boundary
        calls.clear()
        res = rho_knot_surgery_result(a, d)
        assert calls == arcs + [(k, d) for k in range(1, d // 2 + 1)]
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
    # 2x2 one, which only the exact fallback decides.
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
    # complement at the jump point, so the exact fallback never runs.
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


def test_scrambled_sixteen_square_stall_is_fast(monkeypatch):
    # The scrambled torus2:4 # torus2:4 at 1/18 stalls at a 2x2 complement of
    # a double zero, which only the exact characteristic polynomial decides:
    # pivoted elimination took about 8 s there.
    calls = _count_exact_eliminations(monkeypatch)
    a = _scrambled(_connected_sum(torus_knot_seifert(4), torus_knot_seifert(4)), random.Random(5))
    root = UnitRoot(1, 18)
    start = time.perf_counter()
    res = signature_details(a, root)
    assert time.perf_counter() - start < 1.0
    assert calls == [root]
    assert res.inertia.as_tuple() == (8, 2, 6)


def test_exact_inertia_matches_pivot_oracle_at_twelve_square():
    # The scrambled torus2:6 at its jump point 1/26, whose residue table the
    # pivot oracle still eliminates in well under a second.
    a = _scrambled(torus_knot_seifert(6), random.Random(5))
    root = UnitRoot(1, 26)
    table = _herm_residues(a, root.den)
    want = pivot_oracle.inertia(table, root)
    assert want == (6, 1, 5)
    assert _generic_inertia_exact(table, root).as_tuple() == want


def _random_hermitian_residues(rng, m, d):
    """A random m x m Hermitian table over the conductor-d ring: conjugate
    pairs off the diagonal and c + conj c on it, of up to two small terms
    each, sometimes with a zero diagonal or with zero rows and columns."""
    fld = cyclotomic.cyc_field(d)

    def element():
        coeffs = [0] * fld.degree
        for _ in range(rng.randint(0, 2)):
            coeffs[rng.randrange(fld.degree)] = rng.randint(-3, 3)
        return fld.element(coeffs)

    zero_diagonal = rng.random() < 0.3
    blank = set(rng.sample(range(m), rng.randint(1, m))) if rng.random() < 0.3 else set()
    rows = [[fld.zero()] * m for _ in range(m)]
    for i in set(range(m)) - blank:
        if not zero_diagonal:
            c = element()
            rows[i][i] = c + c.conjugate()
        for j in set(range(i + 1, m)) - blank:
            rows[i][j] = element()
            rows[j][i] = rows[i][j].conjugate()
    return tuple(map(tuple, rows))


@given(st.integers(0, 10**9))
def test_characteristic_polynomial_inertia_matches_pivot_oracle(seed):
    # Random Hermitian residue forms of size <= 8 and conductor <= 40, links
    # whose zero rows make Delta = 0, integer forms of low rank whose zero
    # rows come from the rank-one terms, and K # K at the double roots of
    # Delta_K^2: Descartes' rule on det(xI - H) against the pivot oracle.
    rng = random.Random(seed)
    case = rng.randrange(4)
    if case == 0:
        d = rng.randint(1, 40)
        root = UnitRoot(rng.choice([k for k in range(d) if math.gcd(k, d) == 1]), d)
        entries = _random_hermitian_residues(rng, rng.randint(1, 8), d)
    elif case == 3:
        m = rng.randint(3, 10)
        rows = [[0] * m for _ in range(m)]
        for _ in range(rng.randint(1, m - 2)):
            v = [rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(m)]
            s = rng.choice((1, -1))
            rows = [[x + s * v[i] * v[j] for j, x in enumerate(row)] for i, row in enumerate(rows)]
        form = HermitianForm.from_integer_symmetric(rows)
        entries, root = form.entries, form.root
    else:
        if case == 1:
            m = rng.randint(2, 8)
            blank = set(rng.sample(range(m), rng.randint(1, m - 1)))
            rows = [[0 if {i, j} & blank else rng.randint(-3, 3) for j in range(m)]
                    for i in range(m)]
            a = SeifertMatrix(tuple(map(tuple, rows)), kind="link")
            root = _root_with_small_conductors(rng)
        else:
            k = rng.choice((TREFOIL, torus_knot_seifert(2)))
            a = _scrambled(_connected_sum(k, k), rng)
            jumps = [
                UnitRoot(j, d)
                for d in range(2, 41)
                for j in range(1, d)
                if math.gcd(j, d) == 1 and alexander_at(k, UnitRoot(j, d)).is_zero
            ]
            root = rng.choice(jumps)
        entries = _herm_residues(a, root.den)
    want = pivot_oracle.inertia(entries, root)
    assert _generic_inertia_exact(entries, root).as_tuple() == want
    if case == 2:
        assert want[1] == 2


def test_exact_conductor_checked_once_per_grid(monkeypatch):
    calls, factored = [], []
    check, degree = signature._check_conductor, signature.exact_degree

    def counting(d):
        calls.append(d)
        return check(d)

    monkeypatch.setattr(signature, "_check_conductor", counting)
    monkeypatch.setattr(signature, "exact_degree", lambda d: factored.append(d) or degree(d))
    _clear_engine_caches()
    avg_signature(torus_knot_seifert(3), 1009)
    assert calls == [1009]
    signature_details(TREFOIL, UnitRoot(2, 7))
    assert calls == [1009, 7]
    # phi(d') divides phi(d) for every divisor d' of d = 7 * 11 * 13
    avg_signature(torus_knot_seifert(3), 1001)
    assert calls == [1009, 7, 1001]
    # phi(d) < d: no conductor up to MAX_EXACT_DEGREE + 1 is factored
    top = cyclotomic.MAX_EXACT_DEGREE + 1
    assert cyclotomic.exact_degree(top) <= cyclotomic.MAX_EXACT_DEGREE
    signature_details(TREFOIL, UnitRoot(1, top))
    assert factored == []
    with pytest.raises(ConductorLimitError):
        signature_details(TREFOIL, UnitRoot(1, 200003))
    assert factored == [200003]


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


def _whole_grid(a, d):
    return signature._exact_sum(a, d, signature._grid_points(d, 1, d // 2 + 1))


def _assert_arcs_match(a, grids):
    for d in grids:
        arcs = signature._exact_sum(a, d, signature._arc_points(a, d))
        assert arcs == _whole_grid(a, d), (a.entries, d)


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


def _composite(x: int) -> bool:
    return any(x % p == 0 for p in range(2, int(x**0.5) + 1))


@given(st.integers(0, 10**9))
def test_arc_route_through_the_core_matches_the_grid(seed):
    # The arc route sums straight through the core, with no memo, and
    # must equal the whole grid summed through the memo: on random
    # tridiagonal knots with zero off-diagonals and zero diagonal entries,
    # their mirrors, and torus2:n at multiples of 2n + 1, whose even
    # multiples put grid points on roots, where the core counts a zero
    # eigenvalue by its exact fallback.
    rng = random.Random(seed)
    a = _random_tridiagonal_knot(rng, rng.randint(1, 8))
    grids = [
        rng.choice([d for d in range(4 * a.size + 17, 1501) if _composite(d) == composite])
        for composite in (False, True)
    ]
    for k in (a, mirror(a)):
        _assert_arcs_match(k, grids)
    n = rng.randint(1, 6)
    torus = torus_knot_seifert(n)
    low = (4 * torus.size + 17 + 2 * n) // (2 * n + 1)
    core = signature._exact_counts
    zeros = []

    def counting(a, layout, num, den):
        neg, zero = core(a, layout, num, den)
        zeros.append(zero)
        return neg, zero

    even = 2 * rng.randint(low // 2 + 1, 1500 // (4 * n + 2))
    for multiple in (even, rng.randint(low, 1500 // (2 * n + 1))):
        d = multiple * (2 * n + 1)
        assert signature._sum_by_arcs(torus, d)
        zeros.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(signature, "_exact_counts", counting)
            arcs = signature._exact_sum(torus, d, signature._arc_points(torus, d))
        assert arcs == _whole_grid(torus, d), (n, d)
        # the grid point k = d / (4n + 2) is the root e^(i pi / (2n + 1))
        assert any(zeros) == (d % (4 * n + 2) == 0)


def test_arc_sum_without_unit_circle_roots():
    figure_eight = jn_seifert(1)
    assert _enclosures(figure_eight) == ()
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
        enclosures = _enclosures(a)
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
                got = signature_details(link, UnitRoot(k, d)).inertia.as_tuple()
                assert got == (a.size // 2, 0, a.size // 2)
    assert rootless == 116  # jn:1, its mirror and 114 random knots


def test_exact_average_by_arcs_skips_the_arc_through_one(monkeypatch):
    # torus2:n has n simple unit-circle roots and no grid point of a prime
    # grid on them: the root crossings give sigma on every arc, so no
    # signature is evaluated; with them declined, one signature per arc but
    # the one through w = 1.  Both routes give the same average.
    calls = _spy_on_the_core(monkeypatch)
    averages = []
    for declined in (False, True):
        if declined:
            monkeypatch.setattr(signature, "_root_arcs", _declined)
        for n in range(1, 7):
            _clear_engine_caches()
            a = torus_knot_seifert(n)
            assert signature._sum_by_arcs(a, 211)
            calls.clear()
            averages.append(avg_signature(a, 211))
            assert len(calls) == (n if declined else 0)
    assert averages[:6] == averages[6:]
    _clear_engine_caches()
    calls.clear()
    assert avg_signature(jn_seifert(1), 100003) == 0
    assert calls == []


def _arc_point(lo, low):
    """(k, d) of a grid point certified inside the open arc (low, lo) of x,
    from the grids 1009 and 20011, or None where neither has one."""
    for d in (1009, 20011):
        k = round(d * math.acos(0.25 * (lo + low)) / (2 * math.pi))
        if 0 < k <= d // 2:
            x = signature._grid_x(k, d)
            if low < x - signature._X_MARGIN and x + signature._X_MARGIN < lo:
                return k, d
    return None


def _assert_arc_signatures(a):
    """Every sigma _root_arcs certifies is the core's count at a grid
    point inside its arc, and a declined crossing declines all later ones.
    Returns the number of arcs checked."""
    enclosures = _enclosures(a)
    sigmas = _sigmas(a)
    known = [s for s in sigmas if s is not None]
    assert sigmas == tuple(known) + (None,) * (len(enclosures) - len(known))
    layout = signature._tridiag_layout(a)
    lows = [hi for _, hi in enclosures[1:]] + [-2.0]
    checked = 0
    for (lo, _), low, sigma in zip(enclosures, lows, known):
        point = _arc_point(lo, low)
        if point is not None:
            k, d = point
            g = math.gcd(k, d)
            neg, zero = signature._exact_counts(a, layout, k // g, d // g)
            assert (a.size - 2 * neg, zero) == (sigma, 0), (a.entries, k, d)
            checked += 1
    return checked


@given(st.integers(0, 10**9))
def test_certified_arc_signatures_match_the_core(seed):
    # On random tridiagonal knots of size up to 16, with zero diagonal
    # entries and zero off-diagonal pairs, their mirrors and the families,
    # each sigma that the root crossings certify is the core's at a grid
    # point inside its arc, and the arc sum is the whole grid at one prime
    # and one composite grid.
    rng = random.Random(seed)
    a = _random_tridiagonal_knot(rng, rng.randint(1, 8))
    family = rng.choice((torus_knot_seifert, jn_seifert))(rng.randint(1, 12))
    for k in (a, mirror(a), family):
        _assert_arc_signatures(k)
        grids = [
            rng.choice([d for d in range(4 * k.size + 17, 1501) if _composite(d) == composite])
            for composite in (False, True)
        ]
        _assert_arcs_match(k, grids)


def test_certified_arc_signatures_on_the_families():
    checked = 0
    for n in range(1, 13):
        for build in (torus_knot_seifert, jn_seifert):
            for a in (build(n), mirror(build(n))):
                assert None not in _sigmas(a)
                checked += _assert_arc_signatures(a)
    assert checked > 200


def test_arc_route_meets_torus_roots_only_at_grid_points_on_them(monkeypatch):
    # At multiples of 2n + 1 the grid points of torus2:n meet roots of Delta
    # where d is a multiple of 4n + 2: only they reach the core, each with a
    # zero eigenvalue, and the sum is the whole grid's.
    calls = _spy_on_the_core(monkeypatch)
    for n in range(1, 7):
        a = torus_knot_seifert(n)
        assert None not in _sigmas(a)
        for multiple in (16, 17, 30, 41):
            d = multiple * (2 * n + 1)
            assert signature._sum_by_arcs(a, d)
            calls.clear()
            arcs = signature._exact_sum(a, d, signature._arc_points(a, d))
            on_roots = calls[:]
            assert len(on_roots) == (n if d % (4 * n + 2) == 0 else 0), (n, d)
            layout = signature._tridiag_layout(a)
            assert all(signature._exact_counts(a, layout, *point)[1] == 1 for point in on_roots)
            assert arcs == _whole_grid(a, d)


def test_point_enclosure_takes_the_exact_sign_where_floats_decline(monkeypatch):
    # The trefoil's one root is the point x = 1.  With every float sign
    # declined, the exact signs of R_(m-1) there and of Q on the arc below
    # give the same sigma, that of w = -1.
    want = ((1.0, 1.0, signature_details(TREFOIL, UnitRoot(1, 2)).value),)
    alexander._root_arcs.cache_clear()
    assert alexander._root_arcs(TREFOIL) == want
    exact = []
    sign = alexander._dyadic_sign
    monkeypatch.setattr(alexander, "_float_sign", lambda cosine, x, width=0.0: 0)
    monkeypatch.setattr(alexander, "_dyadic_sign", lambda p, num: exact.append(num) or sign(p, num))
    alexander._root_arcs.cache_clear()
    assert alexander._root_arcs(TREFOIL) == want
    unit = 1 << alexander._ROOT_BITS
    # Q at the dyadic candidate x = 1 (isolation) and R_1 there; below the
    # last enclosure Q has the sign of Q(-2), read off its coefficients
    assert exact == [unit, unit]
    alexander._root_arcs.cache_clear()


def test_one_band_pass_per_knot_and_no_delta_on_the_arc_route(monkeypatch):
    # A cold tridiagonal knot averaged by arcs runs one band pass, in the
    # cosine basis, and builds no Delta; a dense knot's arc entry reads Q off
    # Delta and runs no band pass.  Only the squarefree part of the Q of
    # K # K, built in Z[x], takes the cosine coefficients of a polynomial.
    _clear_engine_caches()
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def recording(*args):
            calls.append((name,) + args[1:])
            return original(*args)

        monkeypatch.setattr(module, name, recording)

    for module in (alexander, signature):
        spy(module, "_band_q")
    spy(alexander, "alexander_polynomial")
    spy(alexander, "_cosine_coefficients")
    for knot in (jn_seifert(6), torus_knot_seifert(5)):
        assert signature._sum_by_arcs(knot, 1009)
        calls.clear()
        avg_signature(knot, 1009)
        assert calls == [("_band_q", 0, knot.size, alexander._cosine_times_x)]
    dense = _scrambled(jn_seifert(3), random.Random(0))
    assert not dense._tridiagonal
    calls.clear()
    assert _sigmas(dense) == (None, None)
    assert calls == [("alexander_polynomial",)]
    t2 = torus_knot_seifert(2)
    double = _connected_sum(t2, t2)
    calls.clear()
    assert len(_enclosures(double)) == 2
    assert calls == [("_band_q", 0, double.size, alexander._cosine_times_x), ("_cosine_coefficients",)]


def test_block_sums_decline_and_still_sum_right(monkeypatch):
    # Delta(K # K) = Delta_K^2, and R_(m-1) vanishes at each double root, so
    # no crossing is certified and every arc takes a signature of its own.
    calls = _spy_on_the_core(monkeypatch)
    for k in (torus_knot_seifert(2), torus_knot_seifert(3), jn_seifert(2)):
        double = _connected_sum(k, k)
        assert _sigmas(double) == (None,) * len(_enclosures(double))
        calls.clear()
        _assert_arcs_match(double, (211, 1009))
        assert calls
    mixed = _connected_sum(torus_knot_seifert(2), mirror(torus_knot_seifert(4)))
    _assert_arcs_match(mixed, (211, 1009, 2310))


@given(st.integers(0, 10**9))
def test_widened_float_sign_agrees_with_the_exact_sign(seed):
    # Where _float_sign certifies a sign on [x - w, x + w], every dyadic
    # point there has it: over the root enclosures, for R_(m-1), and over
    # random intervals of width 2^-40 to 2^-4, for R_(m-1) and Q.
    rng = random.Random(seed)
    a = rng.choice((_random_tridiagonal_knot(rng, rng.randint(1, 8)), jn_seifert(rng.randint(1, 20))))
    *_, below, big_q = alexander._band_q(a, 0, a.size, _times_x)
    unit = 1 << alexander._ROOT_BITS
    cases = [(below, round(lo * unit), round(hi * unit)) for lo, hi in _enclosures(a)]
    for p in (below, big_q):
        for _ in range(10):
            half = 1 << rng.randint(8, 44)
            mid = rng.randint(-2 * unit + half, 2 * unit - half)
            cases.append((p, mid - half, mid + half))
    for p, lo, hi in cases:
        if not any(p):
            continue
        s = alexander._float_sign(_cosine_floats(p), (lo + hi) / (2 * unit), (hi - lo) / (2 * unit))
        if s:
            for y in (lo, hi, (lo + hi) // 2, rng.randint(lo, hi), rng.randint(lo, hi)):
                assert alexander._dyadic_sign(p, y) == s, (p, lo, hi, y)


def test_band_in_the_cosine_basis_matches_the_conversion():
    # The band in the cosine basis against the band in Z[x], through both
    # conversions between the bases.
    rng = random.Random(8)
    knots = [_random_tridiagonal_knot(rng, rng.randint(1, 8)) for _ in range(30)]
    knots += [build(n) for n in (1, 5, 30) for build in (torus_knot_seifert, jn_seifert)]
    for a in knots + [_random_tridiagonal_link(rng, rng.randint(1, 9)) for _ in range(30)]:
        monomial = alexander._band_q(a, 0, a.size, _times_x)
        cosine = alexander._band_q(a, 0, a.size, alexander._cosine_times_x)
        assert [alexander._cosine_coefficients(r) for r in monomial] == cosine
        assert [alexander._from_cosine(b) for b in cosine] == [cyclotomic._poly_trim(r) for r in monomial]


def _assert_enclosures(a):
    """Disjoint, descending, at most 2^-40 wide, and each holding the one
    root that Sturm bisection (the oracle in tests/sturm.py) encloses;
    exact dyadic roots are points."""
    enclosures = _enclosures(a)
    assert all(lo <= hi and hi - lo <= 2.0**-40 for lo, hi in enclosures)
    assert all(lo1 > hi2 for (lo1, _), (_, hi2) in zip(enclosures, enclosures[1:]))
    reference = sturm.enclosures(a)
    assert len(enclosures) == len(reference), a.entries
    for (lo, hi), (rlo, rhi) in zip(enclosures, reference):
        assert lo <= rlo <= rhi <= hi
        assert (lo == hi) == (rlo == rhi)
    return enclosures


def test_root_enclosures_are_disjoint_and_hold_every_unit_circle_root():
    # torus2:n: Delta = Phi_(4n+2), roots 2 cos(pi (2j+1)/(2n+1)), j = 0..n-1
    for n in range(1, 61):
        enclosures = _enclosures(torus_knot_seifert(n))
        roots = [2 * math.cos(math.pi * (2 * j + 1) / (2 * n + 1)) for j in range(n)]
        assert len(enclosures) == n
        assert all(lo - 1e-12 <= x <= hi + 1e-12 for (lo, hi), x in zip(enclosures, roots))
        assert all(lo1 > hi2 for (lo1, _), (_, hi2) in zip(enclosures, enclosures[1:]))
        assert all(hi - lo <= 2.0**-40 for lo, hi in enclosures)
    # the trefoil's root x = 1 is exact: a point
    assert _enclosures(TREFOIL) == ((1.0, 1.0),)
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
    # float stage finds 13 sign changes against 15 roots, and Descartes
    # bisection gives the enclosures that Sturm bisection gives.
    a = _connected_sum(torus_knot_seifert(8), jn_seifert(8))
    q = _knot_q(a)
    oracle_q, chain = sturm.squarefree(q)
    assert oracle_q == q
    cosine = _cosine_floats(q)
    assert len(alexander._float_roots(cosine)) == 13
    assert sturm.count(chain, -2 * sturm.UNIT, 2 * sturm.UNIT) == _descartes_count(q) == 15
    assert _certified_brackets(q, cosine, 15, alexander._float_roots(cosine)) is None
    same_q, cells, several = alexander._descartes_bisection(q)
    assert same_q is q and len(cells) == 15 and several == 0
    enclosures = _enclosures(a)
    assert len(enclosures) == 15
    assert enclosures == sturm.enclosures(a)
    _assert_arcs_match(a, (1009,))


def test_certified_roots_cost_two_exact_signs_each(monkeypatch):
    # Degree and parity certify the float brackets of the families, so
    # they never reach Descartes bisection, and the float signs decide
    # every bracket end: the one exact sign is the test of the dyadic
    # candidate x = 1, an exact root, whatever the degree.
    calls = {"bisection": 0, "sign": 0}
    sign, bisection = alexander._dyadic_sign, alexander._descartes_bisection

    def counting_sign(p, num):
        calls["sign"] += 1
        return sign(p, num)

    def counting_bisection(*args):
        calls["bisection"] += 1
        return bisection(*args)

    monkeypatch.setattr(alexander, "_dyadic_sign", counting_sign)
    monkeypatch.setattr(alexander, "_descartes_bisection", counting_bisection)
    # torus2:1 and torus2:25 have the exact root x = 1, a point enclosure
    knots = [torus_knot_seifert(1), torus_knot_seifert(25)]
    knots += [build(n) for n in (2, 3, 6, 15, 30, 60, 150) for build in (jn_seifert, torus_knot_seifert)]
    for a in knots:
        alexander._root_arcs.cache_clear()
        calls.update(bisection=0, sign=0)
        enclosures = _enclosures(a)
        assert enclosures
        assert calls["bisection"] == 0
        assert calls["sign"] == ((1.0, 1.0) in enclosures)
    assert (1.0, 1.0) in _enclosures(torus_knot_seifert(25))


def test_certificate_rejects_a_float_root_found_twice():
    # Two float estimates of one root of q = x^2 - x - 1 give as many
    # brackets as the root count, each with a sign change, but they overlap
    # and miss the other root.
    q = _knot_q(torus_knot_seifert(2))
    assert q == [-1, -1, 1]
    chain = sturm.sturm_chain(q)
    assert sturm.count(chain, -2 * sturm.UNIT, 2 * sturm.UNIT) == _descartes_count(q) == 2
    cosine = _cosine_floats(q)
    good = [(1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2]
    assert _certified_brackets(q, cosine, 2, good) is not None
    twice = [good[0], good[0] - 2.0**-46]
    assert _certified_brackets(q, cosine, 2, twice) is None
    assert _certified_brackets(q, cosine, 3, good) is None
    # Two float estimates of the dyadic root x = 1 of the trefoil's
    # q = x - 1 both round to the point enclosure (1, 1): a second point
    # on the first must be rejected like an overlapping bracket.
    q = _knot_q(torus_knot_seifert(1))
    assert q == [-1, 1]
    unit = 1 << alexander._ROOT_BITS
    cosine = _cosine_floats(q)
    assert _certified_brackets(q, cosine, 1, [1.0]) == [(unit, unit, 0)]
    assert _certified_brackets(q, cosine, 2, [1.0, 1.0 - 2.0**-50]) is None


def _exact_sign(q, x: float) -> int:
    value = Fraction(0)
    for c in reversed(q):
        value = value * Fraction(x) + c
    return (value > 0) - (value < 0)


@given(st.integers(0, 10**9))
def test_float_signs_match_the_exact_signs(seed):
    # Where the float sign of q decides, it is the exact sign: at the ends
    # of the brackets that _certified_brackets tests and at the dyadic grid
    # points next to each float root, against _dyadic_sign, and at the
    # floats within 2^-50 of it, against rational arithmetic.
    rng = random.Random(seed)
    if rng.random() < 0.3:
        a = rng.choice((torus_knot_seifert, jn_seifert))(rng.randint(1, 60))
    else:
        a = random_knot_seifert(rng, size_max=24, spread=rng.choice((1, 3, 10, 100, 1000)))
    q = _knot_q(a)
    if len(q) == 1:
        return
    cosine = _cosine_floats(q)
    unit, half = 1 << alexander._ROOT_BITS, alexander._HALF_WIDTH
    roots = alexander._float_roots(cosine)
    for x in rng.sample(roots, min(len(roots), 8)):
        c = round(x * unit)
        for num in (c - half, c + half, c - 1, c, c + 1):
            if -2 * unit <= num <= 2 * unit:
                s = alexander._float_sign(cosine, num / unit)
                assert s in (0, alexander._dyadic_sign(q, num)), (q, num)
        for j in range(-4, 5):
            y = x + j * 2.0**-52
            if -2.0 <= y <= 2.0:
                s = alexander._float_sign(cosine, y)
                assert s in (0, _exact_sign(q, y)), (q, y)


def test_float_sign_declines_at_an_exact_root():
    # x = 1 is a root of Q for torus2:1 and torus2:25 (3 divides 2n + 1)
    for n in (1, 25):
        q = _knot_q(torus_knot_seifert(n))
        assert _exact_sign(q, 1.0) == 0
        assert alexander._float_sign(_cosine_floats(q), 1.0) == 0
        assert alexander._float_sign(_cosine_floats(q), 1.0 + 2.0**-40) != 0


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


def _assert_det_int_values(a, delta):
    """delta is det_int(A^T - tA) at the size + 3 integer points
    t = -2 .. size, which determine a polynomial of degree <= size."""
    e, m = a.entries, a.size
    for t in range(-2, m + 1):
        rows = tuple(tuple(e[j][i] - t * e[i][j] for j in range(m)) for i in range(m))
        assert sum(c * t**j for j, c in enumerate(delta)) == det_int(rows), (a, t)


def _checked_delta(a, rng):
    """Delta of the tridiagonal matrix a by routes that share nothing with
    the band recurrence: Bareiss elimination over Z[t] on a scrambled copy
    P^T A P, whose Delta is the same, checked against det_int(A^T - tA).
    Every matrix of size <= 2 is tridiagonal, so there the points decide."""
    delta = alexander_polynomial(_scrambled(a, rng) if a.size > 2 else a)
    _assert_det_int_values(a, delta)
    return delta


def _dense_link(rng, m):
    """A random integer matrix of size m as a link matrix; sometimes with a
    zero row, and sometimes a zero row and column, where Delta = 0."""
    rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
    zero = rng.randrange(m)
    if rng.random() < 0.4:
        rows[zero] = [0] * m
        if rng.random() < 0.5:
            for row in rows:
                row[zero] = 0
    return SeifertMatrix(tuple(tuple(r) for r in rows), kind="link")


@given(st.integers(0, 10**9))
def test_delta_of_dense_matrices_matches_det_int(seed):
    # links of odd and even size, with zero rows and Delta = 0, and random
    # knots, whose Delta is palindromic with Delta(1) = +-1
    rng = random.Random(seed)
    links = [_dense_link(rng, rng.randrange(1, 10, 2)), _dense_link(rng, rng.randrange(2, 11, 2))]
    knot = random_knot_seifert(rng, size_max=rng.choice((4, 8, 12)), spread=rng.choice((1, 3, 10)))
    for a in links + [knot]:
        _assert_det_int_values(a, alexander_polynomial(a))
    delta = alexander_polynomial(knot)
    c = list(delta) + [0] * (knot.size + 1 - len(delta))
    assert c == c[::-1] and sum(c) in (1, -1)


@given(st.integers(0, 10**9))
def test_delta_of_tridiagonal_matrices_matches_bareiss_and_det_int(seed):
    # links of odd and even size, with zero and antisymmetric off-diagonal
    # pairs, knots, and their mirrors
    rng = random.Random(seed)
    link = _random_tridiagonal_link(rng, rng.randint(1, 9))
    for a in (link, _random_tridiagonal_knot(rng, rng.randint(0, 4))):
        for b in (a, mirror(a)):
            assert b._tridiagonal
            assert alexander_polynomial(b) == _checked_delta(b, rng)


@given(st.integers(0, 10**9))
def test_q_from_the_band_matches_the_conversion_from_delta(seed):
    rng = random.Random(seed)
    a = _random_tridiagonal_knot(rng, rng.randint(0, 6))
    for k in (a, mirror(a)):
        assert k._tridiagonal
        assert _q_from_the_band(k) == alexander._delta_q(_checked_delta(k, rng), k.size)


def test_q_from_the_band_on_the_families():
    # Delta of torus2:n is 1 - t + t^2 - ... + t^(2n), and that of jn:n is
    # -1 + 3t - 3t^2 + ... + 3t^(2n-1) - t^(2n), pinned for n <= 6 by the
    # independent routes
    assert _knot_q(unknot_seifert()) == _q_from_the_band(unknot_seifert()) == [1]
    rng = random.Random(4)
    for n in range(1, 61):
        closed = {
            torus_knot_seifert: tuple((-1) ** j for j in range(2 * n + 1)),
            jn_seifert: tuple(3 * (-1) ** (j + 1) if 0 < j < 2 * n else -1 for j in range(2 * n + 1)),
        }
        for build, delta in closed.items():
            a = build(n)
            if n <= 6:
                assert _checked_delta(a, rng) == delta
            assert alexander_polynomial(a) == alexander_polynomial(mirror(a)) == delta
            assert _q_from_the_band(a) == alexander._delta_q(delta, a.size)


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
    v = _descartes_count(q)
    assert v >= inside and (v - inside) % 2 == 0
    if not complex_pairs:
        assert v == inside


def test_descartes_bound_on_known_polynomials():
    # x^2 - x - 1 (torus2:2): roots 1.618 and -0.618; (x - 1)^3 (x + 3);
    # x^2 + 1 has no real root but two sign changes after the map
    assert _descartes_count([-1, -1, 1]) == 2
    assert _descartes_count(_poly_from_factors([[-1, 1]] * 3 + [[3, 1]])) == 3
    assert _descartes_count([1, 0, 1]) == 2
    assert _descartes_count([-2, 1]) == 0  # the root x = 2 is not in (-2, 2)


@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(-2**14, 2**14), st.integers(1, 2)), max_size=3),
    st.lists(st.tuples(st.integers(3, 9), st.integers(-30, 30), st.integers(1, 2)), max_size=2),
    st.lists(st.tuples(st.integers(2**30, 2**33), st.integers(-2**11, 2**11), st.integers(-9, 9)), max_size=2),
    st.sampled_from(((), (-2,), (2,), (-2, 2))),
)
def test_descartes_bisection_isolates_every_distinct_root(dyadic, rational, near_pairs, ends):
    # q from factors: dyadic roots a / 2^k, which fall on bisection
    # midpoints; other rational roots a / b; roots at the ends +-2; any of
    # them repeated; and complex pairs (b x - c)^2 + 1, whose imaginary
    # parts +-1/b lie within 2^-30 of the axis.  Every refined cell holds
    # exactly one distinct root, by the Sturm oracle, they count all the
    # roots in [-2, 2], and they are Sturm bisection's enclosures.
    factors = [[-a, 2**k] for k, a, m in dyadic for _ in range(m)]
    factors += [[-a, b] for b, a, m in rational for _ in range(m)]
    for b, s, e in near_pairs:
        c = (b * s >> 10) + e  # real part c / b, about s / 2^10
        factors.append([c * c + 1, -2 * b * c, b * b])
    factors += [[-x, 1] for x in ends]
    q = _poly_from_factors(factors)
    if len(q) == 1:
        return
    oracle_q, chain = sturm.squarefree(q)
    unit = sturm.UNIT
    q, cells, several = alexander._descartes_bisection(q)
    assert several == 0
    found = sorted(alexander._refine_root(q, lo, hi) for lo, hi in cells)
    assert all(0 <= hi - lo <= 1 for lo, hi in found)
    assert all(sturm.roots_in(oracle_q, chain, lo, hi) == 1 for lo, hi in found)
    assert all(hi1 < lo2 for (_, hi1), (lo2, _) in zip(found, found[1:]))
    assert len(found) == sturm.roots_in(oracle_q, chain, -2 * unit, 2 * unit)
    assert found == sorted(sturm.bisection(oracle_q, chain))


def test_repeated_unit_circle_roots_take_the_squarefree_route(monkeypatch):
    # Delta(K # K) = Delta_K^2: the Descartes count doubles every root.  A
    # double root off the dyadic grid keeps a unit cell of Descartes
    # bisection at V = 2, and a double root on it, as x = 1 of the
    # trefoil's, is found at a midpoint where q and q' vanish; either way
    # the bisection runs again on the squarefree part, whose root count
    # certifies its float brackets.  Beside other roots, as in
    # trefoil # trefoil # torus2:2 with Q = (x - 1)^2 (x^2 - x - 1), the
    # golden-ratio roots keep those brackets too instead of refined cells.
    # The enclosures are those the Sturm chain gave.
    built = []
    squarefree = alexander._squarefree
    monkeypatch.setattr(alexander, "_squarefree", lambda p: built.append(p) or squarefree(p))
    golden = (
        ("0x1.9e3779b97eca0p+0", "0x1.9e3779b97fca0p+0"),
        ("-0x1.3c6ef372ff940p-1", "-0x1.3c6ef372fd940p-1"),
    )
    one = (("0x1.0000000000000p+0", "0x1.0000000000000p+0"),)
    t2 = torus_knot_seifert(2)
    cases = (
        (_connected_sum(t2, t2), 4, golden),
        (_connected_sum(jn_seifert(2), jn_seifert(2)), 2,
         (("0x1.8722191a00d80p-2", "0x1.8722191a04d80p-2"),)),
        (_connected_sum(TREFOIL, TREFOIL), 2, one),
        (_connected_sum(_connected_sum(TREFOIL, TREFOIL), t2), 4, golden[:1] + one + golden[1:]),
    )
    for knot, bound, want in cases:
        q = _knot_q(knot)
        assert _descartes_count(q) == bound
        built.clear()
        alexander._root_arcs.cache_clear()
        got = _enclosures(knot)
        assert built == [q]
        assert got == tuple((float.fromhex(lo), float.fromhex(hi)) for lo, hi in want)
        assert len(got) == sturm.count(sturm.squarefree(q)[1], -2 * sturm.UNIT, 2 * sturm.UNIT)


def test_descartes_excess_is_certified_by_the_isolated_count(monkeypatch):
    # Q has one root in (-2, 2) and a complex pair that adds two sign
    # variations after the map: degree and parity reject the one float
    # bracket of a cubic, as the Descartes count 3 would, and the one root
    # that Descartes bisection isolates certifies it, so no cell is
    # refined.
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
    q = _knot_q(a)
    assert q == [-12169, 19011, -9897, 1717]
    assert _descartes_count(q) == 3
    assert sturm.count(sturm.sturm_chain(q), -2 * sturm.UNIT, 2 * sturm.UNIT) == 1
    isolated = []
    bisection = alexander._descartes_bisection

    def no_refinement(*args):
        raise AssertionError("a cell was refined")

    monkeypatch.setattr(alexander, "_descartes_bisection", lambda q: isolated.append(bisection(q)) or isolated[-1])
    monkeypatch.setattr(alexander, "_refine_root", no_refinement)
    alexander._root_arcs.cache_clear()
    enclosures = _enclosures(a)
    assert [(len(cells), several) for _, cells, several in isolated] == [(1, 0)]
    assert len(enclosures) == 1
    monkeypatch.undo()
    assert _assert_enclosures(a) == enclosures


def _arcs_by_route(mp, a, degree=True):
    """(_root_arcs(a) from a cold entry, route): the route is "degree"
    where degree and parity certified the float brackets, "bisection"
    where Descartes bisection ran, and None where Q is constant and no
    isolation ran.  degree=False makes degree and parity decline, and
    bisection the route."""
    routes = []
    certifies, bisection = alexander._degree_certifies, alexander._descartes_bisection

    def degree_route(*args):
        certified = degree and certifies(*args)
        routes.append("degree" if certified else "bisection")
        return certified

    def bisection_route(*args):
        routes.append("bisection")
        return bisection(*args)

    mp.setattr(alexander, "_degree_certifies", degree_route)
    mp.setattr(alexander, "_descartes_bisection", bisection_route)
    alexander._root_arcs.cache_clear()
    arcs = alexander._root_arcs(a)
    alexander._root_arcs.cache_clear()
    return arcs, "bisection" if "bisection" in routes else routes[0] if routes else None


def _certificate_input(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return _random_tridiagonal_knot(rng, rng.randint(1, 8))
    if kind == 1:
        return random_knot_seifert(rng, size_max=16, spread=rng.choice((1, 3, 10, 1000)))
    if kind == 2:
        return rng.choice((jn_seifert, torus_knot_seifert))(rng.randint(1, 60))
    if kind == 3:
        return mirror(jn_seifert(rng.randint(1, 60)))
    k = rng.choice((TREFOIL, torus_knot_seifert(2), jn_seifert(2)))
    k = _random_tridiagonal_knot(rng, rng.randint(1, 3)) if rng.random() < 0.5 else k
    return _connected_sum(k, k)


@given(st.integers(0, 10**9))
def test_degree_and_parity_certify_what_the_bisection_count_would(seed):
    # With degree and parity declined, root isolation takes Descartes
    # bisection, whose count of isolated roots certifies the float
    # brackets: the enclosures (bit for bit) and the arc sigmas are the
    # same.  Wherever degree and parity certify, Q is real-rooted, so its
    # Descartes count and the bisection's count equal the bracket count.
    # Random tridiagonal and dense knots, jn and torus2 with n <= 60,
    # mirrored jn, and K # K.
    rng = random.Random(seed)
    a = _certificate_input(rng)
    with pytest.MonkeyPatch.context() as mp:
        arcs, route = _arcs_by_route(mp, a)
        declined, route_before = _arcs_by_route(mp, a, degree=False)
    assert [(lo.hex(), hi.hex(), sigma) for lo, hi, sigma in arcs] == [
        (lo.hex(), hi.hex(), sigma) for lo, hi, sigma in declined
    ]
    if route == "degree":
        assert route_before == "bisection"
        q = _knot_q(a)
        _, cells, several = alexander._descartes_bisection(q)
        assert _descartes_count(q) == len(cells) == len(arcs) and several == 0
    else:
        assert route_before == route


def test_degree_and_parity_routes_on_the_families(monkeypatch):
    # torus2:n has all n roots of Q on the unit circle (k = n); jn:n and its
    # mirror have n - 1 of n, the parity case, with no Descartes count.
    # K # K doubles every root, which degree and parity do not certify, so
    # it reaches Descartes bisection.
    built = []
    convert = alexander._from_cosine
    monkeypatch.setattr(alexander, "_from_cosine", lambda b: built.append(len(b)) or convert(b))
    for n in range(1, 61):
        for a in (torus_knot_seifert(n), jn_seifert(n), mirror(jn_seifert(n))):
            built.clear()
            arcs, route = _arcs_by_route(monkeypatch, a)
            assert route == "degree"
            assert len(arcs) == (n if a == torus_knot_seifert(n) else n - 1)
            # Q in Z[x] only for its exact sign at x = 1, a root where 3 divides 2n + 1
            assert len(built) <= ((1.0, 1.0) in [(lo, hi) for lo, hi, _ in arcs])
    for k in (TREFOIL, torus_knot_seifert(2), torus_knot_seifert(5), jn_seifert(2), jn_seifert(4)):
        arcs, route = _arcs_by_route(monkeypatch, _connected_sum(k, k))
        assert route == "bisection"
        assert len(arcs) == len(_enclosures(k))


def test_degree_and_parity_decide_by_the_root_count_alone():
    # k brackets of a Q of degree n with Q(2) Q(-2) of either sign: k = n
    # always certifies, k = n - 1 only with the parity of [Q(-2) Q(2) < 0]
    # (and Q(2) != 0), fewer never.  x^2 - 1 has its two roots inside and
    # Q(2) Q(-2) = 9 > 0, so one bracket must not certify.
    certifies = alexander._degree_certifies
    assert certifies(3, 3, 1, -5) and certifies(3, 3, -1, 5)
    assert certifies(3, 2, 1, 5) and certifies(3, 2, -1, -5)
    assert not certifies(3, 2, 1, -5) and not certifies(3, 2, 0, 5)
    assert certifies(4, 3, 1, -5) and not certifies(4, 3, 1, 5)
    assert not certifies(3, 1, 1, -5) and not certifies(2, 0, 3, 3)
    assert not certifies(2, 1, 3, 3)
    assert certifies(1, 0, 1, 3) and not certifies(1, 0, 1, -3)


@given(st.integers(0, 10**9))
def test_knot_q_is_odd_at_both_ends(seed):
    # Delta(1) = det(A^T - A) = +-1 and Delta(-1) = det(A^T + A) is odd,
    # as A + A^T = A - A^T mod 2, so Q(2) = Delta(1) and
    # Q(-2) = (-1)^g Delta(-1) never vanish: root isolation's float stage
    # and degree-and-parity certificate always apply to a knot.  Random
    # tridiagonal and dense knots, jn and torus2 and their mirrors, and
    # K # K.
    rng = random.Random(seed)
    kind = rng.randrange(4)
    if kind == 0:
        a = _random_tridiagonal_knot(rng, rng.randint(1, 8))
    elif kind == 1:
        a = random_knot_seifert(rng, size_max=16, spread=rng.choice((1, 3, 10, 1000)))
    else:
        a = rng.choice((jn_seifert, torus_knot_seifert))(rng.randint(1, 40))
    if rng.random() < 0.5:
        a = mirror(a)
    if kind == 3:
        a = _connected_sum(a, a)
    delta = alexander_polynomial(a)
    at_1 = sum(delta)
    at_minus_1 = sum(-c if i & 1 else c for i, c in enumerate(delta))
    assert at_1 in (1, -1) and at_minus_1 % 2 == 1
    q = _knot_q(a)
    assert sum(c << i for i, c in enumerate(q)) == at_1
    assert sum(c * (-2) ** i for i, c in enumerate(q)) == (-1) ** (a.size // 2) * at_minus_1


def _arc_grids():
    """(knot, d, on_grid): torus2:n at multiples of 2n + 1, whose even
    multiples put a grid point on each root, and the prime-avg knots at
    primes, where no grid point meets an enclosure."""
    cases = [
        (torus_knot_seifert(n), m * (2 * n + 1), m % 2 == 0) for n in (1, 2, 3, 5) for m in (16, 17, 30, 41)
    ]
    for n, d in ((1, 701), (3, 337), (6, 241), (6, 1009)):
        cases += [(build(n), d, False) for build in (torus_knot_seifert, jn_seifert)]
    return cases


def _spy_on_walks(monkeypatch) -> list:
    """Record the (d, end) of every walk of the grid placement."""
    walks = []
    walk = signature._grid_walk
    monkeypatch.setattr(signature, "_grid_walk", lambda *args, **kw: walks.append(args[:2]) or walk(*args, **kw))
    return walks


class _OffGuess:
    """math, for signature, with ceil off by `off`: only the acos guess of
    _place_enclosure rounds up with it."""

    def __init__(self, off):
        self.off = off

    def __getattr__(self, name):
        return getattr(math, name)

    def ceil(self, x):
        return math.ceil(x) + self.off


def test_arc_sums_match_with_the_guess_off_and_on_the_declined_route(monkeypatch):
    # With the acos guess of every root off by up to 3 grid points, each
    # placement takes the walk, and the arc sum is still the whole grid's,
    # with the certified arc sigmas and, declined, with one point per run;
    # so it is where grid points meet the enclosures of torus roots, which
    # walk with the guess on.
    cases = [(a, d, _whole_grid(a, d)) for a, d, _ in _arc_grids()]
    roots = sum(len(_enclosures(a)) for a, _, _ in cases)
    on_grid = sum(len(_enclosures(a)) for a, _, on_grid in _arc_grids() if on_grid)
    walks = _spy_on_walks(monkeypatch)
    for declined in (False, True):
        if declined:
            monkeypatch.setattr(signature, "_root_arcs", _declined)
        for off in (-3, -1, 0, 1, 3):
            monkeypatch.setattr(signature, "math", _OffGuess(off))
            walks.clear()
            for a, d, whole in cases:
                assert signature._sum_by_arcs(a, d)
                assert signature._exact_sum(a, d, signature._arc_points(a, d)) == whole, (a.entries, d, off)
            assert len(walks) >= roots if off else len(walks) == on_grid


def test_the_usual_root_costs_two_probes_and_no_walk(monkeypatch):
    # A root whose enclosure no grid point meets is placed by the acos
    # guess and two probes; the walk runs only for the roots of torus2:n
    # at the grid points of multiples of 4n + 2, which meet their
    # enclosures.
    probes, walks = [], _spy_on_walks(monkeypatch)
    grid_x = signature._grid_x
    monkeypatch.setattr(signature, "_grid_x", lambda k, d: probes.append(k) or grid_x(k, d))
    for a, d, on_grid in _arc_grids():
        roots = len(_enclosures(a))
        probes.clear()
        walks.clear()
        signature._arc_points(a, d)
        if on_grid:
            assert len(walks) == roots and len(probes) > 2 * roots
        else:
            assert not walks and len(probes) == 2 * roots, (a.entries, d)


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
    assert got == Fraction(_whole_grid(a, 100003), 100003)


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
    probes, raised = [], []
    for _ in range(400):
        d = rng.choice((rng.randint(2, 10**7), 12 * rng.randint(1, 8 * 10**5)))
        near = (2.0 - 2.0**-rng.randint(1, 50), -2.0 + 2.0**-rng.randint(1, 50))
        on_grid = grid_x(rng.randint(0, d // 2), d)
        for x in (*dyadic, *near, on_grid, rng.uniform(-2.0, 2.0)):
            for lo, hi in ((x, x), (x - 2.0**-48, x)):
                calls.clear()
                first, below = signature._place_enclosure(d, lo, hi, 0)
                probes.append(len(calls))
                assert _placement_holds(d, first, lambda j: grid_x(j, d) - margin <= hi), (d, x)
                assert below >= first
                assert _placement_holds(d, below, lambda j: grid_x(j, d) + margin < lo), (d, x)
                # raised to a previous root's `below`, as _arc_points may:
                # `below` goes on from the raised first - 1
                calls.clear()
                assert signature._place_enclosure(d, lo, hi, below) == (max(first, below), below)
                raised.append(len(calls))
    # O(1) per root: the walk from the acos guess settles before bisection,
    # and the probe that places `first` places `below` wherever no grid
    # point meets the enclosure: 2.13 probes per root here, against 3.09
    # for a second walk from a second guess
    assert max(probes) <= 3 and max(raised) <= 4
    assert sum(probes) <= 2.2 * len(probes)


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
        budget = 4 + (d // 2 + 1).bit_length()
        # either end's walk, from any guess: a guess far off costs four
        # walking probes, then bisection
        for below in (False, True):
            calls.clear()
            k, _ = signature._grid_walk(d, x, below, 0, rng.randint(0, d // 2 + 1))
            assert _placement_holds(d, k, beyond)
            assert len(calls) <= budget
        # the probe that placed first also places below
        calls.clear()
        first, below = signature._place_enclosure(d, x, x, 0)
        assert _placement_holds(d, first, beyond)
        assert below == first
        assert len(calls) <= budget


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
