"""Seifert matrices, families, presentations, and JSON input."""

import json
import re
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotrho.exceptions import (
    InconsistentModulusError,
    InvalidParameterError,
    InvalidSeifertMatrixError,
    InvalidSlopeError,
    SeifertJSONError,
)
from knotrho.seifert import (
    KnotFamilyId,
    SeifertMatrix,
    SurgeryPresentation,
    _skew_det,
    det_int,
    jn_seifert,
    knot_surgery_presentation,
    mirror,
    per_matrix_cache,
    seifert_from_json,
    torus_knot_seifert,
    twist_reduction,
    unknot_seifert,
)
from knotrho.verify import random_knot_seifert

from clirun import run_cli


def test_jn_small_cases():
    assert jn_seifert(1).entries == ((1, 1), (0, -1))
    a2 = jn_seifert(2)
    assert a2.size == 4
    assert tuple(a2.entries[i][i] for i in range(4)) == (1, 1, 1, -1)
    assert tuple(a2.entries[i][i + 1] for i in range(3)) == (1, 1, 1)
    assert a2.entries[0][2] == 0


def test_torus_small_cases():
    assert torus_knot_seifert(1).entries == ((1, 1), (0, 1))
    a3 = torus_knot_seifert(3)
    assert a3.size == 6
    assert all(a3.entries[i][i] == 1 for i in range(6))


def test_families_validate_up_to_200():
    # construction runs the knot validation: det(A - A^T) = +-1
    for n in range(1, 201):
        jn_seifert(n)
        torus_knot_seifert(n)


def test_family_skew_determinant_is_one():
    for n in (1, 2, 5, 9):
        a = jn_seifert(n)
        m = a.size
        skew = tuple(
            tuple(a.entries[i][j] - a.entries[j][i] for j in range(m)) for i in range(m)
        )
        assert det_int(skew) == 1


@given(st.integers(0, 10**9))
def test_banded_skew_determinant_matches_dense(seed):
    rng = random.Random(seed)
    m = rng.randint(0, 9)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = rng.randint(-3, 3)
        if i + 1 < m:
            rows[i][i + 1] = rng.randint(-3, 3)
            rows[i + 1][i] = rng.randint(-3, 3)
    rows = tuple(tuple(r) for r in rows)
    skew = tuple(tuple(rows[i][j] - rows[j][i] for j in range(m)) for i in range(m))
    assert _skew_det(rows) == det_int(skew)


def test_skew_determinant_of_empty_matrix_is_one():
    assert _skew_det(()) == det_int(()) == 1
    assert SeifertMatrix((), kind="knot").size == 0


@pytest.mark.parametrize("bad", [True, 1.0, 2.5])
def test_non_integer_entries_keep_their_message(bad):
    for rows in (((1, 1), (0, bad)), ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, bad))):
        with pytest.raises(InvalidSeifertMatrixError) as excinfo:
            SeifertMatrix(rows, kind="knot")
        assert str(excinfo.value) == f"entries must be integers, got {bad!r}"


def test_hash_is_the_hash_of_entries_and_kind():
    a, b = jn_seifert(3), jn_seifert(3)
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash((a.entries, "knot"))
    assert hash(a) != hash(SeifertMatrix(a.entries, kind="link"))


def test_unknot_is_empty():
    u = unknot_seifert()
    assert u.size == 0
    assert u.kind == "knot"


def test_mirror_example_and_involution():
    t = torus_knot_seifert(1)
    assert mirror(t).entries == ((-1, 0), (-1, -1))
    for n in (1, 2, 4):
        a = jn_seifert(n)
        assert mirror(mirror(a)) == a


def test_knot_validation_rejects_bad_matrices():
    with pytest.raises(InvalidSeifertMatrixError):
        SeifertMatrix(((1, 0), (0, 1)), kind="knot")  # A - A^T = 0
    with pytest.raises(InvalidSeifertMatrixError):
        SeifertMatrix(((1,),), kind="knot")  # odd size
    with pytest.raises(InvalidSeifertMatrixError):
        SeifertMatrix(((1, 1.5), (0, 1)), kind="knot")  # non-integer
    with pytest.raises(InvalidSeifertMatrixError):
        SeifertMatrix(((1, 1), (0,)), kind="knot")  # ragged
    # links need no unimodularity, odd sizes fine
    SeifertMatrix(((-1,),), kind="link")
    SeifertMatrix(((2, 0), (0, 2)), kind="link")


@given(st.integers(0, 10**6))
def test_random_knot_matrices_validate(seed):
    import random

    rng = random.Random(seed)
    a = random_knot_seifert(rng, size_max=10)
    assert a.kind == "knot"
    assert a.size % 2 == 0


def test_json_round_trip():
    a = jn_seifert(2)
    b = seifert_from_json(a.to_json())
    assert a == b


def test_json_parse_errors_are_distinct_from_validation():
    with pytest.raises(SeifertJSONError):
        seifert_from_json("{not json")
    with pytest.raises(SeifertJSONError):
        seifert_from_json(json.dumps({"kind": "knot", "size": 2}))
    with pytest.raises(SeifertJSONError):
        seifert_from_json(json.dumps({"kind": "knot", "size": 1, "entries": [[1, 2]]}))
    with pytest.raises(SeifertJSONError):
        seifert_from_json(json.dumps({"kind": "weird", "size": 0, "entries": []}))
    # well-formed JSON, invalid Seifert data
    with pytest.raises(InvalidSeifertMatrixError):
        seifert_from_json(json.dumps({"kind": "knot", "size": 2, "entries": [[1, 0], [0, 1]]}))


def test_json_boolean_size_is_a_parse_error(tmp_path):
    # JSON booleans load as Python bools, which are ints: true would read
    # as a 1x1 matrix and false as the empty one.  The CLI reports the
    # parse error with exit code 2.
    for size, entries in ((True, [[1]]), (False, [])):
        text = json.dumps({"kind": "link", "size": size, "entries": entries})
        with pytest.raises(SeifertJSONError, match="size must be a nonnegative integer"):
            seifert_from_json(text)
        path = tmp_path / f"{size}.json"
        path.write_text(text)
        code, _ = run_cli(["sig", f"file:{path}", "--omega", "1/2"])
        assert code == 2


def test_knot_surgery_presentation():
    p = knot_surgery_presentation(5, 5)
    assert p.linking == ((5,),)
    assert p.residues == (1,)
    assert p.modulus == 5
    q = knot_surgery_presentation(-5, 5)
    assert q.linking == ((-5,),)
    with pytest.raises(InvalidSlopeError):
        knot_surgery_presentation(0, 1)
    with pytest.raises(InconsistentModulusError):
        knot_surgery_presentation(4, 5)


def test_presentation_validation():
    with pytest.raises(InvalidParameterError):
        SurgeryPresentation(((1, 2), (3, 1)), (0, 0), 2)  # not symmetric
    with pytest.raises(InconsistentModulusError):
        SurgeryPresentation(((3,),), (1,), 2)  # 3*1 != 0 mod 2
    p = SurgeryPresentation(((2, 1), (1, 2)), (1, 4), 3)
    assert p.residues == (1, 1)
    assert p.residue_quadratic() == 2 + 1 + 1 + 2


@pytest.mark.parametrize(
    "linking, residues, modulus, message",
    [
        (((7,),), (1.0,), 7, "meridian residues must be integers, got (1.0,)"),
        (((7,),), (True,), 7, "meridian residues must be integers, got (True,)"),
        (((7,),), (Fraction(1),), 7, "meridian residues must be integers"),
        (((7,),), (1,), 7.0, "modulus must be an integer, got 7.0"),
        (((1,),), (1,), True, "modulus must be an integer, got True"),
        (((7,),), (1,), "7", "modulus must be an integer, got '7'"),
        (((7.0,),), (1,), 7, "linking entries must be integers, got 7.0"),
    ],
)
def test_presentation_takes_only_int_modulus_and_residues(linking, residues, modulus, message):
    # SurgeryPresentation(((7,),), (1.0,), 7) used to build and then fail
    # in rho_finite_cyclic with a bare TypeError; a modulus of True was Z_1.
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        SurgeryPresentation(linking, residues, modulus)
    assert SurgeryPresentation(((7,),), (1,), 7).residues == (1,)


def test_twist_reduction_examples():
    r = twist_reduction(2, 3)
    assert (r.slope_a, r.slope_b, r.degenerate) == (14, Fraction(1, 3), False)
    assert twist_reduction(0, 1).slope_a == 4
    assert twist_reduction(0, 1).slope_b == 1
    assert twist_reduction(5, 2).slope_b == Fraction(1, 2)
    degenerate = twist_reduction(7, 0)
    assert degenerate.degenerate and degenerate.slope_b is None


def test_family_ids():
    assert KnotFamilyId("torus2", 3).seifert() == torus_knot_seifert(3)
    assert KnotFamilyId("jn", 2).seifert() == jn_seifert(2)
    assert KnotFamilyId("unknot").seifert().size == 0
    assert str(KnotFamilyId("jn", 2)) == "jn:2"
    with pytest.raises(InvalidParameterError):
        KnotFamilyId("torus2", 0)
    with pytest.raises(InvalidParameterError):
        KnotFamilyId("torus3", 1)


def test_det_int_matches_bareiss_on_dense():
    rows = ((2, 3, 1), (0, 1, 4), (5, 2, 2))
    # expansion by hand: 2*(2-8) - 3*(0-20) + 1*(0-5) = -12 + 60 - 5 = 43
    assert det_int(rows) == 43
    assert det_int(()) == 1


def test_per_matrix_cache_compares_each_new_equal_matrix_once(monkeypatch):
    compared = []
    original = SeifertMatrix.__eq__

    def counting(self, other):
        compared.append(other)
        return original(self, other)

    monkeypatch.setattr(SeifertMatrix, "__eq__", counting)

    @per_matrix_cache
    def size(a):
        return a.size

    first = jn_seifert(6)
    for _ in range(100):
        assert size(first) == 12
    assert compared == []
    for _ in range(3):
        equal = jn_seifert(6)
        compared.clear()
        for _ in range(100):
            assert size(equal) == 12
        assert len(compared) <= 1
    assert tuple(size.cache_info()) == (399, 1, None, 1)
