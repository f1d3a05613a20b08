"""The package surface: what importing knotrho loads, its public names, and
the semantics of its frozen records."""

import copy
import json
import os
import pickle
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

import knotrho
from knotrho.bounds import BoundReport, CuspData, GromovNormBound, PublishedConstants
from knotrho.cyclotomic import UnitRoot
from knotrho.rho import CableData, RhoResult
from knotrho.seifert import (
    KnotFamilyId,
    SeifertMatrix,
    SurgeryPresentation,
    TwistReduction,
    knot_surgery_presentation,
    torus_knot_seifert,
)
from knotrho.signature import AvgSignatureResult, InertiaTriple, SignatureResult
from knotrho.verify import CheckResult

SRC = os.path.dirname(os.path.dirname(os.path.abspath(knotrho.__file__)))


def _run(code: str, **env) -> str:
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC, **env),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def _added_modules(statement: str) -> set:
    """Modules a fresh interpreter loads for `statement` that it had not
    loaded before."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    return set(json.loads(_run(code)))


# -- import cost ---------------------------------------------------------------


def test_core_import_loads_neither_dataclasses_nor_unused_modules():
    added = _added_modules("import knotrho, knotrho.seifert, knotrho.signature, knotrho.cyclotomic")
    assert "knotrho.signature" in added
    unwanted = {
        "dataclasses", "inspect", "knotrho.bounds", "knotrho.rho", "knotrho.verify", "knotrho.cli",
        "numpy", "mpmath",
    }
    assert not added & unwanted


def test_cli_import_leaves_verify_for_its_command():
    added = _added_modules("import knotrho.cli")
    assert {"knotrho.bounds", "knotrho.rho"} <= added
    assert not added & {"knotrho.verify", "dataclasses", "numpy", "mpmath"}
    assert not added & {"click", "inspect", "uuid", "platform", "datetime", "knotrho.clihelp"}


def test_lazy_names_import_their_module_on_first_access():
    code = (
        "import sys, knotrho\n"
        "print('knotrho.bounds' in sys.modules)\n"
        "f = knotrho.bound_report\n"
        "print('knotrho.bounds' in sys.modules, 'knotrho.rho' in sys.modules)\n"
        "print(knotrho.rho.RhoResult is knotrho.RhoResult)\n"
    )
    assert _run(code).split() == ["False", "True", "False", "True"]


# The public names of the package, by home module.
PUBLIC = {
    "knotrho.bounds": (
        "BoundReport", "CuspData", "GromovNormBound", "PUBLISHED", "PublishedConstants",
        "bound_report", "complexity_from_rho", "gap_lower_bound", "gromov_norm_bound",
        "lower_bound_crossing", "lower_bound_signature", "lower_bound_slice_genus",
        "slope_length", "two_pi_check", "universal_rho_bound", "upper_bound",
    ),
    "knotrho.cyclotomic": (
        "CyclotomicElement", "UnitRoot", "certified_sign", "cyc_field", "cyclotomic_polynomial",
    ),
    "knotrho.exceptions": (
        "CertificationError", "ConductorLimitError", "InconsistentModulusError",
        "InternalInconsistencyError", "InvalidParameterError", "InvalidSeifertMatrixError",
        "InvalidSlopeError", "KnotRhoError", "KnotSpecError", "MissingCableDataError",
        "SeifertJSONError",
    ),
    "knotrho.rho": (
        "CableData", "RhoResult", "casson_gordon_sigma", "rho_finite_cyclic", "rho_knot_surgery",
        "rho_knot_surgery_result", "sign_linking_matrix",
    ),
    "knotrho.seifert": (
        "KnotFamilyId", "SeifertMatrix", "SurgeryPresentation", "TwistReduction", "jn_seifert",
        "knot_surgery_presentation", "mirror", "seifert_from_json", "torus_knot_seifert",
        "trefoil_seifert", "twist_reduction", "unknot_seifert",
    ),
    "knotrho.signature": (
        "AvgSignatureResult", "HermitianForm", "InertiaTriple", "SignatureResult", "alexander_at",
        "alexander_polynomial", "avg_signature", "avg_signature_details", "hermitian_form",
        "inertia", "jn_avg_lower_bound", "levine_tristram", "litherland_torus_signature",
        "signature_details", "torus_avg_lower_bound",
    ),
}
PUBLIC_NAMES = {name for names in PUBLIC.values() for name in names}


@pytest.mark.parametrize("home", sorted(PUBLIC))
def test_public_names_are_their_home_modules_objects(home):
    module = sys.modules[home]
    for name in PUBLIC[home]:
        assert getattr(knotrho, name) is getattr(module, name), name


def test_star_import_yields_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 66
    assert set(knotrho.__all__) == PUBLIC_NAMES
    namespace: dict = {}
    exec("from knotrho import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(knotrho))
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        knotrho.nonesuch


# -- frozen records --------------------------------------------------------------

_TREFOIL = torus_knot_seifert(1)
_PRES = knot_surgery_presentation(5, 5)

# (record, an equal record built apart, a record of the same class that
# differs in one field, its repr, its __match_args__).  The reprs and
# field tuples are those of the package before records had their own base.
RECORDS = [
    (
        SeifertMatrix(((1, 1), (0, 1))),
        SeifertMatrix([[1, 1], [0, 1]], kind="knot"),
        SeifertMatrix(((1, 1), (0, 1)), kind="link"),
        "SeifertMatrix(size=2, kind='knot')",
        ("entries", "kind"),
    ),
    (
        SurgeryPresentation(((5,),), (6,), 5),
        _PRES,
        SurgeryPresentation(((5,),), (2,), 5),
        "SurgeryPresentation(linking=((5,),), residues=(1,), modulus=5)",
        ("linking", "residues", "modulus"),
    ),
    (
        TwistReduction(9, Fraction(1, 2)),
        TwistReduction(slope_a=9, slope_b=Fraction(2, 4), degenerate=False),
        TwistReduction(9, None, degenerate=True),
        "TwistReduction(slope_a=9, slope_b=Fraction(1, 2), degenerate=False)",
        ("slope_a", "slope_b", "degenerate"),
    ),
    (
        KnotFamilyId("jn", 3),
        KnotFamilyId(family="jn", parameter=3),
        KnotFamilyId("torus2", 3),
        "KnotFamilyId(family='jn', parameter=3)",
        ("family", "parameter"),
    ),
    (
        UnitRoot(7, 4),
        UnitRoot(3, 4),
        UnitRoot(6, 8),
        "UnitRoot(k=3, d=4)",
        ("k", "d"),
    ),
    (
        InertiaTriple(1, 0, 1),
        InertiaTriple(1, 0, 1, certified=True),
        InertiaTriple(1, 0, 1, certified=False),
        "InertiaTriple(positive=1, zero=0, negative=1, certified=True)",
        ("positive", "zero", "negative", "certified"),
    ),
    (
        SignatureResult(-2, InertiaTriple(0, 0, 2, False), False, False),
        SignatureResult(-2, InertiaTriple(0, 0, 2, certified=False), False, False),
        SignatureResult(-2, InertiaTriple(0, 0, 2), False, False),
        "SignatureResult(value=-2, inertia=InertiaTriple(positive=0, zero=0, negative=2,"
        " certified=False), singular=False, certified=False)",
        ("value", "inertia", "singular", "certified"),
    ),
    (
        AvgSignatureResult(Fraction(-4, 5), True),
        AvgSignatureResult(value=Fraction(-8, 10), certified=True),
        AvgSignatureResult(Fraction(4, 5), True),
        "AvgSignatureResult(value=Fraction(-4, 5), certified=True)",
        ("value", "certified"),
    ),
    (
        CuspData(-0.4204 + 1.1124j, 3.3636),
        CuspData(meridian=complex(-0.4204, 1.1124), longitude=3.3636),
        CuspData(-0.4204 + 1.1124j, 3.0),
        "CuspData(meridian=(-0.4204+1.1124j), longitude=3.3636)",
        ("meridian", "longitude"),
    ),
    (
        PublishedConstants(),
        PublishedConstants(link_volume=5.3335),
        PublishedConstants(link_volume=5.0),
        "PublishedConstants(universal_rho_per_tet=209139840, lower_bound_denom=627419520,"
        " upper_slope_coeff=96, upper_crossing_coeff=128, link_volume=5.3335,"
        " ideal_tet_volume=1.01494, norm_bound_published=5.2552,"
        " cusp=CuspData(meridian=(-0.4204+1.1124j), longitude=3.3636))",
        (
            "universal_rho_per_tet", "lower_bound_denom", "upper_slope_coeff",
            "upper_crossing_coeff", "link_volume", "ideal_tet_volume", "norm_bound_published",
            "cusp",
        ),
    ),
    (
        BoundReport(5, Fraction(1, 3), None, Fraction(-1, 7), None, Fraction(1, 3), Fraction(-4, 5), None, 1),
        BoundReport(
            slope=5, lower_signature=Fraction(1, 3), lower_crossing=None,
            lower_slice_genus=Fraction(-1, 7), upper=None, best_lower=Fraction(1, 3),
            avg_signature=Fraction(-4, 5), crossing=None, g4=1,
        ),
        BoundReport(5, Fraction(1, 3), None, Fraction(-1, 7), None, Fraction(1, 3), Fraction(-4, 5), None, 2),
        "BoundReport(slope=5, lower_signature=Fraction(1, 3), lower_crossing=None,"
        " lower_slice_genus=Fraction(-1, 7), upper=None, best_lower=Fraction(1, 3),"
        " avg_signature=Fraction(-4, 5), crossing=None, g4=1)",
        (
            "slope", "lower_signature", "lower_crossing", "lower_slice_genus", "upper",
            "best_lower", "avg_signature", "crossing", "g4",
        ),
    ),
    (
        GromovNormBound(5.25, 5.2552),
        GromovNormBound(computed=5.25, published=5.2552),
        GromovNormBound(5.25, 5.25),
        "GromovNormBound(computed=5.25, published=5.2552)",
        ("computed", "published"),
    ),
    (
        CableData(_TREFOIL),
        CableData.trivial_cable(torus_knot_seifert(1)),
        CableData(_TREFOIL, trivial=False),
        "CableData(matrix=SeifertMatrix(size=2, kind='knot'), components=1, trivial=True)",
        ("matrix", "components", "trivial"),
    ),
    (
        RhoResult(Fraction(-4, 5), (Fraction(0), Fraction(-2)), _PRES),
        RhoResult(Fraction(-4, 5), (0, -2), knot_surgery_presentation(5, 5)),
        RhoResult(Fraction(-4, 5), (Fraction(0), Fraction(-2)), knot_surgery_presentation(-5, 5)),
        "RhoResult(value=Fraction(-4, 5), per_level=(Fraction(0, 1), Fraction(-2, 1)),"
        " presentation=SurgeryPresentation(linking=((5,),), residues=(1,), modulus=5))",
        ("value", "per_level", "presentation"),
    ),
    (
        CheckResult("gap", "n=3", True),
        CheckResult(suite="gap", name="n=3", passed=True, detail=""),
        CheckResult("gap", "n=3", True, "slack"),
        "CheckResult(suite='gap', name='n=3', passed=True, detail='')",
        ("suite", "name", "passed", "detail"),
    ),
]
# Attributes a record stores that take no part in equality, hashing or repr.
DERIVED = {UnitRoot: ("num", "den"), SeifertMatrix: ("_hash", "_tridiagonal")}


def test_every_record_class_is_in_the_table():
    assert len({type(rec) for rec, *_ in RECORDS}) == len(RECORDS) == 15


@pytest.mark.parametrize("rec, twin, other, text, fields", RECORDS, ids=lambda v: type(v).__name__)
def test_record_semantics(rec, twin, other, text, fields):
    cls = type(rec)
    assert repr(rec) == text
    assert cls.__match_args__ == fields
    values = tuple(getattr(rec, name) for name in fields)

    assert rec == twin and hash(rec) == hash(twin) == hash(values)
    assert rec != other
    assert rec != values and rec.__eq__(values) is NotImplemented
    stranger = next(r for r, *_ in RECORDS if type(r) is not cls)
    assert rec != stranger and rec.__eq__(stranger) is NotImplemented

    # Derived attributes are excluded: tampering with them changes nothing.
    tampered = copy.copy(rec)
    for name in DERIVED.get(cls, ()):
        vars(tampered)[name] = 99
    assert tampered == rec and repr(tampered) == text
    if cls is not SeifertMatrix:  # which caches its hash
        assert hash(tampered) == hash(rec)

    for name in (*fields, *DERIVED.get(cls, ()), "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert tuple(getattr(rec, name) for name in fields) == values

    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(clone) is cls and clone == rec and hash(clone) == hash(rec)
        assert repr(clone) == text


def test_seifert_matrices_stay_weakly_referenceable():
    a = torus_knot_seifert(2)
    assert weakref.ref(a)() is a


def test_unpickled_seifert_matrix_hashes_as_in_this_process():
    # The cached hash covers the kind string, whose hash is seeded per process.
    code = (
        "import pickle, sys\n"
        "from knotrho.seifert import torus_knot_seifert\n"
        "sys.stdout.write(pickle.dumps(torus_knot_seifert(2), 0).decode('latin-1'))\n"
    )
    a = pickle.loads(_run(code, PYTHONHASHSEED="123").encode("latin-1"))
    b = torus_knot_seifert(2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
