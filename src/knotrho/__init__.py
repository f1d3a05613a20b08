"""knotrho: exact knot signatures, finite-cyclic rho invariants, and
triangulation-complexity bounds for Dehn surgery manifolds.

`import knotrho` loads the signature engine (cyclotomic, seifert,
signature and the modules they use) and nothing from outside the
standard library.  The rest loads on first use:

- the names re-exported from `bounds` and `rho` import their module on
  first attribute access (PEP 562), as do `knotrho.bounds` and
  `knotrho.rho` themselves;
- NumPy loads with the first float-mode computation, and mpmath with the
  first interval refinement of a sign;
- `knotrho.verify` loads with the CLI's `verify` command.

`__all__` lists every public name, so `from knotrho import *` loads
`bounds` and `rho`.
"""

import importlib

from .cyclotomic import CyclotomicElement, UnitRoot, certified_sign, cyc_field, cyclotomic_polynomial
from .exceptions import (
    CertificationError,
    ConductorLimitError,
    InconsistentModulusError,
    InternalInconsistencyError,
    InvalidParameterError,
    InvalidSeifertMatrixError,
    InvalidSlopeError,
    KnotRhoError,
    KnotSpecError,
    MissingCableDataError,
    SeifertJSONError,
)
from .seifert import (
    KnotFamilyId,
    SeifertMatrix,
    SurgeryPresentation,
    TwistReduction,
    jn_seifert,
    knot_surgery_presentation,
    mirror,
    seifert_from_json,
    torus_knot_seifert,
    trefoil_seifert,
    twist_reduction,
    unknot_seifert,
)
from .signature import (
    AvgSignatureResult,
    HermitianForm,
    InertiaTriple,
    SignatureResult,
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
)

__version__ = "0.1.0"

# The verification suites by name: the CLI lists them without importing verify.
SUITE_NAMES = ("litherland", "gilmer", "bounds", "gap", "all")

# Public name -> the submodule that defines it, imported on first access to
# either.
_LAZY = dict.fromkeys(
    (
        "BoundReport",
        "CuspData",
        "GromovNormBound",
        "PUBLISHED",
        "PublishedConstants",
        "bound_report",
        "complexity_from_rho",
        "gap_lower_bound",
        "gromov_norm_bound",
        "lower_bound_crossing",
        "lower_bound_signature",
        "lower_bound_slice_genus",
        "slope_length",
        "two_pi_check",
        "universal_rho_bound",
        "upper_bound",
    ),
    "bounds",
) | dict.fromkeys(
    (
        "CableData",
        "RhoResult",
        "casson_gordon_sigma",
        "rho_finite_cyclic",
        "rho_knot_surgery",
        "rho_knot_surgery_result",
        "sign_linking_matrix",
    ),
    "rho",
)

__all__ = [
    "AvgSignatureResult",
    "BoundReport",
    "CableData",
    "CertificationError",
    "ConductorLimitError",
    "CuspData",
    "CyclotomicElement",
    "GromovNormBound",
    "HermitianForm",
    "InconsistentModulusError",
    "InertiaTriple",
    "InternalInconsistencyError",
    "InvalidParameterError",
    "InvalidSeifertMatrixError",
    "InvalidSlopeError",
    "KnotFamilyId",
    "KnotRhoError",
    "KnotSpecError",
    "MissingCableDataError",
    "PUBLISHED",
    "PublishedConstants",
    "RhoResult",
    "SeifertJSONError",
    "SeifertMatrix",
    "SignatureResult",
    "SurgeryPresentation",
    "TwistReduction",
    "UnitRoot",
    "alexander_at",
    "alexander_polynomial",
    "avg_signature",
    "avg_signature_details",
    "bound_report",
    "casson_gordon_sigma",
    "certified_sign",
    "complexity_from_rho",
    "cyc_field",
    "cyclotomic_polynomial",
    "gap_lower_bound",
    "gromov_norm_bound",
    "hermitian_form",
    "inertia",
    "jn_avg_lower_bound",
    "jn_seifert",
    "knot_surgery_presentation",
    "levine_tristram",
    "litherland_torus_signature",
    "lower_bound_crossing",
    "lower_bound_signature",
    "lower_bound_slice_genus",
    "mirror",
    "rho_finite_cyclic",
    "rho_knot_surgery",
    "rho_knot_surgery_result",
    "seifert_from_json",
    "sign_linking_matrix",
    "signature_details",
    "slope_length",
    "torus_avg_lower_bound",
    "torus_knot_seifert",
    "trefoil_seifert",
    "twist_reduction",
    "two_pi_check",
    "universal_rho_bound",
    "unknot_seifert",
    "upper_bound",
]


def __getattr__(name: str):
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY.values()))
