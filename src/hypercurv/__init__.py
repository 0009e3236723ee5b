"""Curvature invariants of hypersurface principal-curvature spectra.

The package computes symmetric-function invariants (mean curvature, scalar
curvature, |A|^2, traceless tensor norms), Newton-transformation traces,
Okumura-type cubic bounds, Simons-identity right-hand sides, cylinder
scalar-curvature ladders with rigidity annotations, numeric feasibility
scans of pinching constraint systems with closed-form certificates, and
principal curvatures of explicit immersed patches (analytic or finite
difference).

Numbers live in one of two regimes: EXACT (``fractions.Fraction``, compared
literally) or FLOAT (compared under tolerances).  Promotion to float is
explicit and one-way; mixing regimes raises ``RegimeError``.
"""

from importlib import import_module

from .errors import (
    DomainError,
    EigenSolverError,
    HypercurvError,
    RegimeError,
    SingularPatchError,
    UnsupportedCaseError,
    VerificationError,
)
from .scalars import (
    DEFAULT_TOLERANCE,
    Regime,
    Scalar,
    Tolerance,
    coerce,
    common_regime,
    parse_scalar,
    promote,
    regime_of,
    scalar_to_json,
)
from .spectrum import (
    CurvatureSpectrum,
    InvariantReport,
    OkumuraBound,
    invariants,
    newton_eigenvalues,
    okumura_bound,
    sigma,
    sigma_all,
    sigma_recursion_residual,
    tr_a3_sides,
)
from .simons import (
    SimonsPointData,
    cmc_bracket,
    cmc_bracket_sign,
    simons_rhs_general,
    simons_rhs_space_form,
)
from .cylinders import (
    ClassificationVerdict,
    CylinderModel,
    RigidityNote,
    classify,
    cylinder_from_H,
    cylinder_invariant_check,
    ladder_ratio,
    rigidity_annotation,
    scalar_ladder,
)
# The scan, immersion and fixture modules need numpy; they load on first
# use of one of their names (PEP 562), so the exact kernel and the light
# CLI commands start without it.
_LAZY = {
    "caseverify": (
        "BUILTIN_CASES",
        "CertificateReport",
        "ConstraintSystem",
        "FeasibilityVerdict",
        "PctReport",
        "Relation",
        "ScanBudget",
        "SignConstraint",
        "SymmetricSignConstraint",
        "builtin_case",
        "certificate_check",
        "certificate_samples",
        "closed_form_contradiction",
        "constraint_violations",
        "expected_outcome",
        "has_certificate",
        "pct_sets",
        "scan",
    ),
    "immersion": (
        "FundamentalForms",
        "PatchSample",
        "PatchSource",
        "SHAPE_NAMES",
        "SubprocessShape",
        "SymbolicShape",
        "default_point",
        "finite_difference_lift",
        "fundamental_forms",
        "make_shape",
        "principal_curvatures",
    ),
    "verify": ("CheckResult", "run_builtin_suite"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_HOME))


__version__ = "0.1.0"

__all__ = [
    "BUILTIN_CASES",
    "CertificateReport",
    "CheckResult",
    "ClassificationVerdict",
    "ConstraintSystem",
    "CurvatureSpectrum",
    "CylinderModel",
    "DEFAULT_TOLERANCE",
    "DomainError",
    "EigenSolverError",
    "FeasibilityVerdict",
    "FundamentalForms",
    "HypercurvError",
    "InvariantReport",
    "OkumuraBound",
    "PatchSample",
    "PatchSource",
    "PctReport",
    "Regime",
    "RegimeError",
    "RigidityNote",
    "SHAPE_NAMES",
    "Scalar",
    "ScanBudget",
    "SignConstraint",
    "SimonsPointData",
    "SingularPatchError",
    "SubprocessShape",
    "SymbolicShape",
    "SymmetricSignConstraint",
    "Tolerance",
    "UnsupportedCaseError",
    "VerificationError",
    "builtin_case",
    "certificate_check",
    "certificate_samples",
    "classify",
    "closed_form_contradiction",
    "cmc_bracket",
    "cmc_bracket_sign",
    "coerce",
    "common_regime",
    "constraint_violations",
    "cylinder_from_H",
    "cylinder_invariant_check",
    "default_point",
    "expected_outcome",
    "finite_difference_lift",
    "fundamental_forms",
    "has_certificate",
    "invariants",
    "ladder_ratio",
    "make_shape",
    "newton_eigenvalues",
    "okumura_bound",
    "parse_scalar",
    "pct_sets",
    "principal_curvatures",
    "promote",
    "regime_of",
    "rigidity_annotation",
    "run_builtin_suite",
    "scalar_ladder",
    "scalar_to_json",
    "scan",
    "sigma",
    "sigma_all",
    "sigma_recursion_residual",
    "simons_rhs_general",
    "simons_rhs_space_form",
    "tr_a3_sides",
]
