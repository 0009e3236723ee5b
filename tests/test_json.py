"""The JSON wire format of every record: key sets pinned, strict JSON only.

A record's keys come from its field names, so renaming a field renames a
key; the schema table below makes that a test failure rather than a silent
change of the output.
"""
import json
from fractions import Fraction

import pytest

from hypercurv import caseverify, cylinders, simons, spectrum, verify
from hypercurv.caseverify import Relation
from hypercurv.scalars import JsonRecord

SCHEMA = {
    spectrum.CurvatureSpectrum: {"n", "lambdas", "c", "regime"},
    spectrum.InvariantReport: {"n", "c", "regime", "H", "S", "Hr", "R", "normA2", "mu",
                               "normPhi2", "trPhi3", "trA3"},
    spectrum.OkumuraBound: {"n", "regime", "sum3", "betaSquared", "boundSquared", "lower",
                            "upper", "holds", "equality", "equalityTolerance"},
    simons.SimonsPointData: {"spectrum", "gradA2", "hessH", "Kij", "gauss"},
    cylinders.CylinderModel: {"n", "k", "radius", "shape"},
    cylinders.RigidityNote: {"n", "k", "status", "text", "hypotheses"},
    cylinders.ClassificationVerdict: {"n", "H", "ratio", "onLadder", "k", "model",
                                      "nearestK", "gap", "annotation", "tolerance"},
    caseverify.SignConstraint: {"index", "relation"},
    caseverify.SymmetricSignConstraint: {"r", "relation"},
    caseverify.ConstraintSystem: {"name", "n", "regime", "traceTarget", "sigma2Target",
                                  "fixedZeros", "ordering", "signConstraints",
                                  "extraSymmetric"},
    caseverify.FeasibilityVerdict: {"status", "witness", "residual", "bestPoint",
                                    "violations", "stats"},
    caseverify.ExpectedOutcome: {"status", "witness"},
    caseverify.CertificateReport: {"case", "kind", "samples", "feasibleSamples",
                                   "maxIdentityResidual", "margin", "passed", "detail"},
    caseverify.SetSummary: {"count", "infimum", "supremum"},
    caseverify.PctReport: {"verdict", "condition", "plus", "minus", "zeroCount",
                           "zeroTolerance", "approachTolerance", "maxGap", "detail"},
    verify.CheckResult: {"name", "passed", "detail"},
}

_SMALL = caseverify.ScanBudget(grid_points=2000, polish_starts=4, polish_rounds=2)


def _instances():
    """One or more instances of every record type, EXACT and FLOAT alike."""
    exact = spectrum.CurvatureSpectrum([Fraction(1, 2), Fraction(-1, 3), 2, 0], c=Fraction(1, 5))
    floats = spectrum.CurvatureSpectrum([0.5, -0.25, 2.0], c=0.2)
    system = caseverify.ConstraintSystem(
        n=4, trace_target=2, sigma2_target=1, fixed_zeros={3, 1},
        sign_constraints=(caseverify.SignConstraint(2, Relation.LE_ZERO),),
        extra_symmetric=(caseverify.SymmetricSignConstraint(3, Relation.GE_ZERO),),
        name="custom")
    case = caseverify.builtin_case("thm1-claim")
    pct = caseverify.pct_sets([0.5, -0.5, 1e-9])
    out = [exact, floats, system, case,
           caseverify.builtin_case("thm1-claim", H=1.0),
           caseverify.scan(system, budget=_SMALL, seed=0),
           caseverify.scan(caseverify.builtin_case("thm1-lambda2"), budget=_SMALL, seed=0),
           caseverify.certificate_check(case, seed=0, count=20),
           # no sample drawn: the margin stays infinite
           caseverify.certificate_check(caseverify.builtin_case("thm1-claim", H=1, R=5),
                                        seed=0, count=20),
           pct, pct.plus, pct.minus, caseverify.pct_sets([0.0, 0.4]),
           cylinders.CylinderModel(4, 2, 3), cylinders.CylinderModel(4, 2, 0.5),
           cylinders.classify(4, Fraction(3, 2), Fraction(3, 2)),
           cylinders.classify(4, 1.0, 0.7, tol=1e-6),
           cylinders.rigidity_annotation(5, 4),
           verify.CheckResult("ladder n=3", True, "ok")]
    out += [e for e in (caseverify.expected_outcome(s) for s in out[2:5]) if e is not None]
    out += [caseverify.SignConstraint(1, Relation.GT_ZERO),
            caseverify.SymmetricSignConstraint(2, Relation.LE_ZERO)]
    for spec in (exact, floats):
        rep = spectrum.invariants(spec)
        out += [rep, spectrum.okumura_bound(rep.mu),
                simons.SimonsPointData.with_gauss_curvatures(spec, grad_a2=1)]
    return out


INSTANCES = _instances()


def _all_records(cls=JsonRecord):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_records(sub)


def test_every_record_type_is_pinned_and_instantiated():
    assert set(_all_records()) <= set(SCHEMA)
    assert {type(obj) for obj in INSTANCES} == set(SCHEMA)


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__name__)
def test_key_set_is_pinned(obj):
    assert set(obj.to_json_dict()) == SCHEMA[type(obj)]


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__name__)
def test_strict_json(obj):
    payload = obj.to_json_dict()
    assert json.loads(json.dumps(payload, allow_nan=False)) == payload

