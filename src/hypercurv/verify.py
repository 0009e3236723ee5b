"""Built-in verification suite: every recorded fixture, one pass/fail each.

The suite re-derives the package's frozen reference values from scratch at
run time: ladder tables, cylinder radii, bracket zeros, invariant fixtures,
the named-case scans with their certificates, and the analytic immersion
pipeline.  ``hypercurv verify-all`` runs it and exits non-zero on any
failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

from . import caseverify, cylinders, immersion, simons, spectrum
from .errors import DomainError
from .scalars import JsonRecord, Regime


@dataclass(frozen=True)
class CheckResult(JsonRecord):
    name: str
    passed: bool
    detail: str


def _check(results: List[CheckResult], name: str, predicate, detail: str):
    try:
        ok = bool(predicate())
        note = detail
    except Exception as exc:  # a fixture crash is a failure, not an abort
        ok = False
        note = f"{detail} [raised {type(exc).__name__}: {exc}]"
    results.append(CheckResult(name=name, passed=ok, detail=note))


_LADDERS = {
    3: [(1, Fraction(0)), (2, Fraction(3, 4)), (3, Fraction(1))],
    4: [(1, Fraction(0)), (2, Fraction(2, 3)), (3, Fraction(8, 9)), (4, Fraction(1))],
    5: [(1, Fraction(0)), (2, Fraction(5, 8)), (3, Fraction(5, 6)),
        (4, Fraction(15, 16)), (5, Fraction(1))],
}

_INVARIANT_FIXTURES = [
    # (label, lambdas, expected R/H^2, |A|^2/H^2 = n^2/k, |phi|^2/H^2 = n(n-k)/k)
    ("cyl-4-2", (0, 0, 2, 2), Fraction(2, 3), Fraction(8), Fraction(4)),
    ("cyl-4-3", (0, Fraction(4, 3), Fraction(4, 3), Fraction(4, 3)),
     Fraction(8, 9), Fraction(16, 3), Fraction(4, 3)),
    ("cyl-5-4", (0, Fraction(5, 4), Fraction(5, 4), Fraction(5, 4), Fraction(5, 4)),
     Fraction(15, 16), Fraction(25, 4), Fraction(5, 4)),
    ("cyl-5-2", (0, 0, 0, Fraction(5, 2), Fraction(5, 2)),
     Fraction(5, 8), Fraction(25, 2), Fraction(15, 2)),
    ("cyl-5-3", (0, 0, Fraction(5, 3), Fraction(5, 3), Fraction(5, 3)),
     Fraction(5, 6), Fraction(25, 3), Fraction(10, 3)),
]


def run_builtin_suite(seed: int = 0, scan_grid_points: int = 200_000,
                      jobs: int = 1) -> List[CheckResult]:
    """Run every recorded fixture and return one result per check."""
    # A bad budget or job count is an input error, not a failed check, so
    # it is rejected before any check runs.
    budget = caseverify.ScanBudget(grid_points=scan_grid_points)
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    results: List[CheckResult] = []

    for n, expected in _LADDERS.items():
        _check(results, f"ladder-n{n}",
               lambda n=n, e=expected: cylinders.scalar_ladder(n) == e,
               f"scalar ladder for n={n} matches the recorded rungs exactly")

    radius_cases = [(4, 3, Fraction(3, 4)), (5, 4, Fraction(4, 5)),
                    (6, 1, Fraction(1, 6)), (6, 2, Fraction(2, 6)),
                    (5, 2, Fraction(2, 5)), (4, 2, Fraction(2, 4))]
    for h in (1, 2, Fraction(1, 3)):
        for n, k, unit_radius in radius_cases:
            _check(
                results, f"radius-n{n}-k{k}-H{h}",
                lambda n=n, k=k, u=unit_radius, h=h:
                    cylinders.cylinder_from_H(n, k, h).radius == u / h,
                f"cylinder radius for (n={n}, k={k}, H={h}) is k/(n|H|) exactly")

    for n, phi2_ratio in ((4, Fraction(4, 3)), (5, Fraction(5, 4))):
        for h in (1, Fraction(2, 3), 3):
            _check(
                results, f"bracket-zero-n{n}-H{h}",
                lambda n=n, r=phi2_ratio, h=h:
                    simons.cmc_bracket_sign(n, 0, h, r * h * h) == 0,
                f"the CMC bracket vanishes exactly at |phi|^2 = {phi2_ratio} H^2, n={n}")

    for label, lams, r_ratio, a2_ratio, phi2_ratio in _INVARIANT_FIXTURES:
        def fixture_ok(lams=lams, r=r_ratio, a2=a2_ratio, p2=phi2_ratio):
            rep = spectrum.invariants(spectrum.CurvatureSpectrum(lams, 0))
            h2 = rep.H * rep.H
            return (rep.R == r * h2 and rep.norm_a2 == a2 * h2
                    and rep.norm_phi2 == p2 * h2)
        _check(results, f"invariants-{label}", fixture_ok,
               f"spectrum {label} reproduces the recorded R, |A|^2, |phi|^2")

    def h4_ladder_signs():
        signs = []
        for k in range(1, 6):
            rep = spectrum.invariants(cylinders.cylinder_from_H(5, k, 1).spectrum())
            signs.append(rep.Hr[4])
        return (all(s >= 0 for s in signs)
                and signs[0] == 0 and signs[1] == 0 and signs[2] == 0
                and signs[3] > 0 and signs[4] > 0)
    _check(results, "h4-ladder-n5", h4_ladder_signs,
           "H_4 >= 0 across the n=5 ladder, vanishing exactly for k <= 3")

    def okumura_equality():
        one_third = Fraction(1, 3)
        bound = spectrum.okumura_bound((-1, one_third, one_third, one_third))
        return bound.holds and bound.equality and bound.sum3 ** 2 == bound.bound_squared
    _check(results, "okumura-equality", okumura_equality,
           "the cubic bound is attained with equality at mu = (-1, 1/3, 1/3, 1/3)")

    def simons_vanishing():
        for n in (4, 5):
            for k in range(1, n + 1):
                model = cylinders.cylinder_from_H(n, k, 1)
                spec = model.spectrum()
                data = simons.SimonsPointData.with_gauss_curvatures(spec)
                if simons.simons_rhs_general(data) != 0:
                    return False
                if simons.simons_rhs_space_form(spec) != 0:
                    return False
        return True
    _check(results, "simons-vanishing-cylinders", simons_vanishing,
           "both Simons right-hand sides vanish exactly on every ladder cylinder")

    def identity_spot_checks():
        rng = random.Random(seed + 17)
        for _ in range(40):
            n = rng.randint(3, 8)
            lams = [Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(n)]
            spec = spectrum.CurvatureSpectrum(lams, Fraction(rng.randint(-2, 2)))
            rep = spectrum.invariants(spec)
            if (n * rep.H) ** 2 != rep.norm_a2 + n * (n - 1) * (rep.R - spec.c):
                return False
            lhs, rhs = spectrum.tr_a3_sides(spec)
            if lhs != rhs:
                return False
            if rep.tr_a3 != rep.tr_phi3 + 3 * rep.H * rep.norm_phi2 + n * rep.H ** 3:
                return False
        return True
    _check(results, "identities-exact", identity_spot_checks,
           "quadratic/cubic trace identities hold literally on random exact spectra")

    for case in caseverify.BUILTIN_CASES:
        system = caseverify.builtin_case(case, H=1)
        _check(results, f"scan-{case}",
               lambda system=system: caseverify.expected_outcome(system).agrees(
                   caseverify.scan(system, budget=budget, seed=seed, jobs=jobs)),
               f"scan of {case} reproduces the recorded outcome")
        if caseverify.has_certificate(system):
            _check(
                results, f"certificate-{case}",
                lambda system=system: caseverify.certificate_check(
                    system, seed=seed, count=400).passed,
                f"closed-form certificate for {case} survives sampling")

    def immersion_sphere():
        shape = immersion.make_shape("sphere", n=4, radius=2)
        patch = shape.patch(immersion.default_point("sphere", 4))
        lams = immersion.principal_curvatures(patch).lambdas
        return max(abs(v - 0.5) for v in lams) <= 1e-8
    _check(results, "immersion-sphere", immersion_sphere,
           "the analytic round-sphere patch recovers lambda = 1/radius to 1e-8")

    def immersion_cylinder():
        shape = immersion.make_shape("cylinder", n=4, k=2, radius=Fraction(1, 2))
        patch = shape.patch(immersion.default_point("cylinder", 4, k=2))
        spec = immersion.principal_curvatures(patch)
        rep = spectrum.invariants(spec)
        target = (0.0, 0.0, 2.0, 2.0)
        return (max(abs(a - b) for a, b in zip(spec.lambdas, target)) <= 1e-8
                and abs(rep.R - 2.0 / 3.0) <= 1e-7)
    _check(results, "immersion-cylinder", immersion_cylinder,
           "the analytic cylinder patch recovers (0, 0, 2, 2) and R = 2/3")

    def pct_fixtures():
        cyl = caseverify.pct_sets([0.0, 0.0, 4.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0])
        bad = caseverify.pct_sets([-1.0, -0.5, 0.3, 2.0])
        return cyl.verdict == "CONSISTENT" and bad.verdict == "VIOLATED"
    _check(results, "pct-sets", pct_fixtures,
           "value-set classification: one-sided cylinder sample consistent, "
           "separated two-sided sample violated")

    return results
