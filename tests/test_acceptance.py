"""Acceptance suite: one test per shipped criterion.

Each test prints a single ``criterion N: PASS`` line on success (visible
with ``pytest -s`` or ``-v``); a failure shows up as the usual pytest
FAILED line for that criterion.  Every tolerance and runtime budget is
asserted inside the test itself.
"""

import random
import time
from fractions import Fraction

import pytest

from hypercurv.caseverify import (
    ScanBudget,
    builtin_case,
    certificate_check,
    expected_outcome,
    scan,
)
from hypercurv.cylinders import (
    classify,
    cylinder_from_H,
    rigidity_annotation,
    scalar_ladder,
)
from hypercurv.immersion import (
    default_point,
    finite_difference_lift,
    make_shape,
    principal_curvatures,
)
from hypercurv.scalars import Tolerance
from hypercurv.simons import (
    SimonsPointData,
    cmc_bracket,
    cmc_bracket_sign,
    simons_rhs_general,
    simons_rhs_space_form,
)
from hypercurv.spectrum import (
    CurvatureSpectrum,
    invariants,
    newton_eigenvalues,
    okumura_bound,
    sigma_all,
    sigma_recursion_residual,
    tr_a3_sides,
)

SEED = 20260815


def _report(num: int, detail: str):
    print(f"criterion {num}: PASS - {detail}")


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-50, 50), rng.randint(1, 50))


def test_criterion_1_ladder_values():
    start = time.perf_counter()
    expected = {
        3: [Fraction(0), Fraction(3, 4), Fraction(1)],
        4: [Fraction(0), Fraction(2, 3), Fraction(8, 9), Fraction(1)],
        5: [Fraction(0), Fraction(5, 8), Fraction(5, 6),
            Fraction(15, 16), Fraction(1)],
    }
    for n, ratios in expected.items():
        got = [ratio for _, ratio in scalar_ladder(n)]
        assert got == ratios
        assert all(isinstance(r, Fraction) for r in got)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"ladders n=3,4,5 exact in {elapsed:.3f}s")


def test_criterion_2_cylinder_radii():
    start = time.perf_counter()
    for H in (Fraction(1), Fraction(2), Fraction(1, 3)):
        assert cylinder_from_H(4, 3, H).radius == Fraction(3, 4) / abs(H)
        assert cylinder_from_H(5, 4, H).radius == Fraction(4, 5) / abs(H)
        for n in (3, 4, 5, 6, 9):
            assert cylinder_from_H(n, 1, H).radius == Fraction(1, n) / abs(H)
            assert cylinder_from_H(n, 2, H).radius == Fraction(2, n) / abs(H)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"radii k/(n|H|) exact for H in {{1, 2, 1/3}} in {elapsed:.3f}s")


def test_criterion_3_bracket_vanishing():
    start = time.perf_counter()
    zeros = [(4, Fraction(4, 3)), (5, Fraction(5, 4))]
    for H in (Fraction(1), Fraction(2), Fraction(7, 3)):
        for n, coeff in zeros:
            phi2 = coeff * H * H
            assert cmc_bracket_sign(n, 0, H, phi2) == 0
            assert cmc_bracket(n, 0.0, float(H), float(phi2) ** 0.5) == \
                pytest.approx(0.0, abs=1e-9)
            # strictly inside / outside the zero the sign is exact
            assert cmc_bracket_sign(n, 0, H, phi2 * Fraction(99, 100)) == 1
            assert cmc_bracket_sign(n, 0, H, phi2 * Fraction(101, 100)) == -1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"radical-free bracket zeros at both special ratios in {elapsed:.3f}s")


def test_criterion_4_exact_identity_sweep():
    start = time.perf_counter()
    rng = random.Random(SEED)
    trials = 10_000
    for _ in range(trials):
        n = rng.randint(3, 12)
        lam = [_random_fraction(rng) for _ in range(n)]
        c = _random_fraction(rng)
        spec = CurvatureSpectrum(lam, c)
        rep = invariants(spec)

        r = rng.randint(1, n)
        i = rng.randint(1, n)
        assert sigma_recursion_residual(spec.lambdas, r, i) == 0

        assert n * n * rep.H * rep.H == \
            rep.norm_a2 + n * (n - 1) * (rep.R - c)
        assert rep.norm_phi2 == rep.norm_a2 - n * rep.H * rep.H
        assert rep.tr_a3 == rep.tr_phi3 + 3 * rep.H * rep.norm_phi2 \
            + n * rep.H ** 3

        lhs, rhs = tr_a3_sides(spec)
        assert lhs == rhs

        S = sigma_all(spec.lambdas)
        for rr in range(n):
            p = newton_eigenvalues(spec, rr)
            assert sum(v * q for v, q in zip(spec.lambdas, p)) == \
                (rr + 1) * S[rr + 1]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"{trials} exact spectra, all identities literal-zero "
               f"in {elapsed:.1f}s")


def test_criterion_5_okumura_sweep():
    start = time.perf_counter()
    rng = random.Random(SEED + 1)
    tol = Tolerance(rel=1e-9, abs=1e-12)
    trials = 10_000
    for _ in range(trials):
        n = rng.randint(3, 12)
        mu = [rng.uniform(-10.0, 10.0) for _ in range(n)]
        mean = sum(mu) / n
        mu = [v - mean for v in mu]
        bound = okumura_bound(mu, tol)
        slack = 1e-9 * max(1.0, abs(bound.bound_squared))
        assert bound.sum3 ** 2 <= bound.bound_squared + slack
        assert bound.holds

    # equality iff n-1 entries coincide, on constructed configurations
    for n in (3, 5, 8):
        for b in (0.5, 2.0):
            mu = [b] * (n - 1) + [-(n - 1) * b]
            rng.shuffle(mu)
            assert okumura_bound(mu, tol).equality
            mu_off = [b] * (n - 2) + [1.5 * b, -(n - 0.5) * b]
            assert not okumura_bound(mu_off, tol).equality
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, f"{trials} float zero-trace vectors bounded within 1e-9 rel "
               f"in {elapsed:.1f}s")


def test_criterion_6_simons_equivalence():
    start = time.perf_counter()
    rng = random.Random(SEED + 2)
    trials = 1_000
    for _ in range(trials):
        n = rng.randint(3, 8)
        lam = [_random_fraction(rng) for _ in range(n)]
        c = _random_fraction(rng)
        spec = CurvatureSpectrum(lam, c)
        grad = abs(_random_fraction(rng))
        hess = [_random_fraction(rng) for _ in range(n)]
        data = SimonsPointData.with_gauss_curvatures(spec, grad, hess)
        assert simons_rhs_general(data) == \
            simons_rhs_space_form(spec, grad, hess)

    # both forms vanish on every ladder cylinder when the gradient terms do
    for n in (3, 4, 5):
        for k in range(1, n + 1):
            r = Fraction(1, 2) if k < n else Fraction(1)
            lam = [Fraction(0)] * (n - k) + [1 / r] * k
            spec = CurvatureSpectrum(lam, Fraction(0))
            data = SimonsPointData.with_gauss_curvatures(spec)
            assert simons_rhs_general(data) == 0
            assert simons_rhs_space_form(spec) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, f"{trials} exact curvature-table vs space-form agreements "
               f"in {elapsed:.1f}s")


def test_criterion_7_case_scans():
    start = time.perf_counter()
    budget = ScanBudget(grid_points=1_000_000)
    verdicts = {}
    for name in ("thm1-claim", "thm1-lambda2", "thm2-claim",
                 "thm2-lambda3", "thm2-lambda2"):
        system = builtin_case(name, H=1)
        verdict = scan(system, budget=budget, seed=SEED)
        expected = expected_outcome(system)
        assert verdict.status == expected.status, name
        if expected.witness is not None:
            deviation = max(abs(a - float(b)) for a, b in
                            zip(verdict.witness, expected.witness))
            assert deviation <= 1e-8, (name, deviation)
        verdicts[name] = verdict

    for name in ("thm1-claim", "thm2-claim"):
        assert verdicts[name].status == "NO_WITNESS"
        report = certificate_check(builtin_case(name, H=1), seed=SEED,
                                   count=500)
        assert report.passed, name

    rerun = scan(builtin_case("thm2-lambda2", H=1), budget=budget, seed=SEED)
    assert rerun.witness == verdicts["thm2-lambda2"].witness
    assert rerun.residual == verdicts["thm2-lambda2"].residual
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(7, f"five million-cell scans, witnesses within 1e-8, "
               f"deterministic, in {elapsed:.1f}s")


def test_criterion_8_immersion_pipeline():
    start = time.perf_counter()
    sphere = make_shape("sphere", n=4, radius=2)
    spec = principal_curvatures(sphere.patch(default_point("sphere", 4)))
    assert max(abs(v - 0.5) for v in spec.lambdas) <= 1e-8

    cyl = make_shape("cylinder", n=4, radius=Fraction(1, 2), k=2)
    pt = default_point("cylinder", 4, k=2)
    analytic = cyl.patch(pt)
    spec = principal_curvatures(analytic)
    assert max(abs(a - b) for a, b in
               zip(spec.lambdas, (0.0, 0.0, 2.0, 2.0))) <= 1e-8
    assert abs(invariants(spec).R - 2.0 / 3.0) <= 1e-7

    fd_spec = principal_curvatures(finite_difference_lift(cyl, pt))
    assert max(abs(a - b) for a, b in
               zip(spec.lambdas, fd_spec.lambdas)) <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(8, f"sphere 1e-8, cylinder 1e-8/1e-7, fd-vs-analytic 1e-5 "
               f"in {elapsed:.1f}s")


def test_criterion_9_rigidity_annotations():
    start = time.perf_counter()
    expected_status = {
        (3, 1): "rigid", (3, 2): "rigid", (3, 3): "rigid",
        (4, 2): "rigid-conditional", (4, 3): "rigid", (4, 4): "rigid",
        (5, 2): "rigid-conditional", (5, 3): "example-only",
        (5, 4): "rigid", (5, 5): "rigid",
    }
    for (n, k), status in expected_status.items():
        assert rigidity_annotation(n, k).status == status, (n, k)
    assert rigidity_annotation(4, 3).hypotheses == ("R >= (2/3)H^2",)
    assert rigidity_annotation(5, 4).hypotheses == \
        ("H4 >= 0", "R >= (5/8)H^2")
    for k in (1, 2):
        assert rigidity_annotation(7, k).status == "rigid-conditional"
    for k in (3, 4, 5, 6, 7):
        assert rigidity_annotation(7, k).status == "example-only"

    # classification output carries the annotation
    verdict = classify(4, Fraction(1), Fraction(2, 3))
    assert verdict.on_ladder and verdict.k == 2
    assert verdict.annotation.status == "rigid-conditional"
    verdict = classify(5, Fraction(1), Fraction(15, 16))
    assert verdict.annotation.status == "rigid"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(9, f"proven-vs-example statuses match the recorded table "
               f"in {elapsed:.3f}s")
