import json
import math
import random
from fractions import Fraction

import pytest

import oracles
from hypercurv.cylinders import (
    CylinderModel,
    classify,
    cylinder_from_H,
    cylinder_invariant_check,
    ladder_ratio,
    rigidity_annotation,
    scalar_ladder,
)
from hypercurv.errors import DomainError, RegimeError, VerificationError
from hypercurv.scalars import Regime
from hypercurv.spectrum import invariants


class TestLadder:
    def test_frozen_ladders(self):
        assert scalar_ladder(3) == [(1, Fraction(0)), (2, Fraction(3, 4)),
                                    (3, Fraction(1))]
        assert scalar_ladder(4) == [(1, Fraction(0)), (2, Fraction(2, 3)),
                                    (3, Fraction(8, 9)), (4, Fraction(1))]
        assert scalar_ladder(5) == [(1, Fraction(0)), (2, Fraction(5, 8)),
                                    (3, Fraction(5, 6)), (4, Fraction(15, 16)),
                                    (5, Fraction(1))]

    def test_strictly_increasing_zero_to_one(self):
        for n in range(3, 12):
            rungs = [r for _, r in scalar_ladder(n)]
            assert rungs[0] == 0 and rungs[-1] == 1
            assert all(a < b for a, b in zip(rungs, rungs[1:]))

    def test_ratio_formula(self):
        assert ladder_ratio(5, 2) == Fraction(5, 8)
        assert ladder_ratio(4, 3) == Fraction(8, 9)
        with pytest.raises(DomainError):
            ladder_ratio(4, 0)
        with pytest.raises(DomainError):
            ladder_ratio(4, 5)

    @pytest.mark.parametrize("n", [-3, 0, 1])
    def test_ladder_needs_n_at_least_two(self, n):
        with pytest.raises(DomainError, match="n >= 2"):
            scalar_ladder(n)


class TestCylinderModel:
    def test_spectrum_and_closed_forms(self):
        m = CylinderModel(4, 2, Fraction(1, 2))
        assert m.spectrum().lambdas == (0, 0, 2, 2)
        assert m.mean_curvature() == 1
        assert m.scalar_curvature() == Fraction(2, 3)
        assert m.describe() == "R^2 x S^2(1/2)"

    def test_sphere_and_hyperplane(self):
        sphere = CylinderModel(3, 3, Fraction(2))
        assert sphere.describe() == "S^3(2)"
        assert sphere.mean_curvature() == Fraction(1, 2)
        assert sphere.scalar_curvature() == Fraction(1, 4)
        plane = CylinderModel(3, 0, Fraction(1))
        assert plane.mean_curvature() == 0
        assert plane.spectrum().lambdas == (0, 0, 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            CylinderModel(1, 1, Fraction(1))
        with pytest.raises(DomainError):
            CylinderModel(3, 4, Fraction(1))
        with pytest.raises(DomainError):
            CylinderModel(3, 2, Fraction(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_is_rejected(self, bad):
        with pytest.raises(DomainError):
            CylinderModel(4, 2, bad)

    def test_int_radius_is_exact(self):
        m = CylinderModel(4, 2, 3)
        assert type(m.radius) is Fraction and m.regime is Regime.EXACT
        assert m.to_json_dict()["radius"] == "3/1"

    def test_from_H_radius(self):
        for h in (1, 2, Fraction(1, 3)):
            for n, k in ((4, 3), (5, 4), (6, 1), (6, 2), (5, 2), (4, 2)):
                m = cylinder_from_H(n, k, h)
                assert m.radius == Fraction(k, n) / h
                assert m.mean_curvature() == h

    def test_from_H_negative_H_uses_magnitude(self):
        m = cylinder_from_H(4, 2, Fraction(-1))
        assert m.radius == Fraction(1, 2)

    def test_from_H_validation(self):
        with pytest.raises(DomainError):
            cylinder_from_H(4, 0, 1)
        with pytest.raises(DomainError):
            cylinder_from_H(4, 2, 0)

    def test_invariant_cross_check(self):
        rng = random.Random(301)
        for _ in range(60):
            n = rng.randint(2, 9)
            k = rng.randint(1, n)
            radius = Fraction(rng.randint(1, 20), rng.randint(1, 20))
            rep = cylinder_invariant_check(CylinderModel(n, k, radius))
            assert rep.norm_a2 == Fraction(k) / (radius * radius)

    def test_invariant_cross_check_float(self):
        cylinder_invariant_check(CylinderModel(4, 2, 0.5))

    def test_ladder_ratio_matches_invariants(self):
        for n in range(3, 8):
            for k in range(1, n + 1):
                rep = invariants(cylinder_from_H(n, k, 1).spectrum())
                assert rep.R == ladder_ratio(n, k)


class TestClassify:
    def test_exact_hits(self):
        v = classify(5, Fraction(1), Fraction(5, 6))
        assert v.on_ladder and v.k == 3
        assert v.model.describe() == "R^2 x S^3(3/5)"
        assert v.gap == 0
        assert v.annotation.status == "example-only"

        v = classify(4, Fraction(2), Fraction(8, 3))
        assert v.on_ladder and v.k == 2  # ratio (8/3)/4 = 2/3
        assert v.model.radius == Fraction(1, 4)

    def test_exact_miss_reports_nearest(self):
        v = classify(4, Fraction(1), Fraction(19, 20))
        assert not v.on_ladder and v.k is None and v.model is None
        assert v.nearest_k == 4  # 19/20 is nearer to 1 than to 8/9
        assert v.gap == Fraction(19, 20) - 1

    def test_float_tolerance(self):
        v = classify(4, 1.0, 0.95, tol=1e-9)
        assert not v.on_ladder
        assert v.nearest_k == 4
        assert v.gap == pytest.approx(0.95 - 1.0)
        hit = classify(4, 1.0, 2 / 3 + 1e-12, tol=1e-9)
        assert hit.on_ladder and hit.k == 2

    def test_float_without_tol_rejected(self):
        with pytest.raises(RegimeError):
            classify(4, 1.0, 0.95)

    def test_tol_promotes_exact_inputs(self):
        v = classify(4, Fraction(1), Fraction(2, 3), tol=1e-9)
        assert v.on_ladder and isinstance(v.ratio, float)

    def test_validation(self):
        with pytest.raises(DomainError):
            classify(2, Fraction(1), Fraction(1))
        with pytest.raises(DomainError):
            classify(4, Fraction(0), Fraction(1))
        for tol in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError):
                classify(4, 1.0, 0.5, tol=tol)

    def test_negative_H_classifies_by_ratio(self):
        v = classify(4, Fraction(-1), Fraction(2, 3))
        assert v.on_ladder and v.k == 2
        assert v.model.radius == Fraction(1, 2)

    @pytest.mark.parametrize("kind", ["random", "rung", "midpoint"])
    def test_exact_matches_the_fraction_gap_rule(self, kind):
        # Random (H, R) of both signs, every rung exactly, and every midpoint
        # between adjacent rungs, where the two gaps tie and the smaller k
        # must win.
        rng = random.Random(f"classify-{kind}")
        for n in range(3, 13):
            rungs = [r for _, r in scalar_ladder(n)]
            if kind == "random":
                ratios = [Fraction(rng.randint(-300, 300), rng.randint(1, 120))
                          for _ in range(60)]
            elif kind == "rung":
                ratios = rungs
            else:
                ratios = [(lo + hi) / 2 for lo, hi in zip(rungs, rungs[1:])]
            for j, ratio in enumerate(ratios):
                H = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50))
                R = ratio * H * H
                v = classify(n, H, R)
                assert json.dumps(v.to_json_dict()) == json.dumps(
                    oracles.classify_by_fraction_gaps(n, H, R).to_json_dict()), (n, H, R)
                if kind == "rung":
                    assert v.on_ladder and v.k == j + 1 and v.gap == 0
                elif kind == "midpoint":
                    assert not v.on_ladder and v.nearest_k == j + 1


class TestRigidityNotes:
    def test_n3_all_rigid(self):
        for k in (1, 2, 3):
            assert rigidity_annotation(3, k).status == "rigid"

    def test_n4_statuses(self):
        assert rigidity_annotation(4, 3).status == "rigid"
        assert rigidity_annotation(4, 4).status == "rigid"
        assert rigidity_annotation(4, 3).hypotheses == ("R >= (2/3)H^2",)
        assert rigidity_annotation(4, 2).status == "rigid-conditional"
        assert "H*H3 >= 0" in rigidity_annotation(4, 2).hypotheses
        assert rigidity_annotation(4, 1).status == "rigid-conditional"

    def test_n5_statuses(self):
        assert rigidity_annotation(5, 4).status == "rigid"
        assert rigidity_annotation(5, 5).status == "rigid"
        assert rigidity_annotation(5, 4).hypotheses == ("H4 >= 0", "R >= (5/8)H^2")
        assert rigidity_annotation(5, 3).status == "example-only"
        assert rigidity_annotation(5, 2).status == "rigid-conditional"

    def test_general_dimension_fallback(self):
        assert rigidity_annotation(7, 1).status == "rigid-conditional"
        assert rigidity_annotation(7, 2).status == "rigid-conditional"
        assert rigidity_annotation(7, 4).status == "example-only"
        assert rigidity_annotation(7, 7).status == "example-only"

    def test_validation(self):
        with pytest.raises(DomainError):
            rigidity_annotation(2, 1)
        with pytest.raises(DomainError):
            rigidity_annotation(4, 5)

    def test_json_form(self):
        payload = rigidity_annotation(5, 4).to_json_dict()
        assert payload["status"] == "rigid"
        assert payload["hypotheses"] == ["H4 >= 0", "R >= (5/8)H^2"]
