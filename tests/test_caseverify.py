import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hypercurv.caseverify import (
    BUILTIN_CASES,
    _PenaltyEvaluator,
    _gauss_newton,
    STRICT_MARGIN,
    ConstraintSystem,
    Relation,
    ScanBudget,
    SignConstraint,
    SymmetricSignConstraint,
    builtin_case,
    certificate_check,
    certificate_samples,
    closed_form_contradiction,
    constraint_violations,
    expected_outcome,
    has_certificate,
    max_violation,
    pct_sets,
    scan,
)
from hypercurv.errors import DomainError, RegimeError, UnsupportedCaseError
from hypercurv.scalars import Regime


def small_budget(cells=60_000):
    return ScanBudget(grid_points=cells)


def planted_system():
    # FLOAT system around x = (-1.5, -0.5, 0, 0, 0.25, 1, 1.25, 2, 2.5, 3),
    # x_3 pinned to zero: nine free coordinates, every constraint holds at x.
    x = [-1.5, -0.5, 0.0, 0.0, 0.25, 1.0, 1.25, 2.0, 2.5, 3.0]
    return ConstraintSystem(
        10, math.fsum(x), oracles.sigma_subsets(x, 2), fixed_zeros={3},
        sign_constraints=(SignConstraint(2, Relation.LT_ZERO),
                          SignConstraint(4, Relation.GE_ZERO),
                          SignConstraint(10, Relation.GE_H)),
        extra_symmetric=(SymmetricSignConstraint(4, Relation.LE_ZERO),))


class TestConstraintSystem:
    def test_basic_properties(self):
        s = builtin_case("thm1-claim")
        assert s.n == 4
        assert s.trace_target == 4
        assert s.sigma2_target == 4  # C(4,2) * (2/3) = 4
        assert s.mean_curvature == 1
        assert s.scalar_curvature == Fraction(2, 3)
        assert s.norm_a2_target == 8
        assert s.regime is Regime.EXACT

    def test_index_validation(self):
        with pytest.raises(DomainError):
            ConstraintSystem(4, 4, 4, fixed_zeros=frozenset({5}))
        with pytest.raises(DomainError):
            ConstraintSystem(4, 4, 4,
                             sign_constraints=(SignConstraint(0, Relation.GE_ZERO),))
        with pytest.raises(DomainError):
            ConstraintSystem(4, 4, 4,
                             extra_symmetric=(SymmetricSignConstraint(5, Relation.GE_ZERO),))

    def test_pinned_zero_conflicts(self):
        with pytest.raises(DomainError):
            ConstraintSystem(4, 4, 4, fixed_zeros=frozenset({2}),
                             sign_constraints=(SignConstraint(2, Relation.GT_ZERO),))
        with pytest.raises(DomainError):
            # x_2 = 0 cannot also satisfy x_2 >= H when H > 0
            ConstraintSystem(4, 4, 4, fixed_zeros=frozenset({2}),
                             sign_constraints=(SignConstraint(2, Relation.GE_H),))
        # harmless when H <= 0
        ConstraintSystem(4, -4, 4, fixed_zeros=frozenset({2}),
                         sign_constraints=(SignConstraint(2, Relation.GE_H),))

    def test_symmetric_relation_restricted(self):
        with pytest.raises(DomainError):
            SymmetricSignConstraint(3, Relation.GT_ZERO)

    def test_json_round_trip(self):
        for name in BUILTIN_CASES:
            s = builtin_case(name, H=Fraction(3, 2))
            assert ConstraintSystem.from_json_dict(s.to_json_dict()) == s

    def test_json_malformed(self):
        with pytest.raises(DomainError):
            ConstraintSystem.from_json_dict({"n": 4})

    def test_norm_a2_negative_detected(self):
        # trace 0 with positive sigma2 forces sum of squares < 0
        s = ConstraintSystem(3, 0, 3)
        v = scan(s, budget=small_budget(1000), seed=0)
        assert v.status == "NO_WITNESS"
        assert v.stats["gridCells"] == 0


class TestViolations:
    def test_reports_every_constraint(self):
        s = builtin_case("thm1-lambda2")
        viol = constraint_violations(s, (0.0, 0.0, 2.0, 2.0))
        assert set(viol) == {"trace", "sigma2", "lambda2=0", "ordering",
                             "lambda3>0", "lambda4>=H"}
        assert max(viol.values()) == 0.0

    def test_quantifies_misses(self):
        s = builtin_case("thm1-lambda2")
        viol = constraint_violations(s, (0.5, 0.0, 2.0, 1.5))
        assert viol["trace"] == 0.0
        assert viol["ordering"] == pytest.approx(0.5)
        assert viol["sigma2"] == pytest.approx(abs(oracles.sigma_subsets(
            [0.5, 0.0, 2.0, 1.5], 2) - 4.0))

    def test_wrong_dimension(self):
        with pytest.raises(DomainError):
            constraint_violations(builtin_case("thm1-claim"), (1.0, 2.0))

    @pytest.mark.parametrize("name", ["thm1-lambda2", "thm2-lambda3", "thm2-lambda2"])
    def test_exact_path_proves_recorded_witness(self, name):
        s = builtin_case(name, H=1)
        witness = list(expected_outcome(s).witness)
        viol = constraint_violations(s, witness)
        assert all(isinstance(v, Fraction) for v in viol.values())
        assert max_violation(s, witness) == 0
        # move the largest coordinate up: the trace misses by exactly 1/7
        witness[-1] += Fraction(1, 7)
        assert max_violation(s, witness) > 0
        assert constraint_violations(s, witness)["trace"] == Fraction(1, 7)

    def test_exact_path_proves_recorded_witnesses_at_other_h(self):
        for name in ("thm1-lambda2", "thm2-lambda3", "thm2-lambda2"):
            s = builtin_case(name, H=Fraction(3, 4))
            assert max_violation(s, expected_outcome(s).witness) == 0

    def test_exact_path_keeps_the_strict_margin(self):
        # x_1 > 0 is checked as x_1 >= STRICT_MARGIN, the margin at its exact
        # binary value
        s = ConstraintSystem(3, 4, 5, sign_constraints=(
            SignConstraint(1, Relation.GT_ZERO),))
        assert max_violation(s, (Fraction(1), Fraction(1), Fraction(2))) == 0
        tiny = Fraction(1, 10 ** 7)
        viol = constraint_violations(s, (tiny, Fraction(1), 3 - tiny))
        assert viol["lambda1>0"] == Fraction(STRICT_MARGIN) - tiny

    def test_mixed_point_rejected(self):
        s = builtin_case("thm1-lambda2")
        with pytest.raises(RegimeError):
            constraint_violations(s, (Fraction(0), 0.0, Fraction(2), 2.0))


class TestBuiltinCases:
    def test_registry(self):
        assert set(BUILTIN_CASES) == {"thm1-claim", "thm1-lambda2", "thm2-claim",
                                      "thm2-lambda2", "thm2-lambda3"}

    def test_canonical_targets(self):
        ratios = {"thm1-claim": Fraction(2, 3), "thm1-lambda2": Fraction(2, 3),
                  "thm2-claim": Fraction(5, 8), "thm2-lambda3": Fraction(5, 8),
                  "thm2-lambda2": Fraction(5, 6)}
        for name, ratio in ratios.items():
            s = builtin_case(name)
            assert s.scalar_curvature == ratio
            assert s.mean_curvature == 1

    def test_h_scaling(self):
        s = builtin_case("thm2-claim", H=Fraction(2))
        assert s.trace_target == 10
        assert s.scalar_curvature == Fraction(5, 8) * 4

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            builtin_case("thm3-claim")
        with pytest.raises(DomainError):
            builtin_case("thm1-claim", H=0)

    def test_expected_outcomes(self):
        assert expected_outcome(builtin_case("thm1-claim")).status == "NO_WITNESS"
        assert expected_outcome(builtin_case("thm2-claim")).status == "NO_WITNESS"
        w = expected_outcome(builtin_case("thm1-lambda2"))
        assert w.status == "WITNESS" and w.witness == (0, 0, 2, 2)
        w = expected_outcome(builtin_case("thm2-lambda3", H=Fraction(2)))
        assert w.witness == (0, 0, 0, 5, 5)
        w = expected_outcome(builtin_case("thm2-lambda2"))
        assert w.witness == (0, 0, Fraction(5, 3), Fraction(5, 3), Fraction(5, 3))

    def test_float_witnesses_round_like_the_closed_forms(self):
        h = 1.5
        w = expected_outcome(builtin_case("thm2-lambda2", H=h)).witness
        assert w == (0.0, 0.0, 5 * h / 3, 5 * h / 3, 5 * h / 3)
        w = expected_outcome(builtin_case("thm2-lambda3", H=h)).witness
        assert w == (0.0, 0.0, 0.0, 5 * h / 2, 5 * h / 2)
        assert all(type(v) is float for v in w)

    def test_expected_outcome_gated_on_recorded_ratio(self):
        custom = builtin_case("thm1-claim", R=Fraction(1, 2))
        assert expected_outcome(custom) is None
        anonymous = ConstraintSystem(4, 4, 4)
        assert expected_outcome(anonymous) is None


class TestScan:
    def test_finds_recorded_witnesses(self):
        for name in ("thm1-lambda2", "thm2-lambda3", "thm2-lambda2"):
            s = builtin_case(name)
            v = scan(s, budget=small_budget(), seed=0)
            expected = expected_outcome(s)
            assert v.status == "WITNESS"
            assert v.witness == tuple(float(w) for w in expected.witness)
            assert max_violation(s, v.witness) <= 1e-8

    def test_claims_stay_infeasible(self):
        for name in ("thm1-claim", "thm2-claim"):
            v = scan(builtin_case(name), budget=small_budget(), seed=0)
            assert v.status == "NO_WITNESS"
            assert v.residual > 1e-3  # genuinely far from feasible
            assert v.witness is None

    def test_deterministic_per_seed(self):
        s = builtin_case("thm2-lambda3")
        a = scan(s, budget=small_budget(), seed=5)
        b = scan(s, budget=small_budget(), seed=5)
        assert a.best_point == b.best_point
        assert a.residual == b.residual
        assert a.to_json_dict() == b.to_json_dict()

    def test_jobs_do_not_change_the_answer(self):
        s = builtin_case("thm1-lambda2")
        a = scan(s, budget=small_budget(), seed=3, jobs=1)
        b = scan(s, budget=small_budget(), seed=3, jobs=4)
        assert a.best_point == b.best_point
        assert a.status == b.status

    def test_witness_double_entry(self):
        # hand-built feasible system: x = (1, 1, 2) solves both equalities
        s = ConstraintSystem(3, 4, 5, sign_constraints=(
            SignConstraint(1, Relation.GT_ZERO),))
        v = scan(s, budget=small_budget(), seed=0)
        assert v.status == "WITNESS"
        assert max_violation(s, v.witness) <= 1e-8

    def test_validation(self):
        s = builtin_case("thm1-claim")
        with pytest.raises(DomainError):
            scan(s, seed=0, jobs=0)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                scan(s, seed=0, tol=tol)
        with pytest.raises(DomainError):
            ScanBudget(grid_points=0)

    def test_stats_shape(self):
        v = scan(builtin_case("thm1-lambda2"), budget=small_budget(), seed=0)
        stats = v.stats
        assert stats["seed"] == 0
        assert stats["freeCoordinates"] == 3
        assert stats["gridCells"] <= 60_000
        assert isinstance(stats["snappedExact"], bool)

    def test_verdict_json(self):
        v = scan(builtin_case("thm1-lambda2"), budget=small_budget(), seed=0)
        payload = v.to_json_dict()
        assert payload["status"] == "WITNESS"
        assert payload["witness"] == [0.0, 0.0, 2.0, 2.0]
        assert "violations" in payload


class TestExcessKernel:
    @staticmethod
    def kernel_and_point(system, seed):
        ev = _PenaltyEvaluator(system)
        box = math.sqrt(float(system.norm_a2_target))
        rng = random.Random(seed)
        return ev, [rng.uniform(-box, box) for _ in ev.free0]

    @pytest.mark.parametrize("system", [builtin_case("thm2-claim"), planted_system()],
                             ids=["thm2-claim", "float-custom"])
    def test_jacobian_matches_central_differences(self, system):
        ev, x = self.kernel_and_point(system, seed=11)
        x = np.array(x)
        slope, _ = ev.sections(x[None, :], range(len(x)))
        for j in range(len(x)):
            up, down = x.copy(), x.copy()
            up[j] += 1e-3
            down[j] -= 1e-3
            fd = (ev.excess(up) - ev.excess(down))[0] / 2e-3
            np.testing.assert_allclose(
                slope[j, 0], fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())

    def test_sections_reproduce_excess(self):
        ev, x = self.kernel_and_point(builtin_case("thm2-claim"), seed=4)
        x = np.array([x, [0.5 * v for v in x]])
        slope, offset = (a[0] for a in ev.sections(x, [1]))
        for t in (-2.0, 0.3, 1.7):
            moved = x.copy()
            moved[:, 1] = t
            direct = ev.excess(moved)
            np.testing.assert_allclose(
                slope * t + offset, direct, rtol=1e-12, atol=1e-12 * np.abs(direct).max())

    def test_gauss_newton_rows_do_not_interact(self):
        # Rows run in lockstep; each must end where it ends when run alone,
        # and none may end with a higher penalty than it started with.
        system = planted_system()
        ev = _PenaltyEvaluator(system)
        box = math.sqrt(float(system.norm_a2_target))
        x = np.random.default_rng(3).uniform(-box, box, size=(6, len(ev.free0)))
        batch = _gauss_newton(ev, x)
        for start, end in zip(x, batch):
            np.testing.assert_array_equal(_gauss_newton(ev, start[None, :])[0], end)
        assert np.all(ev.penalty(batch) <= ev.penalty(x))


class TestCertificates:
    def test_has_certificate(self):
        assert has_certificate(builtin_case("thm1-claim"))
        assert has_certificate(builtin_case("thm1-lambda2"))
        assert has_certificate(builtin_case("thm2-claim"))
        assert not has_certificate(builtin_case("thm2-lambda3"))
        assert not has_certificate(builtin_case("thm2-lambda2"))

    def test_closed_form_frozen_values(self):
        f = Fraction
        assert closed_form_contradiction(
            builtin_case("thm1-claim"), (f(0), f(2), f(0), f(2))) == 4
        assert closed_form_contradiction(
            builtin_case("thm1-lambda2"), (f(0), f(0), f(2), f(2))) == 0
        assert closed_form_contradiction(
            builtin_case("thm1-lambda2"), (f(1), f(1), f(1), f(1))) == 2
        assert closed_form_contradiction(
            builtin_case("thm2-claim"),
            (f(0), f(0), f(0), f(5, 2), f(5, 2))) == f(25, 4)

    def test_closed_form_float_points(self):
        value = closed_form_contradiction(
            builtin_case("thm1-claim"), (0.0, 2.0, 0.0, 2.0))
        assert isinstance(value, float) and value == pytest.approx(4.0)

    def test_closed_form_identity_on_equality_samples(self):
        s = builtin_case("thm1-claim")
        for x in certificate_samples(s, seed=1, count=50):
            value = closed_form_contradiction(s, x)
            assert value == pytest.approx(x[1] * x[1] - x[0] * x[3], abs=1e-9)

    def test_unsupported_cases_raise(self):
        with pytest.raises(UnsupportedCaseError):
            closed_form_contradiction(builtin_case("thm2-lambda3"), (0,) * 5)
        with pytest.raises(UnsupportedCaseError):
            certificate_samples(builtin_case("thm2-lambda2"))

    def test_sample_count_must_be_positive(self):
        for call in (certificate_samples, certificate_check):
            with pytest.raises(DomainError):
                call(builtin_case("thm1-claim"), count=0)

    def test_infeasibility_without_samples_fails(self):
        # at R = 5H^2 the equalities force a negative sum of squares
        for name in ("thm1-claim", "thm2-claim"):
            rep = certificate_check(builtin_case(name, H=1, R=5), seed=0, count=50)
            assert rep.kind == "infeasibility"
            assert rep.samples == 0
            assert not rep.passed
            assert "no sample was drawn" in rep.detail

    def test_report_without_samples_is_strict_json(self):
        payload = certificate_check(builtin_case("thm1-claim", H=1, R=5),
                                    seed=0, count=50).to_json_dict()
        assert payload["margin"] is None
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload

    def test_samples_satisfy_equalities(self):
        for name in ("thm1-claim", "thm1-lambda2", "thm2-claim"):
            s = builtin_case(name)
            pts = certificate_samples(s, seed=2, count=100)
            assert len(pts) == 100
            for x in pts[:20]:
                assert sum(x) == pytest.approx(float(s.trace_target), abs=1e-8)
                assert oracles.sigma_subsets(list(x), 2) == pytest.approx(
                    float(s.sigma2_target), abs=1e-7)

    def test_first_sample_sits_at_the_anchor(self):
        # anchors in units of H, here H = 3/4: x_2 = 2H, x_4 = 2H, x_2 = x_3 = 0
        anchors = {"thm1-claim": {1: 1.5}, "thm1-lambda2": {3: 1.5},
                   "thm2-claim": {1: 0.0, 2: 0.0}}
        for name, coords in anchors.items():
            first = certificate_samples(builtin_case(name, H=Fraction(3, 4)), seed=5)[0]
            assert {i: first[i] for i in coords} == coords

    def test_certificate_checks_pass(self):
        for name in ("thm1-claim", "thm1-lambda2", "thm2-claim"):
            rep = certificate_check(builtin_case(name), seed=0, count=300)
            assert rep.passed, rep.detail
            assert rep.samples == 300
        rep = certificate_check(builtin_case("thm2-claim"), seed=0, count=300)
        assert rep.kind == "infeasibility"
        assert rep.feasible_samples == 0
        # the squeeze keeps a gap of at least 5RH = 25/8
        assert rep.margin >= 0.0

    def test_witness_pinning_kind(self):
        rep = certificate_check(builtin_case("thm1-lambda2"), seed=0, count=300)
        assert rep.kind == "witness-pinning"
        assert rep.feasible_samples >= 1

    def test_report_json(self):
        payload = certificate_check(builtin_case("thm1-claim"),
                                    seed=0, count=100).to_json_dict()
        assert payload["passed"] is True
        assert set(payload) == {"case", "kind", "samples", "feasibleSamples",
                                "maxIdentityResidual", "margin", "passed", "detail"}


class TestPctSets:
    def test_two_sided_consistent(self):
        values = [-0.5, -0.25, -1e-10, 1e-10, 0.3, 0.9]
        rep = pct_sets(values)
        assert rep.verdict == "CONSISTENT"
        assert rep.condition == "two-sided"

    def test_two_sided_violated(self):
        rep = pct_sets([-0.5, 0.7, 1e-13])
        assert rep.verdict == "VIOLATED"
        assert "0.7" in rep.detail

    def test_one_sided_reports_gap(self):
        rep = pct_sets([0.2, 0.5, 0.9])
        assert rep.verdict == "CONSISTENT"
        assert rep.condition == "one-sided"
        assert rep.max_gap == pytest.approx(0.4)

    def test_one_sided_includes_zero_in_gap(self):
        rep = pct_sets([0.0, 0.4])
        assert rep.max_gap == pytest.approx(0.4)

    def test_planar(self):
        rep = pct_sets([0.0, 1e-14, -1e-15])
        assert rep.verdict == "PLANAR"
        assert rep.zero_count == 3

    def test_exact_values_promoted(self):
        rep = pct_sets([Fraction(-1, 2), Fraction(1, 2), Fraction(0)])
        assert rep.condition == "two-sided"
        assert rep.verdict == "VIOLATED"

    def test_validation(self):
        with pytest.raises(DomainError):
            pct_sets([])
        with pytest.raises(DomainError):
            pct_sets([1.0], zero_tol=-1.0)

    def test_nan_value_is_rejected_not_counted_as_zero(self):
        with pytest.raises(DomainError):
            pct_sets([math.nan, 0.5])
        with pytest.raises(DomainError):
            pct_sets([math.inf, 0.5])

    def test_nan_zero_tolerance_is_rejected(self):
        with pytest.raises(DomainError):
            pct_sets([0.5, -0.5], zero_tol=math.nan)

    def test_non_finite_approach_tolerance_is_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                pct_sets([-1e-10, 1e-10], approach_tol=bad)

    def test_cylinder_value_set_is_one_sided(self):
        rng = random.Random(401)
        sample = [0.0] * 5 + [2.0 + 1e-12 * rng.random() for _ in range(5)]
        rep = pct_sets(sample)
        assert rep.condition == "one-sided"
        assert rep.verdict == "CONSISTENT"
        assert rep.max_gap == pytest.approx(2.0)
