import dataclasses
import itertools
import json
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hypercurv import caseverify, spectrum
from hypercurv.caseverify import (
    BUILTIN_CASES,
    _PenaltyEvaluator,
    _PrefixBound,
    _cells_at_most,
    _grid_cells,
    _grid_top,
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
from hypercurv.spectrum import sigma


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
        for payload in ("x", [1, 2], None, 3):
            with pytest.raises(DomainError, match="must be a JSON object"):
                ConstraintSystem.from_json_dict(payload)
        # a field of the wrong JSON type is refused, not cast to another input
        good = builtin_case("thm1-lambda2").to_json_dict()
        for change in [{"ordering": "false"}, {"ordering": 0}, {"n": 4.7}, {"n": True},
                       {"fixedZeros": [2.9]}, {"fixedZeros": [True]}, {"fixedZeros": "2"},
                       {"signConstraints": [{"index": 3.5, "relation": ">0"}]},
                       {"signConstraints": {"index": 3, "relation": ">0"}},
                       {"extraSymmetric": [{"r": 3.9, "relation": ">=0"}]},
                       {"extraSymmetric": "sigma3>=0"}, {"name": 5}]:
            with pytest.raises(DomainError, match="malformed system payload: .* must be"):
                ConstraintSystem.from_json_dict({**good, **change})
        # a misspelled key is refused, not read as a missing field, and a
        # boolean is no scalar
        for change, message in [
                ({"fixedZero": [2]}, "unknown system keys: fixedZero; known: "),
                ({"signConstraints": [{"index": 3, "relaton": ">0"}]},
                 "unknown sign constraint keys: relaton; known: index, relation"),
                ({"extraSymmetric": [{"r": 3, "relation": ">=0", "strict": False}]},
                 "unknown symmetric constraint keys: strict; known: r, relation"),
                ({"signConstraints": ["lambda3>0"]}, "a sign constraint must be a JSON object"),
                ({"traceTarget": True}, "not a scalar: True"),
                ({"sigma2Target": False}, "not a scalar: False")]:
            with pytest.raises(DomainError, match=message):
                ConstraintSystem.from_json_dict({**good, **change})
        with pytest.raises(DomainError, match="unknown system keys: fixedZero"):
            ConstraintSystem.from_json_dict(
                {"n": 4, "traceTarget": "4", "sigma2Target": "4", "fixedZero": [2]})

    def test_norm_a2_negative_detected(self):
        # trace 0 with positive sigma2 forces sum of squares < 0
        s = ConstraintSystem(3, 0, 3)
        v = scan(s, budget=small_budget(1000), seed=0)
        assert v.status == "NO_WITNESS"
        assert v.stats["gridCells"] == 0


class TestBoundTables:
    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("H", [Fraction(-3, 2), 0, Fraction(5, 4)])
    def test_exact_side_bounds_match_the_search_side(self, regime, H):
        # Each Relation has one bound on the exact side (``_ViolationPlan``)
        # and one on the search side (``Relation.bound``), encoded apart.
        n = len(Relation)
        trace = n * H if regime is Regime.EXACT else float(n * H)
        system = ConstraintSystem(
            n, trace, -1 if regime is Regime.EXACT else -1.0, ordering=False,
            sign_constraints=tuple(SignConstraint(i, rel) for i, rel in enumerate(Relation, 1)),
            extra_symmetric=(SymmetricSignConstraint(3, Relation.GE_ZERO),
                             SymmetricSignConstraint(4, Relation.LE_ZERO)))
        h = float(system.mean_curvature)
        relations = list(Relation) + [Relation.GE_ZERO, Relation.LE_ZERO]
        for plan, num in ((system._exact_plan, Fraction), (system._float_plan, float)):
            bounds = [b for _, _, b in plan.signs] + [b for _, b in plan.symmetric]
            assert len(bounds) == len(relations)
            for relation, (lower, t, closure) in zip(relations, bounds):
                assert type(t) is num and type(closure) is num
                assert (lower, float(t)) == relation.bound(h)
                strict = {Relation.GT_ZERO: 1, Relation.LT_ZERO: -1}.get(relation, 0)
                assert closure == t - strict * num(STRICT_MARGIN)


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

    def test_one_sigma_pass_per_point(self, monkeypatch):
        # sigma_2 and every sigma_r bound come from one lift of the point and
        # equal what a separate spectrum.sigma call gives, EXACT and FLOAT
        lifts = []
        lift = spectrum._lift
        monkeypatch.setattr(spectrum, "_lift", lambda *a: lifts.append(1) or lift(*a))
        rng = random.Random(21)
        systems = [builtin_case(name, H=Fraction(7, 5)) for name in BUILTIN_CASES]
        systems += [_random_float_system(rng, free) for free in (1, 4, 9) for _ in range(4)]
        for system in systems:
            exact = system.regime is Regime.EXACT
            for _ in range(10):
                x = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) if exact
                     else rng.uniform(-4.0, 4.0) for _ in range(system.n)]
                lifts.clear()
                viol = constraint_violations(system, x)
                assert len(lifts) == 1
                assert viol["sigma2"] == abs(sigma(x, 2) - system.sigma2_target)
                for ex in system.extra_symmetric:
                    s = sigma(x, ex.r)
                    want = max(0 * s, -s if ex.relation is Relation.GE_ZERO else s)
                    assert viol[f"sigma{ex.r}{ex.relation.value}"] == want

    def test_float_sigma_n_overflow_raises_only_where_it_is_used(self):
        # sigma_2 and sigma_3 of this point fit a double, sigma_4 and sigma_5
        # do not; only a system that bounds sigma_4 needs it
        x = (1e80,) * 5
        s3 = ConstraintSystem(5, 1.0, 1.0, ordering=False, extra_symmetric=(
            SymmetricSignConstraint(3, Relation.GE_ZERO),))
        viol = constraint_violations(s3, x)
        assert viol["sigma2"] == abs(sigma(x, 2) - 1.0)
        assert viol["sigma3>=0"] == 0.0
        s4 = ConstraintSystem(5, 1.0, 1.0, ordering=False, extra_symmetric=(
            SymmetricSignConstraint(4, Relation.GE_ZERO),))
        with pytest.raises(DomainError, match="not a finite number"):
            constraint_violations(s4, x)

    def test_mixed_point_rejected(self):
        s = builtin_case("thm1-lambda2")
        with pytest.raises(RegimeError):
            constraint_violations(s, (Fraction(0), 0.0, Fraction(2), 2.0))

    @staticmethod
    def assert_same_violations(system, x):
        # keys, key order, value types and bits against the per-call oracle
        got = constraint_violations(system, x)
        want = oracles.constraint_violations_per_call(system, x)
        assert list(got) == list(want)
        for key, value in want.items():
            assert type(got[key]) is type(value), key
            if isinstance(value, float):
                assert got[key].hex() == value.hex(), key
            else:
                assert got[key] == value, key

    @staticmethod
    def planned_systems(rng):
        systems = [builtin_case(name, H=H) for name in BUILTIN_CASES
                   for H in (Fraction(1, 1000), Fraction(3, 4), 1, Fraction(7, 5), 1000, 0.75)]
        systems += [_random_float_system(rng, free) for free in (1, 4, 9) for _ in range(4)]
        systems.append(ConstraintSystem(6, Fraction(3, 2), -4, ordering=False, extra_symmetric=tuple(
            SymmetricSignConstraint(r, Relation.GE_ZERO if r % 2 else Relation.LE_ZERO)
            for r in range(2, 7))))
        return systems

    def test_planned_evaluator_matches_the_per_call_one(self):
        rng = random.Random(41)
        for system in self.planned_systems(rng):
            box = math.sqrt(max(float(system.norm_a2_target), 0.0)) + 1.0
            for _ in range(12):
                self.assert_same_violations(
                    system, [rng.uniform(-box, box) for _ in range(system.n)])
                self.assert_same_violations(
                    system, [Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                             for _ in range(system.n)])
                # signed zeros, in floats and as plain ints
                self.assert_same_violations(
                    system, [rng.choice((0.0, -0.0, rng.uniform(-box, box)))
                             for _ in range(system.n)])
                self.assert_same_violations(
                    system, [rng.choice((0, rng.randint(-3, 3))) for _ in range(system.n)])

    @pytest.mark.parametrize("H", [Fraction(1, 2), 1, 0.75], ids=str)
    def test_planned_evaluator_on_certificate_samples(self, H):
        for name in BUILTIN_CASES:
            system = builtin_case(name, H=H)
            if has_certificate(system):
                for x in certificate_samples(system, seed=3, count=300):
                    self.assert_same_violations(system, x)

    def test_each_system_has_its_own_plan(self):
        # Equal systems in the two regimes share eq and hash but not H: 4/3
        # against the double nearest it, which an EXACT point tells apart.
        exact = ConstraintSystem(3, 4, 5, sign_constraints=(
            SignConstraint(3, Relation.GE_H),))
        floating = ConstraintSystem(3, 4.0, 5.0, sign_constraints=(
            SignConstraint(3, Relation.GE_H),))
        assert exact == floating and hash(exact) == hash(floating)
        x = (Fraction(1), Fraction(1), Fraction(1))
        for system in (exact, floating, exact, floating):
            self.assert_same_violations(system, x)
        assert (constraint_violations(exact, x)["lambda3>=H"]
                != constraint_violations(floating, x)["lambda3>=H"])
        # Systems built and dropped in turn (CPython reuses their ids) each
        # get their own targets.
        rng = random.Random(8)
        for _ in range(40):
            system = ConstraintSystem(
                4, Fraction(rng.randint(-20, 20), 3), Fraction(rng.randint(-20, 20), 7),
                sign_constraints=(SignConstraint(4, Relation.GE_H),),
                extra_symmetric=(SymmetricSignConstraint(3, Relation.LE_ZERO),))
            self.assert_same_violations(system, [Fraction(rng.randint(-9, 9), 2) for _ in range(4)])
            del system


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

    @pytest.mark.parametrize("seed", [-1, 1.5, False, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        system = builtin_case("thm1-claim")
        for call in (lambda: scan(system, budget=small_budget(1000), seed=seed),
                     lambda: certificate_check(system, seed=seed, count=10),
                     lambda: certificate_samples(system, seed=seed, count=10)):
            with pytest.raises(DomainError, match="seed must be an integer >= 0"):
                call()

    @pytest.mark.parametrize("call", [
        lambda: ScanBudget(grid_points=2000.5),
        lambda: ScanBudget(grid_points=0),
        lambda: ScanBudget(polish_starts=64.0),
        lambda: ScanBudget(polish_rounds=-3),
        lambda: ScanBudget(polish_rounds="24"),
        lambda: certificate_check(builtin_case("thm1-claim"), count=10.0),
        lambda: certificate_samples(builtin_case("thm1-claim"), count=10.0),
        lambda: certificate_check(builtin_case("thm1-claim"), count=0),
        lambda: ScanBudget(grid_points=True, polish_starts=True, polish_rounds=True),
        lambda: ScanBudget(polish_rounds=True),
        lambda: certificate_check(builtin_case("thm1-claim"), count=True),
        lambda: certificate_samples(builtin_case("thm1-claim"), seed=False, count=True),
    ], ids=["grid-half", "grid-zero", "starts-float", "rounds-negative",
            "rounds-string", "check-count-float", "samples-count-float", "count-zero",
            "budget-bools", "rounds-bool", "check-count-bool", "samples-count-bool"])
    def test_budgets_and_counts_must_be_positive_integers(self, call):
        with pytest.raises(DomainError, match="must be an integer >= 1"):
            call()

    def test_budget_has_no_descent_rounds(self):
        # The grid's cells go straight to the polish: no coarse descent stage.
        with pytest.raises(TypeError):
            ScanBudget(descent_rounds=2)

    def test_numpy_integers_are_integers(self):
        budget = ScanBudget(grid_points=np.int64(1000), polish_starts=np.int32(8))
        assert scan(builtin_case("thm1-lambda2"), budget=budget, seed=0).status == "WITNESS"
        assert len(certificate_samples(builtin_case("thm1-claim"), count=np.int64(5))) == 5

    def test_claims_stay_infeasible(self):
        for name in ("thm1-claim", "thm2-claim"):
            v = scan(builtin_case(name), budget=small_budget(), seed=0)
            assert v.status == "NO_WITNESS"
            assert v.residual > 1e-3  # genuinely far from feasible
            assert v.witness is None

    @pytest.mark.parametrize("cells", [2_000, 60_000])
    @pytest.mark.parametrize("system", [
        *(builtin_case(name, H=H) for name in BUILTIN_CASES
          for H in (Fraction(1, 2), 1, 1000)),
        planted_system(),
    ], ids=lambda s: f"{s.name}-H{s.mean_curvature}" if s.name else "float-custom")
    def test_result_does_not_depend_on_the_seed(self, system, cells):
        # No stage of the search reads the seed; it is only echoed in stats.
        def result(seed):
            payload = scan(system, budget=small_budget(cells), seed=seed).to_json_dict()
            assert payload["stats"].pop("seed") == seed
            return payload

        first = result(0)
        assert result(1) == first
        assert result(5) == first

    def test_witness_double_entry(self):
        # hand-built feasible system: x = (1, 1, 2) solves both equalities
        s = ConstraintSystem(3, 4, 5, sign_constraints=(
            SignConstraint(1, Relation.GT_ZERO),))
        v = scan(s, budget=small_budget(), seed=0)
        assert v.status == "WITNESS"
        assert max_violation(s, v.witness) <= 1e-8

    def test_validation(self):
        s = builtin_case("thm1-claim")
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                scan(s, seed=0, tol=tol)
        with pytest.raises(DomainError):
            ScanBudget(grid_points=0)

    def test_penalty_overflow_refused_before_the_grid(self):
        # thm1-claim has sigma_2 terms only, whose squares fit at H = 1e50;
        # thm2-claim's sigma_4 term squares past the double range.
        v = scan(builtin_case("thm1-claim", H=10 ** 50), budget=small_budget(1000), seed=1)
        assert math.isfinite(v.stats["bestPenalty"])
        with pytest.raises(DomainError, match="penalty can overflow a double"):
            scan(builtin_case("thm2-claim", H=10 ** 50), budget=small_budget(1000), seed=1)

    @pytest.mark.parametrize("n", [63, 70])
    def test_grid_past_the_flat_index_refused(self, n):
        # two points per axis give 2^n cells, past the int64 flat index
        with pytest.raises(DomainError, match="cannot be indexed"):
            scan(ConstraintSystem(n, 1.0, 0.0), budget=small_budget(1000), seed=1)

    def test_grid_budget_past_the_flat_index_refused(self):
        # four free coordinates fit any index; 10^21 cells do not, and the
        # message blames the budget, not the coordinates
        with pytest.raises(DomainError, match="cannot be indexed") as raised:
            scan(builtin_case("thm2-claim"), budget=small_budget(10 ** 21), seed=1)
        assert "177827^4" in str(raised.value) and "grid_points" in str(raised.value)
        assert "free coordinates" not in str(raised.value)

    def test_every_coordinate_pinned(self):
        # no free coordinate: the one point is all zeros, feasible exactly
        # when both targets are 0
        for trace, status in ((0, "WITNESS"), (1, "NO_WITNESS")):
            v = scan(ConstraintSystem(3, trace, 0, fixed_zeros={1, 2, 3}), seed=1)
            assert v.status == status and v.best_point == (0.0, 0.0, 0.0)
            assert v.stats["gridCells"] == 1

    @pytest.mark.parametrize("name", ["thm1-claim", "thm2-claim", "thm2-lambda2"])
    def test_excess_bound_covers_the_box(self, name):
        ev = _PenaltyEvaluator(builtin_case(name, H=Fraction(7, 3)))
        reach = 5.0
        rng = np.random.default_rng(11)
        x = rng.uniform(-reach, reach, size=(4000, len(ev.free0)))
        x[:8] = np.sign(x[:8]) * reach  # corners, where the sigma_r peak
        assert np.abs(ev.excess(x)).max() <= ev.excess_bound(reach)

    def test_stats_shape(self):
        v = scan(builtin_case("thm1-lambda2"), budget=small_budget(), seed=0)
        stats = v.stats
        assert set(stats) == {"seed", "freeCoordinates", "gridCells", "axisPoints",
                              "coarseStarts", "bestPenalty", "snappedExact"}
        assert stats["seed"] == 0
        assert stats["freeCoordinates"] == 3
        assert stats["gridCells"] <= 60_000
        assert isinstance(stats["snappedExact"], bool)

    @pytest.mark.parametrize("system, budget", [
        (builtin_case("thm2-lambda2"), small_budget()),
        (planted_system(), ScanBudget(grid_points=20_000)),
        (planted_system(), ScanBudget(grid_points=300, polish_starts=1000)),
    ], ids=["thm2-lambda2", "float-custom", "starts-past-the-grid"])
    def test_polish_starts_from_the_grid(self, system, budget):
        stats = scan(system, budget=budget, seed=0).stats
        assert stats["coarseStarts"] == min(budget.polish_starts, stats["gridCells"])

    def test_polish_pick_at_penalty_zero_goes_straight_to_the_snap(self):
        # custom-scans seed 2's custom-0 (bench/workloads.py) at its bench
        # budget.  Its polish pick sits at penalty exactly 0, and no stage
        # after Gauss-Newton may move it off: one more descent and
        # Gauss-Newton pass there would leave it at 3.2e-30.
        system = ConstraintSystem.from_json_dict({
            "name": "custom-0", "n": 10, "regime": "float",
            "traceTarget": 11.623707487670726, "sigma2Target": 52.71321980477207,
            "fixedZeros": [2], "ordering": True,
            "signConstraints": [{"index": 5, "relation": ">0"},
                                {"index": 6, "relation": ">=0"},
                                {"index": 7, "relation": ">=0"},
                                {"index": 10, "relation": ">=H"}],
            "extraSymmetric": [{"r": 8, "relation": "<=0"}]})
        v = scan(system, budget=ScanBudget(grid_points=500), seed=242886303)
        assert v.status == "WITNESS"
        assert v.stats["bestPenalty"] == 0.0

    @pytest.mark.parametrize("payload, seed", [
        ({"name": "custom-0", "n": 10, "regime": "float",
          "traceTarget": -9.615055239220833, "sigma2Target": 36.10166831767642,
          "fixedZeros": [8], "ordering": True,
          "signConstraints": [{"index": 1, "relation": "<0"}, {"index": 4, "relation": "<=0"},
                              {"index": 5, "relation": "<=0"}, {"index": 10, "relation": ">=0"}],
          "extraSymmetric": [{"r": 3, "relation": "<=0"}]}, 1942955373),
        ({"name": "custom-0", "n": 10, "regime": "float",
          "traceTarget": -8.365370800907135, "sigma2Target": 22.55420552665264,
          "fixedZeros": [7], "ordering": True,
          "signConstraints": [{"index": 1, "relation": "<=0"}, {"index": 4, "relation": "<=0"},
                              {"index": 5, "relation": "<=0"}, {"index": 6, "relation": "<=0"}],
          "extraSymmetric": [{"r": 3, "relation": "<=0"}]}, 708452615),
        pytest.param(
            {"name": "custom-0", "n": 10, "regime": "float",
             "traceTarget": 10.23801116870038, "sigma2Target": 45.37009718760421,
             "fixedZeros": [1], "ordering": True,
             "signConstraints": [{"index": 2, "relation": ">0"}, {"index": 6, "relation": ">0"},
                                 {"index": 8, "relation": ">=0"},
                                 {"index": 9, "relation": ">=0"}],
             "extraSymmetric": [{"r": 3, "relation": ">=0"}]}, 1245182509,
            marks=pytest.mark.xfail(strict=True, reason=(
                "ends NO_WITNESS at residual 21.1 on the full [-|A|, |A|] axes; "
                "awaits the propagated box (ROADMAP item 3)"))),
    ], ids=["custom-scans-seed-11", "custom-scans-seed-21", "custom-scans-seed-23"])
    def test_planted_systems_at_two_points_per_axis_are_found(self, payload, seed):
        # custom-scans' custom-0 of seeds 11, 21 and 23 (bench/workloads.py),
        # built around a feasible point, at their bench budget and scan seed:
        # 2^9 cells.  A coordinate-descent stage between the grid and
        # Gauss-Newton left seeds 11 and 21 at NO_WITNESS, residual 19.6 and
        # 16.0; seed 23 still ends there.
        system = ConstraintSystem.from_json_dict(payload)
        v = scan(system, budget=ScanBudget(grid_points=500), seed=seed)
        assert v.status == "WITNESS"
        assert max_violation(system, v.witness) <= 1e-8

    @pytest.mark.parametrize("H", [Fraction(1, 2), 1, Fraction(3, 2), 2], ids=str)
    @pytest.mark.parametrize("name", ["thm1-lambda2", "thm2-lambda2", "thm2-lambda3"])
    def test_exact_scan_returns_its_first_exact_snap(self, name, H):
        system = builtin_case(name, H=H)
        v = scan(system, budget=small_budget(20_000), seed=1)
        assert v.witness == tuple(float(w) for w in expected_outcome(system).witness)
        assert v.stats["snappedExact"] is True
        assert v.residual == 0

    @pytest.mark.parametrize("H", [Fraction(1, 2), 1, Fraction(3, 2), 2], ids=str)
    @pytest.mark.parametrize("name", ["thm2-lambda2", "thm2-lambda3"])
    def test_exact_snap_ends_gauss_newton(self, monkeypatch, name, H):
        # Without the early stop these batches run all 40 lockstep
        # iterations, one jacobian call each, after a pick already snaps.
        calls = []
        jacobian = _PenaltyEvaluator.jacobian
        monkeypatch.setattr(_PenaltyEvaluator, "jacobian",
                            lambda ev, x: calls.append(len(x)) or jacobian(ev, x))
        v = scan(builtin_case(name, H=H), budget=small_budget(20_000), seed=1)
        assert v.status == "WITNESS" and v.stats["snappedExact"]
        assert len(calls) < 40

    @pytest.mark.parametrize("H", [Fraction(1, 2), 1, Fraction(3, 2), 2], ids=str)
    @pytest.mark.parametrize("name, ratio", [
        ("thm1-claim", None), ("thm2-claim", None),
        ("thm1-lambda2", Fraction(3, 4)), ("thm2-lambda2", Fraction(9, 10)),
    ], ids=["thm1-claim", "thm2-claim", "thm1-lambda2-R3/4", "thm2-lambda2-R9/10"])
    def test_no_snap_repeats_the_one_before(self, monkeypatch, name, ratio, H):
        # An EXACT scan with no rational witness snaps its Gauss-Newton picks,
        # all of which fail; the final pick is snapped once, not again after
        # Gauss-Newton, and it is the best point returned.  The two lambda2
        # cases sit above their largest feasible R (2/3 and 5/6 H^2), where
        # the interval proof leaves them open; the claims are proved empty
        # before the search, so they reach it only with the proof turned off.
        if ratio is None:
            monkeypatch.setattr(caseverify, "_proved_empty", lambda system: False)
        snaps = []
        snap = caseverify._exact_snap
        monkeypatch.setattr(caseverify, "_exact_snap",
                            lambda ev, x: snaps.append(x.tobytes()) or snap(ev, x))
        system = builtin_case(name, H=H, R=None if ratio is None else ratio * H * H)
        assert not caseverify._proved_empty(system)
        v = scan(system, budget=small_budget(20_000), seed=1)
        assert v.status == "NO_WITNESS" and v.stats["snappedExact"] is False
        assert snaps and all(a != b for a, b in zip(snaps, snaps[1:]))
        free = _PenaltyEvaluator(system).free0
        assert [v.best_point[j] for j in free] == np.frombuffer(snaps[-1]).tolist()

    def test_float_system_snaps_once(self, monkeypatch):
        # FLOAT snaps practically never verify, so a FLOAT scan snaps only
        # its final Gauss-Newton pick.
        snaps = []
        snap = caseverify._exact_snap
        monkeypatch.setattr(caseverify, "_exact_snap",
                            lambda ev, x: snaps.append(1) or snap(ev, x))
        for budget in (ScanBudget(grid_points=20_000), ScanBudget(grid_points=500)):
            snaps.clear()
            assert scan(planted_system(), budget=budget, seed=0).status == "WITNESS"
            assert len(snaps) == 1

    def test_verdict_json(self):
        v = scan(builtin_case("thm1-lambda2"), budget=small_budget(), seed=0)
        payload = v.to_json_dict()
        assert payload["status"] == "WITNESS"
        assert payload["witness"] == [0.0, 0.0, 2.0, 2.0]
        assert "violations" in payload


def planted_exact_system(rng, lower_sigma2=False):
    # An EXACT system built around a rational point x (n 3-10): its trace and
    # sigma_2, pinned zeros and sign bounds that hold at x (strict ones only
    # where x is off zero, >=H wherever x_i >= H) and sigma_r signs read off
    # x; a quarter of them unordered, around a shuffled x.  With
    # ``lower_sigma2`` the sigma_2 target drops by 1 + |sigma_2|, which may
    # leave the system empty.
    n = rng.randint(3, 10)
    zeros = rng.randint(0, n - 1)
    negatives = rng.randint(0, n - zeros)
    value = lambda: Fraction(rng.randint(1, 40), rng.randint(1, 12))
    x = (sorted(-value() for _ in range(negatives)) + [Fraction(0)] * zeros
         + sorted(value() for _ in range(n - zeros - negatives)))
    ordering = rng.random() < 0.75
    if not ordering:
        rng.shuffle(x)
    fixed = {i + 1 for i, v in enumerate(x) if v == 0 and rng.random() < 0.6}
    h = sum(x) / n
    loose = [i for i in range(1, n + 1) if i not in fixed]
    signs = []
    for i in sorted(rng.sample(loose, len(loose) // 2)):
        v = x[i - 1]
        options = ([Relation.LE_ZERO, Relation.LT_ZERO] if v < 0 else
                   [Relation.GE_ZERO, Relation.GT_ZERO] if v > 0 else
                   [Relation.GE_ZERO, Relation.LE_ZERO])
        signs.append(SignConstraint(i, Relation.GE_H if v >= h and rng.random() < 0.5
                                    else rng.choice(options)))
    extra = []
    for r in sorted(rng.sample(range(3, n + 1), rng.randint(0, min(2, n - 2)))):
        s_r = oracles.sigma_subsets(x, r)
        extra.append(SymmetricSignConstraint(
            r, Relation.GE_ZERO if s_r > 0 or (s_r == 0 and rng.random() < 0.5)
            else Relation.LE_ZERO))
    s2 = oracles.sigma_subsets(x, 2)
    system = ConstraintSystem(n, sum(x), s2 - (1 + abs(s2)) if lower_sigma2 else s2,
                              fixed_zeros=fixed, ordering=ordering,
                              sign_constraints=tuple(signs), extra_symmetric=tuple(extra))
    assert lower_sigma2 or max_violation(system, x) == 0
    return system


class TestIntervalProof:
    def test_planted_systems_are_never_proved_empty(self):
        rng = random.Random(20261020)
        for _ in range(200):
            system = planted_exact_system(rng)
            assert not caseverify._proved_empty(system), system.to_json_dict()

    def test_lowered_sigma2_is_proved_empty_somewhere(self):
        # Not every lowered system is empty, but the proof must bite on some,
        # or the test above would pass with a proof that never proves.
        rng = random.Random(20261020)
        proved = sum(caseverify._proved_empty(planted_exact_system(rng, lower_sigma2=True))
                     for _ in range(200))
        assert 0 < proved < 200

    def test_decision_does_not_depend_on_h(self):
        # Every system is homogeneous: x -> t x maps the case at H onto the
        # case at t H, so the proof decides each case the same way at every H.
        for name in BUILTIN_CASES:
            decisions = {caseverify._proved_empty(builtin_case(name, H=H))
                         for H in (Fraction(1, 10 ** 6), Fraction(1, 1000), 1, 1000, 10 ** 6)}
            assert decisions == {name.endswith("-claim")}, name

    def test_a_strict_bound_is_proved_through_its_closure(self):
        # x_1 > 0 with x_1 <= x_2 and x_1 + x_2 = 0 is empty, but its closure
        # holds at (0, 0), where sigma_2 = 0 too: no proof.  At trace -1 the
        # ordering and the trace force x_1 <= -1/2, so the closure is empty
        # as well and the proof holds.
        strict = ConstraintSystem(2, 0, 0, sign_constraints=(
            SignConstraint(1, Relation.GT_ZERO),))
        assert not caseverify._proved_empty(strict)
        assert scan(strict, budget=small_budget(1000)).status == "NO_WITNESS"
        assert caseverify._proved_empty(ConstraintSystem(2, -1, 0, sign_constraints=(
            SignConstraint(1, Relation.GT_ZERO),)))

    @pytest.mark.parametrize("relation, proved", [(Relation.LE_ZERO, True),
                                                   (Relation.GE_ZERO, False)])
    def test_sigma_r_half_lines_are_checked(self, relation, proved):
        # x_1 >= H = 1 with the ordering and trace 3 leaves only (1, 1, 1),
        # where the sum of squares and sigma_2 = 3 hold; only sigma_3 = 1
        # settles the system.
        system = ConstraintSystem(
            3, 3, 3, sign_constraints=(SignConstraint(1, Relation.GE_H),),
            extra_symmetric=(SymmetricSignConstraint(3, relation),))
        assert caseverify._proved_empty(system) is proved

    def test_proved_verdict_has_the_refusal_stats(self):
        # A proved system returns as the sum-of-squares refusal does: no grid.
        proved = scan(builtin_case("thm1-claim"), budget=small_budget(), seed=3)
        refused = scan(ConstraintSystem(3, 1, 1), budget=small_budget(), seed=3)
        assert refused.stats["note"] == "equalities force a negative sum of squares"
        assert set(proved.stats) == set(refused.stats) == {
            "seed", "freeCoordinates", "gridCells", "note", "bestPenalty"}
        assert proved.stats["gridCells"] == 0
        assert proved.stats["note"] == "interval propagation proves the system empty"
        assert proved.best_point == (0.0, 0.0, 0.0, 0.0)
        assert proved.residual == 4.0 and proved.witness is None

    @pytest.mark.parametrize("name", ["thm1-claim", "thm2-claim"])
    def test_claims_skip_every_search_stage(self, monkeypatch, name):
        def forbidden(*args, **kwargs):
            raise AssertionError("a proved system reached the search")

        for stage in ("_grid_top", "_gauss_newton_states", "_exact_snap"):
            monkeypatch.setattr(caseverify, stage, forbidden)
        assert scan(builtin_case(name, H=Fraction(7, 5)), seed=1).status == "NO_WITNESS"

    @pytest.mark.parametrize("name", ["thm1-claim", "thm2-claim"])
    def test_tiny_h_claims_are_no_witness(self, name):
        # At H = 1/100000 the search polished both claims to within tol of
        # the constraints and reported a WITNESS; the proof ends them first.
        v = scan(builtin_case(name, H=Fraction(1, 100000)),
                 budget=ScanBudget(grid_points=20_000))
        assert v.status == "NO_WITNESS" and v.stats["gridCells"] == 0

    def test_a_proved_system_is_no_witness_whatever_its_residual(self):
        # The zero point of these EXACT systems is within tol of every
        # constraint, but no point satisfies them.
        tiny = scan(ConstraintSystem(2, 0, Fraction(1, 10 ** 10)), budget=small_budget(1000))
        assert tiny.residual < 1e-8 and tiny.status == "NO_WITNESS"
        loose = scan(builtin_case("thm1-claim"), budget=small_budget(1000), tol=10.0)
        assert loose.residual == 4.0 and loose.status == "NO_WITNESS"

    def test_float_systems_are_never_proved(self, monkeypatch):
        def forbidden(system):
            raise AssertionError("the proof ran on a FLOAT system")

        monkeypatch.setattr(caseverify, "_proved_empty", forbidden)
        v = scan(builtin_case("thm1-claim", H=1.0), budget=small_budget(1000), seed=1)
        assert v.status == "NO_WITNESS" and v.stats["gridCells"] == 1000


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
        jac = ev.jacobian(x[None, :])[0]
        for j in range(len(x)):
            up, down = x.copy(), x.copy()
            up[j] += 1e-3
            down[j] -= 1e-3
            fd = (ev.excess(up) - ev.excess(down))[0] / 2e-3
            np.testing.assert_allclose(
                jac[:, j], fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())

    def test_sections_reproduce_excess(self):
        # The offsets are the moving terms at x_k = 0, bit for bit, and the
        # section slope * t + offset is the excess at x_k = t to rounding.
        ev, x = self.kernel_and_point(builtin_case("thm2-claim"), seed=4)
        x = np.array([x, [0.5 * v for v in x]])
        for k in range(len(ev.free0)):
            moving = oracles.moving(ev, k)
            slope, offset = oracles.sections(ev, x, k)
            for t in (0.0, -2.0, 0.3, 1.7):
                moved = x.copy()
                moved[:, k] = t
                direct = ev.excess(moved)[:, moving]
                if t == 0.0:
                    np.testing.assert_array_equal(offset, direct)
                np.testing.assert_allclose(
                    slope * t + offset, direct, rtol=1e-12, atol=1e-12 * np.abs(direct).max())

    def test_gauss_newton_rows_do_not_interact(self):
        # Rows run in lockstep; each must end where it ends when run alone,
        # and none may end with a higher penalty than it started with.
        system = planted_system()
        ev = _PenaltyEvaluator(system)
        box = math.sqrt(float(system.norm_a2_target))
        x = np.random.default_rng(3).uniform(-box, box, size=(6, len(ev.free0)))
        batch = oracles.gauss_newton(ev, x)
        for start, end in zip(x, batch):
            np.testing.assert_array_equal(oracles.gauss_newton(ev, start[None, :])[0], end)
        assert np.all(ev.penalty(batch) <= ev.penalty(x))

    @staticmethod
    def polish_batch(system, cells=20_000, starts=64):
        # The batch the scan hands to Gauss-Newton: the grid's best
        # ``starts`` cells by (penalty, flat index).
        ev, axes = _grid(system, max(2, int(cells ** (1 / len(_PenaltyEvaluator(system).free0)))))
        _, flat, x = _grid_top(ev, axes, starts)
        return ev, x, flat

    def test_retiring_ranked_rows_keeps_the_pick(self):
        # With ranks, rows ranked after a row at penalty 0 stop early; the
        # row the scan picks, and every row ranked before it, must still end
        # bit for bit where they end without ranks.
        rng = random.Random(17)
        systems = [builtin_case(name) for name in BUILTIN_CASES]
        systems += [_random_float_system(rng, free) for free in (1, 4, 9) for _ in range(4)]
        retired = 0
        for system in systems:
            ev, x, flat = self.polish_batch(system)
            plain, ranked = oracles.gauss_newton(ev, x), oracles.gauss_newton(ev, x, ranks=flat)
            pick = np.lexsort((flat, ev.penalty(plain)))[0]
            assert np.lexsort((flat, ev.penalty(ranked)))[0] == pick
            np.testing.assert_array_equal(ranked[pick], plain[pick])
            first = flat <= flat[pick]
            np.testing.assert_array_equal(ranked[first], plain[first])
            retired += int(np.any(ranked[~first] != plain[~first]))
        assert retired >= 3  # the rule did stop some rows

    def test_rows_ranked_after_a_solved_row_stop(self):
        # thm1-lambda2 at H = 1: (x_1, x_3, x_4) = (0, 2, 2) has penalty
        # exactly 0.  It sits third in rank order; the two rows ranked before
        # it run as without ranks, the three ranked after it never move.
        ev = _PenaltyEvaluator(builtin_case("thm1-lambda2"))
        x = np.random.default_rng(5).uniform(-3.0, 3.0, size=(6, 3))
        x[2] = (0.0, 2.0, 2.0)
        ranks = np.array([5, 1, 3, 8, 0, 9])
        assert ev.penalty(x)[2] == 0.0 and np.all(np.delete(ev.penalty(x), 2) > 0.0)
        seen = []
        jacobian = ev.jacobian
        ev.jacobian = lambda rows: seen.append(len(rows)) or jacobian(rows)
        plain = oracles.gauss_newton(ev, x)
        assert seen[0] == 5
        seen.clear()
        ranked = oracles.gauss_newton(ev, x, ranks=ranks)
        assert seen[0] == 2 and max(seen) <= 2
        before, after = ranks < 3, ranks > 3
        np.testing.assert_array_equal(ranked[before], plain[before])
        np.testing.assert_array_equal(ranked[after], x[after])
        np.testing.assert_array_equal(ranked[2], x[2])

    def test_a_pick_that_snaps_before_any_iteration_ends_it(self, monkeypatch):
        # The same batch: before the first iteration the pick by (penalty,
        # rank) is the zero row, which snaps to (0, 2, 2) exactly, so no
        # lockstep iteration runs.  The pick of a batch with no such row
        # is snapped once per state whose pick row or coordinates moved.
        ev = _PenaltyEvaluator(builtin_case("thm1-lambda2"))
        x = np.random.default_rng(5).uniform(-3.0, 3.0, size=(6, 3))
        x[2] = (0.0, 2.0, 2.0)
        ranks = np.array([5, 1, 3, 8, 0, 9])
        seen, snaps = [], []
        jacobian, snap = ev.jacobian, caseverify._exact_snap
        ev.jacobian = lambda rows: seen.append(len(rows)) or jacobian(rows)
        monkeypatch.setattr(caseverify, "_exact_snap",
                            lambda ev, row: snaps.append(row.tobytes()) or snap(ev, row))
        found, exact = caseverify._first_exact_pick(
            ev, caseverify._gauss_newton_states(ev, x.copy(), ev.penalty(x), ranks=ranks), ranks)
        np.testing.assert_array_equal(found, (0.0, 2.0, 2.0))
        assert exact and seen == [] and len(snaps) == 1

        ev = _PenaltyEvaluator(builtin_case("thm1-claim"))
        x = np.delete(x, 2, axis=0)
        ranks = np.arange(5)
        picks, snaps[:] = [], []
        for y, fy in caseverify._gauss_newton_states(ev, x.copy(), ev.penalty(x), ranks=ranks):
            i = np.lexsort((ranks, fy))[0]
            picks.append((i, y[i].tobytes()))
        failed, exact = caseverify._first_exact_pick(
            ev, caseverify._gauss_newton_states(ev, x.copy(), ev.penalty(x), ranks=ranks), ranks)
        distinct = [p for k, p in enumerate(picks) if k == 0 or p != picks[k - 1]]
        assert snaps == [row for _, row in distinct]
        assert not exact and failed.tobytes() == snaps[-1]

    @staticmethod
    def systems_and_points():
        # The five built-ins and twelve random FLOAT systems (1, 4 and 9 free
        # coordinates), each with 30 random points in its box.
        rng = random.Random(13)
        systems = [builtin_case(name) for name in BUILTIN_CASES]
        systems += [_random_float_system(rng, free) for free in (1, 4, 9) for _ in range(4)]
        for i, system in enumerate(systems):
            ev = _PenaltyEvaluator(system)
            box = math.sqrt(max(float(system.norm_a2_target), 0.0))
            yield ev, np.random.default_rng(i).uniform(-box, box, size=(30, len(ev.free0)))

    def test_moving_terms_match_sections(self):
        # ``oracles.moving(ev, k)`` is the equalities, the ordering steps on
        # x_k, its sign bounds and every sigma_r bound, in column order.  A
        # term left out of it has slope exactly 0 along x_k; the trace has
        # slope 1, the ordering steps on x_k exactly +-1 and its sign bounds
        # exactly their sense.  ``sections`` gives the Jacobian's slopes on the
        # moving columns, and its offsets are the moving terms at x_k = 0.
        for ev, x in self.systems_and_points():
            system = ev.system
            jac = ev.jacobian(x)
            signs = 2 + (system.n - 1 if system.ordering else 0)
            coords = [sc.index - 1 for sc in system.sign_constraints]
            h = float(system.mean_curvature)
            for k, c in enumerate(ev.free0):
                moving = oracles.moving(ev, k)
                assert list(moving) == [
                    0, 1, *(2 + i for i in range(max(c - 1, 0), min(c + 1, signs - 2))),
                    *(signs + j for j, coord in enumerate(coords) if coord == c),
                    *range(signs + len(coords), ev.terms)]
                still = np.setdiff1d(np.arange(ev.terms), moving)
                assert np.all(jac[:, still, k] == 0.0)
                slope, offset = oracles.sections(ev, x, k)
                np.testing.assert_array_equal(slope, jac[:, moving, k])
                at_zero = x.copy()
                at_zero[:, k] = 0.0
                np.testing.assert_array_equal(offset, ev.excess(at_zero)[:, moving])
                assert np.all(jac[:, 0, k] == 1.0)
                for col in moving[2:]:
                    if col < signs:
                        step = col - 2  # x_step - x_{step+1}
                        assert np.all(jac[:, col, k] == (1.0 if step == c else -1.0))
                    elif col < signs + len(coords):
                        assert coords[col - signs] == c
                        sense, _ = oracles.search_bound(
                            system.sign_constraints[col - signs].relation, h)
                        assert np.all(jac[:, col, k] == sense)

    def test_sigma_slopes_match_the_other_coordinates(self):
        # sigma_r(x) = x_k sigma_{r-1}(x without k) + sigma_r(x without k):
        # the sigma_2 slope is sigma_1 of the other coordinates and each
        # sigma_r bound's is sense * sigma_{r-1}, against spectrum.sigma.
        for ev, x in self.systems_and_points():
            system = ev.system
            jac = ev.jacobian(x)
            bounds = ev.terms - len(system.extra_symmetric)
            senses = [oracles.search_bound(ex.relation, 0.0)[0] for ex in system.extra_symmetric]
            for i, row in enumerate(ev.full(x).tolist()):
                for k, c in enumerate(ev.free0):
                    rest = row[:c] + row[c + 1:]
                    scale = 1.0 + sum(abs(v) for v in rest) ** (ev.top - 1)
                    want = [sigma(rest, 1)] + [
                        sense * sigma(rest, ex.r - 1) if ex.r > 1 else sense
                        for ex, sense in zip(system.extra_symmetric, senses)]
                    got = [jac[i, 1, k]] + list(jac[i, bounds:, k])
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

    def test_excess_and_jacobian_match_the_column_encoding(self):
        # The workspace plan gives, bit for bit, the excess and the slopes
        # that writing each kind of term into its own columns gives, and
        # the excess keeps each row's terms together, as _sum_squares sums them.
        for ev, x in self.systems_and_points():
            x[::4, 0] = -0.0
            x[1::4, -1] = 0.0
            x[2] = 0.0
            want, slopes = oracles.excess_and_jacobian(ev, x)
            got = ev.excess(x)
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
            assert (np.ascontiguousarray(ev.jacobian(x)).tobytes()
                    == np.ascontiguousarray(slopes).tobytes())
            assert ev.penalty(x).tobytes() == caseverify._sum_squares(want).tobytes()

    def test_penalty_blocks_keep_every_row(self):
        ev = _PenaltyEvaluator(planted_system())
        x = np.random.default_rng(2).uniform(
            -4.0, 4.0, size=(2 * caseverify._PENALTY_ROWS + 3, len(ev.free0)))
        assert ev.penalty(x).tobytes() == caseverify._sum_squares(ev.excess(x)).tobytes()
        assert ev.penalty(x[:0]).shape == (0,)


def _random_float_system(rng, free):
    # A FLOAT system with ``free`` free coordinates and random pinned zeros,
    # ordering, sign bounds and sigma_r bounds, its targets at a random point.
    n = max(2, free + rng.randint(0, 3))
    fixed = set(rng.sample(range(1, n + 1), n - free))
    x = [0.0 if i + 1 in fixed else rng.uniform(-2.0, 3.0) for i in range(n)]
    relations = [Relation.GE_ZERO, Relation.LE_ZERO, Relation.GT_ZERO, Relation.LT_ZERO,
                 Relation.GE_H]
    signs = []
    for i in rng.sample(sorted(set(range(1, n + 1)) - fixed), rng.randint(0, min(free, 3))):
        signs.append(SignConstraint(i, rng.choice(relations)))
    extra = tuple(SymmetricSignConstraint(r, rng.choice([Relation.GE_ZERO, Relation.LE_ZERO]))
                  for r in rng.sample(range(2, n + 1), rng.randint(0, min(2, n - 1))))
    return ConstraintSystem(n, math.fsum(x) + rng.uniform(-0.5, 0.5),
                            oracles.sigma_subsets(x, 2) + rng.uniform(-1.0, 1.0),
                            fixed_zeros=fixed, ordering=rng.random() < 0.7,
                            sign_constraints=tuple(signs), extra_symmetric=extra)


def _search_box(system):
    # the scan's search interval [lo, hi]
    box = math.sqrt(max(float(system.norm_a2_target), 0.0))
    return -1.05 * box - 1e-3, 1.05 * box + 1e-3


class TestLineMinimum:
    """Gauss-Newton's line search: each live row tries its full step, then the
    other ``_HALVINGS`` of it in order, and takes the first candidate that
    lowers its penalty; a row at penalty 0 never moves."""

    @staticmethod
    def logged_states(ev, x):
        # Every state of a Gauss-Newton run from ``x``, and the rows each
        # Jacobian and penalty call of its iterations saw, in call order.
        log = []
        penalty, jacobian = ev.penalty, ev.jacobian
        ev.penalty = lambda rows: log.append(("penalty", rows.copy())) or penalty(rows)
        ev.jacobian = lambda rows: log.append(("jacobian", rows.copy())) or jacobian(rows)
        try:
            states = [(y.copy(), fy.copy()) for y, fy in
                      caseverify._gauss_newton_states(ev, x.copy(), penalty(x))]
        finally:
            del ev.penalty, ev.jacobian
        return states, log

    def test_flat_rows_take_the_first_candidate(self):
        # thm2-claim has no witness, so rows end where no candidate along
        # their step lowers the penalty: such a flat row keeps its bits and
        # leaves the lockstep.  Every other live row takes its first lower
        # candidate, the full step or the first halving after it.
        system = builtin_case("thm2-claim")
        ev = _PenaltyEvaluator(system)
        lo, hi = _search_box(system)
        x = np.random.default_rng(6).uniform(lo, hi, size=(24, len(ev.free0)))
        states, log = self.logged_states(ev, x)
        iterations = [i for i, (kind, _) in enumerate(log) if kind == "jacobian"]
        assert len(iterations) == len(states) - 1
        taken = {"full": 0, "halved": 0, "flat": 0}
        for it, at in enumerate(iterations):
            (before, fb), (after, _) = states[it], states[it + 1]
            starts = log[at][1]
            calls = [rows for kind, rows in log[at + 1:at + 3] if kind == "penalty"]
            full = calls[0]
            more = (calls[1].reshape(-1, len(caseverify._HALVINGS) - 1, x.shape[1])
                    if len(calls) > 1 else None)
            assert len(full) == len(starts)  # every step was finite
            rows = [next(i for i in range(len(before)) if before[i].tobytes() == s.tobytes())
                    for s in starts]
            retried = 0
            for j, i in enumerate(rows):
                candidates = [full[j]]
                if not ev.penalty(full[j])[0] < fb[i]:
                    candidates += list(more[retried])
                    retried += 1
                lower = [c for c in candidates if ev.penalty(c)[0] < fb[i]]
                want = lower[0] if lower else before[i]
                assert after[i].tobytes() == want.tobytes()
                taken["flat" if not lower else "full" if len(candidates) == 1 else "halved"] += 1
                if not lower and it + 1 < len(iterations):
                    later = log[iterations[it + 1]][1]
                    assert all(r.tobytes() != before[i].tobytes() for r in later)
            assert more is None or retried == len(more)
        assert all(taken.values()), taken

    def test_a_current_minimiser_is_kept_bit_for_bit(self):
        # The planted system's feasible set is a continuum: rows that end at
        # penalty 0 lie in it, and a second run keeps every one of them,
        # yielding once.  In a batch with unsolved rows they keep their bits
        # at every state while the others move.
        system = planted_system()
        ev = _PenaltyEvaluator(system)
        lo, hi = _search_box(system)
        x = np.random.default_rng(7).uniform(lo, hi, size=(40, len(ev.free0)))
        end = oracles.gauss_newton(ev, x)
        solved = end[ev.penalty(end) == 0.0]
        assert 2 <= len(solved) < len(end)
        states = [y.copy() for y, _ in
                  caseverify._gauss_newton_states(ev, solved.copy(), ev.penalty(solved))]
        assert len(states) == 1 and states[0].tobytes() == solved.tobytes()
        batch = np.concatenate([solved, x[:8]])
        moved = False
        for y, fy in caseverify._gauss_newton_states(ev, batch.copy(), ev.penalty(batch)):
            assert y[:len(solved)].tobytes() == solved.tobytes()
            assert np.all(fy[:len(solved)] == 0.0)
            moved |= y[len(solved):].tobytes() != x[:8].tobytes()
        assert moved

    @pytest.mark.parametrize("system", [builtin_case("thm2-claim"), builtin_case("thm1-lambda2"),
                                        planted_system(),
                                        _random_float_system(random.Random(9), 9)],
                             ids=["thm2-claim", "thm1-lambda2", "float-custom", "random-9-free"])
    def test_descent_never_raises_a_penalty(self, system):
        # No state raises any row's penalty above the one before, and every
        # row ends lower than it started.
        ev = _PenaltyEvaluator(system)
        box = math.sqrt(float(system.norm_a2_target))
        x = np.random.default_rng(5).uniform(-box, box, size=(50, len(ev.free0)))
        before = ev.penalty(x)
        last = before
        for _, fy in caseverify._gauss_newton_states(ev, x.copy(), before.copy()):
            assert np.all(fy <= last)
            last = fy.copy()
        assert np.all(last < before)

    def test_descent_keeps_an_exact_witness(self):
        system = builtin_case("thm1-lambda2")
        ev = _PenaltyEvaluator(system)
        x = np.array([[0.0, 2.0, 2.0]])  # (0, 0, 2, 2) with x_2 pinned
        assert ev.penalty(x)[0] == 0.0
        for ranks in (None, np.array([0])):
            states = list(caseverify._gauss_newton_states(ev, x.copy(), ev.penalty(x), ranks))
            assert len(states) == 1
            np.testing.assert_array_equal(states[0][0], x)
        np.testing.assert_array_equal(oracles.gauss_newton(ev, x), x)


class TestPrefixDescent:
    """The scan's descent, Gauss-Newton, from rows across the search box:
    ``_gauss_newton_states`` against ``oracles.gauss_newton_states`` byte for
    byte, state by state, with and without ranks, and no state raises a
    row's penalty."""

    @staticmethod
    def assert_matches_oracle(system, x):
        ev = _PenaltyEvaluator(system)
        ranks = np.random.default_rng(len(x)).permutation(len(x))
        for r in (None, ranks):
            TestPinnedGaussNewton.assert_same_states(ev, x, r)
        last = ev.penalty(x)
        for _, fy in caseverify._gauss_newton_states(ev, x.copy(), last.copy()):
            assert np.all(fy <= last)
            last = fy.copy()

    @staticmethod
    def start_rows(system, m, seed):
        lo, hi = _search_box(system)
        free = system.n - len(system.fixed_zeros)
        return np.random.default_rng(seed).uniform(lo, hi, size=(m, free))

    @pytest.mark.parametrize("H", [Fraction(1, 1000), Fraction(3, 4), 1, 1000], ids=str)
    @pytest.mark.parametrize("name", BUILTIN_CASES)
    def test_builtins(self, name, H):
        system = builtin_case(name, H=H)
        self.assert_matches_oracle(system, self.start_rows(system, 40, seed=2))

    @pytest.mark.parametrize("free", [1, 4, 9])
    def test_random_float_systems(self, free):
        rng = random.Random(free)
        for i in range(4):
            system = _random_float_system(rng, free)
            self.assert_matches_oracle(system, self.start_rows(system, 30, seed=i))

    def test_unordered_system_with_every_sigma_bound(self):
        system = ConstraintSystem(6, 1.5, -4.0, ordering=False, extra_symmetric=tuple(
            SymmetricSignConstraint(r, Relation.GE_ZERO if r % 2 else Relation.LE_ZERO)
            for r in range(2, 7)))
        self.assert_matches_oracle(system, self.start_rows(system, 40, seed=6))

    def test_more_rows_than_a_block(self):
        # The full steps alone fill more than one block of penalty rows.
        system = builtin_case("thm2-claim", H=Fraction(3, 4))
        x = self.start_rows(system, caseverify._PENALTY_ROWS + 30, seed=7)
        self.assert_matches_oracle(system, x)

    def test_start_rows_with_signed_zeros(self):
        for system in (builtin_case("thm2-claim"), planted_system()):
            x = self.start_rows(system, 40, seed=8)
            x[::3, 0] = 0.0
            x[1::3, 0] = -0.0
            x[2::4, -1] = -0.0
            x[5] = -0.0
            x[6] = 0.0
            self.assert_matches_oracle(system, x)

    @pytest.mark.parametrize("name", ["thm2-claim", "thm2-lambda2", "thm2-lambda3"])
    def test_zero_rows_with_zero_slopes(self, name):
        # From all-zero rows the sigma_4 bound's slope sigma_3 is exactly 0,
        # and so is its offset; Gauss-Newton must run from there without a
        # floating-point warning.
        system = builtin_case(name)
        x = np.zeros((8, system.n - 1))
        slope, offset = oracles.sections(_PenaltyEvaluator(system), x, 0)
        assert np.any((slope[:, 2:] == 0.0) & (offset[:, 2:] == 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_matches_oracle(system, x)


def _system_with_terms(rng, terms):
    # An ordered FLOAT system of exactly ``terms`` terms (at least 3): the two
    # equalities, n - 1 ordering steps and random sign and sigma_r bounds.
    n = int(rng.integers(2, min(terms - 1, 7) + 1))
    bounds = terms - 2 - (n - 1)
    signs = int(rng.integers(0, bounds + 1))
    relations = [Relation.GE_ZERO, Relation.LE_ZERO, Relation.GT_ZERO, Relation.LT_ZERO,
                 Relation.GE_H]
    return ConstraintSystem(
        n, float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-3.0, 1.0)),
        sign_constraints=tuple(SignConstraint(int(rng.integers(1, n + 1)),
                                              relations[rng.integers(len(relations))])
                               for _ in range(signs)),
        extra_symmetric=tuple(SymmetricSignConstraint(
            int(rng.integers(2, n + 1)), [Relation.GE_ZERO, Relation.LE_ZERO][rng.integers(2)])
            for _ in range(bounds - signs)))


class TestPinnedLineMinimum:
    """Every term is affine along a free coordinate: a line, whose slopes the
    Jacobian reads.  ``ev.jacobian`` against its reference
    (``oracles.sections``) byte for byte, coordinate by coordinate: the moving
    terms' slopes, their offsets as the excess at x_k = 0, and slope 0 for
    every other term."""

    BOUNDS = [(-4.0, 3.0), (-1e-3, 1e-3)]

    @staticmethod
    def assert_same(ev, x):
        jac = ev.jacobian(x)
        for k in range(len(ev.free0)):
            moving = oracles.moving(ev, k)
            slope, offset = oracles.sections(ev, x, k)
            assert np.ascontiguousarray(jac[:, moving, k]).tobytes() == slope.tobytes()
            at_zero = x.copy()
            at_zero[:, k] = 0.0
            assert np.ascontiguousarray(ev.excess(at_zero)[:, moving]).tobytes() == offset.tobytes()
            assert np.all(np.delete(jac[:, :, k], moving, axis=1) == 0.0)

    @pytest.mark.parametrize("lo, hi", BOUNDS)
    @pytest.mark.parametrize("rows", [1, 64, 1030])
    @pytest.mark.parametrize("terms", [3, 4, 7, 12])
    def test_random_sections(self, terms, rows, lo, hi):
        rng = np.random.default_rng(terms * rows)
        for _ in range(4):
            ev = _PenaltyEvaluator(_system_with_terms(rng, terms))
            assert ev.terms == terms
            self.assert_same(ev, rng.uniform(lo, hi, size=(rows, len(ev.free0))))

    @pytest.mark.parametrize("lo, hi", BOUNDS)
    def test_zero_slopes(self, lo, hi):
        # Rows that are zero but for at most one coordinate: there every
        # sigma_r slope with r > 2 is exactly 0, along every other coordinate.
        rng = np.random.default_rng(3)
        for name in ("thm2-claim", "thm2-lambda2", "thm2-lambda3"):
            ev = _PenaltyEvaluator(builtin_case(name))
            x = np.zeros((64, len(ev.free0)))
            x[8:, 0] = rng.uniform(lo, hi, 56)
            x[40:] = np.roll(x[40:], 1, axis=1)
            assert np.any(ev.jacobian(x)[:, 2:, 1:] == 0.0)
            self.assert_same(ev, x)

    @pytest.mark.parametrize("lo, hi", BOUNDS)
    def test_signed_zeros(self, lo, hi):
        # +-0 in the coordinates, whole rows of them too.
        rng = np.random.default_rng(4)
        for system in (builtin_case("thm2-claim"), planted_system(),
                       _system_with_terms(rng, 12)):
            ev = _PenaltyEvaluator(system)
            x = rng.uniform(lo, hi, size=(64, len(ev.free0)))
            x[rng.random(x.shape) < 0.25] = 0.0
            x[rng.random(x.shape) < 0.25] = -0.0
            x[:6] = np.where(rng.random((6, x.shape[1])) < 0.5, 0.0, -0.0)
            self.assert_same(ev, x)

    @pytest.mark.parametrize("lo, hi", BOUNDS)
    def test_equalities_only_and_flat_rows(self, lo, hi):
        # An unordered system with no bounds has only the trace and sigma_2
        # terms, and both move along every coordinate.  On the flat rows, all
        # zero, the sigma_2 slope is exactly 0 along each of them.
        rng = np.random.default_rng(5)
        ev = _PenaltyEvaluator(ConstraintSystem(5, 1.0, -2.0, ordering=False))
        assert ev.terms == 2
        x = rng.uniform(lo, hi, size=(64, 5))
        x[::8] = 0.0
        self.assert_same(ev, x)
        assert np.all(ev.jacobian(x[::8])[:, 1, :] == 0.0)
        assert np.all(ev.jacobian(x)[:, 0, :] == 1.0)


class TestPinnedGaussNewton:
    """``_gauss_newton_states`` against the loop that tries every halving of
    every live row in one penalty call (``oracles.gauss_newton_states``):
    every yielded state, byte for byte, with and without ranks."""

    @staticmethod
    def assert_same_states(ev, x, ranks):
        # Returns whether some row tried more than halving 0: the starting
        # penalties and each iteration that evaluates a trial are followed by
        # a state, so more penalty calls than states means some iteration
        # made two.
        calls = []
        penalty = ev.penalty
        ev.penalty = lambda rows: calls.append(len(rows)) or penalty(rows)
        try:
            got = [(y.tobytes(), fy.tobytes()) for y, fy in
                   caseverify._gauss_newton_states(ev, x.copy(), ev.penalty(x), ranks)]
        finally:
            del ev.penalty
        want = [(y.tobytes(), fy.tobytes())
                for y, fy in oracles.gauss_newton_states(ev, x.copy(), ranks)]
        assert got == want
        return len(calls) > len(got)

    @staticmethod
    def batches(system, seed):
        # The scan's polish batch, and rows drawn across the search box.
        ev, x, flat = TestExcessKernel.polish_batch(system, cells=5_000, starts=32)
        lo, hi = _search_box(system)
        drawn = np.random.default_rng(seed).uniform(lo, hi, size=(24, len(ev.free0)))
        return ev, [(x, flat), (drawn, np.arange(24)[::-1].copy())]

    def assert_system(self, system, seed):
        ev, batches = self.batches(system, seed)
        return any([self.assert_same_states(ev, x, ranks)
                    for x, given in batches for ranks in (None, given)])

    @pytest.mark.parametrize("H", [Fraction(1, 1000), Fraction(3, 4), 1, 1000], ids=str)
    @pytest.mark.parametrize("name", BUILTIN_CASES)
    def test_builtins(self, name, H):
        self.assert_system(builtin_case(name, H=H), seed=1)

    @pytest.mark.parametrize("free", [1, 4, 9])
    def test_random_float_systems(self, free):
        rng = random.Random(20 + free)
        retried = [self.assert_system(_random_float_system(rng, free), seed=i) for i in range(4)]
        assert any(retried)  # the later halvings ran

    @pytest.mark.parametrize("kind", ["builtins", "float-systems"])
    def test_yielded_penalties_are_the_rows_penalties(self, kind):
        # The scan ranks its rows by the penalties Gauss-Newton updates in
        # place, so each must be, byte for byte, the penalty of its row.
        rng = random.Random(31)
        systems = ([builtin_case(name, H=H) for name in BUILTIN_CASES
                    for H in (Fraction(3, 4), 1, 1000)] if kind == "builtins" else
                   [_random_float_system(rng, free) for free in (1, 4, 9) for _ in range(4)])
        states = 0
        for i, system in enumerate(systems):
            ev, batches = self.batches(system, seed=i)
            for x, ranks in batches:
                for r in (None, ranks):
                    for y, fy in caseverify._gauss_newton_states(ev, x.copy(), ev.penalty(x), r):
                        assert fy.tobytes() == ev.penalty(y).tobytes()
                        states += 1
        assert states > 4 * len(systems)


def _grid(system, points):
    # the scan's axes: `points` values across [-|A|, |A|]
    ev = _PenaltyEvaluator(system)
    box = math.sqrt(max(float(system.norm_a2_target), 0.0))
    return ev, np.linspace(-box, box, points)


def _every_cell(ev, axes):
    # penalty and flat index of every grid cell, by brute force
    total = len(axes) ** len(ev.free0)
    flat = np.arange(total, dtype=np.int64)
    return ev.penalty(_grid_cells(axes, len(ev.free0), flat)), flat


def _top_oracle(ev, axes, keep):
    pen, flat = _every_cell(ev, axes)
    order = np.lexsort((flat, pen))[:keep]
    return pen[order], flat[order]


def _assert_top(ev, axes, keep):
    pen, flat, cells = _grid_top(ev, axes, keep)
    want_pen, want_flat = _top_oracle(ev, axes, keep)
    np.testing.assert_array_equal(flat, want_flat)
    np.testing.assert_array_equal(pen, want_pen)
    np.testing.assert_array_equal(cells, _grid_cells(axes, len(ev.free0), want_flat))


def _pinned_sign_systems():
    # Terms on pinned zeros alone, which the prefix bound leaves out: >=0
    # and <=0 on pinned zeros, >=H on a pinned zero at H < 0, and ordering
    # steps between adjacent pinned zeros; ordered and unordered, EXACT and
    # FLOAT, with sign bounds on free coordinates too.
    ge, le, ge_h = Relation.GE_ZERO, Relation.LE_ZERO, Relation.GE_H
    for ordering in (True, False):
        yield ConstraintSystem(
            7, Fraction(-7, 2), -2, fixed_zeros={2, 3, 5}, ordering=ordering,
            sign_constraints=tuple(SignConstraint(i, rel) for i, rel in (
                (2, ge), (3, le), (5, ge_h), (1, le), (7, ge_h))))
        yield ConstraintSystem(
            5, -1.25, -3.0, fixed_zeros={1, 2, 5}, ordering=ordering,
            sign_constraints=tuple(SignConstraint(i, rel) for i, rel in (
                (1, ge_h), (2, le), (2, ge), (5, le), (4, Relation.GT_ZERO))))


class TestPrunedGrid:
    """The pruned grid keeps the same cells as evaluating and sorting all of them."""

    @pytest.mark.parametrize("H", [Fraction(1, 2), Fraction(1), Fraction(7, 5), Fraction(2)])
    @pytest.mark.parametrize("name", BUILTIN_CASES)
    def test_builtins_match_the_full_grid(self, name, H):
        system = builtin_case(name, H=H)
        points = {3: 58, 4: 21}[len(_PenaltyEvaluator(system).free0)]  # ~200 000 cells
        ev, axes = _grid(system, points)
        _assert_top(ev, axes, keep=len(axes) ** len(ev.free0) // 100)

    @pytest.mark.parametrize("free", range(1, 10))
    def test_custom_systems_match_the_full_grid(self, free):
        rng = random.Random(100 + free)
        for keep in (64, 777):
            ev, axes = _grid(_random_float_system(rng, free),
                             max(3, round(100_000 ** (1 / free))))
            _assert_top(ev, axes, keep)

    def test_pinned_sign_systems_match_the_full_grid(self):
        for system in _pinned_sign_systems():
            ev, axes = _grid(system, {2: 300, 4: 17}[len(_PenaltyEvaluator(system).free0)])
            for keep in (64, 777):
                _assert_top(ev, axes, keep)

    @pytest.mark.parametrize("free, points", [(1, 60_001), (2, 251), (3, 41)])
    def test_slices_hold_at_most_grid_slice_rows(self, monkeypatch, free, points):
        # an axis longer than a slice is split across slices, so no penalty
        # call sees more than _GRID_SLICE rows, even when every cell survives
        monkeypatch.setattr(caseverify, "_GRID_SLICE", 64)
        ev, axes = _grid(_random_float_system(random.Random(free), free), points)
        pen, flat = _every_cell(ev, axes)
        rows = []
        penalty = ev.penalty
        ev.penalty = lambda x: rows.append(len(x)) or penalty(x)
        got_pen, got_flat = _cells_at_most(ev, axes, float(pen.max()), len(pen))
        order = np.argsort(got_flat)
        np.testing.assert_array_equal(got_flat[order], flat)
        np.testing.assert_array_equal(got_pen[order], pen)
        assert max(rows) <= 64

    @pytest.mark.parametrize("name", [*BUILTIN_CASES, "one-free"])
    def test_peak_memory_at_a_million_cells(self, name):
        # the slice size bounds the grid's working set; 2^17-row slices
        # peak near 14 MB here.  With one free coordinate the axis is the
        # million cells, and the prefix bound tabulates its terms over it
        # (about 32.5 MB here, several 8 MB arrays).
        if name == "one-free":
            system = ConstraintSystem(3, 1, -1, fixed_zeros={1, 3}, sign_constraints=(
                SignConstraint(2, Relation.GE_H),))
        else:
            system = builtin_case(name)
        points = {1: 1_000_000, 3: 100, 4: 31}[len(_PenaltyEvaluator(system).free0)]
        ev, axes = _grid(system, points)
        keep = len(axes) ** len(ev.free0) // 100
        tracemalloc.start()
        try:
            _grid_top(ev, axes, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (40_000_000 if name == "one-free" else 8_000_000)

    def test_ties_straddling_keep_break_by_flat_index(self):
        # No ordering and no sign terms: the penalty is symmetric in the four
        # coordinates, so cells that permute each other tie.  An odd keep is
        # chosen where a tie straddles the cut.
        system = ConstraintSystem(4, 3, Fraction(5, 2), ordering=False)
        ev, axes = _grid(system, 17)
        pen, _ = _every_cell(ev, axes)
        ranked = np.sort(pen)
        keep = next(k for k in range(501, len(ranked), 2) if ranked[k - 1] == ranked[k])
        _assert_top(ev, axes, keep)

    @pytest.mark.parametrize("margin", [1e-6, 0.0])
    def test_a_low_first_threshold_doubles_until_keep_fit(self, monkeypatch, margin):
        caps = []

        def counting(ev, axes, cap, keep):
            caps.append(cap)
            return _cells_at_most(ev, axes, cap, keep)

        monkeypatch.setattr(caseverify, "_SAMPLE_MARGIN", margin)
        monkeypatch.setattr(caseverify, "_cells_at_most", counting)
        ev, axes = _grid(builtin_case("thm2-lambda3", H=Fraction(3, 2)), 21)
        _assert_top(ev, axes, keep=1944)
        assert len(caps) > 2 and caps == sorted(caps)

    @pytest.mark.parametrize("family", ["builtin", "random", "pinned", "ties"])
    def test_cells_at_most_lowers_the_cap_to_the_keep_th_penalty(self, monkeypatch, family):
        # Small slices give the cap many chances to drop.  From any start at
        # or above the keep-th penalty, the result is every cell within its
        # largest penalty, which is the keep-th penalty itself.
        monkeypatch.setattr(caseverify, "_GRID_SLICE", 256)
        if family == "builtin":
            grids = [_grid(builtin_case(name, H=Fraction(5, 4)), 13) for name in BUILTIN_CASES]
        elif family == "random":
            rng = random.Random(31)
            grids = [_grid(_random_float_system(rng, free), max(3, round(20_000 ** (1 / free))))
                     for free in range(1, 10)]
        elif family == "pinned":
            grids = [_grid(system, {2: 120, 4: 11}[len(_PenaltyEvaluator(system).free0)])
                     for system in _pinned_sign_systems()]
        else:
            grids = [_grid(ConstraintSystem(4, 3, Fraction(5, 2), ordering=False), 17)]
        for ev, axes in grids:
            pen, flat = _every_cell(ev, axes)
            for keep in (1, 7, 64, 501):
                want_pen, want_flat = _top_oracle(ev, axes, keep)
                for cap in (math.inf, float(np.quantile(pen, 0.3))):
                    got_pen, got_flat = _cells_at_most(ev, axes, cap, keep)
                    top = got_pen.max()
                    assert top == want_pen[-1] and len(got_pen) >= keep
                    order = np.argsort(got_flat)
                    np.testing.assert_array_equal(got_flat[order], flat[pen <= top])
                    np.testing.assert_array_equal(got_pen[order], pen[pen <= top])
                    first = np.lexsort((got_flat, got_pen))[:keep]
                    np.testing.assert_array_equal(got_flat[first], want_flat)
                    np.testing.assert_array_equal(got_pen[first], want_pen)

    def test_penalty_rows_at_a_million_cells(self):
        # The fixed random sample and the falling cap evaluate 4-10k of
        # the million cells here.  A strided sample of 1000 cells walks one
        # diagonal of the 1000 x 1000 grid (stride 999) and lets 0.48M of
        # its cells through, and all 1M of the d = 6 grid; 20 000 strided
        # cells and a cap that never falls need 20.7-27.4k rows.
        systems = [builtin_case(name) for name in BUILTIN_CASES]
        systems += [_random_float_system(random.Random(2), 2),
                    _random_float_system(random.Random(5), 6)]
        for i, system in enumerate(systems):
            free = len(_PenaltyEvaluator(system).free0)
            ev, axes = _grid(system, {2: 1000, 3: 100, 4: 31, 6: 10}[free])  # the scan's 1M-cell axes
            rows = []
            penalty = ev.penalty
            ev.penalty = lambda x: rows.append(len(x)) or penalty(x)
            _grid_top(ev, axes, 64)
            assert sum(rows) <= 15_000, (i, sum(rows))

    @pytest.mark.parametrize("name", BUILTIN_CASES)
    def test_cells_at_most_finds_every_cell_within_the_cap(self, name):
        ev, axes = _grid(builtin_case(name, H=Fraction(5, 4)), 13)
        pen, flat = _every_cell(ev, axes)
        # keep at the grid's cell count never lowers the cap
        for cap in np.quantile(pen, [0.0, 0.003, 0.05, 0.4]):
            got_pen, got_flat = _cells_at_most(ev, axes, float(cap), len(pen))
            order = np.argsort(got_flat)
            np.testing.assert_array_equal(got_flat[order], flat[pen <= cap])
            np.testing.assert_array_equal(got_pen[order], pen[pen <= cap])


def _tight_system(rng, free):
    # A random system whose trace and sigma_2 targets are the float sums of
    # one grid cell, so at that cell the penalty is its ordering, sign and
    # sigma_r terms alone: without sigma_r terms, the prefix bound at full
    # depth meets it to rounding.
    system = _random_float_system(rng, free)
    ev, axes = _grid(system, 9)
    cell = np.array([rng.randrange(9) for _ in range(free)])
    ex = ev.excess(axes[cell][None, :])[0]
    system = ConstraintSystem(
        system.n, system.trace_target + ex[0], system.sigma2_target + ex[1],
        fixed_zeros=system.fixed_zeros,
        ordering=system.ordering, sign_constraints=system.sign_constraints,
        extra_symmetric=system.extra_symmetric)
    return system, axes, cell


class TestPrefixBound:
    """The separable prefix bound never exceeds the float penalty."""

    @staticmethod
    def assert_bounds(ev, axes, idx):
        bound = _PrefixBound(ev, axes)
        pen = ev.penalty(axes[idx])
        m = len(idx)
        sep, psum, last = np.zeros(m), np.zeros(m), np.zeros(m)
        for k in range(len(ev.free0)):
            sep, psum, last, low = bound.extend(k, sep, psum, last, idx[:, k])
            assert np.all(low <= pen), (k, np.max(low - pen))
        return low, pen

    @pytest.mark.parametrize("name", BUILTIN_CASES)
    def test_builtin_cells(self, name):
        rng = np.random.default_rng(7)
        for H in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(1000)):
            ev, axes = _grid(builtin_case(name, H=H), 31)
            self.assert_bounds(ev, axes, rng.integers(0, 31, size=(5000, len(ev.free0))))

    def test_random_float_system_cells(self):
        rng = random.Random(5)
        for free in range(1, 10):
            for _ in range(3):
                ev, axes = _grid(_random_float_system(rng, free), 25)
                cells = np.random.default_rng(free).integers(0, 25, size=(2000, free))
                self.assert_bounds(ev, axes, cells)

    def test_pinned_sign_systems(self):
        # The terms on pinned zeros alone, which the bound leaves out, are
        # never violated, and the bound still stays at or below the penalty.
        for i, system in enumerate(_pinned_sign_systems()):
            ev, axes = _grid(system, 25)
            plan, free = ev.whole, ev.x + np.array(ev.free0)
            pinned = (plan.a >= ev.x) & ~np.isin(plan.a, free) & ~np.isin(plan.b, free)
            assert pinned.sum() >= 3
            cells = np.random.default_rng(i).integers(0, 25, size=(3000, len(ev.free0)))
            assert np.all(ev.excess(axes[cells])[:, pinned] <= 0.0)
            self.assert_bounds(ev, axes, cells)

    def test_cells_where_only_separable_terms_remain(self):
        # the bound is not slack here: it meets the penalty up to the
        # rounding allowance, and must still stay at or below it
        rng = random.Random(9)
        met = 0
        for trial in range(400):
            system, axes, cell = _tight_system(rng, 1 + trial % 9)
            low, pen = self.assert_bounds(_PenaltyEvaluator(system), axes, cell[None, :])
            met += bool(pen[0] > 0 and low[0] >= pen[0] * (1 - 1e-12))
        assert met > 50


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
        # A FLOAT point gives a built-in float, never np.float64, and an EXACT
        # point a Fraction: the value reaches CLI output as it is.
        for name in ("thm1-claim", "thm1-lambda2", "thm2-claim"):
            s = builtin_case(name)
            for x in certificate_samples(s, seed=1, count=5):
                assert type(closed_form_contradiction(s, x)) is float
                assert type(closed_form_contradiction(s, np.array(x))) is float
                exact = tuple(Fraction(v).limit_denominator(50) for v in x)
                assert type(closed_form_contradiction(s, exact)) is Fraction
        value = closed_form_contradiction(
            builtin_case("thm1-claim"), (0.0, 2.0, 0.0, 2.0))
        assert value == pytest.approx(4.0)

    def test_closed_form_identity_on_equality_samples(self):
        s = builtin_case("thm1-claim")
        for x in certificate_samples(s, seed=1, count=50):
            value = closed_form_contradiction(s, x)
            assert value == pytest.approx(x[1] * x[1] - x[0] * x[3], abs=1e-9)

    @pytest.mark.parametrize("name", ["thm1-lambda2", "thm2-claim"])
    def test_closed_form_sigmas_match_the_public_sigma(self, name):
        # The certificates read sigma_r through the regime-known body; the
        # values equal those from the public ``sigma`` bit for bit.
        s = builtin_case(name)
        points = certificate_samples(s, seed=3, count=40)
        points += [tuple(Fraction(v).limit_denominator(50) for v in x) for x in points[:10]]
        for x in points:
            num = type(x[0])
            trace, s2 = num(s.trace_target), num(s.sigma2_target)
            if name == "thm1-lambda2":
                h = trace / 4
                gap = x[3] - 2 * h
                expected = gap * gap + (sigma(x, 2) - 4 * h * h) - x[0] * x[2]
            else:
                expected = max(s2 * (trace / 5) - sigma(x, 3), sigma(x, 3))
            assert repr(closed_form_contradiction(s, x)) == repr(expected), x

    def test_borrowed_name_has_no_certificate(self):
        # A certificate holds for its case's n only.
        s = ConstraintSystem(n=3, trace_target=Fraction(3), sigma2_target=Fraction(3),
                             name="thm2-claim")
        assert not has_certificate(s)
        with pytest.raises(UnsupportedCaseError):
            closed_form_contradiction(s, (0, 1, 2))
        with pytest.raises(UnsupportedCaseError):
            certificate_check(s, count=10)

    def test_unsupported_cases_raise(self):
        with pytest.raises(UnsupportedCaseError):
            closed_form_contradiction(builtin_case("thm2-lambda3"), (0,) * 5)
        with pytest.raises(UnsupportedCaseError):
            certificate_samples(builtin_case("thm2-lambda2"))

    def test_sample_count_must_be_positive(self):
        for call in (certificate_samples, certificate_check):
            with pytest.raises(DomainError):
                call(builtin_case("thm1-claim"), count=0)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    @pytest.mark.parametrize("name", ["thm1-claim", "thm1-lambda2"])
    def test_tolerance_must_be_finite_and_positive(self, name, tol):
        # no sample counts as feasible at tol <= 0 or nan, so an infeasibility
        # certificate would pass vacuously; tol = inf lets any point pin a witness
        with pytest.raises(DomainError):
            certificate_check(builtin_case(name), count=50, tol=tol)

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

    @pytest.mark.parametrize("H", [Fraction(1, 1000), 1, Fraction(7, 5), 1000], ids=str)
    @pytest.mark.parametrize("name", ["thm1-claim", "thm1-lambda2", "thm2-claim"])
    def test_block_sampler_matches_the_per_draw_loop(self, name, H):
        def bits(points):
            return [[v.hex() for v in p] for p in points]

        system = builtin_case(name, H=H)
        for seed in (0, 3, 11):
            for count in (1, 7, 50, 1000):
                got = certificate_samples(system, seed=seed, count=count)
                want = oracles.certificate_samples_per_draw(system, seed=seed, count=count)
                assert len(got) == count
                assert bits(got) == bits(want)

    def test_block_sampler_without_real_completions(self):
        # At R = 5H^2 the equalities force a negative sum of squares, so no
        # candidate has a real completion and neither sampler returns a point.
        for name in ("thm1-claim", "thm2-claim"):
            system = builtin_case(name, H=1, R=5)
            assert certificate_samples(system, seed=2, count=20) == []
            assert oracles.certificate_samples_per_draw(system, seed=2, count=20) == []

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

    @pytest.mark.parametrize("H", [Fraction(1, 1000), Fraction(1, 2), 1, Fraction(7, 5),
                                   2, 1000, 0.75], ids=str)
    @pytest.mark.parametrize("name", ["thm1-claim", "thm1-lambda2", "thm2-claim"])
    def test_block_check_matches_the_per_sample_loop(self, name, H):
        # The certificate's value and audit run once over the sample block;
        # the report equals the per-sample loop's, bit for bit.
        def same(system, seed, count, tol):
            got = certificate_check(system, seed=seed, count=count, tol=tol)
            want = oracles.certificate_check_per_sample(system, seed=seed, count=count, tol=tol)
            assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
            assert got.margin.hex() == want.margin.hex()
            assert got.max_identity_residual.hex() == want.max_identity_residual.hex()

        system = builtin_case(name, H=H)
        for seed, count, tol in itertools.product((0, 3, 11), (1, 7, 1000), (1e-8, 1.0)):
            same(system, seed, count, tol)
        if name != "thm1-lambda2":
            # at R = 5H^2 no sample has a real completion
            same(builtin_case(name, H=H, R=5 * H * H), 2, 20, 1e-8)

    @pytest.mark.parametrize("name", ["thm1-claim", "thm1-lambda2"])
    def test_block_check_at_huge_h(self, name):
        # sigma_2 terms stay finite at H = 1e100: the report is the loop's.
        system = builtin_case(name, H=10 ** 100)
        assert certificate_check(system, seed=1, count=50) == \
            oracles.certificate_check_per_sample(system, seed=1, count=50)

    def test_block_check_refuses_an_overflow(self):
        # thm2-claim's sigma_3 and sigma_4 pass the double range at H = 1e100.
        with pytest.raises(DomainError, match="not a finite number: inf"):
            certificate_check(builtin_case("thm2-claim", H=10 ** 100), seed=1, count=50)

    @pytest.mark.parametrize("name", ["thm1-claim", "thm1-lambda2", "thm2-claim"])
    def test_sampler_refuses_an_overflowing_completion(self, name):
        # At H = 3e153 the completion's discriminant passes the double range
        # (inf, or inf - inf = nan): the sampler refuses rather than return
        # non-finite points or drop the rows.  RuntimeWarnings are errors here.
        system = builtin_case(name, H=3 * 10 ** 153)
        for call in (certificate_samples, certificate_check):
            with pytest.raises(DomainError, match="certificate samples overflow a double"):
                call(system, seed=1, count=200)

    @pytest.mark.parametrize("H, message", [(10 ** 77, "-inf"), (10 ** 80, "inf"),
                                            (10 ** 90, "inf")], ids=["1e77", "1e80", "1e90"])
    def test_short_circuit_keeps_the_overflow_refusal(self, H, message):
        # Most of these samples fail a cheap term, but some sample's sigma
        # pass overflows: the check still raises at the first such sample,
        # as evaluating every term of every sample does.
        with pytest.raises(DomainError) as raised:
            certificate_check(builtin_case("thm2-claim", H=H), seed=1)
        assert str(raised.value) == f"not a finite number: {message}"

    @pytest.mark.parametrize("tol", [1e-8, 1.0])
    @pytest.mark.parametrize("name", ["thm1-claim", "thm2-claim"])
    def test_sigma_pass_only_where_the_cheap_terms_hold(self, name, tol, monkeypatch):
        # A sample runs its sigma pass (one lift) only when its trace,
        # pinned-zero, ordering and sign terms are all within tol.
        system = builtin_case(name, H=1)
        cheap_ok = sum(
            all(v <= tol for key, v in constraint_violations(system, x).items()
                if not key.startswith("sigma"))
            for x in certificate_samples(system, seed=1, count=1000))
        lifts = []
        lift = spectrum._lift
        monkeypatch.setattr(spectrum, "_lift", lambda *a: lifts.append(1) or lift(*a))
        certificate_check(system, seed=1, count=1000, tol=tol)
        assert len(lifts) == cheap_ok

    @pytest.mark.parametrize("tol", [1e-8, 1.0])
    def test_short_circuit_verdict_matches_every_term(self, tol):
        # Each row's verdict is the largest violation's, and a sigma overflow
        # raises at the row where evaluating every term raises, from the
        # block sigma check, even where that row fails a cheap term first.
        def every_term(system, rows):
            verdicts = []
            for x in rows:
                try:
                    verdicts.append(max(constraint_violations(system, x).values()) <= tol)
                except DomainError as exc:
                    return verdicts, str(exc)
            return verdicts, None

        def short_circuit(system, rows):
            try:
                return caseverify._feasible_rows(system, np.array(rows).reshape(-1, system.n),
                                                 tol), None
            except DomainError as exc:
                return None, str(exc)

        rng = random.Random(17)
        raised = 0
        for system in [_random_float_system(rng, free) for free in (1, 4, 9) for _ in range(4)]:
            for big in (0.0, 0.1, 0.3):
                rows = [[rng.choice((1e200, -1e200)) if rng.random() < big
                         else rng.choice((0.0, -0.0, rng.uniform(-4.0, 4.0)))
                         for _ in range(system.n)] for _ in range(12)]
                verdicts, error = every_term(system, rows)
                got, got_error = short_circuit(system, rows)
                assert got_error == error
                if error is None:
                    assert got == verdicts
                raised += error is not None
                for x in rows:
                    verdicts, error = every_term(system, [x])
                    assert short_circuit(system, [x]) == ((None, error) if error else
                                                          (verdicts, None))
        assert raised  # the overflow path ran

    def test_block_sigma_is_checked_finite_like_one_point(self):
        # A block's sigma_r raises the DomainError of its first non-finite
        # sample, the one that sample alone raises.
        rows = [(0.0, 1.0, 2.0, 0.0, 3.0), (0.0, 1e200, -1e200, 0.0, 1e200),
                (0.0, 1e200, 1e200, 0.0, 1e200)]
        block = np.array(rows).T.copy()
        with pytest.raises(DomainError) as one:
            caseverify._certificate_sigma(rows[1], Regime.FLOAT, 3)
        with pytest.raises(DomainError) as many, np.errstate(over="ignore", invalid="ignore"):
            caseverify._certificate_sigma(block, Regime.FLOAT, 3)
        assert str(many.value) == str(one.value) == "not a finite number: nan"
        assert caseverify._certificate_sigma(block[:, :1], Regime.FLOAT, 3)[0] == \
            sigma(rows[0], 3)
        # With a sigma_4 bound: the first sample overflows only sigma_4, the
        # second only sigma_2 (to -inf), so the sample comes first, then the
        # order.  Both fail the trace term, so neither runs its own pass.
        system = ConstraintSystem(5, 1.0, 0.0, ordering=False, extra_symmetric=(
            SymmetricSignConstraint(4, Relation.GE_ZERO),))
        only4, only2 = (1e80, 1e80, 1e80, 1e80, 0.0), (0.0, 0.0, 0.0, -1e200, 1e200)
        for rows, message in (([only4, only2], "inf"), ([only2, only4], "-inf")):
            with pytest.raises(DomainError) as one:
                constraint_violations(system, rows[0])
            with pytest.raises(DomainError) as many:
                caseverify._feasible_rows(system, np.array(rows), 1e-8)
            assert str(many.value) == str(one.value) == f"not a finite number: {message}"
        # an empty block raises nothing
        assert caseverify._feasible_rows(system, np.empty((0, 5)), 1e-8) == []
        assert caseverify._certificate_sigma(np.empty((5, 0)), Regime.FLOAT, 3).shape == (0,)

    @staticmethod
    def _nan_past(v):
        # NaN where |v| > 1.8 (v * 1e308 overflows), else 0.0, for a float
        # and elementwise on a block alike
        big = v * 1e308
        return big - big

    @pytest.mark.parametrize("audit", [
        lambda x, e, s2, h: (abs(x[3]) + TestCertificates._nan_past(x[3]),
                             (x[3] - 1.5) * 0.0 - TestCertificates._nan_past(x[3])),
        lambda x, e, s2, h: ((x[3] - 1.5) * 0.0, math.nan),
        lambda x, e, s2, h: (math.nan, -0.0),
    ], ids=["nan-and-zero-ties", "scalar-nan-gap", "scalar-nan-identity"])
    @pytest.mark.parametrize("name", ["thm1-claim", "thm1-lambda2"])
    def test_folds_follow_the_per_sample_loop(self, monkeypatch, name, audit):
        # The identity residual folds by max from 0.0 and the margin by min
        # from inf, over the samples in order: NaN skipped, the first of a
        # -0.0/0.0 tie kept, a scalar term standing for every sample.
        monkeypatch.setitem(caseverify._CASES, name,
                            dataclasses.replace(caseverify._CASES[name], audit=audit))
        for R, count in ((None, 1000), (None, 1), (5, 20)):  # R = 5H^2 draws no sample
            system = builtin_case(name, R=R)
            got = certificate_check(system, seed=3, count=count)
            want = oracles.certificate_check_per_sample(system, seed=3, count=count)
            assert got == want
            assert got.margin.hex() == want.margin.hex()
            assert got.max_identity_residual.hex() == want.max_identity_residual.hex()
        # the samples do mix NaN with both signs of zero
        x = np.array(certificate_samples(builtin_case(name), seed=3)).T
        with np.errstate(over="ignore", invalid="ignore"):
            nan = np.isnan(self._nan_past(x[3]))
        assert nan.any() and not nan.all()
        assert len({math.copysign(1.0, v) for v in ((x[3] - 1.5) * 0.0)[~nan]}) == 2

    def test_python_max_tie_rule(self):
        a = np.array([0.0, -0.0, math.nan, 1.0, 2.0])
        b = np.array([-0.0, 0.0, 1.0, math.nan, 3.0])
        got = caseverify._python_max(a, b)
        want = [max(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        assert caseverify._python_max(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 2)

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
