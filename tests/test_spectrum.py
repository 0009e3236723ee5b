import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import hypercurv.spectrum as spectrum_module
import oracles
from hypercurv.errors import DomainError, RegimeError
from hypercurv.scalars import Regime, Tolerance
from hypercurv.simons import SimonsPointData
from hypercurv.spectrum import (
    CurvatureSpectrum,
    invariants,
    newton_eigenvalues,
    okumura_bound,
    sigma,
    sigma_all,
    sigmas,
    sigma_recursion_residual,
    tr_a3_sides,
)


def random_exact(rng, n, span=50):
    return [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(n)]


class TestCurvatureSpectrum:
    def test_sorts_and_coerces(self):
        s = CurvatureSpectrum([3, 1, 2])
        assert s.lambdas == (Fraction(1), Fraction(2), Fraction(3))
        assert s.regime is Regime.EXACT
        assert s.c == 0

    def test_needs_two_values(self):
        with pytest.raises(DomainError):
            CurvatureSpectrum([1])

    def test_regime_inference_and_mixing(self):
        assert CurvatureSpectrum([1.0, 2.0]).regime is Regime.FLOAT
        with pytest.raises(RegimeError):
            CurvatureSpectrum([Fraction(1), 2.0])
        # declared float regime is an explicit promotion
        s = CurvatureSpectrum([Fraction(1, 2), Fraction(3, 2)], regime=Regime.FLOAT)
        assert s.lambdas == (0.5, 1.5)

    def test_promote_copy(self):
        s = CurvatureSpectrum([Fraction(1, 2), 1, 2])
        p = s.promote()
        assert p.regime is Regime.FLOAT
        assert p.lambdas == (0.5, 1.0, 2.0)
        assert s.regime is Regime.EXACT

    def test_json_round_trip(self):
        s = CurvatureSpectrum([Fraction(-1, 3), 2], c=Fraction(1, 7))
        payload = s.to_json_dict()
        assert payload["lambdas"] == ["-1/3", "2/1"]
        assert CurvatureSpectrum.from_json_dict(payload) == s

    def test_json_rejects_wrong_n(self):
        payload = CurvatureSpectrum([1, 2, 3]).to_json_dict()
        payload["n"] = 4
        with pytest.raises(DomainError):
            CurvatureSpectrum.from_json_dict(payload)

    @pytest.mark.parametrize("payload", ["x", [1, 2], None, 3])
    def test_json_rejects_a_payload_that_is_not_an_object(self, payload):
        with pytest.raises(DomainError, match="must be a JSON object"):
            CurvatureSpectrum.from_json_dict(payload)

    def test_json_rejects_float_under_exact(self):
        with pytest.raises(RegimeError):
            CurvatureSpectrum.from_json_dict({"lambdas": [0.5, 1.5], "regime": "exact"})


class TestSigma:
    def test_known_values(self):
        vals = (Fraction(1), Fraction(2), Fraction(3))
        assert sigma(vals, 0) == 1
        assert sigma(vals, 1) == 6
        assert sigma(vals, 2) == 11
        assert sigma(vals, 3) == 6
        assert sigma_all(vals) == (1, 6, 11, 6)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            sigma((1, 2), 3)
        with pytest.raises(DomainError):
            sigma((1, 2), -1)

    def test_against_subset_enumeration(self):
        rng = random.Random(101)
        for _ in range(120):
            n = rng.randint(2, 8)
            vals = random_exact(rng, n, span=9)
            r = rng.randint(0, n)
            assert sigma(vals, r) == oracles.sigma_subsets(vals, r)

    def test_sigmas_equal_separate_sigma_calls(self):
        # one pass truncated at the largest r gives every lower sigma_r with
        # the same operations: equal Fractions, and bit-equal doubles
        rng = random.Random(103)
        for _ in range(120):
            n = rng.randint(2, 9)
            orders = [rng.randint(0, n) for _ in range(rng.randint(1, 4))]
            for vals in (random_exact(rng, n, span=9),
                         [rng.uniform(-3.0, 3.0) * 10.0 ** rng.randint(-5, 5) for _ in range(n)]):
                got = sigmas(vals, orders)
                want = tuple(sigma(vals, r) for r in orders)
                assert got == want
                assert [type(v) for v in got] == [type(v) for v in want]
                every = sigma_all(vals)
                assert every == sigmas(vals, range(n + 1))
                assert [type(v) for v in every] == [type(v) for v in sigmas(vals, range(n + 1))]
        with pytest.raises(DomainError):
            sigmas((1, 2), [2, 3])

    def test_sigmas_check_only_the_values_asked_for(self):
        # sigma_4 and sigma_5 of this point overflow a double, sigma_3 does not
        x = [1e80] * 5
        assert sigmas(x, [3, 2]) == (sigma(x, 3), sigma(x, 2))
        with pytest.raises(DomainError, match="not a finite number"):
            sigmas(x, [2, 4])
        # sigma_all asks for every order, so the overflow raises there too
        with pytest.raises(DomainError, match="not a finite number"):
            sigma_all(x)

    def test_recursion_residual_zero_exact(self):
        rng = random.Random(102)
        for _ in range(120):
            n = rng.randint(2, 8)
            vals = random_exact(rng, n, span=9)
            r = rng.randint(1, n)
            i = rng.randint(1, n)
            assert sigma_recursion_residual(vals, r, i) == 0

    def test_recursion_residual_one_lift_same_values(self, monkeypatch):
        # EXACT: a literal Fraction(0).  FLOAT: the double of the three-sigma
        # formula, sigma_r of the n - 1 values left being 0 when r = n.
        lifts = []
        lift = spectrum_module._lift
        monkeypatch.setattr(spectrum_module, "_lift",
                            lambda values, regime: lifts.append(1) or lift(values, regime))
        rng = random.Random(103)
        for _ in range(60):
            n = rng.randint(2, 9)
            r, i = rng.randint(1, n), rng.randint(1, n)
            exact = random_exact(rng, n, span=9)
            del lifts[:]
            value = sigma_recursion_residual(exact, r, i)
            assert type(value) is Fraction and value == 0
            assert len(lifts) == 1
            floats = [rng.uniform(-4.0, 4.0) for _ in range(n)]
            hat = floats[: i - 1] + floats[i:]
            expected = (sigma(floats, r) - floats[i - 1] * sigma(hat, r - 1)
                        - (sigma(hat, r) if r < n else 0.0))
            assert sigma_recursion_residual(floats, r, i).hex() == expected.hex()

    def test_recursion_residual_validation(self):
        with pytest.raises(DomainError):
            sigma_recursion_residual((1, 2, 3), 0, 1)
        with pytest.raises(DomainError):
            sigma_recursion_residual((1, 2, 3), 1, 4)


class TestInvariants:
    def test_frozen_example(self):
        # hand-computed for (1, 2, 3), c = 0
        rep = invariants(CurvatureSpectrum([1, 2, 3]))
        assert rep.H == 2
        assert rep.S == (1, 6, 11, 6)
        assert rep.R == Fraction(11, 3)
        assert rep.norm_a2 == 14
        assert rep.mu == (-1, 0, 1)
        assert rep.norm_phi2 == 2
        assert rep.tr_phi3 == 0
        assert rep.tr_a3 == 36

    def test_ambient_curvature_shifts_r_only(self):
        flat = invariants(CurvatureSpectrum([1, 2, 3], c=0))
        curved = invariants(CurvatureSpectrum([1, 2, 3], c=Fraction(1, 2)))
        assert curved.R == flat.R + Fraction(1, 2)
        assert curved.norm_a2 == flat.norm_a2
        assert curved.H == flat.H

    def test_scalar_curvature_against_pair_sum(self):
        rng = random.Random(103)
        for _ in range(80):
            n = rng.randint(3, 7)
            vals = random_exact(rng, n, span=9)
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            rep = invariants(CurvatureSpectrum(vals, c))
            assert rep.R == oracles.scalar_curvature(sorted(vals), c)

    def test_identities_random_exact(self):
        rng = random.Random(104)
        for _ in range(150):
            n = rng.randint(3, 9)
            vals = random_exact(rng, n, span=12)
            c = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            rep = invariants(CurvatureSpectrum(vals, c))
            h = rep.H
            assert n * n * h * h == rep.norm_a2 + n * (n - 1) * (rep.R - c)
            assert rep.norm_phi2 == rep.norm_a2 - n * h * h
            assert rep.tr_a3 == rep.tr_phi3 + 3 * h * rep.norm_phi2 + n * h ** 3
            assert sum(rep.mu) == 0

    def test_tr_a3_sides_agree(self):
        rng = random.Random(105)
        for _ in range(100):
            n = rng.randint(2, 9)
            lhs, rhs = tr_a3_sides(CurvatureSpectrum(random_exact(rng, n, span=12)))
            assert lhs == rhs

    def test_report_json_keys(self):
        payload = invariants(CurvatureSpectrum([1, 2, 3])).to_json_dict()
        assert set(payload) == {"n", "c", "regime", "H", "S", "Hr", "R",
                                "normA2", "mu", "normPhi2", "trPhi3", "trA3"}
        assert payload["R"] == "11/3"


class TestNewton:
    def test_frozen_first_transformation(self):
        # p_{1,i} = S_1 - lambda_i for (1, 2, 3): (5, 4, 3); trace = 2 S_2
        s = CurvatureSpectrum([1, 2, 3])
        p = newton_eigenvalues(s, 1)
        assert p == (5, 4, 3)
        assert sum(l * q for l, q in zip(s.lambdas, p)) == 2 * 11

    def test_against_subset_oracle(self):
        rng = random.Random(106)
        for _ in range(80):
            n = rng.randint(2, 7)
            vals = sorted(random_exact(rng, n, span=9))
            s = CurvatureSpectrum(vals)
            r = rng.randint(0, n - 1)
            p = newton_eigenvalues(s, r)
            for i in range(n):
                assert p[i] == oracles.newton_eigenvalue_subsets(vals, r, i)

    def test_trace_identity_all_orders(self):
        rng = random.Random(107)
        for _ in range(60):
            n = rng.randint(2, 8)
            s = CurvatureSpectrum(random_exact(rng, n, span=9))
            rep = invariants(s)
            for r in range(n):
                p = newton_eigenvalues(s, r)
                assert sum(l * q for l, q in zip(s.lambdas, p)) == (r + 1) * rep.S[r + 1]

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            newton_eigenvalues(CurvatureSpectrum([1, 2]), 3)


def _lift_cases():
    # Spectra for the lifted kernel: repeated values, zeros, negatives,
    # plain ints, and pairwise-coprime prime denominators for n = 2..12.
    rng = random.Random(109)
    primes = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157]
    cases = [
        [Fraction(1, 3)] * 4,
        [0, 0, Fraction(-2, 5), 0],
        [-3, -3, 7, 0, -1, 12],
        [Fraction(-7, 2), Fraction(-7, 2), 0, Fraction(5, 6), Fraction(5, 6), Fraction(5, 6)],
        list(range(-5, 6)),
        [Fraction(rng.randint(-1000, 1000), q) for q in primes],
    ]
    for n in range(2, 13):
        vals = random_exact(rng, n, span=9)
        vals[rng.randrange(n)] = 0
        vals[rng.randrange(n)] = vals[rng.randrange(n)]
        cases.append(vals)
        cases.append([rng.randint(-6, 6) for _ in range(n)])
        cases.append([Fraction(rng.randint(-99, 99), q) for q in primes[:n]])
    return cases


class TestLiftedKernel:
    def test_prime_denominators_lift_far(self):
        # the common denominator of the 12 prime denominators is about 1e25
        vals = _lift_cases()[5]
        assert math.lcm(*(v.denominator for v in vals)) > 10 ** 15

    @pytest.mark.parametrize("vals", _lift_cases())
    def test_sigma_all_against_subsets(self, vals):
        S = sigma_all(vals)
        assert len(S) == len(vals) + 1
        for r, value in enumerate(S):
            assert isinstance(value, Fraction)
            assert value == oracles.sigma_subsets(vals, r)
            assert sigma(vals, r) == value

    @pytest.mark.parametrize("vals", _lift_cases())
    def test_newton_all_orders_against_subsets(self, vals):
        s = CurvatureSpectrum(vals)
        lam = list(s.lambdas)
        for r in range(s.n + 1):
            p = newton_eigenvalues(s, r)
            assert all(isinstance(v, Fraction) for v in p)
            assert p == tuple(oracles.newton_eigenvalue_subsets(lam, r, i)
                              for i in range(s.n))

    @pytest.mark.parametrize("vals", _lift_cases())
    def test_invariants_against_direct_fractions(self, vals):
        s = CurvatureSpectrum(vals, c=Fraction(-2, 7))
        rep = invariants(s)
        lam = s.lambdas
        n = s.n
        H = sum(lam) / n
        mu = tuple(v - H for v in lam)
        assert rep.H == H
        assert rep.Hr == tuple(oracles.sigma_subsets(lam, r) / math.comb(n, r)
                               for r in range(n + 1))
        assert rep.mu == mu
        assert rep.norm_a2 == oracles.power_sum(lam, 2)
        assert rep.tr_a3 == oracles.power_sum(lam, 3)
        assert rep.norm_phi2 == oracles.power_sum(mu, 2)
        assert rep.tr_phi3 == oracles.power_sum(mu, 3)
        assert rep.tr_a3 == tr_a3_sides(s)[0] == tr_a3_sides(s)[1]
        if n >= 3:
            b = okumura_bound(rep.mu)
            assert (b.sum3, b.beta_squared) == (rep.tr_phi3, rep.norm_phi2)
            assert b.holds

    def test_plain_ints_give_fractions(self):
        assert sigma([1, 2, 3], 2) == 11
        assert isinstance(sigma([1, 2, 3], 2), Fraction)
        assert isinstance(sigma([1, 2, 3], 0), Fraction)
        assert all(isinstance(v, Fraction) for v in sigma_all([4, -1, 0]))

    def test_float_paths_pinned(self):
        # bit-for-bit values of the FLOAT paths, which the lift leaves alone
        s = CurvatureSpectrum([3.1, -1.5, 0.7, 0.25, 2.0], c=0.3)
        assert sigma_all(s.lambdas) == (
            1.0, 4.55, 2.145, -10.0475, -9.088750000000001, -1.6274999999999997)
        assert newton_eigenvalues(s, 2) == (
            11.219999999999999, 1.07, -0.5499999999999994, -2.9549999999999996,
            -2.349999999999999)
        assert newton_eigenvalues(s, 5) == (
            -3.774758283725532e-15, 6.661338147750939e-16, 1.5543122344752192e-15,
            1.5543122344752192e-15, -1.509903313490213e-14)
        rep = invariants(s)
        assert rep.Hr == (1.0, 0.9099999999999999, 0.2145, -1.00475,
                          -1.8177500000000002, -1.6274999999999997)
        assert rep.R == 0.5145
        assert rep.mu == (-2.41, -0.6599999999999999, -0.20999999999999996, 1.09,
                          2.1900000000000004)
        assert (rep.norm_a2, rep.norm_phi2, rep.tr_phi3, rep.tr_a3) == (
            16.4125, 12.272000000000002, -2.495789999999996, 34.774625)
        assert tr_a3_sides(s) == (34.774625, 34.774625000000015)
        assert SimonsPointData.with_gauss_curvatures(s).k_table == (
            (2.55, -0.07500000000000001, -0.7499999999999998, -2.7, -4.3500000000000005),
            (-0.07500000000000001, 0.3625, 0.475, 0.8, 1.075),
            (-0.7499999999999998, 0.475, 0.7899999999999999, 1.7, 2.4699999999999998),
            (-2.7, 0.8, 1.7, 4.3, 6.5),
            (-4.3500000000000005, 1.075, 2.4699999999999998, 6.5, 9.910000000000002))

    def test_float_paths_pinned_n2_signed_zero(self):
        # n = 2, where the S_3 term of tr_a3_sides vanishes; repr tells -0.0
        # from 0.0, which == does not.
        s = CurvatureSpectrum([1.3, -0.0], c=-0.0)
        assert repr(sigma_all(s.lambdas)) == "(1.0, 1.3, 0.0)"
        assert repr(tr_a3_sides(s)) == "(2.1970000000000005, 2.197)"
        assert repr([newton_eigenvalues(s, r) for r in range(3)]) == (
            "[(1.0, 1.0), (1.3, 0.0), (0.0, 0.0)]")
        rep = invariants(s)
        assert repr((rep.H, rep.S, rep.Hr, rep.R, rep.norm_a2, rep.mu, rep.norm_phi2,
                     rep.tr_phi3, rep.tr_a3)) == (
            "(0.65, (1.0, 1.3, 0.0), (1.0, 0.65, 0.0), 0.0, 1.6900000000000002, "
            "(-0.65, 0.65), 0.8450000000000001, 0.0, 2.1970000000000005)")
        assert repr(SimonsPointData.with_gauss_curvatures(s).k_table) == (
            "((0.0, -0.0), (-0.0, 1.6900000000000002))")


def _fingerprint(value):
    # Type and exact value of a kernel output; a float by float.hex, so that
    # -0.0 and 0.0 differ.
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, tuple):
        return tuple(_fingerprint(v) for v in value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value))
    return (type(value).__name__, value)


def _memo_cases():
    # EXACT and FLOAT spectra for n = 2..12, with zeros, -0.0 and repeats;
    # n = 2 is the case where tr_a3_sides has no S_3 term.
    rng = random.Random(113)
    cases = []
    for n in range(2, 13):
        vals = random_exact(rng, n, span=9)
        vals[rng.randrange(n)] = vals[rng.randrange(n)]
        cases.append((vals, Fraction(rng.randint(-5, 5), 3), None))
        floats = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        floats[rng.randrange(n)] = -0.0
        floats[rng.randrange(n)] = floats[rng.randrange(n)]
        cases.append((floats, rng.uniform(-1.0, 1.0), Regime.FLOAT))
    return cases


def _kernel_calls(n):
    # Every kernel call on one spectrum: invariants, tr_a3_sides and P_r for
    # each r, keyed for comparison.
    calls = [("invariants", invariants), ("tr_a3_sides", tr_a3_sides)]
    return calls + [(f"P_{r}", lambda s, r=r: newton_eigenvalues(s, r)) for r in range(n + 1)]


class TestLiftMemo:
    """A spectrum keeps its lifted kernel; nothing outside can tell."""

    @pytest.mark.parametrize("vals, c, regime", _memo_cases())
    def test_every_call_order_matches_a_fresh_spectrum(self, vals, c, regime):
        n = len(vals)
        calls = _kernel_calls(n)
        fresh = {key: _fingerprint(call(CurvatureSpectrum(vals, c, regime=regime)))
                 for key, call in calls}
        groups = [calls[:1], calls[1:2], calls[2:]]
        for order in itertools.permutations(range(3)):
            for newton_first_high in (False, True):
                s = CurvatureSpectrum(vals, c, regime=regime)
                for g in order:
                    group = groups[g][::-1] if g == 2 and newton_first_high else groups[g]
                    for key, call in group:
                        assert _fingerprint(call(s)) == fresh[key], (order, key)

    @pytest.mark.parametrize("vals, c, regime",
                             [case for case in _memo_cases() if len(case[0]) in (2, 3, 12)])
    def test_equality_hash_repr_and_json_ignore_the_memo(self, vals, c, regime):
        used = CurvatureSpectrum(vals, c, regime=regime)
        for _, call in _kernel_calls(len(vals)):
            call(used)
        fresh = CurvatureSpectrum(vals, c, regime=regime)
        assert used == fresh and fresh == used
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert json.dumps(used.to_json_dict()) == json.dumps(fresh.to_json_dict())
        # promote() gets its own kernel: FLOAT outputs, as on a fresh FLOAT copy
        float_fresh = CurvatureSpectrum(vals, c, regime=Regime.FLOAT)
        promoted = used.promote()
        for key, call in _kernel_calls(len(vals)):
            assert _fingerprint(call(promoted)) == _fingerprint(call(float_fresh)), key

    @pytest.mark.parametrize("failing", [
        invariants, tr_a3_sides, lambda t: newton_eigenvalues(t, 2),
        lambda t: newton_eigenvalues(t, t.n)],
        ids=["invariants", "tr_a3_sides", "P_2", "P_n"])
    def test_a_failed_call_leaves_the_kernel_usable(self, failing):
        # sigma_2 = 1e310 overflows, sigma_1 = 2e155 does not; a failed P_r
        # keeps its rows, and P_1 and P_0 read theirs afterwards.
        t = CurvatureSpectrum([1e155, 1e155, 0.0])
        with pytest.raises(DomainError, match="not a finite number"):
            failing(t)
        assert newton_eigenvalues(t, 1) == (2e155, 1e155, 1e155)
        with pytest.raises(DomainError, match="not a finite number"):
            failing(t)
        assert newton_eigenvalues(t, 0) == (1.0, 1.0, 1.0)

    def test_newton_rows_in_either_order_match_the_subsets(self):
        vals = _lift_cases()[5]  # n = 12 over twelve prime denominators
        lam = sorted(vals)
        n = len(lam)
        expected = [tuple(oracles.newton_eigenvalue_subsets(lam, r, i) for i in range(n))
                    for r in range(n + 1)]
        s = CurvatureSpectrum(vals)
        for r in [*range(n, -1, -1), *range(n + 1)]:
            assert newton_eigenvalues(s, r) == expected[r], r
        # P_1 on a fresh spectrum computes rows 0 and 1 only.
        fresh = CurvatureSpectrum(vals)
        assert newton_eigenvalues(fresh, 1) == expected[1]
        assert len(fresh._rows) == 2

    @pytest.mark.parametrize("regime", [Regime.EXACT, Regime.FLOAT])
    def test_one_lift_per_spectrum(self, monkeypatch, regime):
        lifts = []
        lift = spectrum_module._lift

        def counted(values, regime):
            lifts.append(len(values))
            return lift(values, regime)

        monkeypatch.setattr(spectrum_module, "_lift", counted)
        vals = [Fraction(-7, 2), 0, Fraction(5, 6), Fraction(5, 6), 3, Fraction(1, 9)]
        s = CurvatureSpectrum(vals, regime=regime)
        invariants(s)
        tr_a3_sides(s)
        for r in range(s.n + 1):
            newton_eigenvalues(s, r)
        assert lifts == [6]
        invariants(s.promote())  # a promoted copy lifts once for itself
        assert lifts == [6, 6]


class TestOkumura:
    def test_equality_configuration_exact(self):
        # mu = (-1, 1/3, 1/3, 1/3): n-1 values coincide, bound is attained
        b = okumura_bound([Fraction(-1), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)])
        assert b.holds and b.equality
        assert b.sum3 * b.sum3 == b.bound_squared
        assert b.beta_squared == Fraction(4, 3)

    def test_equality_configuration_n3(self):
        b = okumura_bound([Fraction(-2), Fraction(1), Fraction(1)])
        assert b.holds and b.equality
        assert b.sum3 == -6
        assert b.bound_squared == 36

    def test_strict_interior_exact(self):
        b = okumura_bound([Fraction(-3), Fraction(1), Fraction(2)])
        assert b.holds and not b.equality
        assert b.sum3 * b.sum3 < b.bound_squared

    def test_validation(self):
        with pytest.raises(DomainError):
            okumura_bound([Fraction(-1), Fraction(1)])  # n < 3
        with pytest.raises(DomainError):
            okumura_bound([Fraction(1), Fraction(1), Fraction(1)])  # not traceless

    def test_float_path_against_direct_arithmetic(self):
        rng = random.Random(108)
        for _ in range(200):
            n = rng.randint(3, 9)
            raw = [rng.uniform(-5, 5) for _ in range(n)]
            mean = sum(raw) / n
            mu = [v - mean for v in raw]
            b = okumura_bound(mu)
            sum3, bound = oracles.okumura_sides(mu)
            assert b.holds
            assert math.isclose(b.sum3, sum3, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(b.upper, bound, rel_tol=1e-12, abs_tol=1e-12)
            assert abs(b.sum3) <= b.upper + 1e-9 * max(1.0, b.upper)

    def test_float_equality_flag(self):
        # traceless family (-(n-1)b, b, ..., b) attains the bound
        for n in (3, 4, 6):
            mu = [-(n - 1) * 0.7] + [0.7] * (n - 1)
            b = okumura_bound(mu)
            assert b.equality
            assert b.equality_tolerance is not None
            assert abs(abs(b.sum3) - b.upper) <= 1e-9 * max(1.0, b.upper)

    def test_float_tolerance_is_reported(self):
        tol = Tolerance(rel=1e-6, abs=1e-9)
        b = okumura_bound([-1.0, 0.5, 0.5], tol=tol)
        # scaled by max(1, beta) with beta = sqrt(1.5)
        assert b.equality_tolerance == pytest.approx(1e-6 * math.sqrt(1.5))
