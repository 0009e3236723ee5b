import math
import random
from fractions import Fraction

import pytest

from hypercurv.errors import DomainError, RegimeError
from hypercurv.simons import (
    SimonsPointData,
    cmc_bracket,
    cmc_bracket_sign,
    simons_rhs_general,
    simons_rhs_space_form,
)
from hypercurv.spectrum import CurvatureSpectrum, invariants


def random_exact(rng, n, span=9):
    return [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(n)]


def naive_general(lam, grad, hess, table):
    # term-by-term Fraction loop of the curvature-table form
    n = len(lam)
    total = grad + n * sum(l * h for l, h in zip(lam, hess))
    for i in range(n):
        for j in range(i + 1, n):
            total += (lam[i] - lam[j]) ** 2 * table[i][j]
    return total


def naive_space_form(lam, c, grad, hess):
    # term-by-term Fraction loop of the space-form collapse
    n = len(lam)
    s1 = sum(lam)
    norm_a2 = sum(l * l for l in lam)
    tr_a3 = sum(l ** 3 for l in lam)
    return (grad + n * sum(l * h for l, h in zip(lam, hess))
            + n * c * (norm_a2 - s1 * s1 / n) + s1 * tr_a3 - norm_a2 ** 2)


def primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


class TestSimonsPointData:
    def test_gauss_table_entries(self):
        s = CurvatureSpectrum([1, 2, 3], c=Fraction(1, 2))
        d = SimonsPointData.with_gauss_curvatures(s)
        assert d.gauss
        assert d.k_table[0][1] == Fraction(1, 2) + 1 * 2
        assert d.k_table[1][2] == Fraction(1, 2) + 2 * 3
        assert d.hess_h == (0, 0, 0)
        # every entry, the diagonal included, in EXACT; FLOAT entry by entry
        rng = random.Random(7)
        for n in (2, 5, 9):
            s = CurvatureSpectrum(random_exact(rng, n), c=Fraction(-3, 11))
            table = SimonsPointData.with_gauss_curvatures(s).k_table
            lam = s.lambdas
            for i in range(n):
                for j in range(n):
                    assert isinstance(table[i][j], Fraction)
                    assert table[i][j] == s.c + lam[i] * lam[j]
        f = CurvatureSpectrum([rng.uniform(-3, 3) for _ in range(6)], c=0.7)
        table = SimonsPointData.with_gauss_curvatures(f).k_table
        assert table == tuple(tuple(f.c + a * b for b in f.lambdas) for a in f.lambdas)

    def test_validation(self):
        s = CurvatureSpectrum([1, 2, 3])
        table = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
        with pytest.raises(DomainError):
            SimonsPointData(s, Fraction(-1), (0, 0, 0), table)
        with pytest.raises(DomainError):
            SimonsPointData(s, Fraction(0), (0, 0), table)
        bad = ((0, 1, 0), (2, 0, 0), (0, 0, 0))
        with pytest.raises(DomainError):
            SimonsPointData(s, Fraction(0), (0, 0, 0), bad)

    def test_validation_kept_around_the_gauss_table(self):
        # a table handed to the constructor is checked even with gauss=True;
        # with_gauss_curvatures skips the checks of its own table only
        s = CurvatureSpectrum([1, 2, 3])
        asymmetric = ((0, 1, 0), (2, 0, 0), (0, 0, 0))
        with pytest.raises(DomainError, match="symmetric"):
            SimonsPointData(s, Fraction(0), (0, 0, 0), asymmetric, gauss=True)
        mixed = ((0, 0.5, 0), (Fraction(1, 2), 0, 0), (0, 0, 0))
        with pytest.raises(DomainError):
            SimonsPointData(s, Fraction(0), (0, 0, 0), mixed, gauss=True)
        with pytest.raises(DomainError, match="hess_h needs 3"):
            SimonsPointData.with_gauss_curvatures(s, 0, (1, 2))
        with pytest.raises(DomainError):
            SimonsPointData.with_gauss_curvatures(s, 0, (Fraction(1), 0.5, 0))
        with pytest.raises(DomainError):
            SimonsPointData.with_gauss_curvatures(s, 0.5)
        with pytest.raises(DomainError, match="cannot be negative"):
            SimonsPointData.with_gauss_curvatures(s, Fraction(-1, 3))
        f = CurvatureSpectrum([1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match="cannot be negative"):
            SimonsPointData.with_gauss_curvatures(f, -0.5)
        with pytest.raises(DomainError):
            SimonsPointData.with_gauss_curvatures(f, 0.0, (0.0, math.nan, 0.0))
        d = SimonsPointData.with_gauss_curvatures(s, 2, [1, 0, 3])
        assert d.grad_a2 == 2 and isinstance(d.grad_a2, Fraction)
        assert d.hess_h == (1, 0, 3) and all(isinstance(v, Fraction) for v in d.hess_h)
        assert d == SimonsPointData(s, 2, (1, 0, 3), d.k_table, gauss=True)

    def test_regime_uniformity(self):
        s = CurvatureSpectrum([1, 2, 3])
        table = tuple(tuple(0.0 for _ in range(3)) for _ in range(3))
        with pytest.raises((DomainError, RegimeError)):
            SimonsPointData(s, Fraction(0), (0, 0, 0), table)

    def test_json_shape(self):
        s = CurvatureSpectrum([1, 2, 3])
        payload = SimonsPointData.with_gauss_curvatures(s, grad_a2=5).to_json_dict()
        assert payload["gradA2"] == "5/1"
        assert payload["gauss"] is True
        assert len(payload["Kij"]) == 3


class TestRightHandSides:
    def test_frozen_example(self):
        # (1,2,3), c=0, grad=5, flat Hess: 5 + sum_{i<j} (li-lj)^2 li lj
        # = 5 + 1*2 + 4*3 + 1*6 = 25
        s = CurvatureSpectrum([1, 2, 3])
        d = SimonsPointData.with_gauss_curvatures(s, grad_a2=5)
        assert simons_rhs_general(d) == 25
        assert simons_rhs_space_form(s, 5) == 25

    def test_forms_agree_random_exact(self):
        rng = random.Random(201)
        for _ in range(150):
            n = rng.randint(3, 8)
            s = CurvatureSpectrum(random_exact(rng, n),
                                  c=Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            grad = Fraction(rng.randint(0, 9), rng.randint(1, 9))
            hess = random_exact(rng, n)
            d = SimonsPointData.with_gauss_curvatures(s, grad, hess)
            assert simons_rhs_general(d) == simons_rhs_space_form(s, grad, hess)

    def test_non_gauss_table_changes_value(self):
        s = CurvatureSpectrum([1, 2, 3])
        table = [[Fraction(0)] * 3 for _ in range(3)]
        table[0][1] = table[1][0] = Fraction(7)
        d = SimonsPointData(s, Fraction(0), (0, 0, 0),
                            tuple(tuple(r) for r in table))
        assert not d.gauss
        # only the (0,1) plane contributes: (1-2)^2 * 7
        assert simons_rhs_general(d) == 7
        assert simons_rhs_general(d) != simons_rhs_space_form(s)

    def test_vanishing_on_cylinder_spectra(self):
        # minimal-type balance: every scalar ladder rung zeroes the RHS
        from hypercurv.cylinders import cylinder_from_H
        for n in (4, 5):
            for k in range(1, n + 1):
                spec = cylinder_from_H(n, k, 1).spectrum()
                d = SimonsPointData.with_gauss_curvatures(spec)
                assert simons_rhs_general(d) == 0
                assert simons_rhs_space_form(spec) == 0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_lifted_forms_match_naive_loop(self, n):
        # every value over its own prime, so the lcms are products of
        # distinct primes; the user table's primes do not divide D^2
        rng = random.Random(n)
        dens = iter(primes(2 * n + 2 + n * (n - 1) // 2))

        def value():
            p, num = next(dens), rng.randint(1, 40)
            return Fraction(rng.choice([-1, 1]) * (num + (num % p == 0)), p)

        lam = [value() for _ in range(n)]
        hess = tuple(value() for _ in range(n))
        grad, c = abs(value()), value()
        s = CurvatureSpectrum(lam, c)
        lam = s.lambdas
        gauss = SimonsPointData.with_gauss_curvatures(s, grad, hess)
        table = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                table[i][j] = table[j][i] = value()
        user = SimonsPointData(s, grad, hess, tuple(map(tuple, table)))
        expected = naive_space_form(lam, c, grad, hess)
        assert simons_rhs_general(gauss) == naive_general(lam, grad, hess, gauss.k_table)
        assert simons_rhs_general(gauss) == expected
        assert simons_rhs_space_form(s, grad, hess) == expected
        assert simons_rhs_general(user) == naive_general(lam, grad, hess, table)
        for out in (simons_rhs_general(gauss), simons_rhs_general(user),
                    simons_rhs_space_form(s, grad, hess)):
            assert type(out) is Fraction

    def test_float_forms_pinned(self):
        # bit-for-bit FLOAT values of both forms, the spectrum of
        # test_spectrum's test_float_paths_pinned
        s = CurvatureSpectrum([3.1, -1.5, 0.7, 0.25, 2.0], c=0.3)
        hess = (0.4, -1.25, 2.5, 0.125, -0.75)
        d = SimonsPointData.with_gauss_curvatures(s, 1.75, hess)
        assert simons_rhs_general(d) == -97.1751125
        assert simons_rhs_space_form(s, 1.75, hess) == -97.17511250000004
        assert simons_rhs_general(SimonsPointData.with_gauss_curvatures(s)) == -92.73761249999997
        assert simons_rhs_space_form(s) == -92.73761250000001
        # a user table that is not the Gauss one
        entries = iter([0.3, -1.7, 2.25, 0.1, -0.6, 1.9, 0.45, -2.2, 0.8, 1.1])
        table = [[0.0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                table[i][j] = table[j][i] = next(entries)
        user = SimonsPointData(s, 1.75, hess, tuple(map(tuple, table)))
        assert simons_rhs_general(user) == 29.505125

    def test_float_forms_pinned_n2_signed_zero(self):
        # repr tells -0.0 from 0.0, which == does not
        s = CurvatureSpectrum([1.3, -0.0], c=-0.0)
        assert repr(simons_rhs_general(SimonsPointData.with_gauss_curvatures(s))) == "0.0"
        assert repr(simons_rhs_space_form(s)) == "4.440892098500626e-16"
        d = SimonsPointData.with_gauss_curvatures(s, 0.25, (-0.0, -0.5))
        assert repr(simons_rhs_general(d)) == "-1.05"
        assert repr(simons_rhs_space_form(s, 0.25, (-0.0, -0.5))) == "-1.0499999999999996"
        user = SimonsPointData(s, -0.0, (-0.0, 0.5), ((-0.0, 2.5), (2.5, -0.0)))
        assert repr(simons_rhs_general(user)) == "5.525"
        zero = CurvatureSpectrum([-0.0, -0.0], c=-0.0)
        d = SimonsPointData.with_gauss_curvatures(zero, -0.0, (-0.0, -0.0))
        assert repr(simons_rhs_general(d)) == "0.0"
        assert repr(simons_rhs_space_form(zero, -0.0, (-0.0, -0.0))) == "0.0"

    def test_exact_grad_past_the_double_range(self):
        # the sign check compares in the value's own regime, so an EXACT
        # |grad A|^2 no double can hold goes through both forms exactly
        s = CurvatureSpectrum([1, 2, 3])
        hess = (Fraction(1, 3), 0, -2)
        grad = Fraction(10 ** 400, 7)
        expected = naive_space_form(s.lambdas, 0, grad, hess)
        d = SimonsPointData.with_gauss_curvatures(s, grad, hess)
        assert d.grad_a2 == grad
        assert simons_rhs_general(d) == expected
        assert simons_rhs_space_form(s, grad, hess) == expected
        assert simons_rhs_general(SimonsPointData(s, grad, hess, d.k_table)) == expected
        for bad in (-grad, Fraction(-1, 10 ** 400)):
            with pytest.raises(DomainError, match="cannot be negative"):
                simons_rhs_space_form(s, bad)
            with pytest.raises(DomainError, match="cannot be negative"):
                SimonsPointData.with_gauss_curvatures(s, bad)

    @pytest.mark.parametrize("lambdas, grad_a2, hess_h", [
        ([1, 2, 3], 0, (0, 0)),  # a wrong hess_h length
        ([1.0, 2.0, 3.0], Fraction(1, 2), None),  # an exact value on a FLOAT spectrum
        ([1, 2, 3], 0, (0.5, 0, 0)),  # a float value on an EXACT spectrum
        ([1, 2, 3], -1, None),  # a negative |grad A|^2
    ])
    def test_one_point_check_for_every_entry(self, lambdas, grad_a2, hess_h):
        s = CurvatureSpectrum(lambdas)
        table = SimonsPointData.with_gauss_curvatures(s).k_table
        entries = [lambda: SimonsPointData(s, grad_a2, hess_h, table),
                   lambda: SimonsPointData.with_gauss_curvatures(s, grad_a2, hess_h),
                   lambda: simons_rhs_space_form(s, grad_a2, hess_h)]
        errors = []
        for entry in entries:
            with pytest.raises(DomainError) as caught:
                entry()
            errors.append((type(caught.value), str(caught.value)))
        assert len(set(errors)) == 1, errors

    def test_missing_hess_h_reads_as_zeros_in_every_entry(self):
        for s in (CurvatureSpectrum([1, 2, 3], c=1), CurvatureSpectrum([1.0, 2.0, 3.0], c=1.0)):
            gauss = SimonsPointData.with_gauss_curvatures(s, 2)
            data = SimonsPointData(s, 2, None, gauss.k_table)
            assert data.hess_h == gauss.hess_h == (0, 0, 0)
            assert simons_rhs_general(data) == simons_rhs_space_form(s, 2) \
                == simons_rhs_space_form(s, 2, gauss.hess_h)

    def test_space_form_validation(self):
        s = CurvatureSpectrum([1, 2, 3])
        with pytest.raises(DomainError):
            simons_rhs_space_form(s, Fraction(-1))
        with pytest.raises(DomainError):
            simons_rhs_space_form(s, 0, hess_h=(1, 2))


class TestBracket:
    def test_zero_configurations(self):
        assert cmc_bracket_sign(4, 0, 1, Fraction(4, 3)) == 0
        assert cmc_bracket_sign(5, 0, 1, Fraction(5, 4)) == 0
        for h in (Fraction(2, 3), 2, 7):
            assert cmc_bracket_sign(4, 0, h, Fraction(4, 3) * h * h) == 0
            assert cmc_bracket_sign(5, 0, h, Fraction(5, 4) * h * h) == 0

    def test_sign_rejects_float_inputs(self):
        with pytest.raises(RegimeError):
            cmc_bracket_sign(4, 0.5, 1, 1.0)
        with pytest.raises(RegimeError):
            cmc_bracket_sign(4, 0, 1.0, Fraction(4, 3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_bracket_rejects_non_finite_inputs(self, bad):
        with pytest.raises(DomainError):
            cmc_bracket(4, 0, 1, bad)
        with pytest.raises(DomainError):
            cmc_bracket(4, bad, 1, 0.5)

    def test_signs_around_zero(self):
        assert cmc_bracket_sign(4, 0, 1, Fraction(4, 3) - Fraction(1, 100)) == 1
        assert cmc_bracket_sign(4, 0, 1, Fraction(4, 3) + Fraction(1, 100)) == -1
        # a < 0 branch: |phi|^2 alone exceeds nc + nH^2
        assert cmc_bracket_sign(4, 0, 1, 100) == -1
        # umbilic: |phi| = 0 makes the bracket n(c + H^2)
        assert cmc_bracket_sign(4, 0, 1, 0) == 1
        assert cmc_bracket_sign(4, -1, 1, 0) == 0
        assert cmc_bracket_sign(4, -2, 1, 0) == -1

    def test_sign_matches_float_bracket(self):
        rng = random.Random(202)
        for _ in range(300):
            n = rng.randint(3, 9)
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            h = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            phi2 = Fraction(rng.randint(0, 40), rng.randint(1, 6))
            sign = cmc_bracket_sign(n, c, h, phi2)
            value = cmc_bracket(n, c, h, math.sqrt(float(phi2)))
            if abs(value) > 1e-9:
                assert sign == (1 if value > 0 else -1)

    def test_validation(self):
        with pytest.raises(DomainError):
            cmc_bracket(2, 0, 1, 1)
        with pytest.raises(DomainError):
            cmc_bracket_sign(4, 0, 1, -1)
        with pytest.raises(DomainError):
            cmc_bracket(4, 0, 1, -1.0)


class TestAgainstInvariantReport:
    def test_bracket_lower_bound_cmc(self):
        # with zero gradient and flat Hess the space-form RHS equals
        # |phi|^2 (nc + nH^2) + nH tr(phi^3) - |phi|^4; the cubic bound on
        # tr(phi^3) turns that into RHS >= |phi|^2 * bracket pointwise
        rng = random.Random(203)
        for _ in range(200):
            n = rng.randint(3, 7)
            lams = [rng.uniform(-3, 3) for _ in range(n)]
            spec = CurvatureSpectrum(lams, 0.0)
            rep = invariants(spec)
            rhs = simons_rhs_space_form(spec)
            phi = math.sqrt(rep.norm_phi2)
            lower = rep.norm_phi2 * cmc_bracket(n, 0.0, rep.H, phi)
            assert rhs >= lower - 1e-9 * max(1.0, abs(lower))
