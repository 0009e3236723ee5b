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
