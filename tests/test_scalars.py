import math
import random
from fractions import Fraction

import pytest

from hypercurv.caseverify import ConstraintSystem
from hypercurv.cylinders import cylinder_from_H
from hypercurv.errors import DomainError, RegimeError
from hypercurv.scalars import (
    Regime,
    Tolerance,
    coerce,
    common_regime,
    format_scalar,
    parse_scalar,
    promote,
    regime_of,
    scalar_to_json,
    scalars_equal,
)
from hypercurv.spectrum import CurvatureSpectrum, sigma


def test_regime_of_basic():
    assert regime_of(Fraction(1, 3)) is Regime.EXACT
    assert regime_of(0.5) is Regime.FLOAT
    assert regime_of(7) is None
    assert regime_of(True) is None  # bool is Integral
    with pytest.raises(DomainError):
        regime_of("3/4")
    with pytest.raises(DomainError):
        regime_of(1 + 2j)


def test_common_regime_defaults_and_mixing():
    assert common_regime([1, 2, 3]) is Regime.EXACT
    assert common_regime([1, 2, 3], default=Regime.FLOAT) is Regime.FLOAT
    assert common_regime([1, Fraction(1, 2)]) is Regime.EXACT
    assert common_regime([1, 0.5]) is Regime.FLOAT
    with pytest.raises(RegimeError):
        common_regime([Fraction(1, 2), 0.5])


def test_coerce_is_one_way():
    assert coerce(3, Regime.EXACT) == Fraction(3)
    assert isinstance(coerce(3, Regime.EXACT), Fraction)
    assert coerce(Fraction(-1, 3), Regime.EXACT) == Fraction(-1, 3)
    assert type(coerce(Fraction(-1, 3), Regime.EXACT)) is Fraction
    assert coerce(Fraction(1, 4), Regime.FLOAT) == 0.25
    assert isinstance(coerce(3, Regime.FLOAT), float)
    with pytest.raises(RegimeError):
        coerce(0.5, Regime.EXACT)
    assert promote(Fraction(1, 2)) == 0.5
    assert isinstance(promote(Fraction(1, 2)), float)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coerce_rejects_non_finite_floats(bad):
    with pytest.raises(DomainError):
        coerce(bad, Regime.FLOAT)
    with pytest.raises(DomainError):
        CurvatureSpectrum([bad, 1.0, 2.0])
    with pytest.raises(DomainError):
        ConstraintSystem(4, bad, 4.0)
    with pytest.raises(DomainError):
        cylinder_from_H(4, 2, bad)


def test_float_overflow_in_a_computation_raises():
    with pytest.raises(DomainError, match="not a finite number"):
        sigma([1e200, 1e200], 2)


def test_parse_scalar_strings():
    assert parse_scalar("3/4", Regime.EXACT) == Fraction(3, 4)
    assert parse_scalar(" -7 ", Regime.EXACT) == Fraction(-7)
    # decimal literals denote exact values
    assert parse_scalar("0.25", Regime.EXACT) == Fraction(1, 4)
    assert parse_scalar("3/4", Regime.FLOAT) == 0.75
    assert isinstance(parse_scalar("3/4", Regime.FLOAT), float)
    with pytest.raises(DomainError):
        parse_scalar("eleven", Regime.EXACT)
    with pytest.raises(DomainError):
        parse_scalar("1/0", Regime.EXACT)


def test_parse_scalar_numbers_respect_regime():
    assert parse_scalar(3, Regime.EXACT) == Fraction(3)
    assert parse_scalar(0.5, Regime.FLOAT) == 0.5
    with pytest.raises(RegimeError):
        parse_scalar(0.5, Regime.EXACT)


def test_json_and_format_forms():
    assert scalar_to_json(Fraction(-3, 7)) == "-3/7"
    assert scalar_to_json(5) == "5/1"
    assert scalar_to_json(0.25) == 0.25
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(4) == "4"
    assert format_scalar(0.1) == "0.1"


def test_parse_round_trip_random():
    rng = random.Random(11)
    for _ in range(300):
        value = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        encoded = scalar_to_json(value)
        assert parse_scalar(encoded, Regime.EXACT) == value


def test_tolerance_close_and_zero():
    tol = Tolerance(rel=1e-9, abs=1e-12)
    assert tol.close(1.0, 1.0 + 5e-10)
    assert not tol.close(1.0, 1.0 + 5e-9)
    assert tol.close(0.0, 5e-13)
    assert tol.is_zero(1e-13)
    assert not tol.is_zero(1e-6)
    assert tol.is_zero(1e-6, scale=1e4)


def test_scalars_equal_by_regime():
    assert scalars_equal(Fraction(1, 3), Fraction(2, 6), Regime.EXACT)
    assert not scalars_equal(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30),
                             Regime.EXACT)
    assert scalars_equal(1.0, 1.0 + 1e-13, Regime.FLOAT)
    assert not scalars_equal(1.0, 1.001, Regime.FLOAT)
