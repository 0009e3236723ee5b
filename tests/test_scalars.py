import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from hypercurv.caseverify import ConstraintSystem
from hypercurv.cylinders import cylinder_from_H
from hypercurv.errors import DomainError, RegimeError
from hypercurv.scalars import (
    Regime,
    coerce,
    common_regime,
    parse_scalar,
    promote,
    regime_of,
    scalar_to_json,
    to_json,
)
from hypercurv.spectrum import CurvatureSpectrum, invariants, sigma


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


def test_parse_round_trip_random():
    rng = random.Random(11)
    for _ in range(300):
        value = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        encoded = scalar_to_json(value)
        assert parse_scalar(encoded, Regime.EXACT) == value


class TestToJson:
    def test_fraction_as_p_over_q(self):
        assert to_json(Fraction(-3, 7)) == "-3/7"
        assert to_json(Fraction(4)) == "4/1"

    def test_int_str_bool_none_pass_through(self):
        assert to_json(5) == 5 and type(to_json(5)) is int
        assert to_json(True) is True
        assert to_json("p/q") == "p/q"
        assert to_json(None) is None

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_is_null(self, bad):
        assert to_json(bad) is None
        assert to_json([0.5, bad]) == [0.5, None]

    def test_finite_float_unchanged(self):
        assert to_json(-0.0) == 0.0 and math.copysign(1.0, to_json(-0.0)) == -1.0
        assert to_json(0.1) == 0.1

    def test_enum_by_value(self):
        assert to_json(Regime.EXACT) == "exact"
        assert to_json({"regime": Regime.FLOAT}) == {"regime": "float"}

    def test_tuples_become_lists_recursively(self):
        assert to_json((Fraction(1, 2), (2, 0.5))) == ["1/2", [2, 0.5]]
        assert to_json({"a_b": (Fraction(1, 3),)}) == {"a_b": ["1/3"]}

    def test_nested_records(self):
        spec = CurvatureSpectrum([Fraction(1, 2), 2])
        payload = to_json({"spectrum": spec, "reports": [invariants(spec)]})
        assert payload["spectrum"] == spec.to_json_dict()
        assert payload["reports"][0] == invariants(spec).to_json_dict()
        assert payload["reports"][0]["normA2"] == "17/4"

    def test_numpy_scalars(self):
        for value, expected in ((np.float64(0.5), 0.5), (np.int64(3), 3),
                                (np.bool_(True), True)):
            out = to_json(value)
            assert out == expected and type(out) is type(expected)
        assert to_json(np.float64("inf")) is None


def test_scalars_module_loads_no_numpy():
    # Load hypercurv.scalars without the package __init__, which imports
    # the numpy-backed modules.
    package_dir = os.path.dirname(os.path.abspath(sys.modules["hypercurv.scalars"].__file__))
    code = ("import sys, types; pkg = types.ModuleType('hypercurv'); "
            f"pkg.__path__ = [{package_dir!r}]; "
            "sys.modules['hypercurv'] = pkg; import hypercurv.scalars; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
