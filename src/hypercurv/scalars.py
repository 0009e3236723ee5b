"""Numeric regimes: exact rationals versus IEEE doubles.

Every quantity in this package lives in one of two regimes:

* ``EXACT``: arbitrary-precision rationals (:class:`fractions.Fraction`).
  Algebraic identities hold literally, so callers may compare with ``==``.
* ``FLOAT``: double precision.  Comparisons go through an explicit
  :class:`Tolerance`.

Plain integers are accepted in either regime (an integer is exact, and it
converts losslessly to a double at the magnitudes handled here).  Mixing a
``Fraction`` with a ``float`` raises :class:`~hypercurv.errors.RegimeError`;
the only road between regimes is the explicit, one-way :func:`promote`.

JSON has one rule, stated here by :func:`to_json` and :class:`JsonRecord`:
a record's fields appear under their camelCase names (``norm_phi2`` ->
``normPhi2``), rationals as canonical ``"p/q"`` strings, enums by value,
and a non-finite float as ``null``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError, RegimeError

Scalar = Union[Fraction, float, int]


class Regime(str, Enum):
    EXACT = "exact"
    FLOAT = "float"


def regime_of(value: Scalar):
    """Regime of one value, or ``None`` for integers (they fit either)."""
    if isinstance(value, Fraction):
        return Regime.EXACT
    if isinstance(value, numbers.Integral):
        return None
    if isinstance(value, numbers.Real):
        return Regime.FLOAT
    raise DomainError(f"not a scalar: {value!r} of type {type(value).__name__}")


def common_regime(values: Iterable[Scalar], default: Regime = Regime.EXACT) -> Regime:
    """Single regime shared by ``values``; mixing raises ``RegimeError``."""
    seen = {regime_of(v) for v in values}
    seen.discard(None)
    if len(seen) > 1:
        raise RegimeError("exact and float values may not be mixed; promote explicitly")
    return seen.pop() if seen else default


def coerce(value: Scalar, regime: Regime) -> Scalar:
    """Normalize one value into ``regime``.

    Coercing a float into EXACT raises: promotion is one-way and must go
    through :func:`promote` on purpose; a ``Fraction`` is immutable and comes
    back as it is, an integer as a ``Fraction``.  In FLOAT, NaN and infinity raise
    ``DomainError``; computed results pass through here too, so a float
    overflow raises rather than returning ``inf``.
    """
    if regime is Regime.FLOAT:
        value = float(value)
        if not math.isfinite(value):
            raise DomainError(f"not a finite number: {value!r}")
        return value
    if isinstance(value, Fraction):
        return value
    if regime_of(value) is Regime.FLOAT:
        raise RegimeError("a float cannot be silently exactified; promotion is one-way")
    return Fraction(value)


def promote(value: Scalar) -> float:
    """Explicit one-way EXACT -> FLOAT promotion."""
    return float(value)


def parse_scalar(raw, regime: Regime) -> Scalar:
    """Parse a scalar from CLI or JSON input.

    Strings are read as rationals ("3/4", "5", "0.25" all denote exact
    values); numbers are coerced into ``regime``, so a JSON float under
    EXACT is rejected rather than silently exactified, and NaN or infinity
    is rejected in either regime.
    """
    value = raw
    if isinstance(raw, str):
        try:
            value = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational literal: {raw!r}") from exc
    try:
        return coerce(value, regime)
    except OverflowError as exc:
        raise DomainError(f"not a finite number: {raw!r}") from exc


def scalar_to_json(value: Scalar):
    """JSON form: rationals as canonical "p/q" strings, floats as numbers."""
    if isinstance(value, numbers.Integral):
        return f"{int(value)}/1"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return float(value)


def to_json(value):
    """JSON-ready form of ``value`` under the package's one wire format.

    Records go through their ``to_json_dict``, enums to their value, a
    ``Fraction`` to ``"p/q"``, a non-finite float to ``None``, dicts, lists
    and tuples recursively, and a numpy scalar to its Python value.  Ints,
    strings, bools and ``None`` come back as they are.
    """
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Fraction):
        return scalar_to_json(value)
    if type(value).__module__ == "numpy" and hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    return value


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part[:1].upper() + part[1:] for part in rest)


class JsonRecord:
    """Mixin for dataclass records: JSON is each field under its camelCase name."""

    def to_json_dict(self) -> dict:
        return {_camel(f.name): to_json(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance pair used by every FLOAT comparison."""

    rel: float = 1e-9
    abs: float = 1e-12


DEFAULT_TOLERANCE = Tolerance()
