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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
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


def format_scalar(value: Scalar) -> str:
    """Short human-readable form for tables."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance pair used by every FLOAT comparison."""

    rel: float = 1e-9
    abs: float = 1e-12

    def close(self, a: float, b: float) -> bool:
        a = float(a)
        b = float(b)
        return abs(a - b) <= max(self.abs, self.rel * max(abs(a), abs(b)))

    def is_zero(self, a: float, scale: float = 1.0) -> bool:
        return abs(float(a)) <= max(self.abs, self.rel * abs(scale))


DEFAULT_TOLERANCE = Tolerance()


def scalars_equal(a: Scalar, b: Scalar, regime: Regime,
                  tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Regime-appropriate equality: literal in EXACT, tolerant in FLOAT."""
    if regime is Regime.EXACT:
        return a == b
    return tol.close(a, b)
