"""Numeric regimes: exact rationals versus IEEE doubles.

Every quantity in this package lives in one of two regimes:

* ``EXACT``: arbitrary-precision rationals (:class:`fractions.Fraction`).
  Algebraic identities hold literally, so callers may compare with ``==``.
* ``FLOAT``: double precision.  Comparisons take an explicit relative
  bound: a :class:`Tolerance` in ``okumura_bound``, inline elsewhere.

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
from typing import Collection, Iterable, Union

from .errors import DomainError, RegimeError

Scalar = Union[Fraction, float, int]


class Regime(str, Enum):
    EXACT = "exact"
    FLOAT = "float"


def regime_of(value: Scalar):
    """Regime of one value, or ``None`` for integers (they fit either)."""
    if type(value) is float:  # the common case, without the ABC checks below
        return Regime.FLOAT
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
    back as it is, an integer as a ``Fraction``.  In FLOAT, NaN, infinity and
    an exact value past the double range raise ``DomainError``; computed
    results pass through here too, so a float overflow raises rather than
    returning ``inf``.
    """
    if regime is Regime.FLOAT:
        value = promote(value)
        if not math.isfinite(value):
            raise DomainError(f"not a finite number: {value!r}")
        return value
    if isinstance(value, Fraction):
        return value
    if regime_of(value) is Regime.FLOAT:
        raise RegimeError("a float cannot be silently exactified; promotion is one-way")
    return Fraction(value)


def promote(value: Scalar) -> float:
    """Explicit one-way EXACT -> FLOAT promotion.

    An exact value too large for a double raises ``DomainError``.
    """
    try:
        return float(value)
    except OverflowError:
        raise DomainError("not a finite number: an exact value exceeds the float range") from None


def parse_scalar(raw, regime: Regime) -> Scalar:
    """Parse a scalar from CLI or JSON input.

    Strings are read as rationals ("3/4", "5", "0.25" all denote exact
    values); numbers are coerced into ``regime``, so a JSON float under
    EXACT is rejected rather than silently exactified, and NaN or infinity
    is rejected in either regime.  A boolean is refused, not read as 1 or 0.
    """
    value = raw
    if isinstance(raw, bool):
        raise DomainError(f"not a scalar: {raw!r}; a boolean is no number")
    if isinstance(raw, str):
        try:
            value = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational literal: {raw!r}") from exc
    return coerce(value, regime)


_JSON_TYPES = {int: ((int,), "an integer"), bool: ((bool,), "true or false"),
               list: ((list, tuple), "an array"), str: ((str,), "a string")}


def _json_typed(value, kind: type, field: str, nullable: bool = False):
    """``value`` of the JSON ``field`` if its type is exactly ``kind``.

    So a bool or a float is no integer and a string is no array; a tuple
    stands for an array, and ``None`` passes where ``nullable``.
    Anything else raises ``TypeError``, which each payload reader turns
    into its ``DomainError``.
    """
    types, name = _JSON_TYPES[kind]
    if type(value) in types or (nullable and value is None):
        return value
    raise TypeError(f"{field} must be {name}, got {value!r}")


def _json_keys(payload, known: Collection[str], what: str) -> dict:
    """``payload`` if it is a JSON object whose keys all lie in ``known``.

    An unknown key raises ``DomainError`` naming it and the known ones, so a
    misspelled key cannot silently drop its field.  A payload that is no
    object raises ``TypeError``, as in ``_json_typed``.
    """
    if not isinstance(payload, dict):
        raise TypeError(f"a {what} must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload).difference(known)
    if unknown:
        raise DomainError(f"unknown {what} keys: {', '.join(sorted(map(str, unknown)))}; "
                          f"known: {', '.join(sorted(known))}")
    return payload


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
    """Relative/absolute tolerance pair of ``spectrum.okumura_bound``.

    The other FLOAT comparisons (the canonical-R test of
    ``caseverify.expected_outcome``, the cylinder invariant check, the
    symmetry check of a Simons K table and the CLI's ``formsAgree``) state
    their own relative bound inline.
    """

    rel: float = 1e-9
    abs: float = 1e-12


DEFAULT_TOLERANCE = Tolerance()
