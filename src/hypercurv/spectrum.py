"""Pointwise algebraic invariants of a principal-curvature spectrum.

Everything in this module is a symmetric function of the shape-operator
eigenvalues lambda_1 <= ... <= lambda_n of a hypersurface point sitting in a
space form of curvature c:

* elementary symmetric values S_r and scaled means H_r = S_r / C(n, r),
  with H = H_1 the mean curvature;
* the normalized scalar curvature R = c + H_2;
* |A|^2 = sum lambda_i^2, the traceless eigenvalues mu_i = lambda_i - H,
  |phi|^2 = sum mu_i^2, and the power sums tr A^3, tr phi^3;
* Newton-transformation eigenvalues p_{r,i} from P_0 = I,
  P_r = S_r I - A P_{r-1};
* the zero-trace cubic bound
  |sum mu_i^3| <= (n-2)/sqrt(n(n-1)) * (sum mu_i^2)^{3/2}.

All operations accept either numeric regime.  In EXACT the classical
identities hold literally, e.g. n^2 H^2 = |A|^2 + n(n-1)(R - c) and
tr A^3 = tr phi^3 + 3 H |phi|^2 + n H^3, and tests compare with ``==``.

One lifted kernel serves both regimes.  A spectrum is lifted once, not once
per call: its first ``invariants``, ``tr_a3_sides`` or ``newton_eigenvalues``
call computes numerators a_i = lambda_i D over a common denominator D and
every e_r(a), r = 0..n, and the spectrum keeps them for the later calls.  It
also keeps the integer Newton rows q_{r,i} = p_{r,i} D^r, extended on demand
up to the highest r asked for so far, so asking for every P_r runs the
recursion once, not once per r.  The outputs are still built per call.
Every sum, product and recursion runs on the a_i, and each call builds each
of its output values once, as a numerator over the matching power of D.  In
EXACT, D is the lcm of the lambda_i denominators, the a_i are plain ``int``
values, and each output is one ``Fraction``, normalized exactly once:
sigma_r = e_r(a) / D^r, and the traceless eigenvalues are
mu_i = (n a_i - e_1(a)) / (n D).  These are the same rationals the direct
``Fraction`` arithmetic gives.  In FLOAT the values pass through with
D = 1, so every division is exact and each output is the double the plain
float arithmetic gives, checked finite on the way out: an overflow raises
``DomainError`` rather than returning ``inf``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, sqrt
from typing import Callable, Optional, Sequence, Tuple

from .errors import DomainError
from .scalars import (
    DEFAULT_TOLERANCE,
    JsonRecord,
    Regime,
    Scalar,
    Tolerance,
    _json_keys,
    _json_typed,
    coerce,
    common_regime,
    parse_scalar,
    promote,
    to_json,
)


class CurvatureSpectrum:
    """The ordered principal curvatures of one hypersurface point.

    ``lambdas`` is stored sorted non-decreasing; ``c`` is the sectional
    curvature of the ambient space form.  All entries share one regime.
    Passing ``regime`` explicitly both validates and, for FLOAT, acts as
    an explicit promotion of exact inputs.

    Only ``__init__`` assigns ``lambdas``, ``c`` and ``regime``.  The lifted
    kernel kept in ``_kernel`` and the Newton rows kept in ``_rows`` rely on
    that: the first kernel call runs the full sigma pass and stores it
    there, ``newton_eigenvalues`` replaces ``_rows`` with a longer tuple when
    it needs a higher row, and later calls read both.  Equality, hashing,
    ``repr`` and JSON ignore them.
    """

    __slots__ = ("lambdas", "c", "regime", "_kernel", "_rows")

    def __init__(self, lambdas: Sequence[Scalar], c: Scalar = 0, regime=None):
        values = tuple(lambdas)
        if len(values) < 2:
            raise DomainError("a spectrum needs dimension n >= 2")
        declared = Regime(regime) if regime is not None else None
        if declared is None:
            declared = common_regime((*values, c))
        self.lambdas: Tuple[Scalar, ...] = tuple(sorted(coerce(v, declared) for v in values))
        self.c: Scalar = coerce(c, declared)
        self.regime: Regime = declared
        self._kernel: Optional[tuple] = None
        self._rows: Tuple[list, ...] = ()

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def promote(self) -> "CurvatureSpectrum":
        """Explicit one-way copy into the FLOAT regime."""
        return CurvatureSpectrum(self.lambdas, self.c, regime=Regime.FLOAT)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurvatureSpectrum):
            return NotImplemented
        return (self.lambdas, self.c, self.regime) == (other.lambdas, other.c, other.regime)

    def __hash__(self) -> int:
        return hash((self.lambdas, self.c, self.regime))

    def __repr__(self) -> str:
        return f"CurvatureSpectrum({list(self.lambdas)!r}, c={self.c!r}, regime={self.regime.value!r})"

    def to_json_dict(self) -> dict:
        return to_json({"n": self.n, "lambdas": self.lambdas, "c": self.c,
                        "regime": self.regime})

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CurvatureSpectrum":
        try:
            _json_keys(payload, ("n", "lambdas", "c", "regime"), "spectrum")
            regime = Regime(payload.get("regime", "exact"))
            raw = _json_typed(payload["lambdas"], list, "lambdas")
            c = payload.get("c", 0)
            declared_n = _json_typed(payload.get("n"), int, "n", nullable=True)
        except (KeyError, ValueError, TypeError) as exc:
            raise DomainError(f"malformed spectrum payload: {exc}") from exc
        lambdas = [parse_scalar(v, regime) for v in raw]
        spectrum = cls(lambdas, parse_scalar(c, regime), regime=regime)
        if declared_n is not None and declared_n != spectrum.n:
            raise DomainError(f"payload says n={declared_n} but lists {spectrum.n} curvatures")
        return spectrum


def _float_over(num: Scalar, den: int) -> float:
    return coerce(num / den, Regime.FLOAT)


def _lift(values: Sequence[Scalar], regime: Regime) -> Tuple[list, int, Callable]:
    # Numerators a_i = v_i * D over a common denominator D, and the function
    # ``over(num, den)`` that builds an output value.  EXACT: integer
    # numerators over D = lcm of the denominators, outputs one Fraction each.
    # FLOAT: the values themselves over D = 1, outputs checked finite.
    if regime is Regime.FLOAT:
        return list(values), 1, _float_over
    pairs = [(int(v.numerator), int(v.denominator)) for v in values]
    D = lcm(*(q for _, q in pairs))
    return [p * (D // q) for p, q in pairs], D, Fraction


def _sigma_coefficients(values: Sequence[Scalar], top: int) -> list:
    # One coefficient-accumulation pass of prod (1 + lambda_i t), truncated
    # at degree `top`; coeffs[r] ends up as sigma_r.
    coeffs = [1] + [0] * top
    for m, v in enumerate(values, start=1):
        for j in range(min(m, top), 0, -1):
            coeffs[j] = coeffs[j] + v * coeffs[j - 1]
    return coeffs


def _sigma_values(values: Sequence[Scalar], regime: Regime,
                  orders: Sequence[int]) -> Tuple[Scalar, ...]:
    # sigma_r of ``values`` in ``regime`` for each r in ``orders`` (each in
    # [0, n]), from one lift and one pass truncated at the largest r.  A
    # truncated pass computes each lower sigma_r with the same operations,
    # so the values do not depend on which orders are asked for.  Only
    # those are built (and, in FLOAT, checked finite), in the order asked.
    a, D, over = _lift(values, regime)
    coeffs = _sigma_coefficients(a, max(orders) if orders else 0)
    return tuple([over(coeffs[r], D ** r) for r in orders])


def sigma(values: Sequence[Scalar], r: int) -> Scalar:
    """Elementary symmetric value sigma_r of ``values`` (O(n r), no subsets)."""
    return sigmas(values, (r,))[0]


def sigmas(values: Sequence[Scalar], orders: Sequence[int]) -> Tuple[Scalar, ...]:
    """``sigma(values, r)`` for each r in ``orders``, from one lift and one pass.

    Only the values asked for are built (and, in FLOAT, checked finite), in
    the order asked for.
    """
    values = tuple(values)
    n = len(values)
    for r in orders:
        if not 0 <= r <= n:
            raise DomainError(f"sigma_{r} undefined for {n} values")
    return _sigma_values(values, common_regime(values), orders)


def sigma_all(values: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """All of (sigma_0, ..., sigma_n) in one pass."""
    values = tuple(values)
    return sigmas(values, range(len(values) + 1))


def sigma_recursion_residual(values: Sequence[Scalar], r: int, i: int) -> Scalar:
    """Residual of sigma_r(x) = x_i sigma_{r-1}(x w/o i) + sigma_r(x w/o i).

    ``i`` is 1-based.  The residual is identically zero; in EXACT it comes
    back as a literal zero, in FLOAT as rounding noise.
    """
    values = tuple(values)
    n = len(values)
    if not 1 <= r <= n:
        raise DomainError(f"recursion needs 1 <= r <= {n}, got r={r}")
    if not 1 <= i <= n:
        raise DomainError(f"index i must be 1-based in [1, {n}], got {i}")
    # One lift; E from the values and F from the values without i, both
    # truncated at r.  F_r of the n - 1 values left is 0 when r = n.
    a, D, over = _lift(values, common_regime(values))
    E = _sigma_coefficients(a, r)
    F = _sigma_coefficients(a[: i - 1] + a[i:], r)
    return over(E[r] - a[i - 1] * F[r - 1] - F[r], D ** r)


def _lifted(spectrum: CurvatureSpectrum) -> Tuple[list, int, Callable, list]:
    # The spectrum's lift (a, D, over) and every e_r(a), r = 0..n, from one
    # full pass, computed on first use and kept in its ``_kernel``.  Nothing
    # here is checked finite: in FLOAT a high e_r may be inf or nan, and only
    # an output built from it raises, so P_r still reads only its own sigmas.
    # Callers read the lists and never change them.
    kernel = spectrum._kernel
    if kernel is None:
        a, D, over = _lift(spectrum.lambdas, spectrum.regime)
        kernel = spectrum._kernel = (a, D, over, _sigma_coefficients(a, len(a)))
    return kernel


@dataclass(frozen=True)
class InvariantReport(JsonRecord):
    """Every pointwise invariant derived from one spectrum."""

    n: int
    c: Scalar
    regime: Regime
    H: Scalar
    S: Tuple[Scalar, ...]
    Hr: Tuple[Scalar, ...]
    R: Scalar
    norm_a2: Scalar
    mu: Tuple[Scalar, ...]
    norm_phi2: Scalar
    tr_phi3: Scalar
    tr_a3: Scalar


def invariants(spectrum: CurvatureSpectrum) -> InvariantReport:
    """Compute the full invariant report for one spectrum."""
    lam = spectrum.lambdas
    n = spectrum.n
    regime = spectrum.regime
    a, D, over, E = _lifted(spectrum)
    S = tuple(over(e, D ** r) for r, e in enumerate(E))
    Hr = tuple(over(e, D ** r * comb(n, r)) for r, e in enumerate(E))
    H = Hr[1]
    # mu_i = b_i / m.  EXACT stays in ints, b_i = n a_i - E_1 over m = n D;
    # FLOAT subtracts H itself, since (n lambda_i - E_1) / n rounds
    # differently from lambda_i - E_1 / n.
    if regime is Regime.EXACT:
        b, m = [n * v - E[1] for v in a], n * D
    else:
        b, m = [v - H for v in lam], 1
    return InvariantReport(
        n=n, c=spectrum.c, regime=regime, H=H, S=S, Hr=Hr,
        R=coerce(spectrum.c + Hr[2], regime),
        norm_a2=over(sum(v * v for v in a), D * D),
        mu=tuple(over(v, m) for v in b),
        norm_phi2=over(sum(v * v for v in b), m * m),
        tr_phi3=over(sum(v * v * v for v in b), m ** 3),
        tr_a3=over(sum(v * v * v for v in a), D ** 3),
    )


def tr_a3_sides(spectrum: CurvatureSpectrum) -> Tuple[Scalar, Scalar]:
    """Both sides of tr A^3 = (nH/2)(3|A|^2 - n^2 H^2) + 3 S_3.

    Returns ``(lhs, rhs)``; they agree identically, so EXACT callers can
    assert literal equality.  For n = 2 the S_3 term vanishes.
    """
    # Over D^3: sum a^3, and a1 (3 sum a^2 - a1^2) / 2 + 3 e_3(a).  The rhs
    # stays two terms: in FLOAT, one quotient (a1 (...) + 6 e_3) / 2 rounds
    # differently at subnormals and can overflow where the sum does not.
    a, D, over, E = _lifted(spectrum)
    a1 = sum(a)
    D3 = D ** 3
    lhs = over(sum(v * v * v for v in a), D3)
    half = over(a1 * (3 * sum(v * v for v in a) - a1 * a1), 2 * D3)
    e3 = E[3] if spectrum.n > 2 else 0
    return lhs, coerce(half + over(3 * e3, D3), spectrum.regime)


def newton_eigenvalues(spectrum: CurvatureSpectrum, r: int) -> Tuple[Scalar, ...]:
    """Eigenvalues p_{r,i} of the r-th Newton transformation.

    Uses the scalar recursion p_{0,i} = 1, p_{r,i} = S_r - lambda_i p_{r-1,i}
    that P_r = S_r I - A P_{r-1} induces on a common eigenbasis.  For
    0 <= r <= n - 1 the trace identity sum lambda_i p_{r,i} = (r+1) S_{r+1}
    holds.
    """
    n = spectrum.n
    if not 0 <= r <= n:
        raise DomainError(f"Newton transformation P_{r} undefined for n={n}")
    # q_{r,i} = p_{r,i} D^r obeys q_{r,i} = E_r - a_i q_{r-1,i}.  Row r reads
    # only E_1..E_r, so in FLOAT a non-finite sigma_j reaches only rows j and
    # up, and only an output built from such a row raises.
    a, D, over, E = _lifted(spectrum)
    rows = spectrum._rows
    if len(rows) <= r:
        # Grow a copy and store it whole, so no reader sees a half-built table.
        grown = list(rows) or [[1] * n]
        q = grown[-1]
        for j in range(len(grown), r + 1):
            e = E[j]
            q = [e - v * p for v, p in zip(a, q)]
            grown.append(q)
        rows = spectrum._rows = tuple(grown)
    den = D ** r
    return tuple([over(v, den) for v in rows[r]])


@dataclass(frozen=True)
class OkumuraBound(JsonRecord):
    """Result of the zero-trace cubic bound |sum mu^3| <= bound.

    ``bound_squared`` = (n-2)^2/(n(n-1)) * (sum mu^2)^3 is regime-exact and
    radical free; ``lower``/``upper`` are float renderings of -/+ bound for
    display.  ``equality`` flags the rigidity configuration where at least
    n - 1 of the mu_i coincide (in FLOAT, coincide within
    ``equality_tolerance``, which is reported back).
    """

    n: int
    regime: Regime
    sum3: Scalar
    beta_squared: Scalar
    bound_squared: Scalar
    lower: float
    upper: float
    holds: bool
    equality: bool
    equality_tolerance: Optional[float]


def okumura_bound(mu: Sequence[Scalar], tol: Tolerance = DEFAULT_TOLERANCE) -> OkumuraBound:
    """Evaluate the cubic bound for a zero-trace vector mu.

    Needs n >= 3 and sum mu_i = 0 (exactly in EXACT, within tolerance in
    FLOAT).  The EXACT path never forms a square root: the verdict compares
    (sum mu^3)^2 against the rational bound_squared.
    """
    mu = tuple(mu)
    n = len(mu)
    if n < 3:
        raise DomainError(f"the cubic bound needs n >= 3, got n={n}")
    regime = common_regime(mu)
    if regime is Regime.EXACT:
        # Lifted to a_i = mu_i D: beta^2 = P2 / D^2, sum3 = P3 / D^3, and the
        # verdict sum3^2 <= bound^2 is n(n-1) P3^2 <= (n-2)^2 P2^3 in ints.
        a, D, _ = _lift(mu, regime)
        if sum(a) != 0:
            raise DomainError(f"mu must be traceless, got sum {Fraction(sum(a), D)}")
        p2 = sum(m * m for m in a)
        p3 = sum(m * m * m for m in a)
        beta2 = Fraction(p2, D * D)
        sum3 = Fraction(p3, D ** 3)
        bound2 = Fraction((n - 2) ** 2 * p2 ** 3, n * (n - 1) * D ** 6)
        bound_float = sqrt(promote(bound2))
        holds = n * (n - 1) * p3 * p3 <= (n - 2) ** 2 * p2 ** 3
        counts = Counter(a)
        equality = any(cnt >= n - 1 for cnt in counts.values())
        eq_tol = None
    else:
        mu = tuple(coerce(m, regime) for m in mu)
        total = sum(mu)
        if abs(total) > tol.abs + tol.rel * sum(abs(m) for m in mu):
            raise DomainError(f"mu must be traceless, got sum {total}")
        beta2 = sum(m * m for m in mu)
        sum3 = sum(m * m * m for m in mu)
        bound2 = Fraction((n - 2) ** 2, n * (n - 1)) * beta2 ** 3
        bound_float = sqrt(promote(bound2))
        bound2 = promote(bound2)
        slack = max(tol.abs, tol.rel * max(abs(sum3), bound_float))
        holds = abs(sum3) <= bound_float + slack
        beta = sqrt(beta2)
        eq_tol = max(tol.abs, tol.rel * max(1.0, beta))
        ordered = sorted(mu)
        window = n - 1
        equality = any(
            ordered[i + window - 1] - ordered[i] <= eq_tol
            for i in range(n - window + 1)
        )
    return OkumuraBound(
        n=n, regime=regime, sum3=sum3, beta_squared=beta2, bound_squared=bound2,
        lower=-bound_float, upper=bound_float, holds=holds,
        equality=equality, equality_tolerance=eq_tol,
    )
