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

EXACT values are computed fraction free.  A spectrum is lifted once to
integer numerators a_i = lambda_i D over the common denominator D (the lcm
of the lambda_i denominators); every sum, product and recursion then runs
in plain ``int`` arithmetic, and each output value is built as one
``Fraction`` over the matching power of D, so it is normalized exactly
once.  For example sigma_r = e_r(a) / D^r, and the traceless eigenvalues
are mu_i = (n a_i - e_1(a)) / (n D).  The results are the same rationals
the direct ``Fraction`` arithmetic gives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, sqrt
from typing import Optional, Sequence, Tuple

from .errors import DomainError, RegimeError
from .scalars import (
    DEFAULT_TOLERANCE,
    JsonRecord,
    Regime,
    Scalar,
    Tolerance,
    coerce,
    common_regime,
    parse_scalar,
    promote,
    regime_of,
    to_json,
)


class CurvatureSpectrum:
    """The ordered principal curvatures of one hypersurface point.

    ``lambdas`` is stored sorted non-decreasing; ``c`` is the sectional
    curvature of the ambient space form.  All entries share one regime.
    Passing ``regime`` explicitly both validates and, for FLOAT, acts as
    an explicit promotion of exact inputs.
    """

    __slots__ = ("lambdas", "c", "regime")

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
            regime = Regime(payload.get("regime", "exact"))
            raw = payload["lambdas"]
            c = payload.get("c", 0)
        except (KeyError, ValueError, TypeError) as exc:
            raise DomainError(f"malformed spectrum payload: {exc}") from exc
        lambdas = [parse_scalar(v, regime) for v in raw]
        spectrum = cls(lambdas, parse_scalar(c, regime), regime=regime)
        declared_n = payload.get("n")
        if declared_n is not None and declared_n != spectrum.n:
            raise DomainError(f"payload says n={declared_n} but lists {spectrum.n} curvatures")
        return spectrum


def _lift(values: Sequence[Scalar]) -> Tuple[list, int]:
    # Integer numerators a_i = v_i * D over D = lcm of the denominators, for
    # exact values (Fractions and plain integers).
    pairs = [(int(v.numerator), int(v.denominator)) for v in values]
    D = lcm(*(q for _, q in pairs))
    return [p * (D // q) for p, q in pairs], D


def _sigma_coefficients(values: Sequence[Scalar], top: int) -> list:
    # One coefficient-accumulation pass of prod (1 + lambda_i t), truncated
    # at degree `top`; coeffs[r] ends up as sigma_r.
    coeffs = [1] + [0] * top
    for m, v in enumerate(values, start=1):
        for j in range(min(m, top), 0, -1):
            coeffs[j] = coeffs[j] + v * coeffs[j - 1]
    return coeffs


def sigma(values: Sequence[Scalar], r: int) -> Scalar:
    """Elementary symmetric value sigma_r of ``values`` (O(n r), no subsets)."""
    values = tuple(values)
    if not 0 <= r <= len(values):
        raise DomainError(f"sigma_{r} undefined for {len(values)} values")
    if common_regime(values) is Regime.EXACT:
        a, D = _lift(values)
        return Fraction(_sigma_coefficients(a, r)[r], D ** r)
    return coerce(_sigma_coefficients(values, r)[r], Regime.FLOAT)


def sigma_all(values: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """All of (sigma_0, ..., sigma_n) in one pass."""
    values = tuple(values)
    if common_regime(values) is Regime.EXACT:
        a, D = _lift(values)
        return tuple(Fraction(e, D ** r) for r, e in enumerate(_sigma_coefficients(a, len(a))))
    return tuple(coerce(cf, Regime.FLOAT) for cf in _sigma_coefficients(values, len(values)))


def _sigma_or_zero(values: Sequence[Scalar], r: int) -> Scalar:
    # sigma_r of fewer than r values vanishes identically.
    if r > len(values):
        return coerce(0, common_regime(values))
    return sigma(values, r)


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
    xi = values[i - 1]
    hat = values[: i - 1] + values[i:]
    return sigma(values, r) - xi * _sigma_or_zero(hat, r - 1) - _sigma_or_zero(hat, r)


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
    if spectrum.regime is Regime.EXACT:
        a, D = _lift(lam)
        E = _sigma_coefficients(a, n)
        S = tuple(Fraction(e, D ** r) for r, e in enumerate(E))
        Hr = tuple(Fraction(e, D ** r * comb(n, r)) for r, e in enumerate(E))
        H = Hr[1]
        # mu_i = lambda_i - H = (n a_i - E_1) / (n D)
        b = [n * v - E[1] for v in a]
        nD = n * D
        mu = tuple(Fraction(v, nD) for v in b)
        norm_a2 = Fraction(sum(v * v for v in a), D * D)
        tr_a3 = Fraction(sum(v * v * v for v in a), D ** 3)
        norm_phi2 = Fraction(sum(v * v for v in b), nD * nD)
        tr_phi3 = Fraction(sum(v * v * v for v in b), nD ** 3)
    else:
        S = sigma_all(lam)
        Hr = tuple(S[r] / comb(n, r) for r in range(n + 1))
        H = Hr[1]
        norm_a2 = sum(v * v for v in lam)
        mu = tuple(v - H for v in lam)
        norm_phi2 = sum(m * m for m in mu)
        tr_phi3 = sum(m * m * m for m in mu)
        tr_a3 = sum(v * v * v for v in lam)
    R = spectrum.c + Hr[2]
    return InvariantReport(
        n=n, c=spectrum.c, regime=spectrum.regime, H=H, S=S, Hr=Hr, R=R,
        norm_a2=norm_a2, mu=mu, norm_phi2=norm_phi2, tr_phi3=tr_phi3, tr_a3=tr_a3,
    )


def tr_a3_sides(spectrum: CurvatureSpectrum) -> Tuple[Scalar, Scalar]:
    """Both sides of tr A^3 = (nH/2)(3|A|^2 - n^2 H^2) + 3 S_3.

    Returns ``(lhs, rhs)``; they agree identically, so EXACT callers can
    assert literal equality.  For n = 2 the S_3 term vanishes.
    """
    lam = spectrum.lambdas
    if spectrum.regime is Regime.EXACT:
        # Both sides over 2 D^3: sum a^3 and a1 (3 sum a^2 - a1^2) + 6 e_3(a).
        a, D = _lift(lam)
        a1 = sum(a)
        e3 = _sigma_coefficients(a, 3)[3]
        lhs = Fraction(sum(v * v * v for v in a), D ** 3)
        rhs = Fraction(a1 * (3 * sum(v * v for v in a) - a1 * a1) + 6 * e3, 2 * D ** 3)
        return lhs, rhs
    s1 = sum(lam)
    s3 = _sigma_or_zero(lam, 3)
    norm_a2 = sum(v * v for v in lam)
    lhs = sum(v * v * v for v in lam)
    rhs = s1 * (3 * norm_a2 - s1 * s1) / 2 + 3 * s3
    return lhs, rhs


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
    lam = spectrum.lambdas
    if spectrum.regime is Regime.EXACT:
        # q_{r,i} = p_{r,i} D^r obeys q_{r,i} = E_r - a_i q_{r-1,i} in ints.
        a, D = _lift(lam)
        E = _sigma_coefficients(a, r)
        q = [1] * n
        for j in range(1, r + 1):
            q = [E[j] - a[i] * q[i] for i in range(n)]
        den = D ** r
        return tuple(Fraction(v, den) for v in q)
    S = sigma_all(lam)
    one = coerce(1, spectrum.regime)
    p = [one] * n
    for j in range(1, r + 1):
        p = [S[j] - lam[i] * p[i] for i in range(n)]
    return tuple(p)


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
        a, D = _lift(mu)
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
