"""Generalized cylinders R^{n-k} x S^k(r) and the scalar-curvature ladder.

A cylinder over a round k-sphere of radius r, embedded in flat R^{n+1}, has
principal curvatures (0, ..., 0, 1/r, ..., 1/r) with k copies of 1/r, hence

    H = k / (n r),        R = n(k-1) / (k(n-1)) * H^2.

Fixing n and letting k run from 1 to n produces the "ladder": the strictly
increasing sequence of ratios R / H^2 that cylinders can realize, from 0
(k = 1) up to 1 (the round sphere k = n).  ``classify`` inverts the ladder:
given constant H != 0 and constant R it reports which cylinder, if any,
realizes that pair, and annotates the answer with the rigidity status
recorded for that (n, k): some rungs are the unique realization among
closed CMC hypersurfaces with the stated hypotheses, some are currently
examples only, and some are rigid only under extra sign hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import DomainError, RegimeError, VerificationError
from .scalars import (
    JsonRecord,
    Regime,
    Scalar,
    coerce,
    common_regime,
    promote,
    regime_of,
)
from .spectrum import CurvatureSpectrum, InvariantReport, invariants


@dataclass(frozen=True)
class CylinderModel(JsonRecord):
    """The product R^{n-k} x S^k(radius) as a hypersurface of R^{n+1}.

    ``k = 0`` is the degenerate hyperplane (radius unused); ``k = n`` the
    round sphere.  ``radius`` is coerced into its regime, so an integer
    becomes a ``Fraction`` and NaN or infinity raises ``DomainError``.
    """

    n: int
    k: int
    radius: Scalar

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"cylinders need n >= 2, got n={self.n}")
        if not 0 <= self.k <= self.n:
            raise DomainError(f"k must lie in [0, {self.n}], got k={self.k}")
        regime = regime_of(self.radius) or Regime.EXACT
        object.__setattr__(self, "radius", coerce(self.radius, regime))
        if self.radius <= 0:
            raise DomainError(f"radius must be positive, got {self.radius}")

    @property
    def regime(self) -> Regime:
        return regime_of(self.radius)

    def _kappa(self) -> Scalar:
        return 1 / self.radius

    def spectrum(self) -> CurvatureSpectrum:
        zero = coerce(0, self.regime)
        kappa = self._kappa()
        return CurvatureSpectrum(
            (zero,) * (self.n - self.k) + (kappa,) * self.k,
            c=zero, regime=self.regime,
        )

    def mean_curvature(self) -> Scalar:
        if self.k == 0:
            return coerce(0, self.regime)
        return self.k * self._kappa() / self.n

    def scalar_curvature(self) -> Scalar:
        if self.k == 0:
            return coerce(0, self.regime)
        h = self.mean_curvature()
        return ladder_ratio(self.n, self.k) * h * h

    def describe(self) -> str:
        if self.k == 0:
            return f"R^{self.n} hyperplane"
        if self.k == self.n:
            return f"S^{self.n}({self.radius})"
        return f"R^{self.n - self.k} x S^{self.k}({self.radius})"

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "shape": self.describe()}


def cylinder_from_H(n: int, k: int, H: Scalar) -> CylinderModel:
    """The unique R^{n-k} x S^k(r) with mean curvature |H|: r = k / (n |H|)."""
    if n < 2:
        raise DomainError(f"cylinders need n >= 2, got n={n}")
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}] to prescribe H != 0, got k={k}")
    regime = regime_of(H) or Regime.EXACT
    H = coerce(H, regime)
    if H == 0:
        raise DomainError("a cylinder with H = 0 would need k = 0; pass H != 0")
    return CylinderModel(n=n, k=k, radius=k / (n * abs(H)))


def ladder_ratio(n: int, k: int) -> Fraction:
    """The ratio R / H^2 of R^{n-k} x S^k: n(k-1) / (k(n-1))."""
    if n < 2:
        raise DomainError(f"the ladder needs n >= 2, got n={n}")
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got k={k}")
    return Fraction(n * (k - 1), k * (n - 1))


def scalar_ladder(n: int) -> List[Tuple[int, Fraction]]:
    """All rungs (k, R/H^2) for k = 1..n; strictly increasing from 0 to 1."""
    if n < 2:
        raise DomainError(f"the ladder needs n >= 2, got n={n}")
    return [(k, ladder_ratio(n, k)) for k in range(1, n + 1)]


RIGID = "rigid"
CONDITIONAL = "rigid-conditional"
EXAMPLE_ONLY = "example-only"


@dataclass(frozen=True)
class RigidityNote(JsonRecord):
    """Recorded rigidity status of one ladder rung.

    ``status`` is one of ``rigid`` (the cylinder is the unique closed CMC
    realization under ``hypotheses``), ``rigid-conditional`` (uniqueness is
    recorded only under the extra sign hypotheses listed), or
    ``example-only`` (the cylinder realizes the value but no uniqueness
    claim is recorded).
    """

    n: int
    k: int
    status: str
    text: str
    hypotheses: Tuple[str, ...] = ()


def _general_note(n: int, k: int) -> RigidityNote:
    window_bound = f"0 <= R <= {n}H^2/{2 * (n - 1)}"
    if k == 1:
        return RigidityNote(
            n, 1, CONDITIONAL,
            f"R^{n - 1} x S^1(1/({n}|H|)) is the unique realization provided "
            "H H_3 >= 0 holds alongside the window bound; otherwise open",
            ("H*H3 >= 0", window_bound),
        )
    if k == 2:
        return RigidityNote(
            n, 2, CONDITIONAL,
            f"R^{n - 2} x S^2(2/({n}|H|)) is the unique realization at the top "
            "of the window provided H H_3 >= 0; otherwise open",
            ("H*H3 >= 0", window_bound),
        )
    if k == n:
        return RigidityNote(
            n, n, EXAMPLE_ONLY,
            f"S^{n}(1/|H|) realizes R = H^2; no uniqueness claim recorded "
            "for this dimension",
        )
    return RigidityNote(
        n, k, EXAMPLE_ONLY,
        f"R^{n - k} x S^{k}({k}/({n}|H|)) realizes this ratio; rigidity open",
    )


_SPECIAL_NOTES = {
    (3, 1): RigidityNote(3, 1, RIGID,
                         "R^2 x S^1(1/(3|H|)) is the unique closed CMC realization",
                         ("H != 0 constant", "R constant")),
    (3, 2): RigidityNote(3, 2, RIGID,
                         "R x S^2(2/(3|H|)) is the unique closed CMC realization",
                         ("H != 0 constant", "R constant")),
    (3, 3): RigidityNote(3, 3, RIGID,
                         "S^3(1/|H|) is the unique closed CMC realization",
                         ("H != 0 constant", "R constant")),
    (4, 3): RigidityNote(4, 3, RIGID,
                         "R x S^3(3/(4|H|)) is the unique closed CMC realization "
                         "in the range R >= (2/3)H^2",
                         ("R >= (2/3)H^2",)),
    (4, 4): RigidityNote(4, 4, RIGID,
                         "S^4(1/|H|) is the unique closed CMC realization "
                         "in the range R >= (2/3)H^2",
                         ("R >= (2/3)H^2",)),
    (4, 2): RigidityNote(4, 2, CONDITIONAL,
                         "R^2 x S^2(1/(2|H|)) realizes the bottom ratio of the "
                         "range R >= (2/3)H^2; uniqueness there is open, and is "
                         "recorded only under H H_3 >= 0 with the window bound",
                         ("H*H3 >= 0", "0 <= R <= (2/3)H^2")),
    (5, 4): RigidityNote(5, 4, RIGID,
                         "R x S^4(4/(5|H|)) is the unique closed CMC realization "
                         "in the range R >= (5/8)H^2 given H_4 >= 0",
                         ("H4 >= 0", "R >= (5/8)H^2")),
    (5, 5): RigidityNote(5, 5, RIGID,
                         "S^5(1/|H|) is the unique closed CMC realization "
                         "in the range R >= (5/8)H^2 given H_4 >= 0",
                         ("H4 >= 0", "R >= (5/8)H^2")),
    (5, 3): RigidityNote(5, 3, EXAMPLE_ONLY,
                         "R^2 x S^3(3/(5|H|)) realizes R = (5/6)H^2 with "
                         "H_4 = 0; no uniqueness claim recorded"),
    (5, 2): RigidityNote(5, 2, CONDITIONAL,
                         "R^3 x S^2(2/(5|H|)) realizes R = (5/8)H^2 with "
                         "H_4 = 0; uniqueness recorded only under H H_3 >= 0 "
                         "with the window bound",
                         ("H*H3 >= 0", "0 <= R <= (5/8)H^2")),
}


def rigidity_annotation(n: int, k: int) -> RigidityNote:
    """Recorded proven-vs-example status of the (n, k) ladder rung."""
    if n < 3:
        raise DomainError(f"rigidity notes cover n >= 3, got n={n}")
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got k={k}")
    return _SPECIAL_NOTES.get((n, k)) or _general_note(n, k)


@dataclass(frozen=True)
class ClassificationVerdict(JsonRecord):
    """Answer to: which cylinder realizes the pair (H, R) in dimension n?"""

    n: int
    H: Scalar
    ratio: Scalar
    on_ladder: bool
    k: Optional[int]
    model: Optional[CylinderModel]
    nearest_k: int
    gap: Scalar
    annotation: RigidityNote
    tolerance: Optional[float]


def _nearest_rung(n: int, ratio: Fraction) -> Tuple[int, Fraction]:
    # The first k with the least |ratio - ladder_ratio(n, k)|, and that gap.
    # The gap to rung k is num_k / (q k m) with m = n - 1, so |gap_k| <
    # |gap_best| is |num_k| best < |num_best| k once q m > 0 cancels.
    p, q, m = ratio.numerator, ratio.denominator, n - 1
    best, best_num = 1, p * m
    for k in range(2, n + 1):
        num = p * k * m - q * n * (k - 1)
        if abs(num) * best < abs(best_num) * k:
            best, best_num = k, num
    return best, Fraction(best_num, q * best * m)


def classify(n: int, H: Scalar, R: Scalar, tol: Optional[float] = None) -> ClassificationVerdict:
    """Match (H, R) against the dimension-n ladder.

    With ``tol=None`` the comparison is exact and requires rational inputs;
    it runs in integers: with R/H^2 = p/q, the gap to rung k is
    (p k(n-1) - q n(k-1)) / (q k(n-1)), the nearest rung is found by
    cross-multiplying those numerators, and only the reported ``gap`` is
    built as a ``Fraction``.  With a float tolerance the ratio comparison is
    |R/H^2 - rung| <= tol.  Either way a tie in |gap| goes to the smaller k.
    """
    if n < 3:
        raise DomainError(f"classification covers n >= 3, got n={n}")
    if tol is not None and not 0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and non-negative, got {tol}")
    regime = common_regime((H, R))
    if tol is None and regime is Regime.FLOAT:
        raise RegimeError("exact classification needs rational H and R; pass tol for floats")
    if tol is not None:
        regime = Regime.FLOAT
    H = coerce(H, regime)
    R = coerce(R, regime)
    if H == 0:
        raise DomainError("classification needs H != 0")
    ratio = R / (H * H)
    if regime is Regime.EXACT:
        nearest_k, gap = _nearest_rung(n, ratio)
        hit = gap == 0
    else:
        signed_gaps = {k: ratio - promote(r) for k, r in scalar_ladder(n)}
        nearest_k = min(signed_gaps, key=lambda k: (abs(signed_gaps[k]), k))
        gap = signed_gaps[nearest_k]
        hit = abs(gap) <= tol
    return ClassificationVerdict(
        n=n, H=H, ratio=ratio, on_ladder=hit,
        k=nearest_k if hit else None,
        model=cylinder_from_H(n, nearest_k, H) if hit else None,
        nearest_k=nearest_k, gap=gap,
        annotation=rigidity_annotation(n, nearest_k), tolerance=tol,
    )


def cylinder_invariant_check(model: CylinderModel) -> InvariantReport:
    """Recompute H and R from the model's spectrum and cross-check the closed forms."""
    report = invariants(model.spectrum())
    expected_h = model.mean_curvature()
    expected_r = model.scalar_curvature()
    if model.regime is Regime.EXACT:
        ok = report.H == expected_h and report.R == expected_r
    else:
        ok = (abs(report.H - expected_h) <= 1e-12 * max(1.0, abs(expected_h))
              and abs(report.R - expected_r) <= 1e-12 * max(1.0, abs(expected_r)))
    if not ok:
        raise VerificationError(
            f"cylinder invariants disagree with closed forms: H {report.H} vs "
            f"{expected_h}, R {report.R} vs {expected_r}"
        )
    return report
