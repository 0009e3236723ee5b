"""Diagonalized Simons-formula right-hand sides and the CMC sign bracket.

For a hypersurface with shape operator A diagonalized at a point, the
Laplacian of |A|^2 satisfies

    (1/2) Lap |A|^2 = |grad A|^2 + n sum_i lambda_i (Hess H)_ii
                      + sum_{i<j} (lambda_i - lambda_j)^2 K_ij,

with K_ij the ambient-induced sectional curvatures of the principal planes.
When the ambient space is a space form of curvature c, the Gauss equation
K_ij = c + lambda_i lambda_j collapses the pair sum and the same right-hand
side reads

    |grad A|^2 + n sum_i lambda_i (Hess H)_ii
    + nc (|A|^2 - n H^2) + n H tr A^3 - |A|^4.

Both forms are implemented; they agree identically whenever the curvature
table comes from the Gauss equation, which EXACT tests check literally.

Both run on the integer lift of ``spectrum``: the lambda_i, the Hess H
diagonal, |grad A|^2 (and c, in the space form) become numerators over one
common denominator D, the K_ij of the upper triangle numerators over their
own lcm E.  Every sum then runs on ``int`` values in EXACT, and each form
builds a single output value, over D^4 for the space form and over D^2 E for
the curvature-table form.  In FLOAT the values pass through with D = E = 1,
so each result is the double the plain float expression gives, and a result
that overflows raises ``DomainError`` instead of returning ``inf`` or NaN.

The curvature-table form stays a sum over the pairs i < j of
(a_i - a_j)^2 K_ij, never rewritten through power sums: the space form is
the power-sum side, and the two can only check each other while they are
computed independently.

For constant mean curvature the classical zero-trace estimate turns the
space-form right-hand side into |phi|^2 times the bracket

    n c + n H^2 - n(n-2)/sqrt(n(n-1)) |H| |phi| - |phi|^2,

whose sign decides the rigidity alternative.  The sign is computed radical
free in EXACT arithmetic by comparing squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Optional, Sequence, Tuple

from .errors import DomainError
from .scalars import (
    Regime,
    Scalar,
    coerce,
    common_regime,
    to_json,
)
from .spectrum import CurvatureSpectrum, _lift


@dataclass(frozen=True)
class SimonsPointData:
    """Pointwise data feeding the diagonalized Simons right-hand side.

    ``grad_a2`` is |grad A|^2 >= 0, ``hess_h`` the diagonal of Hess H in the
    principal frame, and ``k_table`` the symmetric table of sectional
    curvatures K_ij (diagonal entries are ignored).  Everything must share
    the spectrum's regime.
    """

    spectrum: CurvatureSpectrum
    grad_a2: Scalar
    hess_h: Tuple[Scalar, ...]
    k_table: Tuple[Tuple[Scalar, ...], ...]
    gauss: bool = False

    def __post_init__(self):
        self._check_point()
        n = self.spectrum.n
        regime = self.spectrum.regime
        if len(self.k_table) != n or any(len(row) != n for row in self.k_table):
            raise DomainError(f"k_table must be {n}x{n}")
        if common_regime((v for row in self.k_table for v in row), default=regime) is not regime:
            raise DomainError("simons data must share the spectrum's regime")
        object.__setattr__(
            self, "k_table",
            tuple(tuple(coerce(v, regime) for v in row) for row in self.k_table),
        )
        for i in range(n):
            for j in range(i + 1, n):
                a, b = self.k_table[i][j], self.k_table[j][i]
                if regime is Regime.EXACT:
                    symmetric = a == b
                else:
                    symmetric = abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
                if not symmetric:
                    raise DomainError(f"k_table must be symmetric, K[{i}][{j}] != K[{j}][{i}]")

    def _check_point(self):
        # Arity, regime and sign of the caller's grad_a2 and hess_h.
        n = self.spectrum.n
        regime = self.spectrum.regime
        if len(self.hess_h) != n:
            raise DomainError(f"hess_h needs {n} diagonal entries, got {len(self.hess_h)}")
        if common_regime((self.grad_a2, *self.hess_h), default=regime) is not regime:
            raise DomainError("simons data must share the spectrum's regime")
        object.__setattr__(self, "grad_a2", coerce(self.grad_a2, regime))
        object.__setattr__(self, "hess_h", tuple(coerce(v, regime) for v in self.hess_h))
        if self.grad_a2 < 0:
            raise DomainError("|grad A|^2 cannot be negative")

    @classmethod
    def with_gauss_curvatures(cls, spectrum: CurvatureSpectrum, grad_a2: Scalar = 0,
                              hess_h: Optional[Sequence[Scalar]] = None) -> "SimonsPointData":
        """Build the K table from the Gauss equation K_ij = c + lambda_i lambda_j."""
        regime = spectrum.regime
        lam = spectrum.lambdas
        n = spectrum.n
        if hess_h is None:
            hess_h = (coerce(0, regime),) * n
        # Lifted together, lambda_i = a_i / D and c = c' / D, so
        # K_ij = (c' D + a_i a_j) / D^2, built once per pair i <= j and mirrored.
        a, D, over = _lift((*lam, spectrum.c), regime)
        base = a.pop() * D
        den = D * D
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = over(base + a[i] * a[j], den)
        # ``over`` leaves every entry in the regime (finite, in FLOAT) and the
        # table is symmetric by construction, so only the caller's grad_a2
        # and hess_h are checked; ``__post_init__`` would re-check all n^2.
        data = object.__new__(cls)
        vars(data).update(spectrum=spectrum, grad_a2=grad_a2, hess_h=tuple(hess_h),
                          k_table=tuple(tuple(row) for row in rows), gauss=True)
        data._check_point()
        return data

    def to_json_dict(self) -> dict:
        return to_json({"spectrum": self.spectrum, "gradA2": self.grad_a2,
                        "hessH": self.hess_h, "Kij": self.k_table, "gauss": self.gauss})


def simons_rhs_general(data: SimonsPointData) -> Scalar:
    """Curvature-table form: |grad A|^2 + n sum lambda_i h_i + pair sum."""
    spectrum = data.spectrum
    n = spectrum.n
    regime = spectrum.regime
    # lambda_i = a_i / D, h_i = b_i / D and |grad A|^2 = g / D over one D, the
    # pairs' K_ij = k_ij / E over their own E; the value is
    # (g D E + n E sum a_i b_i + sum_{i<j} (a_i - a_j)^2 k_ij) / (D^2 E).
    a, D, over = _lift((*spectrum.lambdas, *data.hess_h, data.grad_a2), regime)
    g = a.pop()
    lam, b = a[:n], a[n:]
    k, E, _ = _lift([v for i, row in enumerate(data.k_table) for v in row[i + 1:]], regime)
    total = (g * D + n * sum(x * y for x, y in zip(lam, b))) * E
    pairs = iter(k)
    for i in range(n):
        for j in range(i + 1, n):
            diff = lam[i] - lam[j]
            total = total + diff * diff * next(pairs)
    return over(total, D * D * E)


def simons_rhs_space_form(spectrum: CurvatureSpectrum, grad_a2: Scalar = 0,
                          hess_h: Optional[Sequence[Scalar]] = None) -> Scalar:
    """Space-form collapse: nc(|A|^2 - nH^2) + nH tr A^3 - |A|^4 plus gradient terms."""
    regime = spectrum.regime
    n = spectrum.n
    grad_a2 = coerce(grad_a2, regime)
    if grad_a2 < 0:
        raise DomainError("|grad A|^2 cannot be negative")
    if hess_h is None:
        hess_h = (coerce(0, regime),) * n
    hess_h = tuple(coerce(v, regime) for v in hess_h)
    if len(hess_h) != n:
        raise DomainError(f"hess_h needs {n} diagonal entries, got {len(hess_h)}")
    # lambda_i = a_i / D, h_i = b_i / D, |grad A|^2 = g / D and c = c' / D over
    # one D.  With p_k = sum a_i^k the value is
    # (g D^3 + n sum a_i b_i D^2 + n c' (p2 - p1^2 / n) D + p1 p3 - p2^2) / D^4.
    a, D, over = _lift((*spectrum.lambdas, *hess_h, grad_a2, spectrum.c), regime)
    c = a.pop()
    g = a.pop()
    lam, b = a[:n], a[n:]
    p1 = sum(lam)
    p2 = sum(v * v for v in lam)
    p3 = sum(v * v * v for v in lam)
    hess_term = n * sum(x * y for x, y in zip(lam, b))
    # EXACT writes n c' (p2 - p1^2 / n) as c' (n p2 - p1^2) to stay in ints;
    # FLOAT keeps the division, since the two round differently.
    if regime is Regime.EXACT:
        c_term = c * (n * p2 - p1 * p1)
    else:
        c_term = n * c * (p2 - p1 * p1 / n)
    return over(((g * D + hess_term) * D + c_term) * D + p1 * p3 - p2 * p2, D ** 4)


def cmc_bracket(n: int, c, H, norm_phi) -> float:
    """FLOAT value of nc + nH^2 - n(n-2)/sqrt(n(n-1)) |H| |phi| - |phi|^2.

    NaN or infinity among the inputs raises ``DomainError``.
    """
    if n < 3:
        raise DomainError(f"the CMC bracket needs n >= 3, got n={n}")
    c, H, norm_phi = (coerce(v, Regime.FLOAT) for v in (c, H, norm_phi))
    if norm_phi < 0:
        raise DomainError("|phi| cannot be negative")
    coeff = n * (n - 2) / sqrt(n * (n - 1))
    return n * c + n * H * H - coeff * abs(H) * norm_phi - norm_phi ** 2


def cmc_bracket_sign(n: int, c, H, norm_phi_squared) -> int:
    """Exact sign (-1, 0, +1) of the CMC bracket, radical free.

    Takes |phi|^2 rather than |phi| so all inputs stay rational; the
    irrational middle term is handled by comparing squares.  A float input
    raises ``RegimeError``: promotion is one-way.
    """
    if n < 3:
        raise DomainError(f"the CMC bracket needs n >= 3, got n={n}")
    c, H, phi2 = (coerce(v, Regime.EXACT) for v in (c, H, norm_phi_squared))
    if phi2 < 0:
        raise DomainError("|phi|^2 cannot be negative")
    # bracket = a - t with a rational, t = n(n-2)/sqrt(n(n-1)) |H| |phi| >= 0
    a = n * c + n * H * H - phi2
    t2 = Fraction(n * (n - 2) ** 2, n - 1) * H * H * phi2
    if a < 0:
        return -1
    a2 = a * a
    if a2 > t2:
        return 1
    if a2 == t2:
        return 0
    return -1
