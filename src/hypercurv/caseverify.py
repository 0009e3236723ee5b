"""Feasibility scans for limit spectra pinned by trace and sigma_2 targets.

A :class:`ConstraintSystem` describes a candidate limit configuration of
ordered principal curvatures x = (x_1 <= ... <= x_n): the trace and sigma_2
are pinned to targets (equivalently H and the scalar curvature R), selected
labels are pinned to zero, and the rest carry sign constraints, optionally
together with sign constraints on higher symmetric values sigma_r.

``scan`` searches the box |x_i| <= |A| = sqrt(trace^2 - 2 sigma_2) with a
uniform grid, keeps the best cells of a squared-violation penalty, runs
lockstep coordinate descent and Gauss-Newton, and finishes with a seeded
random-perturbation polish.  A returned WITNESS is always re-validated by
an independent pure-Python constraint evaluator; NO_WITNESS is
exhaustive-search evidence, not a proof.

The scan encodes its constraint terms once, as a matrix of signed excess
(one column per term, positive when violated).  Every term is affine in
any one coordinate x_j: the trace, the ordering steps and the sign bounds
trivially, and sigma_r through sigma_r(x) = x_j sigma_{r-1}(x without j) +
sigma_r(x without j).  So the excess at x_j = 0 and x_j = 1 gives each
term's slope and offset along x_j.  The penalty is the sum of squares with
inequality terms clipped at zero, each coordinate section of it is convex
piecewise-quadratic (so ternary line search on slope * t + offset is
exact), and the slopes over all coordinates are the Gauss-Newton Jacobian.

For the built-in named cases, ``closed_form_contradiction`` evaluates the
registered one-line certificate whose sign settles the case without any
search, and ``certificate_check`` cross-examines certificate and scan on a
seeded cloud of points that satisfy the equality constraints.

``pct_sets`` classifies a sample of principal-curvature values against the
two-sided/one-sided alternative for complete CMC hypersurfaces: either both
signs occur and both sets approach zero, or only one sign occurs and the
closure of the value set is connected.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, UnsupportedCaseError
from .scalars import (
    JsonRecord,
    Regime,
    Scalar,
    coerce,
    common_regime,
    promote,
)
from .spectrum import sigma

STRICT_MARGIN = 1e-6  # strict inequalities are searched as >= this margin


class Relation(str, Enum):
    GE_ZERO = ">=0"
    LE_ZERO = "<=0"
    GT_ZERO = ">0"
    LT_ZERO = "<0"
    GE_H = ">=H"

    def bound(self, h: float) -> Tuple[bool, float]:
        """One-sided search bound ``(is_lower, t)``: v >= t if lower, else v <= t.

        Strict relations are searched at ``STRICT_MARGIN`` from zero; ``h`` is
        the system's mean curvature.
        """
        return {
            Relation.GE_ZERO: (True, 0.0),
            Relation.LE_ZERO: (False, 0.0),
            Relation.GT_ZERO: (True, STRICT_MARGIN),
            Relation.LT_ZERO: (False, -STRICT_MARGIN),
            Relation.GE_H: (True, h),
        }[self]


@dataclass(frozen=True)
class SignConstraint(JsonRecord):
    """Sign condition on one labeled coordinate (1-based index)."""

    index: int
    relation: Relation


@dataclass(frozen=True)
class SymmetricSignConstraint(JsonRecord):
    """Sign condition on sigma_r of the whole vector."""

    r: int
    relation: Relation

    def __post_init__(self):
        if self.relation not in (Relation.GE_ZERO, Relation.LE_ZERO):
            raise DomainError("symmetric constraints support only >=0 and <=0")


@dataclass(frozen=True)
class ConstraintSystem(JsonRecord):
    """A pinned limit configuration of ordered principal curvatures."""

    n: int
    trace_target: Scalar
    sigma2_target: Scalar
    fixed_zeros: frozenset = frozenset()
    ordering: bool = True
    sign_constraints: Tuple[SignConstraint, ...] = ()
    extra_symmetric: Tuple[SymmetricSignConstraint, ...] = ()
    name: Optional[str] = None

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"systems need n >= 2, got n={self.n}")
        regime = common_regime((self.trace_target, self.sigma2_target))
        object.__setattr__(self, "trace_target", coerce(self.trace_target, regime))
        object.__setattr__(self, "sigma2_target", coerce(self.sigma2_target, regime))
        object.__setattr__(self, "fixed_zeros", frozenset(int(i) for i in self.fixed_zeros))
        object.__setattr__(self, "sign_constraints", tuple(self.sign_constraints))
        object.__setattr__(self, "extra_symmetric", tuple(self.extra_symmetric))
        for i in self.fixed_zeros:
            if not 1 <= i <= self.n:
                raise DomainError(f"fixed-zero index {i} outside [1, {self.n}]")
        h = self.mean_curvature
        for sc in self.sign_constraints:
            if not 1 <= sc.index <= self.n:
                raise DomainError(f"sign-constraint index {sc.index} outside [1, {self.n}]")
            if sc.index in self.fixed_zeros:
                impossible = sc.relation in (Relation.GT_ZERO, Relation.LT_ZERO) or (
                    sc.relation is Relation.GE_H and promote(h) > 0
                )
                if impossible:
                    raise DomainError(
                        f"coordinate {sc.index} is pinned to zero but constrained {sc.relation.value}"
                    )
        for ex in self.extra_symmetric:
            if not 1 <= ex.r <= self.n:
                raise DomainError(f"sigma_{ex.r} undefined for n={self.n}")

    @property
    def regime(self) -> Regime:
        return common_regime((self.trace_target, self.sigma2_target))

    @property
    def mean_curvature(self) -> Scalar:
        return self.trace_target / self.n

    @property
    def scalar_curvature(self) -> Scalar:
        return self.sigma2_target / comb(self.n, 2)

    @property
    def norm_a2_target(self) -> Scalar:
        # sum x_i^2 is pinned by the two equalities: (sum x)^2 - 2 sigma_2
        return self.trace_target * self.trace_target - 2 * self.sigma2_target

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "regime": self.regime.value,
                "fixedZeros": sorted(self.fixed_zeros)}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ConstraintSystem":
        from .scalars import parse_scalar

        try:
            regime = Regime(payload.get("regime", "exact"))
            return cls(
                n=int(payload["n"]),
                trace_target=parse_scalar(payload["traceTarget"], regime),
                sigma2_target=parse_scalar(payload["sigma2Target"], regime),
                fixed_zeros=frozenset(payload.get("fixedZeros", ())),
                ordering=bool(payload.get("ordering", True)),
                sign_constraints=tuple(
                    SignConstraint(int(sc["index"]), Relation(sc["relation"]))
                    for sc in payload.get("signConstraints", ())
                ),
                extra_symmetric=tuple(
                    SymmetricSignConstraint(int(ex["r"]), Relation(ex["relation"]))
                    for ex in payload.get("extraSymmetric", ())
                ),
                name=payload.get("name"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, DomainError):
                raise
            raise DomainError(f"malformed system payload: {exc}") from exc


def constraint_violations(system: ConstraintSystem,
                          point: Sequence[Scalar]) -> Dict[str, Scalar]:
    """Independent per-constraint violations at ``point`` (pure Python).

    This is the double-entry bookkeeping side of ``scan``: it shares no code
    with the vectorized penalty, and every WITNESS must pass it.  An EXACT
    point (Fractions and ints) is evaluated in Fraction arithmetic, with the
    targets, H and ``STRICT_MARGIN`` at their exact values (a float target
    at its exact binary value), so a zero maximum proves feasibility; a
    FLOAT point is evaluated in doubles.  Mixing the two raises
    ``RegimeError``.
    """
    x = list(point)
    num = Fraction if common_regime(x) is Regime.EXACT else float
    x = [num(v) for v in x]
    if len(x) != system.n:
        raise DomainError(f"point has {len(x)} coordinates, system has n={system.n}")
    zero, margin = num(0), num(STRICT_MARGIN)
    viol: Dict[str, Scalar] = {
        "trace": abs(sum(x) - num(system.trace_target)),
        "sigma2": abs(sigma(x, 2) - num(system.sigma2_target)),
    }
    for i in sorted(system.fixed_zeros):
        viol[f"lambda{i}=0"] = abs(x[i - 1])
    if system.ordering:
        viol["ordering"] = max(zero, max(x[i] - x[i + 1] for i in range(system.n - 1)))
    h = num(system.mean_curvature)
    for sc in system.sign_constraints:
        v = x[sc.index - 1]
        if sc.relation is Relation.GE_ZERO:
            bad = max(zero, -v)
        elif sc.relation is Relation.LE_ZERO:
            bad = max(zero, v)
        elif sc.relation is Relation.GT_ZERO:
            bad = max(zero, margin - v)
        elif sc.relation is Relation.LT_ZERO:
            bad = max(zero, v + margin)
        else:
            bad = max(zero, h - v)
        viol[f"lambda{sc.index}{sc.relation.value}"] = bad
    for ex in system.extra_symmetric:
        s = sigma(x, ex.r)
        bad = max(zero, -s) if ex.relation is Relation.GE_ZERO else max(zero, s)
        viol[f"sigma{ex.r}{ex.relation.value}"] = bad
    return viol


def max_violation(system: ConstraintSystem, point: Sequence[Scalar]) -> Scalar:
    return max(constraint_violations(system, point).values())


@dataclass(frozen=True)
class ScanBudget:
    """Search effort: total grid cells, descent rounds, and polish width."""

    grid_points: int = 1_000_000
    descent_rounds: int = 2
    polish_starts: int = 64
    polish_rounds: int = 24

    def __post_init__(self):
        for name in ("grid_points", "descent_rounds", "polish_starts", "polish_rounds"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")


@dataclass(frozen=True)
class FeasibilityVerdict(JsonRecord):
    """Outcome of a scan: a validated witness, or the best failure found."""

    status: str
    witness: Optional[Tuple[float, ...]]
    residual: float
    best_point: Tuple[float, ...]
    violations: Mapping[str, float]
    stats: Mapping[str, object]


class _PenaltyEvaluator:
    """The scan's constraint terms as one vectorized matrix of signed excess.

    ``excess`` is the only encoding of the terms on this side of the double
    entry: the penalty, the descent's line sections and the Gauss-Newton
    Jacobian are all read off it.
    """

    def __init__(self, system: ConstraintSystem):
        self.system = system
        self.n = system.n
        self.trace = promote(system.trace_target)
        self.sigma2 = promote(system.sigma2_target)
        h = promote(system.mean_curvature)
        self.fixed0 = sorted(i - 1 for i in system.fixed_zeros)
        self.free0 = [i for i in range(self.n) if i + 1 not in system.fixed_zeros]
        self.steps = self.n - 1 if system.ordering else 0
        self.coords = [sc.index - 1 for sc in system.sign_constraints]
        self.orders = [ex.r for ex in system.extra_symmetric]
        bounds = [c.relation.bound(h) for c in system.sign_constraints + system.extra_symmetric]
        # excess = sense * (v - t): t - v below a lower bound, v - t past an upper one
        self.sense = np.array([-1.0 if is_lower else 1.0 for is_lower, _ in bounds])
        self.t = np.array([t for _, t in bounds])
        self.top = max([2] + self.orders)
        self.terms = 2 + self.steps + len(bounds)

    def full(self, x_free: np.ndarray) -> np.ndarray:
        rows = np.zeros((x_free.shape[0], self.n))
        rows[:, self.free0] = x_free
        return rows

    def excess(self, x_free: np.ndarray) -> np.ndarray:
        """Signed excess of every term, one row per point; positive is violated.

        Columns: the trace and sigma_2 equalities, the n-1 ordering steps
        x_i - x_{i+1}, the sign bounds, then the sigma_r bounds.  One pass of
        prod(1 + x_i t) gives sigma_r up to the largest r needed.
        """
        x_free = np.atleast_2d(x_free)
        e = np.zeros((x_free.shape[0], self.top + 1))
        e[:, 0] = 1.0
        for col in range(x_free.shape[1]):
            e[:, 1:] += x_free[:, col:col + 1] * e[:, :-1]
        out = np.empty((x_free.shape[0], self.terms))
        out[:, 0] = e[:, 1] - self.trace
        out[:, 1] = e[:, 2] - self.sigma2
        rows = self.full(x_free)
        if self.steps:
            np.subtract(rows[:, :-1], rows[:, 1:], out=out[:, 2:2 + self.steps])
        bounds = out[:, 2 + self.steps:]
        bounds[:, :len(self.coords)] = rows[:, self.coords]
        bounds[:, len(self.coords):] = e[:, self.orders]
        bounds -= self.t
        bounds *= self.sense
        return out

    def penalty(self, x_free: np.ndarray) -> np.ndarray:
        return _sum_squares(self.excess(x_free))

    def sections(self, x_free: np.ndarray, cols) -> Tuple[np.ndarray, np.ndarray]:
        """Slope and offset of every term along each coordinate in ``cols``.

        sigma_r(x) = x_j sigma_{r-1}(x without j) + sigma_r(x without j), so
        every term is affine in any one coordinate, and one ``excess`` call
        at x_j = 0 and x_j = 1 fixes it.  Both arrays are cols x rows x terms.
        """
        k, (m, d) = len(cols), x_free.shape
        trial = np.repeat(x_free[None], 2 * k, axis=0)
        for i, col in enumerate(cols):
            trial[2 * i, :, col] = 0.0
            trial[2 * i + 1, :, col] = 1.0
        ex = self.excess(trial.reshape(2 * k * m, d)).reshape(k, 2, m, self.terms)
        return ex[:, 1] - ex[:, 0], ex[:, 0]


def _sum_squares(ex: np.ndarray) -> np.ndarray:
    # Penalty per row of an excess matrix, computed in place: equalities
    # squared, inequalities squared past zero.
    np.maximum(ex[:, 2:], 0.0, out=ex[:, 2:])
    np.square(ex, out=ex)
    return ex.sum(axis=1)


def _lockstep_descent(ev: _PenaltyEvaluator, x: np.ndarray, rounds: int,
                      iters: int, lo: float, hi: float) -> np.ndarray:
    # Along one coordinate every term is affine, so each coordinate section
    # of the penalty is convex piecewise-quadratic and ternary search on
    # slope * t + offset is an exact line minimization.
    x = x.copy()
    for _ in range(rounds):
        for col in range(x.shape[1]):
            slope, offset = (a[0] for a in ev.sections(x, [col]))

            def section(t):
                return _sum_squares(slope * t[:, None] + offset)

            lo_v = np.full(x.shape[0], lo)
            hi_v = np.full(x.shape[0], hi)
            for _ in range(iters):
                third = (hi_v - lo_v) / 3.0
                m1 = lo_v + third
                m2 = hi_v - third
                better1 = section(m1) < section(m2)
                hi_v = np.where(better1, m2, hi_v)
                lo_v = np.where(better1, lo_v, m1)
            mid = 0.5 * (lo_v + hi_v)
            improve = section(mid) < section(x[:, col])
            x[improve, col] = mid[improve]
    return x


_HALVINGS = 0.5 ** np.arange(25)  # Gauss-Newton step scales, tried in order


def _gauss_newton(ev: _PenaltyEvaluator, x: np.ndarray, iters: int = 40) -> np.ndarray:
    # Quadratic local convergence where coordinatewise descent creeps, e.g.
    # along directions where an equality residual is second-order flat.  The
    # residual is the equalities plus the violated inequalities, so near a
    # solution with a stable active set its squared norm is the penalty.
    # Rows run in lockstep, so each iteration costs one excess, one sections,
    # one stacked pseudo-inverse and one penalty call however many rows are
    # live or how many halvings they need; a row takes the first halving of
    # its step that lowers its penalty, and stops at penalty 0, at a
    # non-finite step, or when no halving helps.
    x = x.copy()
    fx = ev.penalty(x)
    live = fx != 0.0
    for _ in range(iters):
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        res = ev.excess(x[rows])
        active = res > 0.0
        active[:, :2] = True
        slope, _ = ev.sections(x[rows], range(x.shape[1]))
        # Inactive terms enter as zero rows, which leaves each least-squares
        # problem unchanged and lets one stacked pseudo-inverse solve them all.
        jac = np.where(active[:, :, None], slope.transpose(1, 2, 0), 0.0)
        pinv = np.linalg.pinv(jac, rcond=max(jac.shape[1:]) * np.finfo(float).eps)
        step = (pinv @ np.where(active, -res, 0.0)[:, :, None])[:, :, 0]
        finite = np.isfinite(step).all(axis=1)
        live[rows[~finite]] = False
        rows, step = rows[finite], step[finite]
        trial = x[rows, None, :] + _HALVINGS[:, None] * step[:, None, :]
        ft = ev.penalty(trial.reshape(-1, x.shape[1])).reshape(len(rows), len(_HALVINGS))
        better = ft < fx[rows, None]
        moved = better.any(axis=1)
        live[rows[~moved]] = False
        pick = np.flatnonzero(moved), better.argmax(axis=1)[moved]
        rows = rows[moved]
        x[rows], fx[rows] = trial[pick], ft[pick]
        live[rows] = fx[rows] != 0.0
    return x


def _exact_snap(ev: _PenaltyEvaluator, x: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Rational reconstruction of a near-feasible point, exactly verified.

    Equality residuals that are second order along some direction leave a
    feasibility valley that float descent can only pin to about sqrt(eps).
    Clustering the coordinates, reconstructing each cluster as a small
    rational, and checking the candidate in exact arithmetic removes that
    floor whenever the underlying witness is rational.  The candidate is
    dropped unless it is exactly feasible, so this never degrades a point.
    """
    full = [float(v) for v in ev.full(x[None, :])[0]]
    order = sorted(range(len(full)), key=lambda i: full[i])
    clusters: List[List[int]] = [[order[0]]]
    for i in order[1:]:
        if full[i] - full[clusters[-1][-1]] <= 1e-6:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    exact = [Fraction(0)] * len(full)
    for group in clusters:
        mean = math.fsum(full[i] for i in group) / len(group)
        value = Fraction(mean).limit_denominator(1_000_000)
        for i in group:
            exact[i] = value
    for i in ev.fixed0:
        exact[i] = Fraction(0)
    if max_violation(ev.system, exact) != 0:
        return x, False
    return np.array([float(exact[j]) for j in ev.free0]), True


def _merge_top(parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]], keep: int):
    pen = np.concatenate([p[0] for p in parts])
    flat = np.concatenate([p[1] for p in parts])
    rows = np.vstack([p[2] for p in parts])
    order = np.lexsort((flat, pen))[:keep]
    return pen[order], flat[order], rows[order]


def scan(system: ConstraintSystem, budget: Optional[ScanBudget] = None,
         seed: int = 0, tol: float = 1e-8, jobs: int = 1) -> FeasibilityVerdict:
    """Search for a point satisfying ``system``; deterministic per seed.

    The grid and descent stages are fully deterministic; ``seed`` drives only
    the final perturbation polish.  Ties are broken by penalty first, then by
    lexicographic grid cell index, so identical inputs and seed reproduce the
    identical verdict.  A WITNESS is re-validated with the independent
    evaluator; NO_WITNESS reports the best point found and its violations.
    """
    budget = budget or ScanBudget()
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    ev = _PenaltyEvaluator(system)
    norm_a2 = promote(system.norm_a2_target)
    d = len(ev.free0)
    stats: Dict[str, object] = {"seed": seed, "jobs": jobs, "freeCoordinates": d}

    def finish(x_free: np.ndarray) -> FeasibilityVerdict:
        point = tuple(float(v) for v in ev.full(np.atleast_2d(x_free))[0])
        viols = constraint_violations(system, point)
        residual = max(viols.values())
        witness = point if residual <= tol else None
        stats["bestPenalty"] = float(ev.penalty(np.atleast_2d(x_free))[0])
        return FeasibilityVerdict(
            status="WITNESS" if witness is not None else "NO_WITNESS",
            witness=witness, residual=residual, best_point=point,
            violations=viols, stats=stats,
        )

    if norm_a2 < 0:
        # sum x_i^2 = trace^2 - 2 sigma_2 < 0 is unsatisfiable outright.
        stats.update({"gridCells": 0, "note": "equalities force a negative sum of squares"})
        return finish(np.zeros((1, d)))
    if d == 0:
        stats["gridCells"] = 1
        return finish(np.zeros((1, 0)))

    box = math.sqrt(norm_a2)
    axis_points = max(2, int(budget.grid_points ** (1.0 / d)))
    while axis_points ** d > budget.grid_points and axis_points > 2:
        axis_points -= 1
    while (axis_points + 1) ** d <= budget.grid_points:
        axis_points += 1
    axes = np.linspace(-box, box, axis_points) if box > 0 else np.zeros(axis_points)
    total = axis_points ** d
    keep = min(max(budget.polish_starts, int(total * 0.01)), 16384)
    stats.update({"gridCells": total, "axisPoints": axis_points, "coarseStarts": keep})

    chunk = 1 << 17
    ranges = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]

    def eval_range(bounds: Tuple[int, int]):
        start, stop = bounds
        flat = np.arange(start, stop, dtype=np.int64)
        grid_idx = np.stack(np.unravel_index(flat, (axis_points,) * d), axis=1)
        x_free = axes[grid_idx]
        pen = ev.penalty(x_free)
        top = min(keep, len(pen))
        sel = np.argpartition(pen, top - 1)[:top] if top < len(pen) else np.arange(len(pen))
        return pen[sel], flat[sel], x_free[sel]

    if jobs == 1:
        parts = [eval_range(r) for r in ranges]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(eval_range, ranges))
    pen, flat, x_top = _merge_top(parts, keep)

    lo, hi = -box - 0.05 * box - 1e-3, box + 0.05 * box + 1e-3
    x_top = _lockstep_descent(ev, x_top, budget.descent_rounds, iters=36, lo=lo, hi=hi)
    pen = ev.penalty(x_top)
    order = np.lexsort((flat, pen))[:budget.polish_starts]
    x_polish, flat_polish = x_top[order], flat[order]

    x_polish = _lockstep_descent(ev, x_polish, budget.polish_rounds, iters=84, lo=lo, hi=hi)
    x_polish = _gauss_newton(ev, x_polish)
    pen = ev.penalty(x_polish)
    best_idx = np.lexsort((flat_polish, pen))[0]
    best = x_polish[best_idx].copy()
    best_pen = float(pen[best_idx])

    # Seeded stochastic polish; the only stage the seed influences.
    rng = np.random.default_rng(seed)
    scale0 = max(box, 1.0)
    for exponent in range(2, 10):
        cloud = best + rng.normal(size=(64, d)) * (scale0 * 10.0 ** -exponent)
        cloud_pen = ev.penalty(cloud)
        i = int(np.argmin(cloud_pen))
        if cloud_pen[i] < best_pen:
            best, best_pen = cloud[i].copy(), float(cloud_pen[i])
    best = _lockstep_descent(ev, best[None, :], rounds=2, iters=84, lo=lo, hi=hi)[0]
    best = _gauss_newton(ev, best[None, :])[0]
    best, snapped = _exact_snap(ev, best)
    stats["snappedExact"] = snapped

    return finish(best)


# ---------------------------------------------------------------------------
# Built-in named cases, expected outcomes, and closed-form certificates.
# ---------------------------------------------------------------------------

_WITNESS_MATCH = 1e-6  # a scan witness agrees with the recorded one this closely


@dataclass(frozen=True)
class _Case:
    """A built-in case: its shape, recorded witness and optional certificate.

    ``witness`` is in units of H, ``None`` for NO_WITNESS.  A certificate is
    its value ``value(x, trace, s2)``; an ``audit(x, E, s2, h)`` giving one
    sample's identity and margin terms (0.0 and inf where a term does not
    apply); the ``drawn`` coordinates of its samples, first at ``anchor``
    (units of H); and the ``detail`` of a pass.
    """

    n: int
    ratio: Fraction
    fixed: int
    signs: Tuple[Tuple[int, Relation], ...]
    extra: Tuple[Tuple[int, Relation], ...] = ()
    witness: Optional[Tuple[Scalar, ...]] = None
    value: Optional[Callable] = None
    audit: Optional[Callable] = None
    drawn: Tuple[int, ...] = ()
    anchor: Tuple[int, ...] = ()
    detail: str = ""


def _pinned_identity(x, trace, s2):
    # E = (x_4 - 2H)^2 + (sigma_2(x) - 4H^2) - x_1 x_3, with sigma_2 read off
    # the point.  E vanishes identically on the set {x_2 = 0, sum x_i = 4H}
    # (where sigma_2(x) - 4H^2 = 6(R - (2/3)H^2)); every term is zero at the
    # witness, and E = 2H^2 at the umbilic point.
    h = trace / 4
    gap = x[3] - 2 * h
    return gap * gap + (sigma(x, 2) - 4 * h * h) - x[0] * x[2]


def _sigma3_squeeze(x, trace, s2):
    # E = max(10RH - sigma_3, sigma_3), the gap of the two-sided squeeze: the
    # premise forces sigma_3 >= 10RH and sigma_3 <= 0 simultaneously, so
    # E >= 5RH > 0 certifies infeasibility.
    s3 = sigma(x, 3)
    return max(s2 * (trace / 5) - s3, s3)


_CASES: Dict[str, _Case] = {
    # E = (4H) x_2 - 6R.  On the equality set E equals x_2^2 - x_1 x_4, so the
    # sign premise x_1 <= 0 <= x_4 forces E >= 0 and hence x_2 >= 6R/(4H) > 0,
    # contradicting x_2 <= 0: no witness exists.
    "thm1-claim": _Case(
        n=4, ratio=Fraction(2, 3), fixed=3, signs=((4, Relation.GE_H),),
        value=lambda x, trace, s2: trace * x[1] - s2,
        audit=lambda x, e, s2, h: (abs(e - (x[1] * x[1] - x[0] * x[3])), x[0] * x[3]),
        drawn=(2,), anchor=(2,),
        detail="x_1 x_4 stays non-negative on the equality set, so the sign "
               "premises force x_2 > 0 and no sample is feasible"),
    "thm1-lambda2": _Case(
        n=4, ratio=Fraction(2, 3), fixed=2,
        signs=((3, Relation.GT_ZERO), (4, Relation.GE_H)), witness=(0, 0, 2, 2),
        value=_pinned_identity, audit=lambda x, e, s2, h: (abs(e), math.inf),
        drawn=(4,), anchor=(2,),
        detail="identity vanishes on the equality set and the anchored witness "
               "is feasible"),
    "thm2-claim": _Case(
        n=5, ratio=Fraction(5, 8), fixed=4,
        signs=((5, Relation.GE_H),), extra=((4, Relation.GE_ZERO),),
        value=_sigma3_squeeze, audit=lambda x, e, s2, h: (0.0, e - 0.5 * s2 * h),
        drawn=(2, 3), anchor=(0, 0),
        detail="two-sided sigma_3 squeeze keeps a positive gap on every sample"),
    "thm2-lambda3": _Case(
        n=5, ratio=Fraction(5, 8), fixed=3,
        signs=((4, Relation.GT_ZERO), (5, Relation.GE_H)),
        extra=((4, Relation.GE_ZERO),),
        witness=(0, 0, 0, Fraction(5, 2), Fraction(5, 2))),
    "thm2-lambda2": _Case(
        n=5, ratio=Fraction(5, 6), fixed=2,
        signs=((3, Relation.GT_ZERO), (5, Relation.GE_H)),
        extra=((4, Relation.GE_ZERO),),
        witness=(0, 0, Fraction(5, 3), Fraction(5, 3), Fraction(5, 3))),
}

BUILTIN_CASES = tuple(sorted(_CASES))


def builtin_case(name: str, H: Scalar = 1, R: Optional[Scalar] = None) -> ConstraintSystem:
    """Instantiate a built-in named case at mean curvature H (default R per case)."""
    case = _CASES.get(name)
    if case is None:
        raise DomainError(f"unknown case {name!r}; known: {', '.join(BUILTIN_CASES)}")
    regime = common_regime((H,) if R is None else (H, R))
    H = coerce(H, regime)
    if promote(H) <= 0:
        raise DomainError("built-in cases assume H > 0")
    if R is None:
        R = case.ratio * H * H
    R = coerce(R, regime)
    n = case.n
    return ConstraintSystem(
        n=n,
        trace_target=n * H,
        sigma2_target=comb(n, 2) * R,
        fixed_zeros=frozenset({case.fixed}),
        ordering=True,
        sign_constraints=tuple(SignConstraint(i, rel) for i, rel in case.signs),
        extra_symmetric=tuple(SymmetricSignConstraint(r, rel) for r, rel in case.extra),
        name=name,
    )


@dataclass(frozen=True)
class ExpectedOutcome(JsonRecord):
    """What the recorded analysis says a canonical built-in scan must find."""

    status: str
    witness: Optional[Tuple[Scalar, ...]]

    def agrees(self, verdict: FeasibilityVerdict) -> bool:
        """Same status, and any witness within ``_WITNESS_MATCH`` of the recorded one."""
        return verdict.status == self.status and (self.witness is None or max(
            abs(a - promote(b)) for a, b in zip(verdict.witness, self.witness)) <= _WITNESS_MATCH)


def expected_outcome(system: ConstraintSystem) -> Optional[ExpectedOutcome]:
    """Recorded outcome for a built-in case at its canonical R, else None."""
    case = _CASES.get(system.name or "")
    if case is None or system.n != case.n:
        return None
    h = system.mean_curvature
    canonical_sigma2 = comb(system.n, 2) * case.ratio * h * h
    if system.regime is Regime.EXACT:
        canonical = system.sigma2_target == canonical_sigma2
    else:
        canonical = abs(promote(system.sigma2_target) - promote(canonical_sigma2)) \
            <= 1e-12 * max(1.0, abs(promote(canonical_sigma2)))
    if not canonical:
        return None
    if case.witness is None:
        return ExpectedOutcome(status="NO_WITNESS", witness=None)
    return ExpectedOutcome(
        "WITNESS", tuple(w.numerator * h / w.denominator for w in case.witness))


def has_certificate(system: ConstraintSystem) -> bool:
    case = _CASES.get(system.name or "")
    return case is not None and case.value is not None


def _certified(system: ConstraintSystem) -> _Case:
    if not has_certificate(system):
        raise UnsupportedCaseError(
            f"no closed-form certificate registered for case {system.name!r}"
        )
    return _CASES[system.name]


def closed_form_contradiction(system: ConstraintSystem, point: Sequence[Scalar]) -> Scalar:
    """Evaluate the registered one-line certificate of a named case at ``point``.

    The certificate is a polynomial in the coordinates and the targets whose
    sign settles the case on the equality-constrained set; the argument for
    each case sits next to its record in ``_CASES``.  Points are evaluated
    as given, with no feasibility precondition; exact inputs stay exact.
    """
    x = tuple(point)
    if len(x) != system.n:
        raise DomainError(f"point has {len(x)} coordinates, system has n={system.n}")
    regime = common_regime(x)
    x = tuple(coerce(v, regime) for v in x)
    return _certified(system).value(
        x, coerce(system.trace_target, regime), coerce(system.sigma2_target, regime))


@dataclass(frozen=True)
class CertificateReport(JsonRecord):
    """Cross-examination of a certificate against equality-feasible samples."""

    case: str
    kind: str
    samples: int
    feasible_samples: int
    max_identity_residual: float
    margin: float
    passed: bool
    detail: str


def _pair_completions(total: float, product: float) -> Optional[Tuple[float, float]]:
    disc = total * total - 4.0 * product
    if disc < 0:
        return None
    root = math.sqrt(disc)
    return (total - root) / 2.0, (total + root) / 2.0


def certificate_samples(system: ConstraintSystem, seed: int = 0,
                        count: int = 1000) -> List[Tuple[float, ...]]:
    """Seeded points satisfying the trace/sigma_2 equalities and pinned zeros.

    Sampling draws the case's ``drawn`` coordinates, solves the equalities
    for the two other free coordinates, and discards draws with no real
    completion, so every returned point satisfies the equality constraints
    to rounding; sign and ordering constraints are deliberately not imposed.
    """
    case = _certified(system)
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    completed = tuple(i for i in range(1, case.n + 1)
                      if i != case.fixed and i not in case.drawn)
    rng = np.random.default_rng(seed)
    trace = promote(system.trace_target)
    s2 = promote(system.sigma2_target)
    h = trace / system.n
    box = math.sqrt(max(promote(system.norm_a2_target), 0.0))
    points: List[Tuple[float, ...]] = []
    params = [a * h for a in case.anchor]
    for _ in range(80 * count):
        rest = trace
        for p in params:
            rest -= p
        pairs = sum(a * b for a, b in combinations(params, 2))
        pair = _pair_completions(rest, s2 - pairs - sum(params) * rest)
        if pair is not None:
            coords = dict(zip(case.drawn + completed, params + list(pair)))
            points.append(tuple(coords.get(i, 0.0) for i in range(1, case.n + 1)))
            if len(points) == count:
                break
        params = rng.uniform(-box, box, size=len(case.drawn)).tolist()
    return points


def certificate_check(system: ConstraintSystem, seed: int = 0, count: int = 1000,
                      tol: float = 1e-8) -> CertificateReport:
    """Verify the registered certificate against scan semantics.

    For an infeasibility certificate every equality-feasible sample must
    violate the full system and the certificate's algebra must hold on it;
    for a witness-pinning certificate (a case with a recorded witness) the
    identity must vanish on every sample and the anchored witness must be
    fully feasible.
    """
    points = certificate_samples(system, seed=seed, count=count)
    case = _certified(system)
    trace = promote(system.trace_target)
    s2 = promote(system.sigma2_target)
    h = trace / system.n
    feasible = 0
    identity_residual = 0.0
    margin = math.inf
    witness_ok = False
    for x in points:
        viol = max_violation(system, x)
        if viol <= tol:
            feasible += 1
        value = promote(closed_form_contradiction(system, x))
        identity, gap = case.audit(x, value, s2, h)
        identity_residual = max(identity_residual, identity)
        margin = min(margin, gap)
        witness_ok = witness_ok or (viol <= tol and abs(value) <= 1e-6)
    scale = max(1.0, trace * trace, abs(s2))
    passed = identity_residual <= 1e-7 * scale
    if case.witness is not None:
        kind = "witness-pinning"
        passed = passed and feasible >= 1 and witness_ok
        failure = "identity or anchored witness failed"
        margin = identity_residual
    else:
        kind = "infeasibility"
        passed = passed and bool(points) and feasible == 0 and margin > -1e-9 * scale
        failure = ("a sample defeated the certificate" if points
                   else "no sample was drawn: the equalities have no real completion")
    return CertificateReport(
        case=system.name, kind=kind, samples=len(points),
        feasible_samples=feasible, max_identity_residual=identity_residual,
        margin=margin, passed=passed,
        detail=case.detail if passed else failure,
    )


# ---------------------------------------------------------------------------
# Principal-curvature value sets.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetSummary(JsonRecord):
    count: int
    infimum: Optional[float]
    supremum: Optional[float]


@dataclass(frozen=True)
class PctReport(JsonRecord):
    """Sample classification against the two-sided/one-sided alternative."""

    verdict: str
    condition: str
    plus: SetSummary
    minus: SetSummary
    zero_count: int
    zero_tolerance: float
    approach_tolerance: float
    max_gap: Optional[float]
    detail: str


def pct_sets(values: Sequence[Scalar], zero_tol: float = 1e-12,
             approach_tol: float = 1e-8) -> PctReport:
    """Split sampled principal-curvature values into signed sets and classify.

    Values within ``zero_tol`` of zero count as zero; a non-finite value or
    tolerance raises ``DomainError``.  With both signs present, consistency
    demands each signed set approach zero within ``approach_tol``.  With one
    sign present, a finite sample cannot refute connectedness of the
    closure, so the verdict is CONSISTENT and the largest adjacent gap is
    reported as a diagnostic.
    """
    vals = [coerce(v, Regime.FLOAT) for v in values]
    if not vals:
        raise DomainError("pct_sets needs a non-empty sample")
    if not (0 <= zero_tol < math.inf and 0 <= approach_tol < math.inf):
        raise DomainError("tolerances must be finite and non-negative")
    plus = sorted(v for v in vals if v > zero_tol)
    minus = sorted(v for v in vals if v < -zero_tol)
    zero_count = len(vals) - len(plus) - len(minus)
    plus_summary = SetSummary(len(plus), plus[0] if plus else None,
                              plus[-1] if plus else None)
    minus_summary = SetSummary(len(minus), minus[0] if minus else None,
                               minus[-1] if minus else None)
    if not plus and not minus:
        return PctReport(
            verdict="PLANAR", condition="planar", plus=plus_summary,
            minus=minus_summary, zero_count=zero_count, zero_tolerance=zero_tol,
            approach_tolerance=approach_tol, max_gap=None,
            detail="planar sample: every value is zero within tolerance",
        )
    if plus and minus:
        ok_plus = plus[0] <= approach_tol
        ok_minus = minus[-1] >= -approach_tol
        if ok_plus and ok_minus:
            verdict, detail = "CONSISTENT", (
                "both signed sets approach zero within tolerance")
        else:
            side = [] if ok_plus else [f"inf of positive values is {plus[0]!r}"]
            if not ok_minus:
                side.append(f"sup of negative values is {minus[-1]!r}")
            verdict, detail = "VIOLATED", "; ".join(side) + ", not 0"
        return PctReport(
            verdict=verdict, condition="two-sided", plus=plus_summary,
            minus=minus_summary, zero_count=zero_count, zero_tolerance=zero_tol,
            approach_tolerance=approach_tol, max_gap=None, detail=detail,
        )
    side_vals = sorted(set(plus or minus) | ({0.0} if zero_count else set()))
    max_gap = max(
        (b - a for a, b in zip(side_vals, side_vals[1:])), default=0.0)
    return PctReport(
        verdict="CONSISTENT", condition="one-sided", plus=plus_summary,
        minus=minus_summary, zero_count=zero_count, zero_tolerance=zero_tol,
        approach_tolerance=approach_tol, max_gap=max_gap,
        detail="one-sided sample; a finite sample cannot refute a connected "
               f"closure (largest adjacent gap {max_gap!r})",
    )
