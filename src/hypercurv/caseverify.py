"""Feasibility scans for limit spectra pinned by trace and sigma_2 targets.

A :class:`ConstraintSystem` describes a candidate limit configuration of
ordered principal curvatures x = (x_1 <= ... <= x_n): the trace and sigma_2
are pinned to targets (equivalently H and the scalar curvature R), selected
labels are pinned to zero, and the rest carry sign constraints, optionally
together with sign constraints on higher symmetric values sigma_r.

``scan`` searches the box |x_i| <= |A| = sqrt(trace^2 - 2 sigma_2) with a
uniform grid, keeps the best cells of a squared-violation penalty, runs
lockstep coordinate descent (each coordinate section of the penalty is
convex piecewise-quadratic, so ternary line search is exact), and finishes
with a seeded random-perturbation polish.  A returned WITNESS is always
re-validated by an independent pure-Python constraint evaluator; NO_WITNESS
is exhaustive-search evidence, not a proof.

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
from math import comb
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, UnsupportedCaseError
from .scalars import (
    Regime,
    Scalar,
    coerce,
    common_regime,
    promote,
    scalar_to_json,
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


def _excess(v, is_lower: bool, t):
    # Signed distance past a one-sided bound; positive means violated.
    return t - v if is_lower else v - t


@dataclass(frozen=True)
class SignConstraint:
    """Sign condition on one labeled coordinate (1-based index)."""

    index: int
    relation: Relation


@dataclass(frozen=True)
class SymmetricSignConstraint:
    """Sign condition on sigma_r of the whole vector."""

    r: int
    relation: Relation

    def __post_init__(self):
        if self.relation not in (Relation.GE_ZERO, Relation.LE_ZERO):
            raise DomainError("symmetric constraints support only >=0 and <=0")


@dataclass(frozen=True)
class ConstraintSystem:
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
        return {
            "name": self.name,
            "n": self.n,
            "regime": self.regime.value,
            "traceTarget": scalar_to_json(self.trace_target),
            "sigma2Target": scalar_to_json(self.sigma2_target),
            "fixedZeros": sorted(self.fixed_zeros),
            "ordering": self.ordering,
            "signConstraints": [
                {"index": sc.index, "relation": sc.relation.value}
                for sc in self.sign_constraints
            ],
            "extraSymmetric": [
                {"r": ex.r, "relation": ex.relation.value}
                for ex in self.extra_symmetric
            ],
        }

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
class FeasibilityVerdict:
    """Outcome of a scan: a validated witness, or the best failure found."""

    status: str
    witness: Optional[Tuple[float, ...]]
    residual: float
    best_point: Tuple[float, ...]
    violations: Mapping[str, float]
    stats: Mapping[str, object]

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": list(self.witness) if self.witness is not None else None,
            "residual": self.residual,
            "bestPoint": list(self.best_point),
            "violations": dict(self.violations),
            "stats": dict(self.stats),
        }


class _PenaltyEvaluator:
    """Vectorized squared-violation penalty over rows of free coordinates."""

    def __init__(self, system: ConstraintSystem):
        self.system = system
        self.n = system.n
        self.trace = promote(system.trace_target)
        self.sigma2 = promote(system.sigma2_target)
        h = promote(system.mean_curvature)
        self.fixed0 = sorted(i - 1 for i in system.fixed_zeros)
        self.free0 = [i for i in range(self.n) if i + 1 not in system.fixed_zeros]
        # (coordinate, is_lower, t) and (r, is_lower, t), from Relation.bound
        self.signs = [(sc.index - 1, *sc.relation.bound(h)) for sc in system.sign_constraints]
        self.extra = [(ex.r, *ex.relation.bound(h)) for ex in system.extra_symmetric]

    def full(self, x_free: np.ndarray) -> np.ndarray:
        rows = np.zeros((x_free.shape[0], self.n))
        rows[:, self.free0] = x_free
        return rows

    @staticmethod
    def _sigma_rows(rows: np.ndarray, r: int) -> np.ndarray:
        coeffs = np.zeros((rows.shape[0], r + 1))
        coeffs[:, 0] = 1.0
        for col in range(rows.shape[1]):
            top = min(col + 1, r)
            v = rows[:, col:col + 1]
            coeffs[:, 1:top + 1] = coeffs[:, 1:top + 1] + v * coeffs[:, 0:top]
        return coeffs[:, r]

    def penalty(self, x_free: np.ndarray) -> np.ndarray:
        rows = self.full(np.atleast_2d(x_free))
        s1 = rows.sum(axis=1)
        eq_trace = s1 - self.trace
        eq_sigma2 = 0.5 * (s1 * s1 - (rows * rows).sum(axis=1)) - self.sigma2
        pen = eq_trace * eq_trace + eq_sigma2 * eq_sigma2
        if self.system.ordering:
            steps = rows[:, :-1] - rows[:, 1:]
            np.maximum(steps, 0.0, out=steps)
            pen += (steps * steps).sum(axis=1)
        for idx0, is_lower, t in self.signs:
            bad = np.maximum(_excess(rows[:, idx0], is_lower, t), 0.0)
            pen += bad * bad
        for r, is_lower, t in self.extra:
            bad = np.maximum(_excess(self._sigma_rows(rows, r), is_lower, t), 0.0)
            pen += bad * bad
        return pen

    def penalty_with_column(self, x_free: np.ndarray, col: int, values: np.ndarray) -> np.ndarray:
        trial = x_free.copy()
        trial[:, col] = values
        return self.penalty(trial)


def _lockstep_descent(ev: _PenaltyEvaluator, x: np.ndarray, rounds: int,
                      iters: int, lo: float, hi: float) -> np.ndarray:
    # Each coordinate section of the penalty is convex piecewise-quadratic,
    # so per-coordinate ternary search is an exact line minimization.
    x = x.copy()
    for _ in range(rounds):
        for col in range(x.shape[1]):
            lo_v = np.full(x.shape[0], lo)
            hi_v = np.full(x.shape[0], hi)
            for _ in range(iters):
                third = (hi_v - lo_v) / 3.0
                m1 = lo_v + third
                m2 = hi_v - third
                f1 = ev.penalty_with_column(x, col, m1)
                f2 = ev.penalty_with_column(x, col, m2)
                better1 = f1 < f2
                hi_v = np.where(better1, m2, hi_v)
                lo_v = np.where(better1, lo_v, m1)
            mid = 0.5 * (lo_v + hi_v)
            f_mid = ev.penalty_with_column(x, col, mid)
            improve = f_mid < ev.penalty(x)
            x[improve, col] = mid[improve]
    return x


def _active_residuals(ev: _PenaltyEvaluator, x_free: np.ndarray):
    """Violation residual vector and Jacobian (free coords) at one point.

    Only active terms contribute, so near a solution with a stable active
    set this is a smooth least-squares system whose squared norm equals the
    scan penalty.
    """
    n, d = ev.n, len(ev.free0)
    full = np.zeros(n)
    full[ev.free0] = x_free
    pos = {j: i for i, j in enumerate(ev.free0)}
    values: List[float] = []
    grads: List[np.ndarray] = []

    s1 = full.sum()
    values.append(s1 - ev.trace)
    grads.append(np.ones(d))
    sigma2 = 0.5 * (s1 * s1 - float(full @ full))
    values.append(sigma2 - ev.sigma2)
    grads.append(s1 - full[ev.free0])

    def push(bad: float, grad: np.ndarray):
        if bad > 0.0:
            values.append(bad)
            grads.append(grad)

    if ev.system.ordering:
        for j in range(n - 1):
            g = np.zeros(d)
            if j in pos:
                g[pos[j]] += 1.0
            if j + 1 in pos:
                g[pos[j + 1]] -= 1.0
            push(float(full[j] - full[j + 1]), g)
    for idx0, is_lower, t in ev.signs:
        g = np.zeros(d)
        if idx0 in pos:
            g[pos[idx0]] = -1.0 if is_lower else 1.0
        push(_excess(float(full[idx0]), is_lower, t), g)
    for r, is_lower, t in ev.extra:
        s_r = float(_PenaltyEvaluator._sigma_rows(full[None, :], r)[0])
        bad = _excess(s_r, is_lower, t)
        if bad > 0.0:
            slope = -1.0 if is_lower else 1.0
            g = np.zeros(d)
            for i, j in enumerate(ev.free0):
                reduced = np.delete(full, j)
                g[i] = slope * float(
                    _PenaltyEvaluator._sigma_rows(reduced[None, :], r - 1)[0])
            push(bad, g)
    return np.asarray(values), np.vstack(grads)


def _gauss_newton(ev: _PenaltyEvaluator, x: np.ndarray, iters: int = 40) -> np.ndarray:
    # Quadratic local convergence where coordinatewise descent creeps, e.g.
    # along directions where an equality residual is second-order flat.
    x = x.copy()
    fx = float(ev.penalty(x[None, :])[0])
    for _ in range(iters):
        if fx == 0.0:
            break
        res, jac = _active_residuals(ev, x)
        step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            break
        scale, moved = 1.0, False
        for _ in range(25):
            trial = x + scale * step
            ft = float(ev.penalty(trial[None, :])[0])
            if ft < fx:
                x, fx, moved = trial, ft, True
                break
            scale *= 0.5
        if not moved:
            break
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
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
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
    x_polish = np.vstack([_gauss_newton(ev, row) for row in x_polish])
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
    best = _gauss_newton(ev, best)
    best, snapped = _exact_snap(ev, best)
    stats["snappedExact"] = snapped

    return finish(best)


# ---------------------------------------------------------------------------
# Built-in named cases, expected outcomes, and closed-form certificates.
# ---------------------------------------------------------------------------

_CASE_SHAPES: Dict[str, dict] = {
    "thm1-claim": dict(
        n=4, ratio=Fraction(2, 3), fixed=(3,),
        signs=((4, Relation.GE_H),), extra=(),
    ),
    "thm1-lambda2": dict(
        n=4, ratio=Fraction(2, 3), fixed=(2,),
        signs=((3, Relation.GT_ZERO), (4, Relation.GE_H)), extra=(),
    ),
    "thm2-claim": dict(
        n=5, ratio=Fraction(5, 8), fixed=(4,),
        signs=((5, Relation.GE_H),), extra=((4, Relation.GE_ZERO),),
    ),
    "thm2-lambda3": dict(
        n=5, ratio=Fraction(5, 8), fixed=(3,),
        signs=((4, Relation.GT_ZERO), (5, Relation.GE_H)),
        extra=((4, Relation.GE_ZERO),),
    ),
    "thm2-lambda2": dict(
        n=5, ratio=Fraction(5, 6), fixed=(2,),
        signs=((3, Relation.GT_ZERO), (5, Relation.GE_H)),
        extra=((4, Relation.GE_ZERO),),
    ),
}

BUILTIN_CASES = tuple(sorted(_CASE_SHAPES))


def builtin_case(name: str, H: Scalar = 1, R: Optional[Scalar] = None) -> ConstraintSystem:
    """Instantiate a built-in named case at mean curvature H (default R per case)."""
    shape = _CASE_SHAPES.get(name)
    if shape is None:
        raise DomainError(f"unknown case {name!r}; known: {', '.join(BUILTIN_CASES)}")
    regime = common_regime((H,) if R is None else (H, R))
    H = coerce(H, regime)
    if promote(H) <= 0:
        raise DomainError("built-in cases assume H > 0")
    if R is None:
        R = shape["ratio"] * H * H
    R = coerce(R, regime)
    n = shape["n"]
    return ConstraintSystem(
        n=n,
        trace_target=n * H,
        sigma2_target=comb(n, 2) * R,
        fixed_zeros=frozenset(shape["fixed"]),
        ordering=True,
        sign_constraints=tuple(SignConstraint(i, rel) for i, rel in shape["signs"]),
        extra_symmetric=tuple(SymmetricSignConstraint(r, rel) for r, rel in shape["extra"]),
        name=name,
    )


@dataclass(frozen=True)
class ExpectedOutcome:
    """What the recorded analysis says a canonical built-in scan must find."""

    status: str
    witness: Optional[Tuple[Scalar, ...]]

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": [scalar_to_json(v) for v in self.witness] if self.witness else None,
        }


def expected_outcome(system: ConstraintSystem) -> Optional[ExpectedOutcome]:
    """Recorded outcome for a built-in case at its canonical R, else None."""
    shape = _CASE_SHAPES.get(system.name or "")
    if shape is None or system.n != shape["n"]:
        return None
    h = system.mean_curvature
    canonical_sigma2 = comb(system.n, 2) * shape["ratio"] * h * h
    if system.regime is Regime.EXACT:
        canonical = system.sigma2_target == canonical_sigma2
    else:
        canonical = abs(promote(system.sigma2_target) - promote(canonical_sigma2)) \
            <= 1e-12 * max(1.0, abs(promote(canonical_sigma2)))
    if not canonical:
        return None
    if system.name in ("thm1-claim", "thm2-claim"):
        return ExpectedOutcome(status="NO_WITNESS", witness=None)
    zero = coerce(0, system.regime)
    if system.name == "thm1-lambda2":
        return ExpectedOutcome("WITNESS", (zero, zero, 2 * h, 2 * h))
    if system.name == "thm2-lambda3":
        return ExpectedOutcome("WITNESS", (zero, zero, zero, 5 * h / 2, 5 * h / 2))
    return ExpectedOutcome("WITNESS", (zero, zero, 5 * h / 3, 5 * h / 3, 5 * h / 3))


def closed_form_contradiction(system: ConstraintSystem, point: Sequence[Scalar]) -> Scalar:
    """Evaluate the registered one-line certificate of a named case at ``point``.

    The certificate is a polynomial in the coordinates and the targets whose
    sign settles the case on the equality-constrained set:

    * ``thm1-claim``:   E = (4H) x_2 - 6R.  On the equality set E equals
      x_2^2 - x_1 x_4, so the sign premise x_1 <= 0 <= x_4 forces E >= 0 and
      hence x_2 >= 6R/(4H) > 0, contradicting x_2 <= 0: no witness exists.
    * ``thm1-lambda2``: E = (x_4 - 2H)^2 + (sigma_2(x) - 4H^2) - x_1 x_3,
      with sigma_2 read off the point.  E vanishes identically on the set
      {x_2 = 0, sum x_i = 4H} (where sigma_2(x) - 4H^2 = 6(R - (2/3)H^2));
      every term is zero at the witness, and E = 2H^2 at the umbilic point.
    * ``thm2-claim``:   E = max(10RH - sigma_3, sigma_3), the gap of the
      two-sided squeeze: the premise forces sigma_3 >= 10RH and
      sigma_3 <= 0 simultaneously, so E >= 5RH > 0 certifies infeasibility.

    Points are evaluated as given, with no feasibility precondition; exact
    inputs stay exact.
    """
    name = system.name
    x = tuple(point)
    if len(x) != system.n:
        raise DomainError(f"point has {len(x)} coordinates, system has n={system.n}")
    regime = common_regime(x)
    x = tuple(coerce(v, regime) for v in x)
    trace = coerce(system.trace_target, regime) if regime is Regime.EXACT \
        else promote(system.trace_target)
    s2 = coerce(system.sigma2_target, regime) if regime is Regime.EXACT \
        else promote(system.sigma2_target)
    if name == "thm1-claim":
        return trace * x[1] - s2
    if name == "thm1-lambda2":
        h = trace / 4
        gap = x[3] - 2 * h
        return gap * gap + (sigma(x, 2) - 4 * h * h) - x[0] * x[2]
    if name == "thm2-claim":
        h = trace / 5
        s3 = sigma(x, 3)
        return max(s2 * h - s3, s3)
    raise UnsupportedCaseError(
        f"no closed-form certificate registered for case {system.name!r}"
    )


@dataclass(frozen=True)
class CertificateReport:
    """Cross-examination of a certificate against equality-feasible samples."""

    case: str
    kind: str
    samples: int
    feasible_samples: int
    max_identity_residual: float
    margin: float
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "kind": self.kind,
            "samples": self.samples,
            "feasibleSamples": self.feasible_samples,
            "maxIdentityResidual": self.max_identity_residual,
            "margin": self.margin,
            "passed": self.passed,
            "detail": self.detail,
        }


def _pair_completions(total: float, product: float) -> Optional[Tuple[float, float]]:
    disc = total * total - 4.0 * product
    if disc < 0:
        return None
    root = math.sqrt(disc)
    return (total - root) / 2.0, (total + root) / 2.0


def certificate_samples(system: ConstraintSystem, seed: int = 0,
                        count: int = 1000) -> List[Tuple[float, ...]]:
    """Seeded points satisfying the trace/sigma_2 equalities and pinned zeros.

    Sampling parametrizes the equality variety case by case and discards
    parameters with no real completion, so every returned point satisfies
    the equality constraints to rounding; sign and ordering constraints are
    deliberately not imposed.
    """
    name = system.name
    if name not in ("thm1-claim", "thm1-lambda2", "thm2-claim"):
        raise UnsupportedCaseError(
            f"no closed-form certificate registered for case {system.name!r}"
        )
    rng = np.random.default_rng(seed)
    trace = promote(system.trace_target)
    s2 = promote(system.sigma2_target)
    h = trace / system.n
    box = math.sqrt(max(promote(system.norm_a2_target), 0.0))
    points: List[Tuple[float, ...]] = []
    anchors = {
        "thm1-claim": [2.0 * h],
        "thm1-lambda2": [2.0 * h],
        "thm2-claim": [(0.0, 0.0)],
    }[name]
    max_tries = 80 * count

    def next_param(tries: int):
        if tries < len(anchors):
            return anchors[tries]
        if name == "thm2-claim":
            return tuple(rng.uniform(-box, box, size=2))
        return float(rng.uniform(-box, box))

    tries = 0
    while len(points) < count and tries < max_tries:
        param = next_param(tries)
        tries += 1
        if name == "thm1-claim":
            t = param
            pair = _pair_completions(trace - t, s2 - t * (trace - t))
            if pair is None:
                continue
            points.append((pair[0], t, 0.0, pair[1]))
        elif name == "thm1-lambda2":
            s = param
            pair = _pair_completions(trace - s, s2 - s * (trace - s))
            if pair is None:
                continue
            points.append((pair[0], 0.0, pair[1], s))
        else:
            a, b = param
            rest = trace - a - b
            product = s2 - a * b - (a + b) * rest
            pair = _pair_completions(rest, product)
            if pair is None:
                continue
            points.append((pair[0], a, b, 0.0, pair[1]))
    return points


def certificate_check(system: ConstraintSystem, seed: int = 0, count: int = 1000,
                      tol: float = 1e-8) -> CertificateReport:
    """Verify the registered certificate against scan semantics.

    For the infeasibility certificates every equality-feasible sample must
    violate the full system and the certificate's algebra must hold on it;
    for the witness-pinning certificate the identity must vanish on every
    sample and the anchored witness must be fully feasible.
    """
    points = certificate_samples(system, seed=seed, count=count)
    name = system.name
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
        if name == "thm1-claim":
            # On the equality set, E = x_2^2 - x_1 x_4 identically, so the
            # premise x_1 <= 0 <= x_4 is incompatible with x_1 x_4 >= 0
            # except at the boundary x_1 = 0, where E >= 0 forces x_2 > 0.
            identity_residual = max(
                identity_residual, abs(value - (x[1] * x[1] - x[0] * x[3])))
            margin = min(margin, x[0] * x[3])
        elif name == "thm1-lambda2":
            identity_residual = max(identity_residual, abs(value))
            if viol <= tol:
                witness_ok = witness_ok or abs(value) <= 1e-6
        else:
            margin = min(margin, value - 0.5 * s2 * h)
    scale = max(1.0, trace * trace, abs(s2))
    identity_ok = identity_residual <= 1e-7 * scale
    if name == "thm1-lambda2":
        kind = "witness-pinning"
        passed = identity_ok and feasible >= 1 and witness_ok
        detail = ("identity vanishes on the equality set and the anchored "
                  "witness is feasible" if passed else
                  "identity or anchored witness failed")
        margin = identity_residual
    elif name == "thm1-claim":
        kind = "infeasibility"
        passed = identity_ok and feasible == 0 and margin > -1e-9 * scale
        detail = ("x_1 x_4 stays non-negative on the equality set, so the "
                  "sign premises force x_2 > 0 and no sample is feasible"
                  if passed else "a sample defeated the certificate")
    else:
        kind = "infeasibility"
        passed = feasible == 0 and margin > -1e-9 * scale
        detail = ("two-sided sigma_3 squeeze keeps a positive gap on every "
                  "sample" if passed else "a sample defeated the certificate")
    return CertificateReport(
        case=name or "", kind=kind, samples=len(points),
        feasible_samples=feasible, max_identity_residual=identity_residual,
        margin=margin, passed=passed, detail=detail,
    )


def has_certificate(system: ConstraintSystem) -> bool:
    return (system.name or "") in ("thm1-claim", "thm1-lambda2", "thm2-claim")


# ---------------------------------------------------------------------------
# Principal-curvature value sets.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetSummary:
    count: int
    infimum: Optional[float]
    supremum: Optional[float]

    def to_json_dict(self) -> dict:
        return {"count": self.count, "infimum": self.infimum, "supremum": self.supremum}


@dataclass(frozen=True)
class PctReport:
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

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "condition": self.condition,
            "plus": self.plus.to_json_dict(),
            "minus": self.minus.to_json_dict(),
            "zeroCount": self.zero_count,
            "zeroTolerance": self.zero_tolerance,
            "approachTolerance": self.approach_tolerance,
            "maxGap": self.max_gap,
            "detail": self.detail,
        }


def pct_sets(values: Sequence[Scalar], zero_tol: float = 1e-12,
             approach_tol: float = 1e-8) -> PctReport:
    """Split sampled principal-curvature values into signed sets and classify.

    Values within ``zero_tol`` of zero count as zero.  With both signs
    present, consistency demands each signed set approach zero within
    ``approach_tol``.  With one sign present, a finite sample cannot refute
    connectedness of the closure, so the verdict is CONSISTENT and the
    largest adjacent gap is reported as a diagnostic.
    """
    vals = [promote(v) for v in values]
    if not vals:
        raise DomainError("pct_sets needs a non-empty sample")
    if zero_tol < 0 or approach_tol < 0:
        raise DomainError("tolerances must be non-negative")
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
