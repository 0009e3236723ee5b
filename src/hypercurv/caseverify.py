"""Feasibility scans for limit spectra pinned by trace and sigma_2 targets.

A :class:`ConstraintSystem` describes a candidate limit configuration of
ordered principal curvatures x = (x_1 <= ... <= x_n): the trace and sigma_2
are pinned to targets (equivalently H and the scalar curvature R), selected
labels are pinned to zero, and the rest carry sign constraints, optionally
together with sign constraints on higher symmetric values sigma_r.

``scan`` first tries to prove an EXACT system empty by interval propagation
over one box in ``Fraction`` arithmetic (``_proved_empty``); a proved
system returns NO_WITNESS before any search.  Otherwise it searches the box
|x_i| <= |A| = sqrt(trace^2 - 2 sigma_2) in three stages: a uniform grid
keeps its ``polish_starts`` best cells by a squared-violation penalty,
Gauss-Newton polishes those cells, and an exact snap tries a nearby
rational point at the best of them.  An EXACT system already snaps during
Gauss-Newton and returns at its first exactly feasible snap.  No stage
reads the seed, so the result does not depend on it.  The grid is pruned
branch-and-bound style (Land & Doig 1960): cells grow one coordinate at a
time, and a partial cell whose cheap separable terms (trace, ordering,
sign bounds) already exceed a threshold above the kept set's worst penalty
is never completed.  The full penalty runs only on cells that can still
enter the kept set, and the kept set is the one a full evaluation would
keep.  A returned WITNESS is always re-validated by an independent
pure-Python constraint evaluator.  A NO_WITNESS whose ``stats["note"]``
gives a reason (the propagation's proof, or equalities that force a
negative sum of squares) is a proof for an EXACT system; any other
NO_WITNESS is exhaustive-search evidence, not a proof.  A system whose
penalty could overflow a double over that box is refused with
``DomainError`` before the grid, rather than ranked by inf.

The scan encodes its constraint terms once, as a gather plan over a
workspace of sigma values and coordinates that gives a matrix of signed
excess (one column per term, positive when violated).  Every term is affine in
any one coordinate x_j: the trace, the ordering steps and the sign bounds
trivially, and sigma_r through sigma_r(x) = x_j sigma_{r-1}(x without j) +
sigma_r(x without j).  So one sigma pass over a point with x_j = 0 gives
each term's exact slope along x_j: 1 for the trace, sigma_1(x without j)
for sigma_2, +-1 for an ordering step, the bound's sense for a sign bound
and sense * sigma_{r-1}(x without j) for a sigma_r bound.  The penalty is
the sum of squares with inequality terms clipped at zero, and the slopes
over all coordinates are the Gauss-Newton Jacobian.

For the built-in named cases, ``closed_form_contradiction`` evaluates the
registered one-line certificate whose sign settles the case without any
search, and ``certificate_check`` cross-examines certificate and scan on a
seeded sample of points that satisfy the equality constraints.

``pct_sets`` classifies a sample of principal-curvature values against the
two-sided/one-sided alternative for complete CMC hypersurfaces: either both
signs occur and both sets approach zero, or only one sign occurs and the
closure of the value set is connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
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
from . import spectrum

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

    @cached_property
    def _exact_plan(self) -> "_ViolationPlan":
        return _ViolationPlan(self, Fraction)

    @cached_property
    def _float_plan(self) -> "_ViolationPlan":
        return _ViolationPlan(self, float)

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

        if not isinstance(payload, dict):
            raise DomainError("a system payload must be a JSON object, "
                              f"got {type(payload).__name__}")
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
    ``RegimeError``.  Those constants, the sigma orders and the keys come
    from the system's plan for the point's regime (``_ViolationPlan``),
    built once per system; sigma_2 and every bounded sigma_r come from one
    lift of the point and one truncated sigma pass, the values
    ``spectrum.sigmas`` gives, without its second regime pass and order
    checks.
    """
    x = list(point)
    return _violations(system, x, common_regime(x))


def _violations(system: ConstraintSystem, x: Sequence[Scalar],
                regime: Regime) -> Dict[str, Scalar]:
    # The body of ``constraint_violations``, for a point whose regime the
    # caller already knows: every term of ``_violation_terms``, keyed in
    # the order trace, sigma2, pinned zeros, ordering, signs, sigma_r bounds
    # (a key already present keeps its place when its value is written).
    viol: Dict[str, Scalar] = dict.fromkeys(("trace", "sigma2"))
    viol.update(_violation_terms(system, x, regime))
    return viol


def _violation_terms(system: ConstraintSystem, x: Sequence[Scalar], regime: Regime,
                     sigma_first: bool = False):
    # Yields each ``(key, violation)`` of the point in evaluation order: the
    # trace, pinned zeros, ordering and sign terms (a subtraction, ``abs``
    # or ``max`` each, which cannot raise), then one sigma pass for sigma_2
    # and the sigma_r bounds, which raises ``DomainError`` on a value past
    # the double range.  So a caller that stops at the first term over a
    # tolerance skips the sigma pass once a cheap term fails.  With
    # ``sigma_first`` the sigma pass runs before the first term, so that it
    # raises wherever evaluating every term would (``certificate_check``).
    exact = regime is Regime.EXACT
    num = Fraction if exact else float
    x = [v if type(v) is num else num(v) for v in x]
    if len(x) != system.n:
        raise DomainError(f"point has {len(x)} coordinates, system has n={system.n}")
    plan = system._exact_plan if exact else system._float_plan
    sigmas = spectrum._sigma_values(x, regime, plan.orders) if sigma_first else None
    zero = plan.zero
    yield "trace", abs(sum(x) - plan.trace)
    for key, i in plan.zeros:
        yield key, abs(x[i])
    if system.ordering:
        yield "ordering", max(zero, max(x[i] - x[i + 1] for i in range(system.n - 1)))
    margin, h = plan.margin, plan.h
    for key, i, relation in plan.signs:
        v = x[i]
        if relation is Relation.GE_ZERO:
            bad = max(zero, -v)
        elif relation is Relation.LE_ZERO:
            bad = max(zero, v)
        elif relation is Relation.GT_ZERO:
            bad = max(zero, margin - v)
        elif relation is Relation.LT_ZERO:
            bad = max(zero, v + margin)
        else:
            bad = max(zero, h - v)
        yield key, bad
    s2, *bounded = sigmas if sigma_first else spectrum._sigma_values(x, regime, plan.orders)
    yield "sigma2", abs(s2 - plan.sigma2)
    for (key, lower), s in zip(plan.symmetric, bounded):
        yield key, max(zero, -s) if lower else max(zero, s)


class _ViolationPlan:
    """What ``constraint_violations`` reads of a system, in one regime.

    ``num`` is the regime's number type: the targets, H, zero and
    ``STRICT_MARGIN`` as ``num``, the sigma orders (2, then each bounded
    r), and each constraint's key and coordinate, in the order the
    violations list them.
    """

    def __init__(self, system: ConstraintSystem, num: type):
        self.zero, self.margin = num(0), num(STRICT_MARGIN)
        self.trace, self.sigma2 = num(system.trace_target), num(system.sigma2_target)
        self.h = num(system.mean_curvature)
        self.orders = [2] + [ex.r for ex in system.extra_symmetric]
        self.zeros = [(f"lambda{i}=0", i - 1) for i in sorted(system.fixed_zeros)]
        self.signs = [(f"lambda{sc.index}{sc.relation.value}", sc.index - 1, sc.relation)
                      for sc in system.sign_constraints]
        self.symmetric = [(f"sigma{ex.r}{ex.relation.value}", ex.relation is Relation.GE_ZERO)
                          for ex in system.extra_symmetric]


def max_violation(system: ConstraintSystem, point: Sequence[Scalar]) -> Scalar:
    return max(constraint_violations(system, point).values())


def _sigma_bound(n: int, top: int, reach: float) -> float:
    """max of C(n, r) reach^r over 1 <= r <= top: with every |x_i| <= reach,
    a bound on |sigma_r(x)| for each such r.

    Products only, so a bound past the double range reads as inf rather
    than raising.
    """
    power, largest = 1.0, 0.0
    for r in range(1, top + 1):
        power *= reach
        largest = max(largest, comb(n, r) * power)
    return largest


@dataclass(frozen=True)
class ScanBudget:
    """Search effort: total grid cells and the grid cells polished.

    Every field must be an integer >= 1; anything else raises ``DomainError``.
    ``polish_rounds`` counted the rounds of a coordinate-descent stage that
    ``scan`` no longer runs; it is still validated, but nothing reads it.
    """

    grid_points: int = 1_000_000
    polish_starts: int = 64
    polish_rounds: int = 24

    def __post_init__(self):
        for name in ("grid_points", "polish_starts", "polish_rounds"):
            _check_integer(name, getattr(self, name), least=1)


@dataclass(frozen=True)
class FeasibilityVerdict(JsonRecord):
    """Outcome of a scan: a validated witness, or the best failure found."""

    status: str
    witness: Optional[Tuple[float, ...]]
    residual: float
    best_point: Tuple[float, ...]
    violations: Mapping[str, float]
    stats: Mapping[str, object]


@dataclass(frozen=True)
class _Part:
    """Terms as a gather plan over a workspace (``_PenaltyEvaluator.workspace``).

    Term j is ``(w[a_j] - w[b_j] - target_j) * sense_j``, where ``w`` is a
    workspace: rows of numbers, one column per point.  ``target`` and
    ``sense`` are column vectors, so that they broadcast along the points.
    """

    a: np.ndarray
    b: np.ndarray
    target: np.ndarray
    sense: np.ndarray

    def reading(self, rows: np.ndarray, targets: bool = True) -> "_Part":
        # The same terms with workspace row i read as rows[i], and without
        # their targets unless ``targets``.
        return _Part(rows[self.a], rows[self.b],
                     self.target if targets else np.zeros_like(self.target), self.sense)

    @staticmethod
    def stack(parts: Sequence["_Part"]) -> "_Part":
        # The parts one after another.
        return _Part(np.concatenate([p.a for p in parts]), np.concatenate([p.b for p in parts]),
                     np.concatenate([p.target for p in parts]),
                     np.concatenate([p.sense for p in parts]))


def _terms(w: np.ndarray, part: _Part, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The terms of ``part`` on the workspace ``w``, terms x points.

    ``out`` may be the transpose of a points x terms array, which then holds
    each point's terms together.
    """
    out = np.subtract(w[part.a], w[part.b], out=out)
    out -= part.target
    out *= part.sense
    return out


class _PenaltyEvaluator:
    """The scan's constraint terms as one vectorized matrix of signed excess.

    ``whole`` is the only encoding of the terms on this side of the double
    entry, a ``_Part`` over a workspace whose rows are a zero row,
    sigma_0 .. sigma_top, the n coordinates and a ones row, one column per
    point.  Term by term it reads sigma_1 - trace, sigma_2 - sigma_2 target,
    the steps x_i - x_{i+1}, sense * (x_c - t) and sense * (sigma_r - t),
    each as (w[a] - w[b] - target) * sense with b the zero row where
    nothing is subtracted.  The penalty (``excess``) and the Gauss-Newton
    Jacobian are both read off it.  A term's slope along x_k is the same
    term with sigma_r read as sigma_{r-1} (the zero row sits right before
    sigma_0), x_k as the ones row, every other coordinate as the zero row,
    and no target, on the sigma values of the point with x_k = 0
    (``along``).  Every other reader (``excess_bound``, ``jacobian`` and
    ``_PrefixBound``) tells a term's kind by the workspace rows it reads,
    so the terms change in ``whole`` alone.
    """

    def __init__(self, system: ConstraintSystem):
        self.system = system
        self.n = system.n
        self.fixed0 = sorted(i - 1 for i in system.fixed_zeros)
        self.free0 = [i for i in range(self.n) if i + 1 not in system.fixed_zeros]
        self.top = max([2] + [ex.r for ex in system.extra_symmetric])
        # Workspace rows: 0 is the zero row, sig + r holds sigma_r, x + i
        # coordinate i, and the last one is the ones row.
        sig, x = 1, self.top + 2
        self.sig, self.x, self.rows = sig, x, x + self.n + 1
        # Term by term (a, b, target, sense); excess = sense * (v - t) is
        # t - v below a lower bound and v - t past an upper one.
        h = promote(system.mean_curvature)
        steps = self.n - 1 if system.ordering else 0
        plan = ([(sig + 1, 0, promote(system.trace_target), 1.0),
                 (sig + 2, 0, promote(system.sigma2_target), 1.0)]
                + [(x + i, x + i + 1, 0.0, 1.0) for i in range(steps)])
        for row, c in ([(x + sc.index - 1, sc) for sc in system.sign_constraints]
                       + [(sig + ex.r, ex) for ex in system.extra_symmetric]):
            lower, t = c.relation.bound(h)
            plan.append((row, 0, t, -1.0 if lower else 1.0))
        self.terms = len(plan)
        a, b, target, sense = (np.array(v) for v in zip(*plan))
        self.whole = _Part(a, b, target[:, None], sense[:, None])
        # The Jacobian's workspace holds the points with x_k = 0 as column
        # block k of d; read as d times as many rows of one block's width,
        # row r of block k is row r * d + k.
        d = len(self.free0)
        self.slopes = _Part.stack([self.along(self.whole, c).reading(np.arange(self.rows) * d + k)
                                   for k, c in enumerate(self.free0)]) if d else None

    def along(self, part: _Part, c: int) -> _Part:
        """The slopes of ``part`` along coordinate c."""
        rows = np.zeros(self.rows, dtype=np.intp)
        rows[self.sig:self.x] = np.arange(self.top + 1)
        rows[self.x + c] = self.rows - 1
        return part.reading(rows, targets=False)

    def full(self, x_free: np.ndarray) -> np.ndarray:
        rows = np.zeros((x_free.shape[0], self.n))
        rows[:, self.free0] = x_free
        return rows

    def workspace(self, x_free: np.ndarray) -> np.ndarray:
        """The workspace of the points ``x_free`` (one per row), one column each.

        Its sigma rows come from one pass of prod(1 + x_i t) over the free
        coordinates, which runs over contiguous rows.
        """
        w = np.zeros((self.rows, x_free.shape[0]))
        w[[self.sig, -1]] = 1.0
        coords = w[self.x:-1]
        coords[self.free0] = x_free.T
        e = w[self.sig:self.x]
        for c in self.free0:
            e[1:] += coords[c] * e[:-1]
        return w

    def excess(self, x_free: np.ndarray) -> np.ndarray:
        """Signed excess of every term, one row per point; positive is violated.

        Columns: the trace and sigma_2 equalities, the n-1 ordering steps
        x_i - x_{i+1}, the sign bounds, then the sigma_r bounds.  Each row
        holds its terms together, as ``_sum_squares`` sums them.
        """
        x_free = np.atleast_2d(x_free)
        out = np.empty((x_free.shape[0], self.terms))
        _terms(self.workspace(x_free), self.whole, out.T)
        return out

    def penalty(self, x_free: np.ndarray) -> np.ndarray:
        # Each row's penalty is its own, so the rows run in blocks of
        # ``_PENALTY_ROWS`` (no rows still make one, empty, block).
        x_free = np.atleast_2d(x_free)
        return np.concatenate([_sum_squares(self.excess(x_free[i:i + _PENALTY_ROWS]))
                               for i in range(0, max(len(x_free), 1), _PENALTY_ROWS)])

    def excess_bound(self, reach: float) -> float:
        """Upper bound on any term's |excess| while every |x_i| <= reach.

        |sigma_r| <= C(n, r) reach^r (``_sigma_bound``, inf past the double
        range), and r = 1 also covers the ordering steps and the sign
        bounds; the plan's largest |target| is added.
        """
        return _sigma_bound(self.n, self.top, reach) + float(np.abs(self.whole.target).max())

    def jacobian(self, x_free: np.ndarray) -> np.ndarray:
        """Slope of every term along every free coordinate: rows x terms x coords.

        ``tests/oracles.sections`` builds the same slopes one coordinate at
        a time.  Here the points tiled d times, block k with x_k = 0, make
        one workspace, and one gather reads every coordinate's slopes off
        its own block.  A term that reads neither a sigma row nor x_k has
        slope 0 along x_k.
        """
        m, d = x_free.shape
        at_zero = np.tile(x_free, (d, 1))
        at_zero.reshape(d, m, d)[np.arange(d), :, np.arange(d)] = 0.0
        slope = _terms(self.workspace(at_zero).reshape(self.rows * d, m), self.slopes)
        return slope.reshape(d, self.terms, m).transpose(2, 1, 0)


# Penalty rows per block.  Blocks bound the gathers' memory and keep a
# block's workspace near cache.  ``_grid_top`` over the five built-ins at
# 1M cells (H of case-scans seed 1) and over the custom-scans systems of
# seed 1, with its tracemalloc peak (2-core x86-64 box, min of 7):
#   rows a block    built-ins          custom systems
#   all at once     41.4 ms  7.1 MB    17.8 ms  6.9 MB
#   1024            38.4 ms  2.6 MB    14.4 ms  1.5 MB
#   2048            33.7 ms  2.6 MB    13.1 ms  1.7 MB
#   4096            33.3 ms  2.7 MB    15.8 ms  2.5 MB
#   8192            39.5 ms  3.4 MB    15.5 ms  3.8 MB
_PENALTY_ROWS = 2048


def _sum_squares(ex: np.ndarray) -> np.ndarray:
    # Penalty per row of an excess matrix, computed in place: equalities
    # squared, inequalities squared past zero.
    np.maximum(ex[:, 2:], 0.0, out=ex[:, 2:])
    np.square(ex, out=ex)
    return ex.sum(axis=1)


_HALVINGS = 0.5 ** np.arange(25)  # Gauss-Newton step scales, tried in order
_GN_ITERATIONS = 40  # lockstep Gauss-Newton iterations at most
_ROUNDING_GAIN = 4 * np.finfo(float).eps  # a relative decrease this small is rounding


def _gauss_newton_states(ev: _PenaltyEvaluator, x: np.ndarray, fx: np.ndarray,
                         ranks: Optional[np.ndarray] = None):
    # Runs Gauss-Newton on ``x`` and its penalties ``fx`` in place, keeping
    # fx[i] the bits of ev.penalty(x[i]), and yields ``(x, fx)`` before
    # each lockstep iteration and after the last, so that a caller can stop
    # it early (``scan`` stops an EXACT system at the first pick
    # that snaps to an exactly feasible point; ``tests/oracles.gauss_newton``
    # drains it).
    #
    # The residual is the equalities plus the violated inequalities, so
    # near a solution with a stable active set its squared norm is the
    # penalty.
    # Rows run in lockstep, so each iteration costs one excess, one jacobian,
    # one stacked pseudo-inverse and at most two penalty calls however many
    # rows are live or how many halvings they need: every row tries its full
    # step (halving 0), and only the rows it does not improve try the other
    # halvings (``tests/oracles.gauss_newton_states`` tries all of them at
    # once, to the same bits).  A row takes the first halving of its step
    # that lowers its penalty, and stops at penalty 0, at a
    # non-finite step, when no halving helps, or when the halving it takes
    # lowers its penalty by no more than rounding (a row at the float floor).
    # With ``ranks`` (distinct, one per row) the caller keeps only the row
    # first by (penalty, rank), so once some row is at penalty 0, every row
    # ranked after it stops too: a row at 0 never moves, rows never
    # interact, and the pick prefers that row to any of them, so the picked
    # row ends bit for bit where it ends without ``ranks``.
    live = fx != 0.0
    for _ in range(_GN_ITERATIONS):
        yield x, fx
        if ranks is not None and (fx == 0.0).any():
            live &= ranks < ranks[fx == 0.0].min()
        rows = np.flatnonzero(live)
        if not rows.size:
            return
        start = x[rows]
        res = ev.excess(start)
        active = res > 0.0
        active[:, :2] = True
        # Inactive terms enter as zero rows, which leaves each least-squares
        # problem unchanged and lets one stacked pseudo-inverse solve them all.
        jac = np.where(active[:, :, None], ev.jacobian(start), 0.0)
        pinv = np.linalg.pinv(jac, rcond=max(jac.shape[1:]) * np.finfo(float).eps)
        step = (pinv @ np.where(active, -res, 0.0)[:, :, None])[:, :, 0]
        finite = np.isfinite(step).all(axis=1)
        live[rows[~finite]] = False
        rows, start, step = rows[finite], start[finite], step[finite]
        # Halving 0 scales by 1, so its trial is x + step.
        trial = start + step
        ft = ev.penalty(trial)
        moved = ft < fx[rows]
        retry = np.flatnonzero(~moved)
        if retry.size:
            more = start[retry, None, :] + _HALVINGS[1:, None] * step[retry, None, :]
            fm = ev.penalty(more.reshape(-1, x.shape[1])).reshape(retry.size, -1)
            better = fm < fx[rows[retry], None]
            found = better.any(axis=1)
            retry, pick = retry[found], (np.flatnonzero(found), better.argmax(axis=1)[found])
            trial[retry], ft[retry], moved[retry] = more[pick], fm[pick], True
        live[rows[~moved]] = False
        rows, trial, ft = rows[moved], trial[moved], ft[moved]
        threshold = fx[rows] * (1.0 - _ROUNDING_GAIN)
        x[rows], fx[rows] = trial, ft
        live[rows] = (fx[rows] != 0.0) & (fx[rows] < threshold)
    yield x, fx


def _first_exact_pick(ev: _PenaltyEvaluator, states,
                      ranks: np.ndarray) -> Tuple[Optional[np.ndarray], bool]:
    """The first exactly feasible ``_exact_snap`` of the pick of ``states``.

    ``scan`` ends here in both regimes: an EXACT system passes every
    Gauss-Newton state, a FLOAT system only the final one.  The pick of a
    state is its row first by (penalty, rank); it is snapped whenever its
    row or its coordinates changed since the last try.  Returns
    ``(point, True)`` for the first snap that verifies, and once the states
    run out ``(pick, False)`` with the final pick, whose snap failed last
    (``None`` if no state came).
    """
    tried, failed = None, None
    for x, fx in states:
        i = np.lexsort((ranks, fx))[0]
        if (i, x[i].tobytes()) == tried:
            continue
        tried = i, x[i].tobytes()
        point, exact = _exact_snap(ev, x[i])
        if exact:
            return point, True
        failed = x[i].copy()
    return failed, False


def _exact_snap(ev: _PenaltyEvaluator, x: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Rational reconstruction of a near-feasible point, exactly verified.

    Equality residuals that are second order along some direction leave a
    feasibility valley that the float Gauss-Newton polish can only pin to
    about sqrt(eps).
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


def _clipped_square(v):
    return np.square(np.maximum(v, 0.0))


class _PrefixBound:
    """Lower bound on the penalty of every grid cell that extends a prefix.

    A prefix fixes the first k free coordinates.  The penalty is a sum of
    non-negative terms, so the terms a prefix already fixes bound it from
    below.  They are the plan's (``ev.whole``) terms on coordinate rows
    alone with a free one among them: on one free coordinate the term
    (w[a] - w[b] - t) s, every other row zero, tabulated over the axis
    (``unary``); on two, the ordering step from the previous free one
    (``linked``).  A term on pinned zeros alone is 0 there (all that
    ``ConstraintSystem`` admits) and left out.  The trace term adds the
    distance of trace - (prefix sum) from [r axes[0], r axes[-1]], the sums
    the r coordinates still free can reach.  sigma_2 and the sigma_r bounds
    are left out.

    The bound must never exceed the float penalty of a completion, or the
    grid could drop a cell that belongs in its top set:

    - Each ordering and sign term is the plan's term with the float
      operations of ``excess`` and ``_sum_squares``, so it is bit-equal to
      the penalty's by construction.
    - The prefix sum is accumulated in the order ``excess`` accumulates
      sigma_1, so with all d coordinates it is the penalty's sum.  With u =
      eps/2 and M = |trace| + d reach, the penalty's sum is within
      gamma_d d reach of the exact sum, its excess within u M of the exact
      difference, and the computed gap within (gamma_d + 4u) M of the
      exact distance.  ``slack`` = (d + 4) eps M covers the total, so the
      shrunk gap is at most the penalty's |trace excess|; squaring rounds
      monotonically, so its square is at most the penalty's trace term.
    - The penalty and the bound are float sums of at most ``terms``
      non-negative summands, the bound's over a subset of the penalty's
      (or smaller).  Any summation order is within gamma_terms of the
      exact sum, so bound <= (1 + gamma)/(1 - gamma) penalty, and scaling
      by 1 - (terms + 1) eps (exact in a double) absorbs that ratio and the
      rounding of the product.  Sums in the subnormal range are exact.
    """

    def __init__(self, ev: _PenaltyEvaluator, axes: np.ndarray):
        eps = float(np.finfo(float).eps)
        plan = ev.whole
        self.axes, self.trace, self.d = axes, float(plan.target[0, 0]), len(ev.free0)
        self.lo, self.hi = float(axes[0]), float(axes[-1])
        reach = max(abs(self.lo), abs(self.hi))
        self.slack = (self.d + 4) * eps * (abs(self.trace) + self.d * reach)
        self.shrink = 1.0 - (ev.terms + 1) * eps
        depth = {ev.x + c: k for k, c in enumerate(ev.free0)}
        self.unary = [np.zeros(len(axes)) for _ in ev.free0]
        self.linked = [False] * self.d
        for a, b, t, s in zip(plan.a.tolist(), plan.b.tolist(),
                              plan.target[:, 0].tolist(), plan.sense[:, 0].tolist()):
            if a < ev.x:
                continue  # reads sigma values
            if a in depth and b in depth:
                self.linked[depth[b]] = True
            elif a in depth:
                self.unary[depth[a]] += _clipped_square((axes - 0.0 - t) * s)
            elif b in depth:
                self.unary[depth[b]] += _clipped_square((0.0 - axes - t) * s)

    def extend(self, k: int, sep, psum, last, j):
        """Append axis value ``j`` as free coordinate ``k`` to prefixes (broadcast).

        ``sep`` is a prefix's separable part, ``psum`` its coordinate sum and
        ``last`` its coordinate k - 1.  Returns the extended ``sep``,
        ``psum`` and ``last``, and the bound on every completion's penalty.
        """
        x = self.axes[j]
        sep = sep + self.unary[k][j]
        if self.linked[k]:
            sep = sep + _clipped_square(last - x)
        psum = psum + x
        r = self.d - k - 1
        need = self.trace - psum
        gap = np.maximum(np.maximum(need - r * self.hi, r * self.lo - need), 0.0)
        gap = np.maximum(gap - self.slack, 0.0)
        return sep, psum, x, (sep + gap * gap) * self.shrink


# Candidate rows per slice of the pruned grid.  Slices only partition the
# work, so the kept set does not depend on this; it sizes each slice's
# excess, sigma and coordinate arrays to stay near cache.  ``_grid_top``
# over the five built-ins at 1M cells (H of case-scans seed 1, 2-core
# x86-64 box, median of 5), with its tracemalloc peak:
#   2^13  0.130 s  4.2 MB      2^16  0.143 s   8.2 MB
#   2^14  0.124 s  4.2 MB      2^17  0.174 s  14.3 MB
#   2^15  0.133 s  5.0 MB
# 2^13 to 2^15 are within noise of each other (other seeds order them
# differently); 2^15 is the largest of them.
_GRID_SLICE = 1 << 15
# Cells in the random sample that sets the first threshold; a grid of at
# most this many cells is evaluated whole.  ``_grid_top`` at keep = 64 over
# the 50 built-in grids of case-scans seeds 1-10 (1M cells) and the 50
# custom-scans systems of those seeds (512 to 16 807 cells): total time
# (process time, best of 5), penalty rows per grid and tracemalloc peak
# (2-core x86-64 box):
#   cells    built-ins                         custom systems
#   1 000    167 ms   3.5-21.2k rows  2.0 MB    31 ms  0.5-3.3k rows   0.8 MB
#   2 000    137 ms   2.4-10.2k rows  1.8 MB    40 ms  0.5-3.9k rows   0.9 MB
#   4 000    170 ms   4.4-9.1k rows   1.8 MB    64 ms  0.5-5.1k rows   1.0 MB
#   20 000   283 ms  20.4-25.4k rows  2.0 MB   131 ms  0.5-16.8k rows  1.7 MB
# A strided sample of 20 000 cells and a cap that never falls read 333 ms,
# 20.6-29.0k rows and 2.6 MB on the built-ins.
_SAMPLE_CELLS = 2_000
_SAMPLE_MARGIN = 1.25  # first threshold: this times the sample's keep/total quantile


def _grid_cells(axes: np.ndarray, d: int, flat: np.ndarray) -> np.ndarray:
    return axes[np.stack(np.unravel_index(flat, (len(axes),) * d), axis=1)]


def _cells_at_most(ev: _PenaltyEvaluator, axes: np.ndarray, cap: float,
                   keep: Optional[int] = None):
    """Penalty and flat index of the grid cells within a cap that starts at
    ``cap`` and, given ``keep``, drops as cells are found.

    Prefixes grow one free axis at a time, in the C order of the flat index,
    and a prefix survives while its ``_PrefixBound`` is <= the cap.  Each
    level expands in slices of at most ``_GRID_SLICE`` candidate rows; on
    the last axis a slice's surviving cells are evaluated at once.  After
    each such slice the cap drops to the ``keep``-th smallest penalty found
    so far, and found cells above it are dropped.  That penalty is a real
    cell's, so the cap never falls below the grid's ``keep``-th penalty,
    and the bound never exceeds the penalty, so no cell within the final
    cap is pruned on the way.  The result is exactly the cells whose
    penalty is <= its largest penalty; without ``keep``, every cell within
    ``cap``.
    """
    bound = _PrefixBound(ev, axes)
    size, d = len(axes), bound.d
    # a slice is ``width`` prefixes by ``step`` axis values, at most _GRID_SLICE rows
    step = min(size, _GRID_SLICE)
    width = _GRID_SLICE // step

    def slices(level):
        for s in range(0, max(len(level[0]), 1), width):
            part = tuple(a[s:s + width] for a in level)
            for start in range(0, size, step):
                yield part, start

    def grow(k: int, part, start: int, cap: float):
        flat, sep, psum, last = part
        cols = np.arange(start, min(start + step, size))
        sep, psum, x, low = bound.extend(k, sep[:, None], psum[:, None], last[:, None], cols)
        i, j = np.nonzero(low <= cap)
        flat = flat[i] * size + cols[j]
        return flat if k == d - 1 else (flat, sep[i, j], psum[i, j], x[j])

    level = (np.zeros(1, np.int64), np.zeros(1), np.zeros(1), np.zeros(1))
    for k in range(d - 1):
        parts = [grow(k, part, start, cap) for part, start in slices(level)]
        level = tuple(np.concatenate(column) for column in zip(*parts))
    pen, flat = np.zeros(0), np.zeros(0, np.int64)
    for part, start in slices(level):
        cells = grow(d - 1, part, start, cap)
        pen = np.concatenate((pen, ev.penalty(_grid_cells(axes, d, cells))))
        flat = np.concatenate((flat, cells))
        if keep is not None and len(pen) >= keep:
            cap = min(cap, float(np.partition(pen, keep - 1)[keep - 1]))
        within = pen <= cap
        pen, flat = pen[within], flat[within]
    return pen, flat


def _grid_top(ev: _PenaltyEvaluator, axes: np.ndarray, keep: int):
    """The ``keep`` best grid cells by (penalty, flat index): penalties, flat
    indices and coordinates, as if every cell were evaluated and sorted.

    A grid of at most ``_SAMPLE_CELLS`` cells is evaluated whole.  On a
    larger one, ``_SAMPLE_CELLS`` cells drawn by a generator of fixed seed
    (not the scan's) set the first threshold, ``_SAMPLE_MARGIN`` times the
    sample's keep/total quantile, and ``_cells_at_most`` searches within it,
    lowering it as cells are found.  Fewer than ``keep`` cells within it
    doubles the threshold and starts again.
    """
    d = len(ev.free0)
    total = len(axes) ** d
    keep = min(keep, total)
    if total <= _SAMPLE_CELLS:
        flat = np.arange(total, dtype=np.int64)
        cells = _grid_cells(axes, d, flat)
        pen = ev.penalty(cells)
        order = np.lexsort((flat, pen))[:keep]
        return pen[order], flat[order], cells[order]
    # A random sample, not a strided one: a stride near the axis length
    # walks one diagonal of the grid and can set a far too high threshold.
    flat = np.random.default_rng(0).integers(total, size=_SAMPLE_CELLS)
    sample = ev.penalty(_grid_cells(axes, d, flat))
    rank = min(_SAMPLE_CELLS - 1, keep * _SAMPLE_CELLS // total)
    cap = _SAMPLE_MARGIN * float(np.partition(sample, rank)[rank])
    while True:
        pen, flat = _cells_at_most(ev, axes, cap, keep)
        if len(pen) >= keep:
            break
        # a zero cap cannot double: restart from the least positive penalty seen
        cap = 2.0 * cap if cap > 0 else float(np.min(sample[sample > 0], initial=1.0))
    order = np.lexsort((flat, pen))[:keep]
    return pen[order], flat[order], _grid_cells(axes, d, flat[order])


def _check_integer(name: str, value, least: int) -> None:
    """Refuse a ``value`` that is not an integer >= ``least`` with ``DomainError``.

    A ``bool`` is refused too: ``True`` is no count of 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def check_seed(seed: int) -> None:
    """Refuse a seed numpy's generators cannot take: a negative or non-integer one."""
    _check_integer("the seed", seed, least=0)


_PROOF_SWEEPS = 8  # propagation sweeps before _proved_empty gives up


def _proved_empty(system: ConstraintSystem) -> bool:
    """True when interval propagation proves that an EXACT ``system`` has no point.

    One box, no bisection (Moore 1966; Benhamou, Goualard, Granvilliers &
    Puget 1999), in ``Fraction`` arithmetic.  It starts from |x_i| <= r with
    r^2 >= |A|^2 and applies the pinned zeros and the sign bounds, a strict
    bound through its closure and ``>=H`` as x >= trace/n.  Each sweep then
    applies the ordering forwards and backwards and the trace (each
    coordinate lies within the trace minus the range of the others' sum),
    and checks that the coordinates' square ranges sum to a range holding
    |A|^2; the sweeps stop at a fixed point or after ``_PROOF_SWEEPS``.
    Last, an interval e_r recursion checks that sigma_2's range holds its
    target and that each bounded sigma_r's range meets its half-line.  An
    empty range or a failed check proves the system empty; ``False`` proves
    nothing.
    """
    n, trace, norm_a2 = system.n, system.trace_target, system.norm_a2_target
    if norm_a2 < 0:
        return True
    r = Fraction(math.isqrt(norm_a2.numerator * norm_a2.denominator) + 1, norm_a2.denominator)
    lo, hi = [-r] * n, [r] * n
    for i in system.fixed_zeros:
        lo[i - 1] = hi[i - 1] = Fraction(0)
    for sc in system.sign_constraints:
        i = sc.index - 1
        if sc.relation in (Relation.LE_ZERO, Relation.LT_ZERO):
            hi[i] = min(hi[i], Fraction(0))
        else:
            lo[i] = max(lo[i], trace / n if sc.relation is Relation.GE_H else Fraction(0))
    for _ in range(_PROOF_SWEEPS):
        before = lo + hi
        if system.ordering:
            for i in range(1, n):
                lo[i] = max(lo[i], lo[i - 1])
            for i in range(n - 2, -1, -1):
                hi[i] = min(hi[i], hi[i + 1])
        low_sum, high_sum = sum(lo), sum(hi)
        for i, (a, b) in enumerate(zip(lo, hi)):
            lo[i], hi[i] = max(a, trace - (high_sum - b)), min(b, trace - (low_sum - a))
        if any(a > b for a, b in zip(lo, hi)):
            return True
        least = most = 0
        for a, b in zip(lo, hi):
            most += max(a * a, b * b)
            least += a * a if a > 0 else b * b if b < 0 else 0
        if not least <= norm_a2 <= most:
            return True
        if lo + hi == before:
            break
    top = max([2] + [ex.r for ex in system.extra_symmetric])
    e_lo = [Fraction(1)] + [Fraction(0)] * top
    e_hi = list(e_lo)
    for k, (a, b) in enumerate(zip(lo, hi)):
        if a == b == 0:
            continue  # a zero coordinate leaves every e_r as it is
        for s in range(min(k + 1, top), 0, -1):
            products = (a * e_lo[s - 1], a * e_hi[s - 1], b * e_lo[s - 1], b * e_hi[s - 1])
            e_lo[s] += min(products)
            e_hi[s] += max(products)
    if not e_lo[2] <= system.sigma2_target <= e_hi[2]:
        return True
    return any(e_hi[ex.r] < 0 if ex.relation is Relation.GE_ZERO else e_lo[ex.r] > 0
               for ex in system.extra_symmetric)


def scan(system: ConstraintSystem, budget: Optional[ScanBudget] = None,
         seed: int = 0, tol: float = 1e-8) -> FeasibilityVerdict:
    """Search for a point satisfying ``system``; the result is deterministic.

    After the refusals (``tol``, ``seed``, a penalty that could overflow,
    a grid that cannot be indexed), an EXACT system with a free coordinate
    first goes to ``_proved_empty``.  A proved system returns NO_WITNESS at
    once, as a system whose equalities force a negative sum of squares
    does: its best point is the zero point with that point's violations,
    ``stats["gridCells"]`` is 0 and ``stats["note"]`` reads "interval
    propagation proves the system empty".  For an EXACT system either proof
    gives NO_WITNESS even when the zero point lies within ``tol`` of every
    constraint.  A FLOAT system is never tried.  Otherwise the stages run
    in order: the grid keeps its ``budget.polish_starts`` best cells,
    Gauss-Newton polishes them, and ``_exact_snap`` tries a nearby rational
    point at the pick, the polished row first by (penalty, grid index).
    ``budget.polish_rounds`` is validated but not read.
    An EXACT system snaps its pick before each Gauss-Newton iteration and
    after the last, whenever the pick moved, and returns at the first snap
    that is exactly feasible: its exact residual is 0, so the rest of
    Gauss-Newton could not improve on it.  A FLOAT system snaps only its
    final pick.  When no snap verifies, the final pick is the best point.
    No stage reads ``seed``: it is validated and echoed as
    ``stats["seed"]``, and the grid's threshold sample comes from a
    generator of fixed seed.  Ties are broken by penalty first, then by
    lexicographic grid cell index, so identical inputs reproduce the
    identical verdict.  The grid keeps the same cells as evaluating all of
    them would, but evaluates only the cells a separable lower bound cannot
    rule out against a threshold that falls as good cells are found
    (``_grid_top``); ``stats["gridCells"]`` is the grid's size, not the
    number of cells evaluated, and ``stats["coarseStarts"]`` the number of
    grid cells handed to the polish.
    A WITNESS is re-validated with the independent evaluator; NO_WITNESS
    reports the best point found and its violations.
    """
    budget = budget or ScanBudget()
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    check_seed(seed)
    ev = _PenaltyEvaluator(system)
    norm_a2 = promote(system.norm_a2_target)
    d = len(ev.free0)
    exact = system.regime is Regime.EXACT
    stats: Dict[str, object] = {"seed": seed, "freeCoordinates": d}

    def finish(x_free: np.ndarray, proved: bool = False) -> FeasibilityVerdict:
        point = tuple(float(v) for v in ev.full(np.atleast_2d(x_free))[0])
        viols = constraint_violations(system, point)
        residual = max(viols.values())
        witness = None if proved or residual > tol else point
        stats["bestPenalty"] = float(ev.penalty(np.atleast_2d(x_free))[0])
        return FeasibilityVerdict(
            status="WITNESS" if witness is not None else "NO_WITNESS",
            witness=witness, residual=residual, best_point=point,
            violations=viols, stats=stats,
        )

    box = math.sqrt(max(norm_a2, 0.0))
    lo, hi = -box - 0.05 * box - 1e-3, box + 0.05 * box + 1e-3
    # The penalty squares every term, and the Gauss-Newton solve squares the
    # Jacobian's slopes (1, +-1 or sigma_{r-1} of the other coordinates,
    # which excess_bound covers too) and sums them over the terms; refuse a
    # box where that can overflow rather than rank points by inf.
    bound = 2.0 * ev.excess_bound(max(hi, 1.0))
    if not math.isfinite(ev.terms * bound * bound):
        raise DomainError(
            f"the scan's penalty can overflow a double over the search box [{lo:.3g}, {hi:.3g}]; "
            "rescale the system")
    if norm_a2 < 0:
        # sum x_i^2 = trace^2 - 2 sigma_2 < 0 is unsatisfiable outright.
        stats.update({"gridCells": 0, "note": "equalities force a negative sum of squares"})
        return finish(np.zeros((1, d)), proved=exact)
    if d == 0:
        stats["gridCells"] = 1
        return finish(np.zeros((1, 0)))

    axis_points = max(2, int(budget.grid_points ** (1.0 / d)))
    while axis_points ** d > budget.grid_points and axis_points > 2:
        axis_points -= 1
    while (axis_points + 1) ** d <= budget.grid_points:
        axis_points += 1
    total = axis_points ** d
    largest = int(np.iinfo(np.int64).max)  # the grid's flat cell indices are int64
    if total > largest:
        # past two points per axis the grid fits its budget, so the budget is too large
        cause = ("scan fewer than 63 free coordinates" if axis_points == 2
                 else f"lower grid_points ({budget.grid_points}) to at most {largest}")
        raise DomainError(f"the scan's grid of {axis_points}^{d} cells cannot be indexed; {cause}")
    if exact and _proved_empty(system):
        stats.update({"gridCells": 0, "note": "interval propagation proves the system empty"})
        return finish(np.zeros((1, d)), proved=True)
    axes = np.linspace(-box, box, axis_points) if box > 0 else np.zeros(axis_points)
    stats.update({"gridCells": total, "axisPoints": axis_points,
                  "coarseStarts": min(budget.polish_starts, total)})

    pen, flat_polish, x_polish = _grid_top(ev, axes, budget.polish_starts)
    states = _gauss_newton_states(ev, x_polish, pen, ranks=flat_polish)  # updates both
    if not exact:
        # FLOAT snaps practically never verify: snap only the final pick.
        *_, last = states
        states = (last,)
    point, stats["snappedExact"] = _first_exact_pick(ev, states, flat_polish)
    return finish(point)


# ---------------------------------------------------------------------------
# Built-in named cases, expected outcomes, and closed-form certificates.
# ---------------------------------------------------------------------------

_WITNESS_MATCH = 1e-6  # a scan witness agrees with the recorded one this closely


@dataclass(frozen=True)
class _Case:
    """A built-in case: its shape, recorded witness and optional certificate.

    ``witness`` is in units of H, ``None`` for NO_WITNESS.  A certificate is
    its value ``value(x, trace, s2, regime)`` at a point ``x`` already in
    ``regime``; an ``audit(x, E, s2, h)`` giving one
    sample's identity and margin terms (0.0 and inf where a term does not
    apply); the ``drawn`` coordinates of its samples, first at ``anchor``
    (units of H); and the ``detail`` of a pass.  Value and audit are one
    formula each: ``x`` is a tuple of scalars, or a FLOAT block of samples
    as an array with one row per coordinate, on which the same operations
    run elementwise in the same order.
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


def _pinned_identity(x, trace, s2, regime):
    # E = (x_4 - 2H)^2 + (sigma_2(x) - 4H^2) - x_1 x_3, with sigma_2 read off
    # the point.  E vanishes identically on the set {x_2 = 0, sum x_i = 4H}
    # (where sigma_2(x) - 4H^2 = 6(R - (2/3)H^2)); every term is zero at the
    # witness, and E = 2H^2 at the umbilic point.
    h = trace / 4
    gap = x[3] - 2 * h
    s2x = _certificate_sigma(x, regime, 2)
    return gap * gap + (s2x - 4 * h * h) - x[0] * x[2]


def _sigma3_squeeze(x, trace, s2, regime):
    # E = max(10RH - sigma_3, sigma_3), the gap of the two-sided squeeze: the
    # premise forces sigma_3 >= 10RH and sigma_3 <= 0 simultaneously, so
    # E >= 5RH > 0 certifies infeasibility.
    s3 = _certificate_sigma(x, regime, 3)
    return _python_max(s2 * (trace / 5) - s3, s3)


def _certificate_sigma(x, regime, r):
    # sigma_r of one point in ``regime``, or of a FLOAT block (one row per
    # coordinate) from the same sigma body, checked finite with the
    # ``DomainError`` one point's value raises, at the block's first
    # non-finite sample.
    if not isinstance(x, np.ndarray):
        return spectrum._sigma_values(x, regime, (r,))[0]
    s = spectrum._sigma_coefficients(x, r)[r]
    bad = s[~np.isfinite(s)]
    if len(bad):
        coerce(float(bad[0]), Regime.FLOAT)
    return s


def _python_max(a, b):
    # ``max(a, b)``: b only when b > a, so a tie or a NaN b keeps a;
    # elementwise on a block.
    return np.where(b > a, b, a) if isinstance(a, np.ndarray) else max(a, b)


_CASES: Dict[str, _Case] = {
    # E = (4H) x_2 - 6R.  On the equality set E equals x_2^2 - x_1 x_4, so the
    # sign premise x_1 <= 0 <= x_4 forces E >= 0 and hence x_2 >= 6R/(4H) > 0,
    # contradicting x_2 <= 0: no witness exists.
    "thm1-claim": _Case(
        n=4, ratio=Fraction(2, 3), fixed=3, signs=((4, Relation.GE_H),),
        value=lambda x, trace, s2, regime: trace * x[1] - s2,
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
    # A certificate is derived for its case's n; a system that only borrows
    # the name has none.
    case = _CASES.get(system.name or "")
    return case is not None and case.value is not None and system.n == case.n


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
        x, coerce(system.trace_target, regime), coerce(system.sigma2_target, regime), regime)


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


def certificate_samples(system: ConstraintSystem, seed: int = 0,
                        count: int = 1000) -> List[Tuple[float, ...]]:
    """Seeded points satisfying the trace/sigma_2 equalities and pinned zeros.

    Sampling draws the case's ``drawn`` coordinates, solves the equalities
    for the two other free coordinates, and discards draws with no real
    completion, so every returned point satisfies the equality constraints
    to rounding; sign and ordering constraints are deliberately not imposed.
    The first candidate is the case's anchor, and at most ``80 * count``
    candidates are tried.  Draws come in blocks of at most ``count`` rows,
    one ``rng.uniform`` call each, and each block is completed at once with
    the float operations of a per-draw loop, in its order, so the points
    do not depend on the block size.  Where the completion overflows a
    double (a block's discriminant is not finite), the system is refused
    with ``DomainError`` rather than sampled.
    """
    return list(map(tuple, _sample_block(system, seed, count).tolist()))


def _sample_block(system: ConstraintSystem, seed: int, count: int) -> np.ndarray:
    # ``certificate_samples`` as one (samples, n) array.
    case = _certified(system)
    _check_integer("count", count, least=1)
    check_seed(seed)
    completed = [i - 1 for i in range(1, case.n + 1)
                 if i != case.fixed and i not in case.drawn]
    drawn = [i - 1 for i in case.drawn]
    rng = np.random.default_rng(seed)
    trace = promote(system.trace_target)
    s2 = promote(system.sigma2_target)
    h = trace / system.n
    box = math.sqrt(max(promote(system.norm_a2_target), 0.0))
    blocks: List[np.ndarray] = []
    found = 0
    params = np.array([[a * h for a in case.anchor]])
    tried, cap = 1, 80 * count
    while True:
        # rest = trace - sum(params); the pair sums to rest and has product
        # s2 - sigma_2(params) - sum(params) * rest, each sum from 0 in order.
        rest = np.full(len(params), trace)
        total, pairs = np.zeros(len(params)), np.zeros(len(params))
        for col in params.T:
            rest -= col
            total += col
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in combinations(params.T, 2):
                pairs += a * b
            disc = rest * rest - 4.0 * (s2 - pairs - total * rest)
        # rest is finite, so a finite discriminant gives finite completions.
        if not np.isfinite(disc).all():
            raise DomainError("the certificate samples overflow a double: the equalities' "
                              "completion is not finite at this scale; rescale the system")
        real = ~(disc < 0)
        rest, root = rest[real], np.sqrt(disc[real])
        block = np.zeros((len(rest), case.n))
        block[:, drawn] = params[real]
        block[:, completed[0]] = (rest - root) / 2.0
        block[:, completed[1]] = (rest + root) / 2.0
        blocks.append(block)
        found += len(block)
        if found >= count or tried == cap:
            return np.concatenate(blocks)[:count]
        rows = min(count, cap - tried)
        params = rng.uniform(-box, box, size=(rows, len(drawn)))
        tried += rows


def _running_max(values, count: int) -> float:
    # ``r = max(r, v)`` over ``count`` values in order from r = 0.0 (a scalar
    # stands for ``count`` copies): only a larger value replaces r, never a
    # NaN, so r ends at 0.0 or at the largest value above it.
    v = np.broadcast_to(values, (count,))
    v = v[v > 0.0]
    return float(v.max()) if len(v) else 0.0


def _running_min(values, count: int) -> float:
    # ``r = min(r, v)`` over ``count`` values in order from r = inf (a scalar
    # stands for ``count`` copies): only a smaller value replaces r, never a
    # NaN, so r ends at the first occurrence of the least value, and of
    # -0.0 and 0.0 the first one seen stays.
    v = np.broadcast_to(values, (count,))
    v = v[v < math.inf]
    return float(v[np.flatnonzero(v == v.min())[0]]) if len(v) else math.inf


def _feasible_rows(system: ConstraintSystem, samples: np.ndarray, tol: float) -> List[bool]:
    """Whether each FLOAT row of ``samples`` has every violation <= ``tol``.

    Each row is one call of the pure-Python body (``_violation_terms``),
    stopped at its first term over ``tol``.  The terms of a finite row are
    never NaN, so that is ``max(constraint_violations(...).values()) <=
    tol``, and the cheap terms cannot raise, so the sigma pass that the
    body runs last is the only place an error can come from.  With M the
    largest |x_i| of the block, that pass cannot overflow when B = max
    over 1 <= r <= top of C(n, r) (2M)^r is finite.  Each step is c_r +=
    x_i c_{r-1}, so by induction every partial coefficient, and every
    product it adds, is at most (1 + u)^(2n) sigma_r(|x|) <= (1 + u)^(2n)
    C(n, r) M^r in magnitude (u = eps/2; |x_i| sigma_{r-1}(|x| before i)
    <= sigma_r(|x|) bounds the product), which is (1 + u)^(2n) / 2^r times
    a term of B.  The doubled reach absorbs that factor and the rounding
    of B itself for any n below 10^15, so nothing in the pass reaches inf
    or NaN, and running it last, or not at all, is unobservable.  Where B
    is not finite (a non-finite row makes it so) every row runs the pass
    before its first term, so that an overflow raises at the row where
    evaluating every term raises.
    """
    reach = 2.0 * float(np.abs(samples).max(initial=0.0))
    top = max(system._float_plan.orders)
    sigma_first = not (math.isfinite(reach)
                       and math.isfinite(_sigma_bound(system.n, top, reach)))
    return [all(v <= tol for _, v in _violation_terms(system, x, Regime.FLOAT, sigma_first))
            for x in samples.tolist()]


def certificate_check(system: ConstraintSystem, seed: int = 0, count: int = 1000,
                      tol: float = 1e-8) -> CertificateReport:
    """Verify the registered certificate against scan semantics.

    For an infeasibility certificate every equality-feasible sample must
    violate the full system and the certificate's algebra must hold on it;
    for a witness-pinning certificate (a case with a recorded witness) the
    identity must vanish on every sample and the anchored witness must be
    fully feasible.  ``tol`` must be finite and positive, as in ``scan``.

    Each sample's feasibility comes from the pure-Python body of
    ``constraint_violations``, one call a sample: that loop is the check's
    independent side.  Each call stops at its first term over ``tol``, and
    the body yields the trace, pinned-zero, ordering and sign terms before
    its sigma pass, so a sample that fails one of those never runs the
    pass; a guard keeps any overflow error where evaluating every term
    raises it (``_feasible_rows``).  The certificate's value and audit then
    run once on the whole block of samples, with the float operations of
    one sample's call, in its order, and are folded as a per-sample loop
    folds them (``max`` from 0.0, ``min`` from inf, NaN skipped, the first
    of a tie kept), so the report is bit-identical to evaluating every
    term and the certificate per sample.
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    samples = _sample_block(system, seed, count)
    case = _certified(system)
    trace = promote(system.trace_target)
    s2 = promote(system.sigma2_target)
    h = trace / system.n
    m = len(samples)
    within = _feasible_rows(system, samples, tol)
    block = samples.T
    # Python floats overflow to inf and nan without a warning; so does the block.
    with np.errstate(over="ignore", invalid="ignore"):
        value = case.value(block, trace, s2, Regime.FLOAT)
        identity, gap = case.audit(block, value, s2, h)
    identity_residual = _running_max(identity, m)
    margin = _running_min(gap, m)
    witness_ok = bool(np.any(np.array(within, dtype=bool) & (abs(value) <= 1e-6)))
    feasible = sum(within)
    scale = max(1.0, trace * trace, abs(s2))
    passed = identity_residual <= 1e-7 * scale
    if case.witness is not None:
        kind = "witness-pinning"
        passed = passed and feasible >= 1 and witness_ok
        failure = "identity or anchored witness failed"
        margin = identity_residual
    else:
        kind = "infeasibility"
        passed = passed and m > 0 and feasible == 0 and margin > -1e-9 * scale
        failure = ("a sample defeated the certificate" if m
                   else "no sample was drawn: the equalities have no real completion")
    return CertificateReport(
        case=system.name, kind=kind, samples=m,
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
    if not plus and not minus:
        verdict, condition, max_gap = "PLANAR", "planar", None
        detail = "planar sample: every value is zero within tolerance"
    elif plus and minus:
        condition, max_gap = "two-sided", None
        ok_plus = plus[0] <= approach_tol
        ok_minus = minus[-1] >= -approach_tol
        if ok_plus and ok_minus:
            verdict, detail = "CONSISTENT", "both signed sets approach zero within tolerance"
        else:
            side = [] if ok_plus else [f"inf of positive values is {plus[0]!r}"]
            if not ok_minus:
                side.append(f"sup of negative values is {minus[-1]!r}")
            verdict, detail = "VIOLATED", "; ".join(side) + ", not 0"
    else:
        verdict, condition = "CONSISTENT", "one-sided"
        side_vals = sorted(set(plus or minus) | ({0.0} if zero_count else set()))
        max_gap = max((b - a for a, b in zip(side_vals, side_vals[1:])), default=0.0)
        detail = ("one-sided sample; a finite sample cannot refute a connected "
                  f"closure (largest adjacent gap {max_gap!r})")
    return PctReport(
        verdict=verdict, condition=condition,
        plus=SetSummary(len(plus), plus[0] if plus else None, plus[-1] if plus else None),
        minus=SetSummary(len(minus), minus[0] if minus else None, minus[-1] if minus else None),
        zero_count=zero_count, zero_tolerance=zero_tol, approach_tolerance=approach_tol,
        max_gap=max_gap, detail=detail,
    )
