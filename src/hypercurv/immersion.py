"""From embedded patches to principal-curvature spectra.

A codimension-one patch is a map f: U in R^n -> R^{n+1}.  At a parameter
point u the first fundamental form is g = J^T J with J the Jacobian, the
unit normal spans the null space of J^T, and the second fundamental form is
b_ij = <d^2 f / du_i du_j, normal>.  One SVD J = U S V^T gives the condition
number, the normal (the last column of U) and the orthonormal tangent frame
J V S^-1, in which the shape operator g^-1 b is the symmetric S^-1 V^T b V S^-1;
its eigenvalues, from one symmetric eigensolve, are the principal curvatures.

Derivatives come from one of two sources: ``ANALYTIC`` patches carry exact
derivatives (the built-in shapes are sums of coefficient times sin, cos, u
and u^2 factors, differentiated in closed form when the shape is built),
while ``finite_difference_lift`` builds a patch from any embedding with
central differences of step h (default eps^(1/3) (1 + |u|)).  An embedding
maps an (m, n) stack of parameter points to the (m, n+1) stack of their
images, and the lift calls it once, on the whole stencil.

Orientation: the normal's sign is first fixed canonically (largest-magnitude
component positive) and then flipped, if needed, so the mean curvature is
non-negative; H = 0 keeps the canonical sign.  Rank-deficient Jacobians
(condition number over ``cond_limit``) raise ``SingularPatchError``.

A shape may also live in a child process: :class:`SubprocessShape` speaks a
line-oriented JSON protocol (one line per stencil row each way), so
non-Python embeddings can feed the finite-difference path.
"""

from __future__ import annotations

import json
import math
import queue
import subprocess
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, EigenSolverError, HypercurvError, SingularPatchError
from .scalars import Regime
from .spectrum import CurvatureSpectrum


class PatchSource(str, Enum):
    ANALYTIC = "analytic"
    FINITE_DIFF = "finite-diff"


@dataclass(frozen=True, eq=False)
class PatchSample:
    """Embedding value and first two derivative tensors at one parameter point.

    ``jacobian`` has shape (n+1, n); ``second`` has shape (n, n, n+1) with
    ``second[i, j]`` the vector d^2 f / du_i du_j.
    """

    point: np.ndarray
    value: np.ndarray
    jacobian: np.ndarray
    second: np.ndarray
    source: PatchSource

    def __post_init__(self):
        for name in ("point", "value", "jacobian", "second"):
            array = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(array).all():
                raise DomainError("patch data must be finite")
            object.__setattr__(self, name, array)
        n = self.point.size
        if self.value.shape != (n + 1,):
            raise DomainError(
                f"embedding must map R^{n} into R^{n + 1}, got value shape {self.value.shape}")
        if self.jacobian.shape != (n + 1, n):
            raise DomainError(f"jacobian must be {(n + 1, n)}, got {self.jacobian.shape}")
        if self.second.shape != (n, n, n + 1):
            raise DomainError(
                f"second derivatives must be {(n, n, n + 1)}, got {self.second.shape}")

    @property
    def n(self) -> int:
        return self.point.size


@dataclass(frozen=True, eq=False)
class FundamentalForms:
    """First and second fundamental forms, oriented unit normal and shape operator.

    ``shape_operator`` is g^-1 b in the orthonormal tangent frame of the
    Jacobian's SVD: symmetric, of trace n H, its eigenvalues the curvatures.
    """

    first: np.ndarray
    second: np.ndarray
    normal: np.ndarray
    condition_number: float
    shape_operator: np.ndarray


def fundamental_forms(patch: PatchSample, cond_limit: float = 1e8) -> FundamentalForms:
    """Fundamental forms, oriented normal and shape operator from one SVD of J."""
    left, singular_values, right = np.linalg.svd(patch.jacobian)
    smallest = singular_values[-1]
    cond = float(singular_values[0] / smallest) if smallest > 0 else np.inf
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularPatchError(
            f"patch Jacobian condition number {cond:.3e} exceeds {cond_limit:.1e}; "
            "the parametrization is (numerically) not an immersion here")
    normal = left[:, -1]
    if normal[np.argmax(np.abs(normal))] < 0:
        normal = -normal
    second = patch.second @ normal
    second = 0.5 * (second + second.T)
    frame = right.T / singular_values  # V S^-1, and J V S^-1 is orthonormal
    shape_operator = frame.T @ second @ frame
    if np.trace(shape_operator) < 0:  # n H < 0
        normal, second, shape_operator = -normal, -second, -shape_operator
    return FundamentalForms(first=patch.jacobian.T @ patch.jacobian, second=second,
                            normal=normal, condition_number=cond,
                            shape_operator=shape_operator)


def principal_curvatures(patch: PatchSample, cond_limit: float = 1e8) -> CurvatureSpectrum:
    """The eigenvalues of the shape operator of ``fundamental_forms``, as a FLOAT spectrum."""
    forms = fundamental_forms(patch, cond_limit=cond_limit)
    try:
        eigenvalues = np.linalg.eigvalsh(forms.shape_operator)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"symmetric eigensolve failed (condition number "
                               f"{forms.condition_number:.3e}): {exc}") from exc
    return CurvatureSpectrum(eigenvalues.tolist(), c=0.0, regime=Regime.FLOAT)


def finite_difference_lift(embedding: Callable[[np.ndarray], np.ndarray],
                           point: Sequence[float],
                           h: Optional[float] = None) -> PatchSample:
    """Build a patch from an embedding by central differences.

    ``embedding`` maps an (m, n) stack of parameter points to the (m, n+1)
    stack of their images; it is called once, on the whole stencil: u, then
    u + h e_i and u - h e_i for each i, then u +- h e_i +- h e_j for each
    pair i < j, 1 + 2 n^2 rows in all.  The default step is
    eps^(1/3) (1 + |u|), balancing truncation against rounding for first
    derivatives; second derivatives inherit the same h.  A point of more
    than 64 coordinates raises ``DomainError`` before the stencil is built.
    """
    u = np.asarray(point, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise DomainError("the parameter point must be a non-empty vector")
    if u.size > _MAX_SHAPE_DIM:
        raise DomainError(f"the finite-difference stencil needs at most {_MAX_SHAPE_DIM} "
                          f"coordinates, got {u.size}")
    if not np.isfinite(u).all():
        raise DomainError(f"the parameter point must be finite, got {u.tolist()}")
    if h is None:
        h = float(np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.linalg.norm(u)))
    h = float(h)
    if not 0 < h < math.inf:
        raise DomainError(f"finite-difference step must be finite and positive, got {h}")
    if not math.isfinite(float(np.abs(u).max()) + h):
        raise DomainError(f"the finite-difference stencil of step {h} around {u.tolist()} "
                          "leaves the float range")
    n = u.size
    # Each shift is a sum of signed basis rows, so its zeros are signed and
    # u + shift keeps or clears -0.0 coordinates as the per-point reference
    # loop of the tests does.
    basis = np.eye(n) * h
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # pairs i < j, row-major
    pairs = np.concatenate([basis[i] + basis[j], basis[i] - basis[j],
                            -basis[i] + basis[j], -basis[i] - basis[j]], axis=1)
    stencil = u + np.concatenate([np.zeros((1, n)), basis, -basis, pairs.reshape(-1, n)])
    out = np.asarray(embedding(stencil), dtype=float)
    if out.shape != (len(stencil), n + 1):
        raise DomainError(f"embedding must return shape {(len(stencil), n + 1)} for the "
                          f"{len(stencil)}-point stencil, got {out.shape}")
    value, plus, minus = out[0], out[1:n + 1], out[n + 1:2 * n + 1]
    quads = out[2 * n + 1:].reshape(-1, 4, n + 1)
    second = np.empty((n, n, n + 1))
    diag = np.arange(n)
    second[diag, diag] = (plus - 2.0 * value + minus) / (h * h)
    second[i, j] = second[j, i] = (quads[:, 0] - quads[:, 1] - quads[:, 2]
                                   + quads[:, 3]) / (4.0 * h * h)
    # C order, as the analytic Jacobian: the forms' products see one layout.
    jacobian = np.ascontiguousarray(((plus - minus) / (2.0 * h)).T)
    return PatchSample(point=u, value=value, jacobian=jacobian, second=second,
                       source=PatchSource.FINITE_DIFF)


class SymbolicShape:
    """A built-in embedding with closed-form exact derivatives.

    Callable on a parameter vector or an (m, n) stack of them (for the
    finite-difference path) and able to produce an ANALYTIC
    :class:`PatchSample`.  Row r is a sum of terms (coefficient, factors),
    factor f being sin, cos, u or u**2 of u_(f % n) for f // n = 0..3.  A term
    is its coefficient times its factors in ascending order, left to right; a
    sum adds its terms in order, so row k of a stack is bit-identical to the
    shape at that row alone.
    """

    def __init__(self, name: str, n: int, rows):
        self.name, self.n = name, n
        value = [((r,), coef, factors) for r, row in enumerate(rows) for coef, factors in row]
        jacobian = _derivatives(value, n)
        second = [((i, j, r), coef, f) for (r, i, j), coef, f in _derivatives(jacobian, n)]
        # One table of value, Jacobian and second derivatives, in that order;
        # its first len(value) terms fill the first n + 1 places, the value.
        self._table = _compile([(value, (n + 1,)), (jacobian, (n + 1, n)),
                                (second, (n, n, n + 1))], ones=4 * n)
        start, positions, coefs, places = self._table
        t = len(value)
        self._value = start[:n + 1], positions[:t], coefs[:t], places[:t]
        used = np.bincount(places.ravel(), minlength=4 * n + 1) > 0
        self._trig, self._squares = used[:2 * n].any(), used[3 * n:4 * n].any()

    def _factors(self, point: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        # The (4n + 1, m) matrix of sin, cos, u and u**2 of the coordinates of
        # an (m, n) stack (a vector is one row), then a row of ones; kinds no
        # term uses stay zero.  Squares are Python's float ** 2, not u * u.
        u = np.asarray(point, dtype=float)
        if u.ndim not in (1, 2) or u.shape[-1] != self.n:
            raise DomainError(f"shape {self.name!r} expects {self.n} parameters, got {u.shape}")
        if not np.isfinite(u).all():
            raise DomainError(f"shape {self.name!r} needs finite parameters, got {u.tolist()}")
        n, stack = self.n, u.reshape(-1, self.n)
        factors = np.zeros((4 * n + 1, len(stack)))
        if self._trig:
            factors[:n], factors[n:2 * n] = np.sin(stack).T, np.cos(stack).T
        factors[2 * n:3 * n] = stack.T
        if self._squares:
            factors[3 * n:4 * n] = [[v ** 2 for v in row] for row in stack.T.tolist()]
        factors[4 * n] = 1.0
        return u, factors

    def __call__(self, point: Sequence[float]) -> np.ndarray:
        u, factors = self._factors(point)
        out = _evaluate(factors, *self._value).T
        return out[0] if u.ndim == 1 else out

    def patch(self, point: Sequence[float]) -> PatchSample:
        u, factors = self._factors(point)
        if u.ndim != 1:
            raise DomainError(f"shape {self.name!r} expects {self.n} parameters, got {u.shape}")
        n, flat = self.n, _evaluate(factors, *self._table)[:, 0]
        return PatchSample(point=u, value=flat[:n + 1],
                           jacobian=flat[n + 1:(n + 1) ** 2].reshape(n + 1, n),
                           second=flat[(n + 1) ** 2:].reshape(n, n, n + 1),
                           source=PatchSource.ANALYTIC)


def _derivatives(terms, n: int):
    # d/du_i of each term, keyed key + (i,); u_i is in at most one factor of a term.
    out = []
    for key, coef, factors in terms:
        for f in factors:  # d sin = cos, d cos = -sin, d u = 1, d u**2 = 2 u
            scale, kind = ((1, 1), (-1, 0), (1, None), (2, 2))[f // n]
            rest = [g for g in factors if g != f] + ([] if kind is None else [kind * n + f % n])
            out.append((key + (f % n,), scale * coef, sorted(rest)))
    return out


def _compile(tables, ones: int):
    # Flat positions (each table after those before it), float coefficients and
    # the (terms, width) factor places, short terms padded with ``ones``, the
    # row of ones (x * 1.0 is x).  A sum with terms starts at -0.0 (-0.0 + v is v).
    positions, offset = [], 0
    for terms, shape in tables:
        positions += [offset + int(np.ravel_multi_index(key, shape)) for key, _, _ in terms]
        offset += math.prod(shape)
    terms = [term for terms, _ in tables for term in terms]
    width = max(len(factors) for _, _, factors in terms)
    start = np.zeros(offset)
    start[positions] = -0.0
    places = np.full((len(terms), width), ones)
    for place, (_, _, factors) in zip(places, terms):
        place[:len(factors)] = factors
    return start, np.array(positions), np.array([float(coef) for _, coef, _ in terms]), places


def _evaluate(factors: np.ndarray, start, positions, coefs, places) -> np.ndarray:
    # Each term is its coefficient times its factors, left to right, one
    # factor column per step; np.add.at adds the terms in order.  Column k of
    # the result is the table at point k of the stack.
    terms = coefs[:, None] * factors[places[:, 0]]
    for column in places.T[1:]:
        terms *= factors[column]
    out = np.repeat(start[:, None], factors.shape[1], axis=1)
    np.add.at(out, positions, terms)
    return out


def _parameter(value, what: str):
    # A float is used as given; anything else must be an exact rational.
    if isinstance(value, float):
        if math.isfinite(value):
            return float(value)
    else:
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise DomainError(f"{what} must be a finite number, got {value!r}")


# Largest shape dimension.  A sphere build keeps every second-derivative
# term, about n^3/6 terms of up to n factors, so it grows as n^4: 0.17 s and
# 42 MB at n = 32, 0.35 s and 58 MB at n = 40, 1.08 s and 176 MB at n = 64
# (one build each, 2-core x86-64, CPython 3.11), and n = 300 does not finish.
# The finite-difference stencil of an external shape, 1 + 2 n^2 rows of n
# parameters, is bounded by the same limit, since its memory grows as n^3.
_MAX_SHAPE_DIM = 64


def make_shape(name: str, n: int, radius=1, k: Optional[int] = None,
               coefficients: Optional[Sequence] = None) -> SymbolicShape:
    """Instantiate a registry shape.

    * ``sphere``: round S^n of the given radius (spherical coordinates).
    * ``cylinder``: R^{n-k} x S^k of the given radius; flat coordinates
      first, then the k sphere angles.
    * ``graph``: the graph of the quadratic (1/2) sum c_i u_i^2 over R^n,
      with unit coefficients by default.

    n must lie in [2, 64]; anything else raises ``DomainError`` before any
    of the shape is built.
    """
    if not 2 <= n <= _MAX_SHAPE_DIM:
        raise DomainError(f"shapes need n in [2, {_MAX_SHAPE_DIM}], got n={n}")
    radius = _parameter(radius, "radius")
    if radius <= 0 and name in ("sphere", "cylinder"):
        raise DomainError(f"radius must be positive, got {radius}")
    identity = [[(1, [2 * n + i])] for i in range(n)]
    if name == "graph":
        coefficients = (1,) * n if coefficients is None else coefficients
        if len(coefficients) != n:
            raise DomainError(f"graph needs {n} coefficients, got {len(coefficients)}")
        halves = [_parameter(c, "graph coefficient") / 2 for c in coefficients]
        return SymbolicShape("graph", n, identity + [
            [(h, [3 * n + i]) for i, h in enumerate(halves) if h]])
    if name not in ("sphere", "cylinder"):
        raise DomainError(f"unknown shape {name!r}; known: {', '.join(SHAPE_NAMES)}")
    if name == "cylinder" and (k is None or not 1 <= k <= n - 1):
        raise DomainError(f"cylinder needs a sphere dimension k in [1, {n - 1}], got {k}")
    m = n - k if name == "cylinder" else 0  # flat coordinates before the angles
    return SymbolicShape(name, n, identity[:m] + [
        [(radius, list(range(m, m + j)) + ([n + m + j] if j < n - m else []))]
        for j in range(n - m + 1)])  # r sin t1 ... sin t(j-1) cos tj, the last without cos


SHAPE_NAMES = ("cylinder", "graph", "sphere")


def default_point(shape_name: str, n: int, k: Optional[int] = None) -> Tuple[float, ...]:
    """A generic interior parameter point away from coordinate degeneracies."""
    if shape_name == "sphere":
        return tuple(0.9 + 0.07 * i for i in range(n))
    if shape_name == "cylinder":
        if k is None:
            raise DomainError("cylinder needs k to choose a default point")
        flat = tuple(0.3 * (i + 1) for i in range(n - k))
        angles = tuple(0.9 + 0.07 * i for i in range(k))
        return flat + angles
    if shape_name == "graph":
        return (0.0,) * n
    raise DomainError(f"unknown shape {shape_name!r}; known: {', '.join(SHAPE_NAMES)}")


READ_TIMEOUT_S = 30.0  # longest wait for one answer line from a shape process


class SubprocessShape:
    """An embedding evaluated by a child process over line-oriented JSON.

    Protocol: each request is one line, a JSON array of n parameters, on the
    child's stdin; the response is one line, a JSON array of n+1 embedding
    coordinates, on its stdout.  The child must answer one line per line and
    flush, within ``READ_TIMEOUT_S`` seconds, or it is killed.  A point or an
    (m, n) stack is sent one row per request; the answers come back in the
    same layout, n+1 coordinates a row.  Only the finite-difference path can
    drive such a shape.  n must lie in [2, 64]; anything else raises
    ``DomainError`` before the child is started.
    """

    def __init__(self, argv: Sequence[str], n: int):
        if not 2 <= n <= _MAX_SHAPE_DIM:
            raise DomainError(f"shapes need n in [2, {_MAX_SHAPE_DIM}], got n={n}")
        self.n = n
        self.argv = list(argv)
        try:
            self._child = subprocess.Popen(
                self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, bufsize=1)
        except OSError as exc:
            raise HypercurvError(f"could not start shape process {argv!r}: {exc}") from exc
        # A reader thread hands lines over a queue, so a silent child can be
        # timed out; "" marks the end of the child's output.
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self):
        for line in self._child.stdout:
            self._lines.put(line)
        self._lines.put("")

    def __call__(self, point: Sequence[float]) -> np.ndarray:
        u = np.asarray(point, dtype=float)
        if u.shape[-1:] != (self.n,) or u.ndim > 2:
            raise DomainError(f"shape expects {self.n} parameters, got {u.shape}")
        if not np.isfinite(u).all():
            raise DomainError(f"shape needs finite parameters, got {u.tolist()}")
        rows = np.array([self._exchange(row) for row in u.reshape(-1, self.n).tolist()])
        return rows.reshape(u.shape[:-1] + (self.n + 1,))

    def _exchange(self, u: list) -> np.ndarray:
        if self._child.poll() is not None:
            raise HypercurvError("shape process has exited")
        assert self._child.stdin and self._child.stdout
        try:
            self._child.stdin.write(json.dumps(u) + "\n")
            self._child.stdin.flush()
        except OSError as exc:  # a closed pipe must not pass for a closed stdout
            raise HypercurvError(f"shape process stopped reading: {exc}") from exc
        try:
            line = self._lines.get(timeout=READ_TIMEOUT_S)
        except queue.Empty:
            self._child.kill()
            self._child.wait()
            raise HypercurvError(
                f"shape process sent no answer within {READ_TIMEOUT_S} s") from None
        if not line:
            raise HypercurvError("shape process closed its output")
        try:
            out = json.loads(line)
        except json.JSONDecodeError as exc:
            raise HypercurvError(f"shape process wrote invalid JSON: {line!r}") from exc
        arr = np.asarray(out, dtype=float)
        if arr.shape != (self.n + 1,):
            raise DomainError(
                f"shape process must return {self.n + 1} coordinates, got {arr.shape}")
        return arr

    def close(self):
        # Releases both pipes whether the child is running, has exited or was
        # killed: the reader thread ends at EOF once the child is gone.
        try:
            self._child.stdin.close()
        except OSError:  # unsent data to a child that has stopped reading
            pass
        try:
            self._child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._reader.join()
        self._child.stdout.close()

    def __enter__(self) -> "SubprocessShape":
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
