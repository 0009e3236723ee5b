"""From embedded patches to principal-curvature spectra.

A codimension-one patch is a map f: U in R^n -> R^{n+1}.  At a parameter
point u the first fundamental form is g = J^T J with J the Jacobian, the
unit normal spans the null space of J^T, and the second fundamental form is
b_ij = <d^2 f / du_i du_j, normal>.  Principal curvatures solve the
generalized symmetric eigenproblem b v = lambda g v.

Derivatives come from one of two sources: ``ANALYTIC`` patches carry exact
derivatives (the built-in shapes differentiate symbolically and compile the
result), while ``finite_difference_lift`` builds a patch from any embedding
callback with central differences of step h (default eps^(1/3) (1 + |u|)).

Orientation: the normal's sign is first fixed canonically (largest-magnitude
component positive) and then flipped, if needed, so the mean curvature is
non-negative; H = 0 keeps the canonical sign.  Rank-deficient Jacobians
(condition number over ``cond_limit``) raise ``SingularPatchError``.

A shape may also live in a child process: :class:`SubprocessShape` speaks a
line-oriented JSON protocol (one parameter vector in, one embedding vector
out) so non-Python embeddings can feed the finite-difference path.
"""

from __future__ import annotations

import json
import math
import queue
import subprocess
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Optional, Sequence, Tuple

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
        point = np.asarray(self.point, dtype=float)
        value = np.asarray(self.value, dtype=float)
        jac = np.asarray(self.jacobian, dtype=float)
        second = np.asarray(self.second, dtype=float)
        n = point.size
        if value.shape != (n + 1,):
            raise DomainError(
                f"embedding must map R^{n} into R^{n + 1}, got value shape {value.shape}")
        if jac.shape != (n + 1, n):
            raise DomainError(f"jacobian must be {(n + 1, n)}, got {jac.shape}")
        if second.shape != (n, n, n + 1):
            raise DomainError(f"second derivatives must be {(n, n, n + 1)}, got {second.shape}")
        for arr in (point, value, jac, second):
            if not np.all(np.isfinite(arr)):
                raise DomainError("patch data must be finite")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "jacobian", jac)
        object.__setattr__(self, "second", second)

    @property
    def n(self) -> int:
        return self.point.size


@dataclass(frozen=True, eq=False)
class FundamentalForms:
    first: np.ndarray
    second: np.ndarray
    normal: np.ndarray
    condition_number: float


def fundamental_forms(patch: PatchSample, cond_limit: float = 1e8) -> FundamentalForms:
    """First/second fundamental forms and oriented unit normal of a patch."""
    jac = patch.jacobian
    n = patch.n
    # The last left singular vector spans the null space of J^T: the normal.
    left, singular_values, _ = np.linalg.svd(jac)
    smallest = singular_values[-1]
    cond = float(singular_values[0] / smallest) if smallest > 0 else np.inf
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularPatchError(
            f"patch Jacobian condition number {cond:.3e} exceeds {cond_limit:.1e}; "
            "the parametrization is (numerically) not an immersion here"
        )
    normal = left[:, -1]
    lead = int(np.argmax(np.abs(normal)))
    if normal[lead] < 0:
        normal = -normal
    first = jac.T @ jac
    second = patch.second @ normal
    second = 0.5 * (second + second.T)
    mean = float(np.trace(np.linalg.solve(first, second))) / n
    if mean < 0:
        normal = -normal
        second = -second
    return FundamentalForms(first=first, second=second, normal=normal,
                            condition_number=cond)


def principal_curvatures(patch: PatchSample, cond_limit: float = 1e8) -> CurvatureSpectrum:
    """Solve b v = lambda g v and package the eigenvalues as a FLOAT spectrum."""
    forms = fundamental_forms(patch, cond_limit=cond_limit)
    try:
        # g = L L^T turns b v = lambda g v into the standard symmetric problem
        # (L^-1 b L^-T) w = lambda w; b is symmetric, so two solves suffice.
        chol = np.linalg.cholesky(forms.first)
        half = np.linalg.solve(chol, forms.second)
        eigenvalues = np.linalg.eigvalsh(np.linalg.solve(chol, half.T))
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"generalized eigensolve failed (condition number "
            f"{forms.condition_number:.3e}): {exc}"
        ) from exc
    return CurvatureSpectrum([float(v) for v in eigenvalues], c=0.0,
                             regime=Regime.FLOAT)


def finite_difference_lift(embedding: Callable[[np.ndarray], Sequence[float]],
                           point: Sequence[float],
                           h: Optional[float] = None) -> PatchSample:
    """Build a patch from an embedding callback by central differences.

    The default step is eps^(1/3) (1 + |u|), balancing truncation against
    rounding for first derivatives; second derivatives inherit the same h.
    """
    u = np.asarray(point, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise DomainError("the parameter point must be a non-empty vector")
    if h is None:
        h = float(np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.linalg.norm(u)))
    h = float(h)
    if not 0 < h < math.inf:
        raise DomainError(f"finite-difference step must be finite and positive, got {h}")
    n = u.size

    def at(shift: np.ndarray) -> np.ndarray:
        out = np.asarray(embedding(u + shift), dtype=float)
        if out.shape != (n + 1,):
            raise DomainError(
                f"embedding must return {n + 1} coordinates, got shape {out.shape}")
        return out

    value = at(np.zeros(n))
    basis = np.eye(n) * h
    plus = [at(basis[i]) for i in range(n)]
    minus = [at(-basis[i]) for i in range(n)]
    jac = np.stack([(plus[i] - minus[i]) / (2.0 * h) for i in range(n)], axis=1)
    second = np.empty((n, n, n + 1))
    for i in range(n):
        second[i, i] = (plus[i] - 2.0 * value + minus[i]) / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            mixed = (at(basis[i] + basis[j]) - at(basis[i] - basis[j])
                     - at(-basis[i] + basis[j]) + at(-basis[i] - basis[j]))
            second[i, j] = second[j, i] = mixed / (4.0 * h * h)
    return PatchSample(point=u, value=value, jacobian=jac, second=second,
                       source=PatchSource.FINITE_DIFF)


class SymbolicShape:
    """A built-in embedding with compiled exact derivatives.

    Callable on a parameter vector (for the finite-difference path) and able
    to produce an ANALYTIC :class:`PatchSample` with symbolically exact
    Jacobian and second derivatives.
    """

    def __init__(self, name: str, symbols, expressions):
        import sympy as sp

        self.name = name
        self.n = len(symbols)
        if len(expressions) != self.n + 1:
            raise DomainError(
                f"shape {name!r} must embed R^{self.n} into R^{self.n + 1}")
        self._value = sp.lambdify([symbols], sp.Matrix(expressions), "numpy")
        self._jacobian = sp.lambdify(
            [symbols], sp.Matrix(expressions).jacobian(sp.Matrix(symbols)), "numpy")
        flat_second = [sp.diff(e, si, sj)
                       for si in symbols for sj in symbols for e in expressions]
        self._second = sp.lambdify([symbols], flat_second, "numpy")

    def __call__(self, point: Sequence[float]) -> np.ndarray:
        u = [float(v) for v in np.asarray(point, dtype=float)]
        return np.asarray(self._value(u), dtype=float).reshape(-1)

    def patch(self, point: Sequence[float]) -> PatchSample:
        u_arr = np.asarray(point, dtype=float)
        if u_arr.shape != (self.n,):
            raise DomainError(
                f"shape {self.name!r} expects {self.n} parameters, got {u_arr.shape}")
        u = [float(v) for v in u_arr]
        value = np.asarray(self._value(u), dtype=float).reshape(-1)
        jac = np.asarray(self._jacobian(u), dtype=float)
        second = np.asarray(self._second(u), dtype=float).reshape(
            self.n, self.n, self.n + 1)
        return PatchSample(point=u_arr, value=value, jacobian=jac,
                           second=second, source=PatchSource.ANALYTIC)


def _spherical_coordinates(symbols, radius):
    # Round k-sphere of the given radius in R^{k+1}:
    # (cos t1, sin t1 cos t2, ..., sin t1 ... sin tk).
    import sympy as sp

    components = []
    prefix = sp.Integer(1)
    for t in symbols:
        components.append(prefix * sp.cos(t))
        prefix = prefix * sp.sin(t)
    components.append(prefix)
    return [radius * comp for comp in components]


def make_shape(name: str, n: int, radius=1, k: Optional[int] = None,
               coefficients: Optional[Sequence] = None) -> SymbolicShape:
    """Instantiate a registry shape.

    * ``sphere``: round S^n of the given radius (spherical coordinates).
    * ``cylinder``: R^{n-k} x S^k of the given radius; flat coordinates
      first, then the k sphere angles.
    * ``graph``: the graph of the quadratic (1/2) sum c_i u_i^2 over R^n,
      with unit coefficients by default.
    """
    import sympy as sp

    if n < 2:
        raise DomainError(f"shapes need n >= 2, got n={n}")
    radius_expr = sp.Rational(radius) if not isinstance(radius, float) else sp.Float(radius)
    if radius_expr <= 0 and name in ("sphere", "cylinder"):
        raise DomainError(f"radius must be positive, got {radius}")
    symbols = sp.symbols(f"u1:{n + 1}", real=True)
    if name == "sphere":
        return SymbolicShape("sphere", symbols,
                             _spherical_coordinates(symbols, radius_expr))
    if name == "cylinder":
        if k is None or not 1 <= k <= n - 1:
            raise DomainError(
                f"cylinder needs a sphere dimension k in [1, {n - 1}], got {k}")
        flat = list(symbols[: n - k])
        sphere_part = _spherical_coordinates(symbols[n - k:], radius_expr)
        return SymbolicShape("cylinder", symbols, flat + sphere_part)
    if name == "graph":
        if coefficients is None:
            coefficients = (1,) * n
        if len(coefficients) != n:
            raise DomainError(f"graph needs {n} coefficients, got {len(coefficients)}")
        coeff_exprs = [sp.Rational(c) if not isinstance(c, float) else sp.Float(c)
                       for c in coefficients]
        height = sum(c * u ** 2 for c, u in zip(coeff_exprs, symbols)) / 2
        return SymbolicShape("graph", symbols, list(symbols) + [height])
    raise DomainError(f"unknown shape {name!r}; known: cylinder, graph, sphere")


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
    return (0.0,) * n


READ_TIMEOUT_S = 30.0  # longest wait for one answer line from a shape process


class SubprocessShape:
    """An embedding evaluated by a child process over line-oriented JSON.

    Protocol: each request is one line, a JSON array of n parameters, on the
    child's stdin; the response is one line, a JSON array of n+1 embedding
    coordinates, on its stdout.  The child must answer one line per line and
    flush, within ``READ_TIMEOUT_S`` seconds, or it is killed.  Only the
    finite-difference path can drive such a shape.
    """

    def __init__(self, argv: Sequence[str], n: int):
        if n < 2:
            raise DomainError(f"shapes need n >= 2, got n={n}")
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
        u = [float(v) for v in np.asarray(point, dtype=float)]
        if len(u) != self.n:
            raise DomainError(f"shape expects {self.n} parameters, got {len(u)}")
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
