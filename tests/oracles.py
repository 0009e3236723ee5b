"""Independent brute-force oracles used to cross-check the library.

Everything here is intentionally naive: subset enumeration instead of the
accumulation recurrences, direct summation instead of closed forms.  Tests
compare library output against these, never the other way around.
"""

import itertools
import math
from fractions import Fraction


def sigma_subsets(values, r):
    """Elementary symmetric function by explicit subset enumeration."""
    values = list(values)
    if r == 0:
        return Fraction(1) if any(isinstance(v, Fraction) for v in values) else 1.0
    total = 0
    for subset in itertools.combinations(values, r):
        total += math.prod(subset)
    return total


def power_sum(values, p):
    return sum(v ** p for v in values)


def newton_eigenvalue_subsets(values, r, i):
    """Newton transformation eigenvalue as sigma_r of the other labels."""
    reduced = list(values[:i]) + list(values[i + 1:])
    return sigma_subsets(reduced, r)


def okumura_sides(mu):
    """Cubic sum and the dimensional bound, both by direct float arithmetic."""
    n = len(mu)
    beta_sq = sum(float(v) ** 2 for v in mu)
    bound = (n - 2) / math.sqrt(n * (n - 1)) * beta_sq ** 1.5
    sum3 = sum(float(v) ** 3 for v in mu)
    return sum3, bound


def mean_curvature(values):
    return sum(values) / len(values)


def scalar_curvature(values, c):
    """R from averaging lambda_i lambda_j over distinct ordered pairs."""
    n = len(values)
    acc = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                acc += values[i] * values[j]
    return c + acc * Fraction(1, n * (n - 1)) if isinstance(acc, (int, Fraction)) \
        else c + acc / (n * (n - 1))


def sympy_shape(name, n, radius=1, k=None, coefficients=None):
    """The registry shape built symbolically: sympy differentiates the
    embedding and lambdify compiles value, Jacobian and second derivatives.

    Returns ``(value, jacobian, second)``, each a function of a parameter
    vector returning a float array shaped like the matching ``PatchSample``
    field.  Floats pass through ``sp.Float``, so only radii and coefficients
    that print exactly in 15 significant digits give the library's doubles.
    """
    import numpy as np
    import sympy as sp

    def exact(x):
        return sp.Float(x) if isinstance(x, float) else sp.Rational(x)

    def spherical(angles, r):
        # r (cos t1, sin t1 cos t2, ..., sin t1 ... sin tk)
        components, prefix = [], sp.Integer(1)
        for t in angles:
            components.append(r * prefix * sp.cos(t))
            prefix = prefix * sp.sin(t)
        return components + [r * prefix]

    u = sp.symbols(f"u1:{n + 1}", real=True)
    if name == "sphere":
        exprs = spherical(u, exact(radius))
    elif name == "cylinder":
        exprs = list(u[: n - k]) + spherical(u[n - k:], exact(radius))
    else:
        coefficients = coefficients or (1,) * n
        exprs = list(u) + [sum(exact(c) * v ** 2 for c, v in zip(coefficients, u)) / 2]
    matrix = sp.Matrix(exprs)
    value = sp.lambdify([u], matrix, "numpy")
    jacobian = sp.lambdify([u], matrix.jacobian(sp.Matrix(u)), "numpy")
    second = sp.lambdify([u], [sp.diff(e, si, sj) for si in u for sj in u for e in exprs],
                         "numpy")

    def floats(point):
        return [float(v) for v in point]

    return (lambda p: np.asarray(value(floats(p)), dtype=float).reshape(-1),
            lambda p: np.asarray(jacobian(floats(p)), dtype=float),
            lambda p: np.asarray(second(floats(p)), dtype=float).reshape(n, n, n + 1))


def central_differences(embedding, point, h=None):
    """The per-point central-difference loop that ``finite_difference_lift``
    replaced, one embedding call per stencil point.

    Returns ``(value, jacobian, second)`` with the ``PatchSample`` shapes.
    """
    import numpy as np

    u = np.asarray(point, dtype=float)
    if h is None:
        h = float(np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.linalg.norm(u)))
    h = float(h)
    n = u.size

    def at(shift):
        return np.asarray(embedding(u + shift), dtype=float)

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
    return value, jac, second


def cholesky_curvatures(patch, cond_limit=1e8):
    """Principal curvatures by the route the shape operator replaced.

    The SVD gives the condition number and the normal, ``solve(g, b)`` the
    sign of H, and a Cholesky factor g = L L^T turns b v = lambda g v into
    the standard symmetric problem (L^-1 b L^-T) w = lambda w.  Returns the
    eigenvalues in ascending order.
    """
    import numpy as np

    from hypercurv.errors import SingularPatchError

    jac = patch.jacobian
    n = patch.n
    left, singular_values, _ = np.linalg.svd(jac)
    smallest = singular_values[-1]
    cond = float(singular_values[0] / smallest) if smallest > 0 else np.inf
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularPatchError(f"patch Jacobian condition number {cond:.3e}")
    normal = left[:, -1]
    lead = int(np.argmax(np.abs(normal)))
    if normal[lead] < 0:
        normal = -normal
    first = jac.T @ jac
    second = patch.second @ normal
    second = 0.5 * (second + second.T)
    mean = float(np.trace(np.linalg.solve(first, second))) / n
    if mean < 0:
        second = -second
    chol = np.linalg.cholesky(first)
    half = np.linalg.solve(chol, second)
    return np.linalg.eigvalsh(np.linalg.solve(chol, half.T))


def classify_by_fraction_gaps(n, H, R):
    """EXACT ``cylinders.classify`` by ``Fraction`` subtraction against every
    rung of the ladder, the nearest rung by ``(abs(gap), k)``: the rule the
    integer cross-multiplication of ``classify`` replaced.
    """
    from hypercurv.cylinders import (
        ClassificationVerdict,
        cylinder_from_H,
        rigidity_annotation,
        scalar_ladder,
    )

    H, R = Fraction(H), Fraction(R)
    ratio = R / (H * H)
    signed_gaps = {k: ratio - rung for k, rung in scalar_ladder(n)}
    nearest_k = min(signed_gaps, key=lambda k: (abs(signed_gaps[k]), k))
    gap = signed_gaps[nearest_k]
    hit = gap == 0
    return ClassificationVerdict(
        n=n, H=H, ratio=ratio, on_ladder=hit,
        k=nearest_k if hit else None,
        model=cylinder_from_H(n, nearest_k, H) if hit else None,
        nearest_k=nearest_k, gap=gap,
        annotation=rigidity_annotation(n, nearest_k), tolerance=None,
    )


def certificate_samples_per_draw(system, seed=0, count=1000):
    """The per-draw loop that the block sampler of ``certificate_samples``
    replaced: one ``rng.uniform`` call and one Python-float completion per
    candidate, the case's anchor first, at most ``80 * count`` candidates.
    """
    import numpy as np

    from hypercurv.caseverify import _CASES
    from hypercurv.scalars import promote

    case = _CASES[system.name]
    completed = tuple(i for i in range(1, case.n + 1)
                      if i != case.fixed and i not in case.drawn)
    rng = np.random.default_rng(seed)
    trace = promote(system.trace_target)
    s2 = promote(system.sigma2_target)
    h = trace / system.n
    box = math.sqrt(max(promote(system.norm_a2_target), 0.0))
    points = []
    params = [a * h for a in case.anchor]
    for _ in range(80 * count):
        rest = trace
        for p in params:
            rest -= p
        pairs = sum(a * b for a, b in itertools.combinations(params, 2))
        product = s2 - pairs - sum(params) * rest
        disc = rest * rest - 4.0 * product
        if not disc < 0:
            root = math.sqrt(disc)
            pair = [(rest - root) / 2.0, (rest + root) / 2.0]
            coords = dict(zip(case.drawn + completed, params + pair))
            points.append(tuple(coords.get(i, 0.0) for i in range(1, case.n + 1)))
            if len(points) == count:
                break
        params = rng.uniform(-box, box, size=len(case.drawn)).tolist()
    return points


def constraint_violations_per_call(system, point):
    """``caseverify.constraint_violations`` as it was before the per-system
    plan: every target, H, margin and key rebuilt on each call, sigma_2 and
    the bounded sigma_r through ``spectrum.sigmas``.
    """
    from hypercurv.caseverify import STRICT_MARGIN, Relation
    from hypercurv.errors import DomainError
    from hypercurv.scalars import Regime, common_regime
    from hypercurv.spectrum import sigmas

    x = list(point)
    num = Fraction if common_regime(x) is Regime.EXACT else float
    x = [num(v) for v in x]
    if len(x) != system.n:
        raise DomainError(f"point has {len(x)} coordinates, system has n={system.n}")
    zero, margin = num(0), num(STRICT_MARGIN)
    viol = {"trace": abs(sum(x) - num(system.trace_target))}
    s2, *bounded = sigmas(x, [2] + [ex.r for ex in system.extra_symmetric])
    viol["sigma2"] = abs(s2 - num(system.sigma2_target))
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
    for ex, s in zip(system.extra_symmetric, bounded):
        bad = max(zero, -s) if ex.relation is Relation.GE_ZERO else max(zero, s)
        viol[f"sigma{ex.r}{ex.relation.value}"] = bad
    return viol


def moving(ev, k):
    """The ``excess`` columns that can move along free coordinate k: the terms
    that read a sigma row or the coordinate's own row of ``ev.whole``.
    Every other term has slope exactly 0 along it.
    """
    import numpy as np

    a, b, row = ev.whole.a, ev.whole.b, ev.x + ev.free0[k]
    return np.flatnonzero(((a >= ev.sig) & (a < ev.x)) | (a == row) | (b == row))


def sections(ev, x_free, k):
    """Slope and offset of the terms ``moving(ev, k)`` along free coordinate k.

    sigma_r(x) = x_k sigma_{r-1}(x without k) + sigma_r(x without k), so
    every term is affine in x_k.  One full sigma pass over the rows with
    x_k = 0 gives the workspace from which the plan gathers the offsets,
    the terms there, and the slopes, the same terms one sigma degree down
    with x_k read as 1 and the other coordinates as 0 (``ev.along``).
    Both arrays are rows x ``len(moving(ev, k))``, laid out term by term.
    This is the reference form of the Jacobian's slopes, one coordinate at
    a time.
    """
    from hypercurv.caseverify import _Part, _terms

    whole, cols = ev.whole, moving(ev, k)
    part = _Part(whole.a[cols], whole.b[cols], whole.target[cols], whole.sense[cols])
    at_zero = x_free.copy()
    at_zero[:, k] = 0.0
    w = ev.workspace(at_zero)
    return _terms(w, ev.along(part, ev.free0[k])).T, _terms(w, part).T


def gauss_newton(ev, x, ranks=None):
    """Every Gauss-Newton iteration of ``_gauss_newton_states`` on a copy of
    ``x``, with no early stop; returns the rows where they end.
    """
    from hypercurv.caseverify import _gauss_newton_states

    x = x.copy()
    for _ in _gauss_newton_states(ev, x, ev.penalty(x), ranks):
        pass
    return x


def gauss_newton_states(ev, x, ranks=None):
    """``caseverify._gauss_newton_states`` as it was before its lazy
    halvings: every live row tries all ``_HALVINGS`` in one penalty call.
    Updates ``x`` in place and yields ``(x, penalties)`` at the same points.
    """
    import numpy as np

    from hypercurv.caseverify import _GN_ITERATIONS, _HALVINGS, _ROUNDING_GAIN

    fx = ev.penalty(x)
    live = fx != 0.0
    for _ in range(_GN_ITERATIONS):
        yield x, fx
        if ranks is not None and (fx == 0.0).any():
            live &= ranks < ranks[fx == 0.0].min()
        rows = np.flatnonzero(live)
        if not rows.size:
            return
        res = ev.excess(x[rows])
        active = res > 0.0
        active[:, :2] = True
        jac = np.where(active[:, :, None], ev.jacobian(x[rows]), 0.0)
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
        threshold = fx[rows] * (1.0 - _ROUNDING_GAIN)
        x[rows], fx[rows] = trial[pick], ft[pick]
        live[rows] = (fx[rows] != 0.0) & (fx[rows] < threshold)
    yield x, fx


def search_bound(relation, h):
    """``(sense, t)`` of a sign relation as the scan searches it: the excess
    sense * (v - t) is positive exactly when v violates the relation, a
    strict one held ``STRICT_MARGIN`` from zero.
    """
    from hypercurv.caseverify import STRICT_MARGIN

    return {">=0": (-1.0, 0.0), "<=0": (1.0, 0.0), ">0": (-1.0, STRICT_MARGIN),
            "<0": (1.0, -STRICT_MARGIN), ">=H": (-1.0, h)}[relation.value]


def excess_and_jacobian(ev, x_free):
    """``ev.excess`` and ``ev.jacobian`` from the column-by-column encoding
    that the workspace plan replaced, built from ``ev.system`` alone: a
    degree-major sigma pass, the full coordinates, and each kind of term
    written into its own columns; the slopes from the sigma values one
    degree down and a unit row per coordinate.  The excess is rows x terms,
    row-major; the Jacobian rows x terms x coordinates.
    """
    import numpy as np

    system = ev.system
    n, h = system.n, float(system.mean_curvature)
    free0 = [i for i in range(n) if i + 1 not in system.fixed_zeros]
    steps = n - 1 if system.ordering else 0
    coords = [sc.index - 1 for sc in system.sign_constraints]
    orders = [ex.r for ex in system.extra_symmetric]
    searched = [search_bound(c.relation, h)
                for c in system.sign_constraints + system.extra_symmetric]
    sense, t = np.array([s for s, _ in searched]), np.array([v for _, v in searched])
    top = max([2] + orders)

    def sigmas(x):
        e = np.zeros((top + 1, x.shape[0]))
        e[0] = 1.0
        for col in range(x.shape[1]):
            e[1:] += x[:, col] * e[:-1]
        return e

    def terms(e, rows, targets):
        out = np.empty((e.shape[1], 2 + steps + len(sense)))
        out[:, 0] = e[1]
        out[:, 1] = e[2]
        if targets:
            out[:, 0] -= float(system.trace_target)
            out[:, 1] -= float(system.sigma2_target)
        np.subtract(rows[:, :steps], rows[:, 1:steps + 1], out=out[:, 2:2 + steps])
        bounds = out[:, 2 + steps:]
        bounds[:, :len(coords)] = rows[:, coords]
        bounds[:, len(coords):] = e[orders].T
        if targets:
            bounds -= t
        bounds *= sense
        return out

    m, d = x_free.shape
    full = np.zeros((m, n))
    full[:, free0] = x_free
    excess = terms(sigmas(x_free), full, True)
    at_zero = np.repeat(x_free[None], d, axis=0)
    at_zero[np.arange(d), :, np.arange(d)] = 0.0
    e = sigmas(at_zero.reshape(d * m, d))
    down = np.concatenate((np.zeros((1, e.shape[1])), e[:-1]))
    units = np.repeat(np.eye(n)[free0], m, axis=0)
    jacobian = terms(down, units, False).reshape(d, m, -1).transpose(1, 2, 0)
    return excess, jacobian


def certificate_check_per_sample(system, seed=0, count=1000, tol=1e-8):
    """``caseverify.certificate_check`` as it was before the block pass: the
    certificate's value and audit called once per sample, folded by Python's
    ``max`` and ``min`` in sample order.
    """
    from hypercurv.caseverify import (
        CertificateReport, _certified, certificate_samples, constraint_violations)
    from hypercurv.errors import DomainError
    from hypercurv.scalars import Regime, promote

    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
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
        viol = max(constraint_violations(system, x).values())
        if viol <= tol:
            feasible += 1
        value = case.value(x, trace, s2, Regime.FLOAT)
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
