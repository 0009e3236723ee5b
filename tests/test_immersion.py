import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import hypercurv
from hypercurv.errors import DomainError, HypercurvError, SingularPatchError
from hypercurv.immersion import (
    PatchSample,
    PatchSource,
    SHAPE_NAMES,
    SubprocessShape,
    default_point,
    finite_difference_lift,
    fundamental_forms,
    make_shape,
    principal_curvatures,
)
from hypercurv.spectrum import invariants

import oracles


class TestPatchSample:
    def test_shape_validation(self):
        with pytest.raises(DomainError):
            PatchSample(point=np.zeros(2), value=np.zeros(3),
                        jacobian=np.zeros((3, 3)), second=np.zeros((2, 2, 3)),
                        source=PatchSource.ANALYTIC)
        with pytest.raises(DomainError):
            PatchSample(point=np.zeros(2), value=np.zeros(3),
                        jacobian=np.zeros((3, 2)), second=np.zeros((2, 2, 2)),
                        source=PatchSource.ANALYTIC)

    def test_rejects_non_finite(self):
        jac = np.zeros((3, 2))
        jac[0, 0] = np.nan
        with pytest.raises(DomainError):
            PatchSample(point=np.zeros(2), value=np.zeros(3), jacobian=jac,
                        second=np.zeros((2, 2, 3)), source=PatchSource.ANALYTIC)


class TestSphere:
    def test_round_sphere_curvatures(self):
        shape = make_shape("sphere", n=4, radius=2)
        spec = principal_curvatures(shape.patch(default_point("sphere", 4)))
        for v in spec.lambdas:
            assert abs(v - 0.5) <= 1e-8

    def test_unit_sphere_various_points(self):
        shape = make_shape("sphere", n=3)
        for pt in ([0.4, 0.9, 1.3], [1.1, 0.2, 2.5], [0.7, 0.7, 0.7]):
            spec = principal_curvatures(shape.patch(pt))
            assert max(abs(v - 1.0) for v in spec.lambdas) <= 1e-8

    def test_scalar_curvature_of_sphere(self):
        # R = H^2 on the ladder's top rung
        shape = make_shape("sphere", n=4, radius=2)
        rep = invariants(principal_curvatures(shape.patch(default_point("sphere", 4))))
        assert rep.R == pytest.approx(rep.H * rep.H, abs=1e-10)


class TestCylinder:
    def test_recorded_fixture(self):
        from fractions import Fraction
        shape = make_shape("cylinder", n=4, radius=Fraction(1, 2), k=2)
        spec = principal_curvatures(shape.patch(default_point("cylinder", 4, k=2)))
        expected = (0.0, 0.0, 2.0, 2.0)
        assert max(abs(a - b) for a, b in zip(spec.lambdas, expected)) <= 1e-8
        rep = invariants(spec)
        assert abs(rep.R - 2.0 / 3.0) <= 1e-7

    def test_k_range_validation(self):
        with pytest.raises(DomainError):
            make_shape("cylinder", n=3, k=0)
        with pytest.raises(DomainError):
            make_shape("cylinder", n=3, k=3)  # k = n is the sphere, not a cylinder

    def test_flat_directions_count(self):
        shape = make_shape("cylinder", n=5, radius=1, k=2)
        spec = principal_curvatures(shape.patch(default_point("cylinder", 5, k=2)))
        near_zero = sum(1 for v in spec.lambdas if abs(v) <= 1e-9)
        assert near_zero == 3


class TestGraph:
    def test_curvatures_at_origin(self):
        shape = make_shape("graph", n=3, coefficients=[1, 2, 3])
        spec = principal_curvatures(shape.patch([0.0, 0.0, 0.0]))
        assert spec.lambdas == pytest.approx((1.0, 2.0, 3.0), abs=1e-10)

    def test_default_coefficients_are_unit(self):
        shape = make_shape("graph", n=3)
        spec = principal_curvatures(shape.patch([0.0, 0.0, 0.0]))
        assert spec.lambdas == pytest.approx((1.0, 1.0, 1.0), abs=1e-10)

    def test_coefficient_length_checked(self):
        with pytest.raises(DomainError):
            make_shape("graph", n=3, coefficients=[1, 2])

    def test_away_from_origin_curvatures_shrink(self):
        shape = make_shape("graph", n=2, coefficients=[1, 1])
        at0 = principal_curvatures(shape.patch([0.0, 0.0]))
        far = principal_curvatures(shape.patch([2.0, 2.0]))
        assert max(far.lambdas) < max(at0.lambdas)


class TestMakeShape:
    def test_unknown_name(self):
        with pytest.raises(DomainError):
            make_shape("torus", n=3)
        assert set(SHAPE_NAMES) == {"cylinder", "graph", "sphere"}

    def test_bad_radius(self):
        with pytest.raises(DomainError):
            make_shape("sphere", n=3, radius=0)

    def test_dimension_past_the_limit_is_refused_before_any_build(self, monkeypatch):
        # A sphere build grows as n^4; past the limit nothing is built at all.
        from hypercurv import immersion

        builds = []
        monkeypatch.setattr(immersion, "SymbolicShape", lambda name, n, rows: builds.append(n))
        limit = immersion._MAX_SHAPE_DIM
        assert limit == 64
        make_shape("sphere", limit)
        assert builds == [limit]
        for name, k in (("sphere", None), ("cylinder", 1), ("graph", None)):
            for n in (limit + 1, 300, 10 ** 9):
                with pytest.raises(DomainError, match=r"n in \[2, 64\], got n="):
                    make_shape(name, n, k=k)
        assert builds == [limit]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "nan", "inf"],
                             ids=["nan", "inf", "-inf", "str-nan", "str-inf"])
    def test_non_finite_radius(self, bad):
        for name, k in (("sphere", None), ("cylinder", 1), ("graph", None)):
            with pytest.raises(DomainError, match="radius must be a finite number"):
                make_shape(name, n=2, radius=bad, k=k)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "nan", "-inf"],
                             ids=["nan", "inf", "-inf", "str-nan", "str-minus-inf"])
    def test_non_finite_coefficient(self, bad):
        with pytest.raises(DomainError, match="coefficient must be a finite number"):
            make_shape("graph", n=3, coefficients=[1, bad, 2])

    def test_accepted_parameter_types(self):
        # int, Fraction, float and rational strings all build the same sphere
        pt = default_point("sphere", 3)
        want = make_shape("sphere", n=3, radius=Fraction(3, 2)).patch(pt)
        for radius in (1.5, "3/2", "1.5"):
            got = make_shape("sphere", n=3, radius=radius).patch(pt)
            assert np.array_equal(got.second, want.second)
        graph = make_shape("graph", n=3, coefficients=[2, "-1/3", 0.5])
        assert np.array_equal(np.diagonal(graph.patch([0.1, 0.2, 0.3]).second[:, :, 3]),
                              [2.0, -1 / 3, 0.5])

    def test_float_radius_at_full_precision(self):
        # 0.1 + 0.2 is 0.30000000000000004, not the 15-digit 0.3
        u = [0.7, 1.1]
        shape = make_shape("sphere", n=2, radius=0.1 + 0.2)
        assert shape(u)[0] == (0.1 + 0.2) * np.cos(0.7)
        assert shape.patch(u).value[0] == (0.1 + 0.2) * np.cos(0.7)

    def test_float_coefficient_at_full_precision(self):
        shape = make_shape("graph", 2, coefficients=[1 / 3, 1.0])
        assert shape.patch([0.1, 0.2]).second[0, 0, 2] == 1 / 3

    def test_call_checks_arity(self):
        shape = make_shape("sphere", n=3)
        with pytest.raises(DomainError, match="expects 3 parameters"):
            shape([0.5, 0.6])
        with pytest.raises(DomainError, match="expects 3 parameters"):
            finite_difference_lift(shape, [0.5, 0.6])

    def test_default_point_unknown_name(self):
        with pytest.raises(DomainError, match="unknown shape 'torus'"):
            default_point("torus", 3)


def _oracle_specs():
    rng = random.Random(2016)
    specs = [("sphere", n, None) for n in range(2, 10)]
    specs += [("cylinder", n, k) for n in range(3, 8) for k in range(1, n)]
    specs += [("graph", n, None) for n in range(2, 10)]
    out = []
    for name, n, k in specs:
        radius = rng.choice([1, 2, Fraction(3, 7), Fraction(5, 2), "4/3", 0.75])
        coefficients = None
        if name == "graph":
            # mixed signs and zeros, at least one of each
            coefficients = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            coefficients[0], coefficients[-1] = Fraction(-2, 3), 0
        out.append(pytest.param(name, n, k, radius, coefficients,
                                id=f"{name}-n{n}" + (f"-k{k}" if k else "")))
    return out


class TestClosedFormMatchesSympy:
    """The closed-form derivatives against the symbolic build, bit for bit."""

    @pytest.mark.parametrize("name, n, k, radius, coefficients", _oracle_specs())
    def test_bit_identical(self, name, n, k, radius, coefficients):
        shape = make_shape(name, n, radius=radius, k=k, coefficients=coefficients)
        value, jacobian, second = oracles.sympy_shape(name, n, radius, k, coefficients)
        rng = random.Random(n * 100 + (k or 0))
        points = [[rng.uniform(-4.0, 4.0) for _ in range(n)] for _ in range(4)]
        points.append(list(default_point(name, n, k=k)))
        points.append([0.0] * n)
        # coordinates whose Python square v ** 2 is not v * v
        points.append(([-0.6813567959701379, 1.6650523950856364, -1.757458571871802] * n)[:n])
        stacked = shape(np.array(points))
        assert stacked.shape == (len(points), n + 1)
        for u, row in zip(points, stacked):
            patch = shape.patch(u)
            for got, want in ((patch.value, value(u)), (patch.jacobian, jacobian(u)),
                              (patch.second, second(u)), (shape(u), value(u)),
                              (row, value(u))):
                assert np.array_equal(got, want), (u, got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (u, got, want)


class TestShapeOperator:
    """One SVD and one symmetric eigensolve against the Cholesky route."""

    @pytest.mark.parametrize("name, n, k, radius, coefficients", _oracle_specs())
    def test_matches_the_cholesky_route(self, name, n, k, radius, coefficients):
        shape = make_shape(name, n, radius=radius, k=k, coefficients=coefficients)
        rng = random.Random(n * 100 + (k or 0))
        points = [[rng.uniform(-4.0, 4.0) for _ in range(n)] for _ in range(4)]
        points += [list(default_point(name, n, k=k)), [0.0] * n]
        for u in points:
            for patch in (shape.patch(u), finite_difference_lift(shape, u)):
                try:
                    want = oracles.cholesky_curvatures(patch)
                except SingularPatchError:
                    with pytest.raises(SingularPatchError):
                        principal_curvatures(patch)
                    continue
                got = principal_curvatures(patch).lambdas
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (u, patch.source, got, want)
                forms = fundamental_forms(patch)
                assert np.linalg.eigvalsh(forms.shape_operator).tolist() == list(got)
                assert np.trace(forms.shape_operator) / n >= 0


class TestFiniteDifferences:
    def test_fd_matches_analytic(self):
        shape = make_shape("cylinder", n=4, radius=0.5, k=2)
        pt = default_point("cylinder", 4, k=2)
        analytic = shape.patch(pt)
        fd = finite_difference_lift(shape, pt)
        assert fd.source is PatchSource.FINITE_DIFF
        assert np.max(np.abs(fd.jacobian - analytic.jacobian)) <= 1e-9
        assert np.max(np.abs(fd.second - analytic.second)) <= 1e-5
        a = principal_curvatures(analytic)
        b = principal_curvatures(fd)
        assert max(abs(x - y) for x, y in zip(a.lambdas, b.lambdas)) <= 1e-5

    def test_too_many_coordinates_are_refused_before_the_stencil(self):
        # 1 + 2 n^2 stencil rows of n parameters: memory grows as n^3, so the
        # lift refuses past the shape limit without calling the embedding.
        from hypercurv import immersion

        calls = []

        def graph(stack):
            calls.append(stack.shape)
            return np.column_stack([stack, 0.5 * (stack * stack).sum(axis=1)])

        limit = immersion._MAX_SHAPE_DIM
        patch = finite_difference_lift(graph, [0.0] * limit)
        assert patch.point.size == limit
        assert calls == [(1 + 2 * limit * limit, limit)]
        for n in (limit + 1, 300):
            with pytest.raises(DomainError, match=r"at most 64 coordinates, got "):
                finite_difference_lift(graph, [0.0] * n)
        assert len(calls) == 1

    def test_fd_step_validation(self):
        shape = make_shape("sphere", n=3)
        for h in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                finite_difference_lift(shape, [0.5, 0.5, 0.5], h=h)
        with pytest.raises(DomainError):
            finite_difference_lift(shape, [])

    def test_fd_rejects_wrong_arity(self):
        # the embedding must answer the 1 + 2 n^2 = 9 stencil rows with n + 1 = 3 columns
        for bad in (lambda stack: [1.0, 2.0],  # not n + 1 coordinates
                    lambda stack: np.zeros(3),  # one (n+1,) vector for the whole stencil
                    lambda stack: np.zeros((len(stack) - 1, 3)),  # a row short
                    lambda stack: np.zeros((len(stack), 2)),  # a column short
                    lambda stack: np.zeros((len(stack), 4))):  # a column over
            with pytest.raises(DomainError, match=r"shape \(9, 3\)"):
                finite_difference_lift(bad, [0.1, 0.2])

    @pytest.mark.parametrize("name, n, k", [
        (name, n, k) for n in range(2, 7) for name, k in (
            ("sphere", None), ("cylinder", n // 2), ("graph", None))])
    def test_fd_matches_the_per_point_loop(self, name, n, k):
        # the one stacked call reproduces the per-point loop bit for bit
        shape = make_shape(name, n, radius=Fraction(5, 3), k=k,
                           coefficients=[(-1) ** i * (i + 1) for i in range(n)]
                           if name == "graph" else None)
        rng = random.Random(7 * n + (k or 0))
        points = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(3)]
        points.append([-0.0] + [rng.uniform(0.4, 2.7) for _ in range(n - 1)])
        if name == "graph":
            points.append([0.0] * n)
        for u, h in [(u, None) for u in points] + [(points[0], 1e-3)]:
            stencil, loop = [], []
            got = finite_difference_lift(lambda x: stencil.append(x) or shape(x), u, h=h)
            want = oracles.central_differences(lambda x: loop.append(x) or shape(x), u, h=h)
            # the same points, signed zeros included, in the loop's order
            assert len(stencil) == 1 and len(loop) == 1 + 2 * n * n
            for a, b in zip((stencil[0], got.value, got.jacobian, got.second),
                            (np.array(loop),) + want):
                assert np.array_equal(a, b), (u, h)
                assert np.array_equal(np.signbit(a), np.signbit(b)), (u, h)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_fd_rejects_non_finite_point(self, bad):
        calls = []

        def recording(stack):
            calls.append(stack)
            return np.zeros((len(stack), 3))

        for h in (None, 1e-3):
            with pytest.raises(DomainError, match="point must be finite"):
                finite_difference_lift(recording, [bad, 0.5], h=h)
        assert calls == []

    def test_fd_rejects_a_stencil_past_the_float_range(self):
        calls = []
        with pytest.raises(DomainError, match="leaves the float range"):
            finite_difference_lift(calls.append, [1e308, 0.5], h=1e308)
        assert calls == []

    def test_shape_rejects_non_finite_points(self):
        shape = make_shape("graph", n=2)
        stack = np.array([[0.1, 0.2], [math.inf, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning before the check
            for point in ([math.nan, 0.5], stack):
                with pytest.raises(DomainError, match="needs finite parameters"):
                    shape(point)
            with pytest.raises(DomainError, match="needs finite parameters"):
                shape.patch([0.1, -math.inf])


class TestOrientationAndSingularity:
    def test_mean_curvature_nonnegative_convention(self):
        for name, kwargs in (("sphere", {}), ("cylinder", {"k": 2}),
                             ("graph", {"coefficients": [-1, -2, -3, -4]})):
            shape = make_shape(name, n=4, **kwargs)
            pt = default_point(name, 4, k=kwargs.get("k"))
            rep = invariants(principal_curvatures(shape.patch(list(pt))))
            assert rep.H >= 0

    def test_zero_mean_curvature_keeps_the_canonical_normal(self):
        # the saddle u^2/2 - v^2/2 at the origin: H = 0 exactly, so the
        # largest-magnitude component of the normal stays positive
        forms = fundamental_forms(make_shape("graph", 2, coefficients=[1, -1]).patch([0.0, 0.0]))
        assert forms.normal.tolist() == [0.0, 0.0, 1.0]
        assert np.trace(forms.shape_operator) == 0.0
        assert forms.second.tolist() == [[1.0, 0.0], [0.0, -1.0]]

    def test_singular_patch_detected(self):
        # collapsed parametrization: value ignores u_2 entirely
        jac = np.zeros((3, 2))
        jac[0, 0] = 1.0
        jac[1, 0] = 1.0
        patch = PatchSample(point=np.zeros(2), value=np.zeros(3), jacobian=jac,
                            second=np.zeros((2, 2, 3)), source=PatchSource.ANALYTIC)
        with pytest.raises(SingularPatchError):
            fundamental_forms(patch)

    def test_sphere_near_pole_is_singular(self):
        shape = make_shape("sphere", n=3)
        with pytest.raises(SingularPatchError):
            principal_curvatures(shape.patch([0.5, 1e-12, 0.5]))


class TestNumpyOnly:
    # Graph of (u^2 + 3 v^2)/2 at (0.3, -0.2), where g != I: Gauss curvature
    # f_uu f_vv / W^4 and mean curvature
    # ((1 + f_v^2) f_uu + (1 + f_u^2) f_vv) / (2 W^3), with W^2 = 1 + |grad f|^2.
    CHILD = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now fails\n"
        "sys.modules['sympy'] = None  # and so does any sympy import\n"
        "from hypercurv import finite_difference_lift, make_shape, principal_curvatures\n"
        "for name, k, want in (('sphere', None, [2] * 4), ('cylinder', 2, [0, 0, 2, 2])):\n"
        "    shape = make_shape(name, 4, radius='1/2', k=k)\n"
        "    u = [0.3, 0.9, 1.1, 1.3]\n"
        "    a = sorted(principal_curvatures(shape.patch(u)).lambdas)\n"
        "    b = sorted(principal_curvatures(finite_difference_lift(shape, u)).lambdas)\n"
        "    assert max(abs(x - y) for x, y in zip(a, want)) <= 1e-8, (name, a)\n"
        "    assert max(abs(x - y) for x, y in zip(b, want)) <= 1e-5, (name, b)\n"
        "shape = make_shape('graph', 2, coefficients=(1, 3))\n"
        "fd = principal_curvatures(finite_difference_lift(shape, [0.3, -0.2])).lambdas\n"
        "print(*principal_curvatures(shape.patch([0.3, -0.2])).lambdas, *fd)\n"
    )

    def test_principal_curvatures_without_scipy(self):
        src = os.path.dirname(os.path.dirname(hypercurv.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", self.CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        k1, k2, fd1, fd2 = (float(v) for v in proc.stdout.split())
        assert (fd1, fd2) == pytest.approx((k1, k2), abs=1e-5)
        w2 = 1.0 + 0.3 ** 2 + 0.6 ** 2
        assert k1 * k2 == pytest.approx(3.0 / w2 ** 2, rel=1e-12)
        assert (k1 + k2) / 2 == pytest.approx(
            ((1 + 0.36) * 1.0 + (1 + 0.09) * 3.0) / (2 * w2 ** 1.5), rel=1e-12)


class TestSubprocessShape:
    CHILD = (
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    u = json.loads(line)\n"
        "    x = [u[0], u[1], (u[0]*u[0] + 3*u[1]*u[1]) / 2]\n"
        "    sys.stdout.write(json.dumps(x) + '\\n')\n"
        "    sys.stdout.flush()\n"
    )

    def test_round_trip_matches_builtin_graph(self):
        argv = [sys.executable, "-c", self.CHILD]
        with SubprocessShape(argv, n=2) as shape:
            fd = finite_difference_lift(shape, [0.0, 0.0])
        spec = principal_curvatures(fd)
        assert spec.lambdas == pytest.approx((1.0, 3.0), abs=1e-5)

    def test_stacked_call_matches_single_calls(self):
        argv = [sys.executable, "-c", self.CHILD]
        stack = np.array([[0.0, 0.0], [0.1, -0.2], [-0.0, 1.5]])
        with SubprocessShape(argv, n=2) as shape:
            rows = shape(stack)
            singles = [shape(u) for u in stack]
            assert shape(stack[:0]).shape == (0, 3)
        assert rows.shape == (3, 3)
        assert np.array_equal(rows, np.array(singles))

    def test_wrong_arity_from_child(self):
        argv = [sys.executable, "-c",
                "import sys\n"
                "for line in sys.stdin:\n"
                "    sys.stdout.write('[1.0, 2.0]\\n')\n"
                "    sys.stdout.flush()\n"]
        with pytest.raises(HypercurvError):
            with SubprocessShape(argv, n=2) as shape:
                shape([0.0, 0.0])

    def test_dimension_past_the_limit_starts_no_child(self, monkeypatch):
        started = []

        def popen(argv, **kwargs):
            started.append(argv)
            raise OSError("stub: no child")

        monkeypatch.setattr(subprocess, "Popen", popen)
        argv = [sys.executable, "-c", self.CHILD]
        # the limit itself reaches Popen, whose OSError is a tool error
        with pytest.raises(HypercurvError, match="could not start shape process"):
            SubprocessShape(argv, n=64)
        assert len(started) == 1
        for n in (65, 300, 10 ** 9, 1):
            with pytest.raises(DomainError, match=r"n in \[2, 64\], got n="):
                SubprocessShape(argv, n=n)
        assert len(started) == 1

    def test_dead_child_reported(self):
        argv = [sys.executable, "-c", "import sys; sys.exit(3)"]
        with pytest.raises(HypercurvError):
            with SubprocessShape(argv, n=2) as shape:
                shape([0.0, 0.0])
