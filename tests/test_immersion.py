import json
import math
import os
import subprocess
import sys

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

    def test_fd_step_validation(self):
        shape = make_shape("sphere", n=3)
        for h in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                finite_difference_lift(shape, [0.5, 0.5, 0.5], h=h)
        with pytest.raises(DomainError):
            finite_difference_lift(shape, [])

    def test_fd_rejects_wrong_arity(self):
        def bad(u):
            return [1.0, 2.0]  # not n + 1 coordinates

        with pytest.raises(DomainError):
            finite_difference_lift(bad, [0.1, 0.2])


class TestOrientationAndSingularity:
    def test_mean_curvature_nonnegative_convention(self):
        for name, kwargs in (("sphere", {}), ("cylinder", {"k": 2}),
                             ("graph", {"coefficients": [-1, -2, -3, -4]})):
            shape = make_shape(name, n=4, **kwargs)
            pt = default_point(name, 4, k=kwargs.get("k"))
            rep = invariants(principal_curvatures(shape.patch(list(pt))))
            assert rep.H >= 0

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
        "from hypercurv import make_shape, principal_curvatures\n"
        "shape = make_shape('graph', 2, coefficients=(1, 3))\n"
        "print(*principal_curvatures(shape.patch([0.3, -0.2])).lambdas)\n"
    )

    def test_principal_curvatures_without_scipy(self):
        src = os.path.dirname(os.path.dirname(hypercurv.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", self.CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        k1, k2 = (float(v) for v in proc.stdout.split())
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

    def test_wrong_arity_from_child(self):
        argv = [sys.executable, "-c",
                "import sys\n"
                "for line in sys.stdin:\n"
                "    sys.stdout.write('[1.0, 2.0]\\n')\n"
                "    sys.stdout.flush()\n"]
        with pytest.raises(HypercurvError):
            with SubprocessShape(argv, n=2) as shape:
                shape([0.0, 0.0])

    def test_dead_child_reported(self):
        argv = [sys.executable, "-c", "import sys; sys.exit(3)"]
        with pytest.raises(HypercurvError):
            with SubprocessShape(argv, n=2) as shape:
                shape([0.0, 0.0])
