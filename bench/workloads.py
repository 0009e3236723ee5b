"""The four benchmark workloads.

Each workload generates its inputs from a seed when it is built (that is the
set-up the benchmark times), then runs identical passes over them.  A pass
calls only public functions of ``hypercurv``, through module attributes so
the tracer can wrap them, calls ``tick`` between units of work so the
benchmark can time its reference kernel there, and returns its outputs; ``verdicts`` turns the
outputs into JSON for the determinism digest, ``check`` runs the
independent oracles on them outside the timed region, and ``scan_results``
hands the scan verdicts to ``scan_counts`` for the per-layer counts.

Sizes: ``full`` is what the benchmark measures; ``tiny`` is a seconds-long
version of the same work used by the tests.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict

from hypercurv import caseverify, cylinders, immersion, simons, spectrum

import oracles
from oracles import Tally

SIZES = {
    "full": {
        "exact_per_n": 20,
        "exact_oracle_sample": 10,
        "case_grid": 1_000_000,
        "case_budget": {},
        "cert_count": 1000,
        "custom_systems": 5,
        "custom_budget": {},
        "patch_points": 8,
        "patch_shapes": "all",
    },
    "tiny": {
        "exact_per_n": 1,
        "exact_oracle_sample": 2,
        "case_grid": 20_000,
        "case_budget": {"polish_starts": 16, "polish_rounds": 8},
        "cert_count": 50,
        "custom_systems": 2,
        "custom_budget": {"polish_starts": 4, "polish_rounds": 2},
        "patch_points": 2,
        "patch_shapes": "few",
    },
}


def _no_tick() -> None:
    pass


def _rational(rng: random.Random, bound: int = 50) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


class ExactSweep:
    """EXACT spectra through every identity of ``spectrum``, ``simons`` and ``cylinders``."""

    name = "exact-sweep"
    label = "spectra"

    def __init__(self, seed: int, size: str = "full"):
        cfg = SIZES[size]
        rng = random.Random(seed)
        self.items = []
        # n is uniform in 3..12; drawing the same count of each n keeps the
        # mix of sizes, and so the cost of a pass, the same for every seed.
        for n in list(range(3, 13)) * cfg["exact_per_n"]:
            lam = [_rational(rng) for _ in range(n)]
            while sum(lam) == 0:  # classify needs H != 0
                lam = [_rational(rng) for _ in range(n)]
            spec = spectrum.CurvatureSpectrum(lam, _rational(rng))
            grad = abs(_rational(rng))
            hess = tuple(_rational(rng) for _ in range(n))
            self.items.append((spec, rng.randint(1, n), rng.randint(1, n), grad, hess))
        rng.shuffle(self.items)
        self.oracle_sample = sorted(rng.sample(range(len(self.items)), cfg["exact_oracle_sample"]))

    @property
    def items_per_pass(self) -> int:
        return len(self.items)

    def run_pass(self, tally: Tally, tick=_no_tick) -> list:
        out = []
        for spec, r, i, grad, hess in self.items:
            tick()
            n, c, lam = spec.n, spec.c, spec.lambdas
            rep = spectrum.invariants(spec)
            H = rep.H
            tally.check(n * n * H * H == rep.norm_a2 + n * (n - 1) * (rep.R - c), "n^2H^2 identity")
            tally.check(rep.norm_phi2 == rep.norm_a2 - n * H * H, "|phi|^2 identity")
            tally.check(rep.tr_a3 == rep.tr_phi3 + 3 * H * rep.norm_phi2 + n * H ** 3, "trA^3 identity")
            newton = [spectrum.newton_eigenvalues(spec, rr) for rr in range(n + 1)]
            tally.check(all(sum(v * p for v, p in zip(lam, newton[rr])) == (rr + 1) * rep.S[rr + 1]
                            for rr in range(n)), "Newton trace identity")
            tally.check(all(p == 0 for p in newton[n]), "P_n = 0")
            lhs, rhs = spectrum.tr_a3_sides(spec)
            tally.check(lhs == rhs, "trA^3 sides")
            tally.check(spectrum.sigma_recursion_residual(lam, r, i) == 0, "sigma recursion")
            bound = spectrum.okumura_bound(rep.mu)
            tally.check(bound.holds and bound.sum3 == rep.tr_phi3
                        and bound.beta_squared == rep.norm_phi2, "Okumura bound")
            data = simons.SimonsPointData.with_gauss_curvatures(spec, grad, hess)
            tally.check(simons.simons_rhs_general(data)
                        == simons.simons_rhs_space_form(spec, grad, hess), "Simons forms")
            verdict = cylinders.classify(n, H, rep.R)
            tally.check(verdict.ratio == rep.R / (H * H), "classify ratio")
            out.append((rep, newton, bound, verdict))
        return out

    def verdicts(self, out: list) -> list:
        return [{
            "invariants": rep.to_json_dict(),
            "newton": [[str(p) for p in row] for row in newton],
            "okumura": bound.to_json_dict(),
            "classify": verdict.to_json_dict(),
        } for rep, newton, bound, verdict in out]

    def check(self, out: list, tally: Tally) -> None:
        for j in self.oracle_sample:
            spec = self.items[j][0]
            rep, newton = out[j][0], out[j][1]
            oracles.check_exact_spectrum(spec.lambdas, rep.S, newton, tally)

    def scan_results(self, out: list) -> list:
        return []


class CaseScans:
    """The five built-in cases at a million grid cells, plus the three certificates."""

    name = "case-scans"
    label = "scans and certificates"

    def __init__(self, seed: int, size: str = "full"):
        cfg = SIZES[size]
        rng = random.Random(seed)
        # A positive rational mean curvature in [1/2, 2]; far larger or
        # smaller scales push the absolute witness tolerance around.
        H = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        while not Fraction(1, 2) <= H <= 2:
            H = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        self.H = H
        self.scan_seed = rng.randint(0, 2 ** 31 - 1)
        self.budget = caseverify.ScanBudget(grid_points=cfg["case_grid"], **cfg["case_budget"])
        self.cert_count = cfg["cert_count"]
        self.systems = {name: caseverify.builtin_case(name, H=H) for name in caseverify.BUILTIN_CASES}
        self.certified = [name for name in caseverify.BUILTIN_CASES
                          if caseverify.has_certificate(self.systems[name])]

    def run_pass(self, tally: Tally, tick=_no_tick) -> dict:
        scans, certs = {}, {}
        for name, system in self.systems.items():
            tick()
            scans[name] = caseverify.scan(system, budget=self.budget, seed=self.scan_seed)
        for name in self.certified:
            tick()
            certs[name] = caseverify.certificate_check(self.systems[name], seed=self.scan_seed,
                                                       count=self.cert_count)
        return {"scans": scans, "certificates": certs}

    @property
    def items_per_pass(self) -> int:
        return len(self.systems) + len(self.certified)

    def verdicts(self, out: dict) -> list:
        return ([{"case": name, "verdict": v.to_json_dict()} for name, v in out["scans"].items()]
                + [r.to_json_dict() for r in out["certificates"].values()])

    def check(self, out: dict, tally: Tally) -> None:
        for name, verdict in out["scans"].items():
            oracles.check_case_verdict(name, self.H, verdict.status, verdict.witness, tally)
        for name, report in out["certificates"].items():
            tally.check(report.passed and report.samples == self.cert_count,
                        f"{name}: certificate failed ({report.detail}, {report.samples} samples)")

    def scan_results(self, out: dict) -> list:
        return [(v, self.budget.grid_points) for v in out["scans"].values()]


def scan_counts(results: list) -> Dict[str, float]:
    """Per-layer counts read off ``FeasibilityVerdict.stats``.

    ``results`` pairs each verdict with the grid budget it was scanned at;
    a workload that scans nothing gets no counts.
    """
    if not results:
        return {}
    verdicts = [v for v, _ in results]
    grid_points = [g for _, g in results]
    witnesses = [v for v in verdicts if v.status == "WITNESS"]
    misses = [v for v in verdicts if v.status != "WITNESS"]
    cells = [int(v.stats.get("gridCells", 0)) for v in verdicts]
    return {
        "caseverify.grid_cells": sum(cells) / len(verdicts),
        "caseverify.coarse_starts": sum(int(v.stats.get("coarseStarts", 0)) for v in verdicts) / len(verdicts),
        "caseverify.snapped_exact_share": (sum(bool(v.stats.get("snappedExact")) for v in witnesses)
                                           / len(witnesses)) if witnesses else 0.0,
        "caseverify.no_witness_residual": max((v.residual for v in misses), default=0.0),
        "caseverify.grid_overrun_cells": sum(max(0, c - g) for c, g in zip(cells, grid_points)),
        "caseverify.witness_share": len(witnesses) / len(verdicts),
    }


def _custom_payload(rng: random.Random, name: str, free: int, pinned: int, extras: int) -> dict:
    """A FLOAT system built around a planted sorted point, so it is feasible.

    The point is a block of negatives, a block of zeros and a block of
    positives; ``pinned`` of the zeros are fixed, leaving ``free``
    coordinates, and every sign and sigma_r constraint holds at the point.
    """
    n = free + pinned
    zeros = pinned + rng.randint(0, 1)
    negatives = rng.randint(0, n - zeros - 1)
    positives = n - zeros - negatives
    x = (sorted(-rng.uniform(0.2, 3.0) for _ in range(negatives)) + [0.0] * zeros
         + sorted(rng.uniform(0.2, 3.0) for _ in range(positives)))
    zero_block = list(range(negatives + 1, negatives + zeros + 1))
    fixed = sorted(rng.sample(zero_block, pinned))
    h = sum(x) / n
    loose = [idx for idx in range(1, n + 1) if idx not in fixed]
    signs = []
    for idx in sorted(rng.sample(loose, len(loose) // 2)):
        v = x[idx - 1]
        if idx == n and v >= h and rng.random() < 0.5:
            signs.append({"index": idx, "relation": ">=H"})
        elif v < 0:
            signs.append({"index": idx, "relation": rng.choice(("<=0", "<0"))})
        elif v > 0:
            signs.append({"index": idx, "relation": rng.choice((">=0", ">0"))})
        else:
            signs.append({"index": idx, "relation": rng.choice((">=0", "<=0"))})
    extra = []
    for r in sorted(rng.sample(range(3, n + 1), extras)):
        extra.append({"r": r, "relation": ">=0" if oracles.sigma_subsets(x, r) >= 0 else "<=0"})
    return {
        "name": name,
        "n": n,
        "regime": "float",
        "traceTarget": math.fsum(x),
        "sigma2Target": oracles.sigma_subsets(x, 2),
        "fixedZeros": fixed,
        "ordering": True,
        "signConstraints": signs,
        "extraSymmetric": extra,
    }


class CustomScans:
    """Seeded FLOAT constraint systems at small grids, where descent and polish dominate."""

    name = "custom-scans"
    label = "system scans"
    # (free coordinates, pinned zeros, grid_points) of each system, in
    # order.  The grid floor of two points per axis makes the first one
    # overrun its 500-cell budget: 2^9 = 512 cells.
    SYSTEMS = ((9, 1, 500), (3, 2, 5_000), (4, 1, 20_000), (4, 2, 5_000), (5, 1, 20_000))

    def __init__(self, seed: int, size: str = "full"):
        cfg = SIZES[size]
        rng = random.Random(seed)
        self.scan_seed = rng.randint(0, 2 ** 31 - 1)
        self.jobs = []
        # The sizes and the number of sigma_r constraints are fixed, so every
        # seed scans the same mix of problem sizes; only the constraints and
        # targets are drawn.
        for j, (free, pinned, grid) in enumerate(self.SYSTEMS[:cfg["custom_systems"]]):
            payload = _custom_payload(rng, f"custom-{j}", free, pinned, 1 + j % 2)
            system = caseverify.ConstraintSystem.from_json_dict(payload)
            budget = caseverify.ScanBudget(grid_points=grid, **cfg["custom_budget"])
            self.jobs.append((payload, system, budget))

    @property
    def items_per_pass(self) -> int:
        return len(self.jobs)

    def run_pass(self, tally: Tally, tick=_no_tick) -> list:
        out = []
        for _, system, budget in self.jobs:
            tick()
            out.append(caseverify.scan(system, budget=budget, seed=self.scan_seed))
        return out

    def verdicts(self, out: list) -> list:
        return [{"system": payload, "verdict": v.to_json_dict()}
                for (payload, _, _), v in zip(self.jobs, out)]

    def check(self, out: list, tally: Tally) -> None:
        for (payload, _, _), verdict in zip(self.jobs, out):
            if verdict.status == "WITNESS":
                oracles.check_custom_witness(payload, verdict.witness, tally)

    def scan_results(self, out: list) -> list:
        return [(v, budget.grid_points) for (_, _, budget), v in zip(self.jobs, out)]


class PatchField:
    """Registry shapes evaluated analytically and by finite differences."""

    name = "patch-field"
    label = "parameter points"

    def __init__(self, seed: int, size: str = "full"):
        cfg = SIZES[size]
        rng = random.Random(seed)
        if cfg["patch_shapes"] == "all":
            specs = ([("sphere", n, None) for n in range(3, 7)]
                     + [("cylinder", n, k) for n in range(4, 7) for k in range(1, n)]
                     + [("graph", n, None) for n in range(3, 6)])
        else:
            specs = [("sphere", 3, None), ("cylinder", 4, 2), ("graph", 3, None)]
        self.shapes = []
        for kind, n, k in specs:
            radius = Fraction(rng.randint(2, 8), rng.randint(2, 8))
            coeffs = ()
            if kind == "graph":
                coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(2, 6))
                          for _ in range(n)]
                while sum(coeffs) == 0:
                    coeffs[0] += 1
            shape = immersion.make_shape(kind, n, radius=radius, k=k,
                                         coefficients=coeffs or None)
            points = [self._point(rng, kind, n, k) for _ in range(cfg["patch_points"])]
            if kind == "graph":
                points[0] = (0.0,) * n
            self.shapes.append((kind, n, k, radius, coeffs, shape, points))

    @staticmethod
    def _point(rng: random.Random, kind: str, n: int, k) -> tuple:
        # Angles stay in [0.4, pi - 0.4], away from the poles of spherical
        # coordinates; graph points stay near the origin.
        if kind == "graph":
            return tuple(rng.uniform(-0.5, 0.5) for _ in range(n))
        angles = n if kind == "sphere" else k
        flat = tuple(rng.uniform(-2.0, 2.0) for _ in range(n - angles))
        return flat + tuple(rng.uniform(0.4, math.pi - 0.4) for _ in range(angles))

    @property
    def items_per_pass(self) -> int:
        return sum(len(points) for *_, points in self.shapes)

    def run_pass(self, tally: Tally, tick=_no_tick) -> dict:
        points, values = [], []
        for kind, n, k, _, _, shape, pts in self.shapes:
            for u in pts:
                tick()
                analytic = immersion.principal_curvatures(shape.patch(u))
                fd = immersion.principal_curvatures(immersion.finite_difference_lift(shape, u))
                verdict = None
                if kind == "cylinder":
                    rep = spectrum.invariants(analytic)
                    verdict = cylinders.classify(n, rep.H, rep.R, tol=1e-6)
                points.append((analytic, fd, verdict))
                values.extend(analytic.lambdas)
        return {"points": points, "pct": caseverify.pct_sets(values)}

    def verdicts(self, out: dict) -> list:
        return ([{"analytic": list(a.lambdas), "fd": list(f.lambdas),
                  "classify": v.to_json_dict() if v else None} for a, f, v in out["points"]]
                + [out["pct"].to_json_dict()])

    def check(self, out: dict, tally: Tally) -> None:
        results = iter(out["points"])
        for kind, n, k, radius, coeffs, _, pts in self.shapes:
            for u in pts:
                analytic, fd, verdict = next(results)
                label = f"{kind} n={n} k={k} r={radius} at {u}"
                if kind != "graph" or not any(u):
                    want = oracles.analytic_lambdas(kind, n, float(radius), k or 0, coeffs)
                    tally.check(oracles.max_gap(analytic.lambdas, want) <= 1e-8,
                                f"{label}: analytic {analytic.lambdas} vs {want}")
                tally.check(oracles.max_gap(fd.lambdas, analytic.lambdas) <= 1e-5,
                            f"{label}: finite differences {fd.lambdas} vs {analytic.lambdas}")
                if kind == "cylinder":
                    tally.check(verdict.on_ladder and verdict.k == k,
                                f"{label}: classified as k={verdict.k}")

    def scan_results(self, out: dict) -> list:
        return []


WORKLOADS = {cls.name: cls for cls in (ExactSweep, CaseScans, CustomScans, PatchField)}

