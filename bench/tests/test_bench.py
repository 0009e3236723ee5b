"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

A tiny-size run of each workload must print every metric named in
``BENCHMARK.json`` with its unit, and every checker must count a
deliberately corrupted output as a failure.
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hypercurv import CurvatureSpectrum, Regime  # noqa: E402
from oracles import Tally  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    elif workload == "exact-sweep":
        # one spectrum of each n in 3..12 per pass, newton_eigenvalues for r in 0..n
        calls = result["metrics"]["spectrum.newton_eigenvalues.calls"]["value"]
        assert calls == sum(n + 1 for n in range(3, 13))


def test_grid_overrun_is_counted():
    custom = workloads.CustomScans(3, "tiny")
    counts = workloads.scan_counts(custom.scan_results(custom.run_pass(Tally())))
    assert counts["caseverify.grid_overrun_cells"] > 0


def test_case_checker_counts_a_wrong_witness():
    H = Fraction(3, 2)
    good = [0.0, 0.0, 3.0, 3.0]
    tally = Tally()
    oracles.check_case_verdict("thm1-lambda2", H, "WITNESS", good, tally)
    assert (tally.attempted, tally.failed) == (2, 0)
    oracles.check_case_verdict("thm1-lambda2", H, "WITNESS", [0.0, 0.0, 3.0, 3.0 + 1e-6], tally)
    oracles.check_case_verdict("thm1-claim", H, "WITNESS", good, tally)
    assert tally.failed == 2


def test_custom_checker_counts_a_wrong_witness():
    custom = workloads.CustomScans(3, "tiny")
    out = custom.run_pass(Tally())
    payload, verdict = next((p, v) for (p, _, _), v in zip(custom.jobs, out)
                            if v.status == "WITNESS")
    tally = Tally()
    oracles.check_custom_witness(payload, verdict.witness, tally)
    assert tally.failed == 0
    bent = list(verdict.witness)
    bent[-1] += 1e-4
    oracles.check_custom_witness(payload, bent, tally)
    assert tally.failed == 1


def test_exact_checker_counts_a_wrong_newton_eigenvalue():
    sweep = workloads.ExactSweep(3, "tiny")
    out = sweep.run_pass(Tally())
    tally = Tally()
    sweep.check(out, tally)
    assert tally.attempted > 0 and tally.failed == 0
    j = sweep.oracle_sample[0]
    rep, newton, bound, verdict = out[j]
    newton = [list(row) for row in newton]
    newton[1][0] += Fraction(1, 10 ** 9)
    out[j] = (rep, newton, bound, verdict)
    sweep.check(out, tally)
    assert tally.failed == 1


def test_patch_checker_counts_a_perturbed_lambda():
    field = workloads.PatchField(3, "tiny")
    out = field.run_pass(Tally())
    tally = Tally()
    field.check(out, tally)
    assert tally.failed == 0
    analytic, fd, verdict = out["points"][0]
    bent = CurvatureSpectrum([v + 1e-3 for v in analytic.lambdas], c=0.0, regime=Regime.FLOAT)
    out["points"][0] = (bent, fd, verdict)
    field.check(out, tally)
    # the closed form and the finite-difference comparison both catch it
    assert tally.failed == 2


class _Drifting:
    """A workload whose verdict changes on its second pass."""

    items_per_pass = 1

    def __init__(self):
        self.passes = 0

    def run_pass(self, tally, tick):
        self.passes += 1
        return self.passes

    def verdicts(self, out):
        return [{"pass": min(out, 2)}]

    def check(self, out, tally):
        pass


def test_flipped_digest_is_a_failure():
    tally = Tally()
    run.run_loop(_Drifting(), 0, tally)
    assert tally.failed == 1


def test_digest_rejects_nan():
    with pytest.raises(ValueError):
        oracles.digest([{"residual": float("nan")}])


def test_refuses_to_run_without_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench" / path.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact-sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
