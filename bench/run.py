#!/usr/bin/env python3
"""Benchmark of hypercurv: one workload, one seed, one run.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (a fresh interpreter importing ``hypercurv`` and generating the
inputs) is timed in child processes.  The main loop is closed: one
process, one client, passes over the same inputs back to back until they
add up to ``--seconds``, and at least two of them.  About once a second
the pass clock pauses for a reference kernel that tracks the host's speed
(``calibration.py``).  Outputs are checked outside the timed region.  The
last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (output checks) and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The traced run alternates untraced and traced passes, so
its tracing overhead compares like with like, and it writes its spans to
``bench/out/``.  See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
CLI_REPEATS = 3
CHILD_TIMEOUT_S = 120

PER_CALL_US = (
    "spectrum.newton_eigenvalues", "spectrum.invariants", "spectrum.sigma_all",
    "spectrum.okumura_bound", "spectrum.tr_a3_sides", "spectrum.sigma_recursion_residual",
    "simons.with_gauss_curvatures", "simons.simons_rhs_general",
    "simons.simons_rhs_space_form", "cylinders.classify",
    "caseverify.closed_form_contradiction", "immersion.SymbolicShape.patch",
    "immersion.finite_difference_lift", "immersion.fundamental_forms",
    "immersion.principal_curvatures",
)
PER_CALL_S = (
    "caseverify.scan", "caseverify.certificate_check", "caseverify.certificate_samples",
    "immersion.make_shape",
)
CALLS_PER_PASS = (
    "spectrum.newton_eigenvalues", "caseverify.max_violation",
    "caseverify.constraint_violations",
)
COUNT_UNITS = {
    "caseverify.grid_cells": "count",
    "caseverify.coarse_starts": "count",
    "caseverify.snapped_exact_share": "ratio",
    "caseverify.no_witness_residual": "residual",
    "caseverify.grid_overrun_cells": "count",
    "caseverify.witness_share": "ratio",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _timed_child(argv, tally, label):
    """Wall time of a child interpreter run to completion, and its stdout."""
    start = perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.check(False, f"{label}: timed out")
        return None, ""
    elapsed = perf_counter() - start
    if not tally.check(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}"):
        return None, ""
    return elapsed, proc.stdout


def measure_setup(args, tally) -> float:
    """Median wall time of fresh interpreters that import and generate the inputs."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    times = [t for t, _ in (_timed_child(argv, tally, "set-up probe") for _ in range(SETUP_REPEATS))
             if t is not None]
    return statistics.median(times) if times else 0.0


def measure_cli(tally) -> dict:
    """Import time of ``hypercurv.cli`` and wall time of one cold CLI invocation."""
    import_argv = [sys.executable, "-c",
                   "import time; t = time.perf_counter(); import hypercurv.cli; "
                   "print(time.perf_counter() - t)"]
    cold_argv = [sys.executable, "-c",
                 "import sys; from hypercurv.cli import main; "
                 "sys.argv = ['hypercurv', 'invariants', '--lambdas', '0,0,2,2']; main()"]
    imports, colds = [], []
    for _ in range(CLI_REPEATS):
        _, out = _timed_child(import_argv, tally, "cli import")
        if out:
            imports.append(float(out.strip()))
        elapsed, out = _timed_child(cold_argv, tally, "cli cold start")
        if elapsed is not None:
            colds.append(elapsed)
            try:
                report = json.loads(out)
                ok = report["report"]["H"] == "1/1" and report["report"]["R"] == "2/3"
            except (json.JSONDecodeError, KeyError, TypeError):
                ok = False
            tally.check(ok, f"cli invariants on 0,0,2,2 printed {out[:200]!r}")
    return {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.cold_start_s": statistics.median(colds) if colds else 0.0,
    }


def run_loop(workload, seconds, tally, tracer=None):
    """Closed loop of identical passes until ``seconds`` of them, and at least two.

    Returns ``(passes, digest, first outputs)``; each pass is
    ``(seconds, seconds scaled to the nominal host speed, traced)``.  With a
    tracer, every other pass is traced.
    """
    import calibration
    import oracles

    clock = calibration.Clock()
    passes, digests, first = [], [], None
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        with tracer.installed("main") if traced else nullcontext():
            clock.start()
            out = workload.run_pass(tally, clock.tick)
            elapsed, scaled = clock.stop()
        passes.append((elapsed, scaled, traced))
        try:
            digests.append(oracles.digest(workload.verdicts(out)))
        except ValueError as exc:
            tally.check(False, f"a verdict is not finite JSON: {exc}")
        if first is None:
            first = out
            workload.check(out, tally)
        if len(passes) >= 2 and sum(t for t, _, _ in passes) >= seconds:
            break
    tally.check(len(set(digests)) == 1, f"verdict digests differ between passes: {sorted(set(digests))}")
    return passes, digests[0] if digests else "", first


def end_to_end_metrics(workload, passes, setup_s) -> dict:
    """End-to-end metrics; throughput is scaled to the nominal host speed (see calibration.py)."""
    raw = workload.items_per_pass / statistics.median(t for t, _, traced in passes if not traced)
    scaled = workload.items_per_pass / statistics.median(s for _, s, traced in passes if not traced)
    print(f"{raw:.6g} items/s as timed, {scaled:.6g} items/s at the nominal host speed")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "items_per_s": {"value": scaled, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def per_layer_metrics(tracer, passes, counts, cli) -> tuple:
    """Per-layer metrics from the traced passes, or from the traced set-up for a
    layer only set-up calls; a layer neither calls reads 0."""
    totals = tracer.layer_totals()
    phase_passes = {"main": sum(1 for _, _, traced in passes if traced), "setup": 1}
    sources = {}

    def pick(layer):
        for phase in ("main", "setup"):
            entry = totals.get(phase, {}).get(layer)
            if entry and entry[0]:
                sources[layer] = phase
                return phase, entry
        sources[layer] = "none"
        return "none", [0, 0.0]

    metrics = {}
    for layer in PER_CALL_US:
        _, (calls, own) = pick(layer)
        metrics[f"{layer}.self_us"] = {"value": 1e6 * own / calls if calls else 0.0, "unit": "us"}
    for layer in PER_CALL_S:
        _, (calls, own) = pick(layer)
        metrics[f"{layer}.self_s"] = {"value": own / calls if calls else 0.0, "unit": "s"}
    for layer in CALLS_PER_PASS:
        phase, (calls, _) = pick(layer)
        per = phase_passes.get(phase, 0)
        metrics[f"{layer}.calls"] = {"value": calls / per if per else 0.0, "unit": "count"}
    phase, (callbacks, _) = pick("immersion.fd_callbacks")
    lifts = totals.get(phase, {}).get("immersion.finite_difference_lift", [0, 0.0])[0]
    metrics["immersion.fd_callbacks.calls"] = {"value": callbacks / lifts if lifts else 0.0,
                                               "unit": "count"}
    for name, unit in COUNT_UNITS.items():
        metrics[name] = {"value": counts.get(name, 0.0), "unit": unit}
    for name, value in cli.items():
        metrics[name] = {"value": value, "unit": "s"}
    # Scaled pass times, so that a change in host speed between the traced
    # and the untraced passes does not read as tracing overhead.
    untraced = [s for _, s, traced in passes if not traced]
    traced = [s for _, s, traced in passes if traced]
    metrics["tracing.overhead_share"] = {
        "value": statistics.median(traced) / statistics.median(untraced) - 1.0, "unit": "ratio"}
    unused = sorted(layer for layer, phase in sources.items() if phase != "main")
    return metrics, unused


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same work at test size")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hypercurv" / "__init__.py").is_file():
        print(f"bench: no hypercurv sources at {SRC}; run the benchmark from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hypercurv

    if Path(hypercurv.__file__).resolve().parent != (SRC / "hypercurv").resolve():
        print(f"bench: imported hypercurv from {hypercurv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from oracles import Tally

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed, args.size)
        return 0

    tally = Tally()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    with tracer.installed("setup") if tracer else nullcontext():
        workload = make(args.seed, args.size)
    passes, digest, first = run_loop(workload, args.seconds, tally, tracer)
    scans = workload.scan_results(first)
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(passes)} passes of {workload.items_per_pass} {workload.label}, "
          f"verdict digest {digest}")

    if not args.trace:
        metrics = end_to_end_metrics(workload, passes, measure_setup(args, tally))
    else:
        metrics, unused = per_layer_metrics(tracer, passes, workloads.scan_counts(scans),
                                            measure_cli(tally))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        if unused:
            print("layers the traced passes do not call, read from set-up or reported "
                  f"as 0: {', '.join(unused)}")

    for message in tally.messages:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
