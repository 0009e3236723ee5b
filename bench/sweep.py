#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 bench/sweep.py --workload case-scans --seeds 1-10
    python3 bench/sweep.py --seeds 1-10 --out bench/out/sweep.json   # every workload

Runs are sequential, one child process at a time.  For each workload and
end-to-end metric it prints the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (interquartile range
over the median) next to the metric's bound in ``BENCHMARK.json``.  Every
run's verdict digest is printed, so two sweeps can be compared seed by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next((line.rsplit(" ", 1)[-1] for line in lines
                             if "verdict digest" in line), "")
    result["wall_s"] = wall
    return result


def machine_info() -> dict:
    import numpy
    import scipy
    import sympy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
    }


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default every workload)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    parser.add_argument("--label", default="", help="free text stored with the summary")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"label": args.label, "machine": machine_info(), "run_seconds": seconds,
               "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(spec, workload, seed, seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={result['wall_s']:.1f}s "
                  f"digest={result['digest']}",
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = summarise(values) if len(values) >= 2 else {"values": values}
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            stats = metrics[name]
            if "spread" in stats:
                bound = bounds.get(name)
                print(f"  {name:45s} median {stats['median']:.6g} {stats['unit']}  "
                      f"spread {stats['spread']:.3f}" + (f"  bound {bound}" if bound else ""),
                      flush=True)
        summary["workloads"][workload] = {
            "seeds": parse_seeds(args.seeds),
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "digests": [r["digest"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
