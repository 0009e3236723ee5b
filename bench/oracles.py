"""Independent output checks for the benchmark.

Nothing here calls into ``hypercurv``: every expected value is recomputed
from first principles (subset enumeration, the benchmark's own witness
table, closed-form curvatures of the registry shapes), so a defect in the
library cannot hide behind a shared helper.  Each check returns the number
of failures it found, so the caller can count them against the number of
checks attempted.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple

STRICT_MARGIN = 1e-6  # strict sign constraints are met at this margin
WITNESS_TOL = 1e-8


class Tally:
    """Checks attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(label)
        return ok


def sigma_subsets(values: Sequence, r: int):
    """sigma_r by explicit subset enumeration (sigma_0 = 1)."""
    if r == 0:
        return 1
    return sum(math.prod(c) for c in itertools.combinations(values, r))


def check_exact_spectrum(lambdas: Sequence[Fraction], S: Sequence[Fraction],
                         newton: Sequence[Sequence[Fraction]], tally: Tally) -> None:
    """sigma_r and p_{r,i} = sigma_r(lambda without i) against subset enumeration."""
    n = len(lambdas)
    tally.check(all(S[r] == sigma_subsets(lambdas, r) for r in range(n + 1)),
                f"sigma_all differs from subset enumeration for {list(map(str, lambdas))}")
    for i in range(n):
        rest = list(lambdas[:i]) + list(lambdas[i + 1:])
        ok = all(newton[r][i] == sigma_subsets(rest, r) for r in range(n + 1))
        tally.check(ok, f"p_(r,{i + 1}) differs from sigma_r(lambda without {i + 1}) "
                        f"for {list(map(str, lambdas))}")


def expected_case_outcome(name: str, H: Fraction) -> Tuple[str, Optional[Tuple[Fraction, ...]]]:
    """The benchmark's own witness table for the built-in cases at their default R."""
    zero = Fraction(0)
    table = {
        "thm1-claim": None,
        "thm2-claim": None,
        "thm1-lambda2": (zero, zero, 2 * H, 2 * H),
        "thm2-lambda3": (zero, zero, zero, 5 * H / 2, 5 * H / 2),
        "thm2-lambda2": (zero, zero, 5 * H / 3, 5 * H / 3, 5 * H / 3),
    }
    witness = table[name]
    return ("NO_WITNESS" if witness is None else "WITNESS"), witness


def check_case_verdict(name: str, H: Fraction, status: str,
                       witness: Optional[Sequence[float]], tally: Tally) -> None:
    want_status, want = expected_case_outcome(name, H)
    if not tally.check(status == want_status, f"{name}: status {status}, expected {want_status}"):
        return
    if want is not None:
        ok = witness is not None and len(witness) == len(want) and max(
            abs(float(a) - float(b)) for a, b in zip(witness, want)) <= WITNESS_TOL
        tally.check(ok, f"{name}: witness {witness} is not within {WITNESS_TOL} of "
                        f"{[str(v) for v in want]}")


def system_violation(payload: Mapping, point: Sequence[float]) -> float:
    """Largest constraint violation of ``point`` for a system JSON payload.

    A plain re-reading of the payload, written against the documented
    semantics rather than the library's evaluator.
    """
    x = [float(v) for v in point]
    n = int(payload["n"])
    if len(x) != n:
        return math.inf
    trace = float(payload["traceTarget"])
    sigma2 = float(payload["sigma2Target"])
    worst = [abs(sum(x) - trace), abs(sigma_subsets(x, 2) - sigma2)]
    worst += [abs(x[i - 1]) for i in payload.get("fixedZeros", ())]
    if payload.get("ordering", True):
        worst += [x[i] - x[i + 1] for i in range(n - 1)]
    h = trace / n
    for sc in payload.get("signConstraints", ()):
        v = x[int(sc["index"]) - 1]
        worst.append({
            ">=0": -v,
            "<=0": v,
            ">0": STRICT_MARGIN - v,
            "<0": v + STRICT_MARGIN,
            ">=H": h - v,
        }[sc["relation"]])
    for ex in payload.get("extraSymmetric", ()):
        s = sigma_subsets(x, int(ex["r"]))
        worst.append(-s if ex["relation"] == ">=0" else s)
    return max(0.0, *worst)


def check_custom_witness(payload: Mapping, witness: Sequence[float], tally: Tally) -> None:
    residual = system_violation(payload, witness)
    tally.check(residual <= WITNESS_TOL,
                f"{payload.get('name')}: witness violates the system by {residual:.3e}")


def analytic_lambdas(kind: str, n: int, radius: float = 1.0, k: int = 0,
                     coefficients: Sequence[float] = ()) -> Tuple[float, ...]:
    """Closed-form principal curvatures, sorted, with the H >= 0 orientation.

    Sphere of radius r: n copies of 1/r.  Cylinder R^{n-k} x S^k(r): n - k
    zeros and k copies of 1/r.  Graph of (1/2) sum c_i u_i^2 at the origin:
    the c_i, negated when their sum is negative.
    """
    if kind == "sphere":
        return (1.0 / radius,) * n
    if kind == "cylinder":
        return (0.0,) * (n - k) + (1.0 / radius,) * k
    sign = 1.0 if math.fsum(coefficients) >= 0 else -1.0
    return tuple(sorted(sign * float(c) for c in coefficients))


def max_gap(a: Iterable[float], b: Iterable[float]) -> float:
    a, b = list(a), list(b)
    if len(a) != len(b):
        return math.inf
    return max(abs(x - y) for x, y in zip(a, b))


def digest(verdicts: Iterable) -> str:
    """SHA-256 over the canonical JSON of each verdict, in order.

    Raises ``ValueError`` if a verdict carries NaN or infinity.
    """
    h = hashlib.sha256()
    for verdict in verdicts:
        h.update(json.dumps(verdict, sort_keys=True, allow_nan=False).encode())
        h.update(b"\n")
    return h.hexdigest()
