"""A fixed reference kernel that tracks how fast the host is running.

On a shared host the same pass can run 30 % faster or slower from one
minute to the next, because other tenants come and go.  The benchmark
times this kernel, which uses no ``hypercurv`` code, about once a second
while it measures, and scales each stretch of work by the ratio of
``NOMINAL_S`` to the kernel's time around it: a change to ``hypercurv``
moves the work and not the kernel, while a change in host speed moves
both.  The kernel mixes the two kinds of work the workloads do:
interpreter-bound ``Fraction`` arithmetic and wide numpy array arithmetic.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# Median kernel time on the machine bench/results/baseline.json was
# recorded on; it only sets the scale of the normalised figures.
NOMINAL_S = 0.032
# Seconds of work between two timings of the kernel, and kernel runs per timing.
INTERVAL_S = 1.0
REPEATS = 3

_FRACTIONS = [Fraction(i * 7919 % 9973 - 4986, i * 31 % 97 + 1) for i in range(1, 90)]
_ROWS = np.linspace(-1.0, 1.0, 65536 * 4).reshape(-1, 4)


def _kernel() -> None:
    acc = Fraction(0)
    for a in _FRACTIONS:
        for b in _FRACTIONS[:30]:
            acc += a * b
    x = np.empty_like(_ROWS)
    for _ in range(8):
        np.multiply(_ROWS, _ROWS, out=x)
        x -= 0.25
        np.maximum(x, 0.0, out=x)
        x.sum(axis=1)


def reference_seconds() -> float:
    """Median wall time of ``REPEATS`` runs of the kernel."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Times one pass at a time, pausing for the reference kernel between units of work.

    A workload calls ``tick`` between units (a spectrum, a scan, a point).
    Once a second has gone by since the last kernel run, ``tick`` closes the
    current stretch and times the kernel, outside the pass's time.
    """

    def __init__(self):
        self.reference = reference_seconds()
        self._stretch_start = 0.0
        self._stretches = []  # (seconds, kernel seconds at start, kernel seconds at end)

    def start(self) -> None:
        self._stretches = []
        self._stretch_start = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self._stretch_start >= INTERVAL_S:
            self._close()

    def _close(self) -> None:
        elapsed = perf_counter() - self._stretch_start
        before = self.reference
        self.reference = reference_seconds()
        self._stretches.append((elapsed, before, self.reference))
        self._stretch_start = perf_counter()

    def stop(self):
        """``(seconds, seconds scaled to the nominal host speed)`` of the pass."""
        self._close()
        seconds = sum(t for t, _, _ in self._stretches)
        scaled = sum(t * NOMINAL_S * 2 / (before + after) for t, before, after in self._stretches)
        return seconds, scaled
