"""Spans around the public functions of ``hypercurv``, recorded from outside.

The tracer replaces module attributes (and a few class attributes) with
wrappers while it is installed.  Each call records a span: layer name,
start, end, parent span and the phase of the run (set-up or main loop).
Spans stay in memory until the run ends.  A span's self time is
its duration minus the durations of its child spans, which nest inside it
because the benchmark runs one thread.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Tuple

from hypercurv import caseverify, cylinders, immersion, simons, spectrum

# (span name, owner, attribute).  Span names are the layer names of the
# per-layer metrics; ``fd_callbacks`` are the embedding evaluations that
# ``finite_difference_lift`` makes through ``SymbolicShape.__call__``.
TARGETS: Tuple[Tuple[str, object, str], ...] = (
    ("spectrum.newton_eigenvalues", spectrum, "newton_eigenvalues"),
    ("spectrum.invariants", spectrum, "invariants"),
    ("spectrum.sigma_all", spectrum, "sigma_all"),
    ("spectrum.okumura_bound", spectrum, "okumura_bound"),
    ("spectrum.tr_a3_sides", spectrum, "tr_a3_sides"),
    ("spectrum.sigma_recursion_residual", spectrum, "sigma_recursion_residual"),
    ("simons.with_gauss_curvatures", simons.SimonsPointData, "with_gauss_curvatures"),
    ("simons.simons_rhs_general", simons, "simons_rhs_general"),
    ("simons.simons_rhs_space_form", simons, "simons_rhs_space_form"),
    ("cylinders.classify", cylinders, "classify"),
    ("caseverify.scan", caseverify, "scan"),
    ("caseverify.certificate_check", caseverify, "certificate_check"),
    ("caseverify.certificate_samples", caseverify, "certificate_samples"),
    ("caseverify.max_violation", caseverify, "max_violation"),
    ("caseverify.closed_form_contradiction", caseverify, "closed_form_contradiction"),
    ("caseverify.constraint_violations", caseverify, "constraint_violations"),
    ("immersion.make_shape", immersion, "make_shape"),
    ("immersion.SymbolicShape.patch", immersion.SymbolicShape, "patch"),
    ("immersion.finite_difference_lift", immersion, "finite_difference_lift"),
    ("immersion.fd_callbacks", immersion.SymbolicShape, "__call__"),
    ("immersion.fundamental_forms", immersion, "fundamental_forms"),
    ("immersion.principal_curvatures", immersion, "principal_curvatures"),
)


class Tracer:
    def __init__(self):
        self.names: List[str] = [name for name, _, _ in TARGETS]
        self.spans: List[list] = []  # [name index, start, end, parent index, phase]
        self._stack: List[int] = []
        self.phase = "main"

    def _wrap(self, name_index: int, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_index, perf_counter(), 0.0, stack[-1] if stack else -1, self.phase]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, phase: str):
        """Wrap every target for the duration of the block, tagging spans with ``phase``."""
        self.phase = phase
        saved = []
        for index, (_, owner, attr) in enumerate(TARGETS):
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(index, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(index, raw))
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def layer_totals(self) -> Dict[str, Dict[str, List[float]]]:
        """``{phase: {layer: [calls, total self seconds]}}``."""
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        totals: Dict[str, Dict[str, List[float]]] = {}
        for (index, _, _, _, phase), own in zip(self.spans, self_time):
            entry = totals.setdefault(phase, {}).setdefault(self.names[index], [0, 0.0])
            entry[0] += 1
            entry[1] += own
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["layer", "start", "end", "parent", "phase"],
                       "layers": self.names, "spans": self.spans}, handle)
