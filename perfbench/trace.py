"""Spans and counters around the program's public functions.

The tracer wraps functions from the benchmark's side only: it replaces a
module attribute (and every other ``ecsforge`` module's binding of the same
function, such as the names ``ecsforge.cli`` imports) with a wrapper, and
puts the originals back on exit.  A span records its name, its parent, its
start and end, and how much of it its child spans covered; a layer's self
time is the sum over its spans of duration minus children.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# per-layer timing metric -> the functions whose spans it sums
SPAN_METRICS = {
    "geometry.curvature_s": ("geometry.curvature_at",),
    "geometry.isometry_s": ("geometry.isometry_residual",),
    "geometry.geodesic_s": ("geometry.geodesic_trace",),
    "quotient.lattice_element_s": ("quotient.lattice_element",),
    "quotient.canonicalize_s": ("quotient.canonicalize", "quotient.fundamental_coordinates"),
    "quotient.lattice_build_s": ("quotient.pi_map", "quotient.build_lattice"),
    "quotient.reverify_s": ("quotient.intertwining_failures", "quotient.certify_ace"),
    "quotient.normal_form_s": ("quotient.normal_form",),
    "funcspace.self_s": (
        "funcspace.ct_eigenbasis",
        "funcspace.omega_matrix",
        "funcspace.verify_ct_omega_scaling",
        "funcspace.ct_eigencheck_residual",
    ),
    "deform.self_s": ("deform.solve_a", "deform.eig_positivity"),
    "spectral.self_s": (
        "spectral.standard_family",
        "spectral.search_systems",
        "spectral.ZSpectralSystem.axiom_failures",
    ),
    "model.self_s": (
        "model.build_model",
        "model.check_model",
        "model.conjugation_checks",
        "model.isometry_checks",
        "model.bridging_checks",
    ),
    "cli.self_s": ("cli.main",),
}

# per-layer count metric -> the functions whose calls it counts
COUNT_METRICS = {
    "geometry.christoffel_evals": ("geometry.MetricPatch.christoffel",),
    "quotient.act_calls": ("quotient.act", "quotient.act_inverse"),
    "quotient.lattice_element_calls": ("quotient.lattice_element",),
    "funcspace.ode_segments": ("funcspace.solve_ivp",),
    "deform.trace_evals": ("deform.trace_H",),
    "exact.field_ops": tuple(
        f"exact.QFieldElement.{op}"
        for op in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
        )
    ),
}


class Tracer:
    """Wraps the functions while inside ``with Tracer() as tracer:``; read
    `self_times()` and `count_metrics()` afterwards.  Not thread-safe: the
    benchmark runs one thread."""

    def __init__(self) -> None:
        # span records: [name, parent index or -1, start, end, child time]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, parent, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[3] = end
                if parent >= 0:
                    spans[parent][4] += end - record[2]

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_in_span(self, name: str, body):
        """Call ``body()`` inside a span of the benchmark's own."""
        return self._span(name, body)()

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        span_names = {name for names in SPAN_METRICS.values() for name in names}
        count_names = {name for names in COUNT_METRICS.values() for name in names}
        for name in sorted(span_names | count_names):
            wrap = self._span if name in span_names else self._counter
            self._install(name, wrap)
        return self

    def _install(self, dotted: str, wrap) -> None:
        module_name, *owners, attr = dotted.split(".")
        module = sys.modules[f"ecsforge.{module_name}"]
        if owners:  # a method: replace it on its class
            owner = getattr(module, owners[0])
            original = owner.__dict__[attr]
            self._set(owner, attr, original, wrap(dotted, original))
            return
        original = getattr(module, attr)
        inner = wrap(dotted, original)
        if not getattr(original, "__module__", "").startswith("ecsforge"):
            # a library function (solve_ivp): count only this module's calls
            self._set(module, attr, original, inner)
            return
        for other_name, other in list(sys.modules.items()):
            if other_name.startswith("ecsforge") and getattr(other, attr, None) is original:
                self._set(other, attr, original, inner)

    def _set(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        by_name: Counter = Counter()
        for name, _, start, end, children in self.spans:
            by_name[name] += (end - start) - children
        return {
            metric: sum(by_name[name] for name in names)
            for metric, names in SPAN_METRICS.items()
        }

    def count_metrics(self) -> dict[str, int]:
        counts = Counter(self.counts)
        for name, *_ in self.spans:
            counts[name] += 1
        return {
            metric: sum(counts[name] for name in names)
            for metric, names in COUNT_METRICS.items()
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "parent", "start", "end", "child_time"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                }
            ),
            encoding="utf-8",
        )

