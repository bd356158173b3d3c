"""Span tracing of degenpop's layer entry points, installed from outside.

A :class:`Tracer` replaces each entry point, under every name its callers
look it up by, with a wrapper that records a span (name, start, end,
parent) in memory.  Spans are named ``<layer>.<function>``; a layer's self
time is the time its spans cover minus the time their child spans cover.
Bookkeeping that inspects results (eigen residuals, closure drift) runs in
``trace.*`` spans, so it is charged to no layer.  :meth:`Tracer.restore`
puts every original back; untraced runs must call it first.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from degenpop import analytic, cli, control, coupling, dressed, numeric

# per-layer metric -> (unit, span names whose self time it sums, or None for a count)
LAYER_METRICS = {
    "cli.self_ms": ("ms", ("cli.main",)),
    "cli.calls": ("count", None),
    "control.design_ms": ("ms", ("control.enumerate_designs", "control.design_3state",
                                 "control.design_nstate", "control.pulse_for_design")),
    "control.designs": ("count", None),
    "coupling.build_ms": ("ms", ("coupling.standard_3state", "coupling.symmetric_nstate",
                                 "coupling.CouplingModel")),
    "coupling.models": ("count", None),
    "dressed.decompose_ms": ("ms", ("dressed.decompose_general",)),
    "dressed.decompositions": ("count", None),
    "dressed.errors": ("count", None),
    "dressed.max_eigen_residual": ("1", None),
    "pulses.action_ms": ("ms", ("pulses.action_values",)),
    "pulses.action_samples": ("count", None),
    "analytic.propagate_ms": ("ms", ("analytic.trajectory",)),
    "analytic.samples": ("count", None),
    "analytic.csv_ms": ("ms", ("analytic.trajectory_to_csv",)),
    "analytic.csv_bytes": ("B", None),
    "numeric.integrate_ms": ("ms", ("numeric.integrate",)),
    "numeric.steps": ("count", None),
    "numeric.max_closure_drift": ("1", None),
    "numeric.scan_self_ms": ("ms", ("numeric.leakage_scan", "numeric.kick_convergence",
                                    "numeric.compare")),
}
TRACE_METRICS = {"trace.overhead_share": "share", "trace.unattributed_ms": "ms"}
MAXIMA = ("dressed.max_eigen_residual", "numeric.max_closure_drift")  # max over passes


@dataclass(frozen=True)
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index into the span list


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """In-memory span recorder plus the entry-point wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # placeholder keeps start order
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), float(value))

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- wrapping ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; each layer is timed at its public functions."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, after in _entry_points():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, after))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _wrap(self, fn, name: str, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = self.call(name, fn, *args, **kwargs)
            except Exception as exc:
                if after is not None:
                    self.call("trace.after", after, self, args, None, exc)
                raise
            if after is not None:
                self.call("trace.after", after, self, args, result, None)
            return result
        return wrapper

    # -- derived metrics ---------------------------------------------------
    def layer_totals(self) -> tuple[dict[str, float], float]:
        """Per-layer metric values for the recorded spans, plus the top-level
        span time in ms (what the pass spent inside traced calls)."""
        selfs = self_times(self.spans)
        by_name: dict[str, int] = {}
        for s, st in zip(self.spans, selfs):
            by_name[s.name] = by_name.get(s.name, 0) + st
        values = {}
        for key, (_, names) in LAYER_METRICS.items():
            if names is None:
                values[key] = float(self.counts.get(key, 0))
            else:
                values[key] = sum(by_name.get(n, 0) for n in names) / 1e6
        top = sum(s.end - s.start for s in self.spans if s.parent is None) / 1e6
        return values, top


def _count(key: str):
    def after(tr: Tracer, args, result, exc) -> None:
        tr.add(key, 1)
    return after


def _count_ok(key: str):
    def after(tr: Tracer, args, result, exc) -> None:
        if exc is None:
            tr.add(key, 1)
    return after


def _after_decompose(tr: Tracer, args, basis, exc) -> None:
    tr.add("dressed.decompositions", 1)
    if exc is not None:
        tr.add("dressed.errors", 1)
    else:
        tr.peak("dressed.max_eigen_residual", dressed.eigen_residual(basis, args[0].r))


def _after_action(tr: Tracer, args, values, exc) -> None:
    if exc is None:
        tr.add("pulses.action_samples", np.size(values))


def _after_trajectory(tr: Tracer, args, traj, exc) -> None:
    if exc is None:
        tr.add("analytic.samples", traj.times.size)


def _after_csv(tr: Tracer, args, text, exc) -> None:
    if exc is None:
        tr.add("analytic.csv_bytes", len(text.encode()))


def _after_integrate(tr: Tracer, args, traj, exc) -> None:
    if exc is None:
        tr.add("numeric.steps", max(traj.times.size - 1, 0))
        if traj.closure.size:
            tr.peak("numeric.max_closure_drift", np.max(np.abs(traj.closure - 1.0)))


def _entry_points():
    """(owner, attribute, span name, after-hook) for every wrapped lookup.

    Modules that imported a name directly (``cli`` imports
    ``decompose_general`` and the model builders, ``analytic`` imports
    ``action_values``) are wrapped under that binding too.  Per-step calls
    inside the integrator loop are never wrapped.
    """
    return [
        (cli, "main", "cli.main", _count("cli.calls")),
        (control, "enumerate_designs", "control.enumerate_designs", None),
        (control, "design_3state", "control.design_3state", _count_ok("control.designs")),
        (control, "design_nstate", "control.design_nstate", _count_ok("control.designs")),
        (control, "pulse_for_design", "control.pulse_for_design", None),
        (coupling, "standard_3state", "coupling.standard_3state", None),
        (cli, "standard_3state", "coupling.standard_3state", None),
        (coupling, "symmetric_nstate", "coupling.symmetric_nstate", None),
        (cli, "symmetric_nstate", "coupling.symmetric_nstate", None),
        (coupling.CouplingModel, "__post_init__", "coupling.CouplingModel",
         _count_ok("coupling.models")),
        (dressed, "decompose_general", "dressed.decompose_general", _after_decompose),
        (cli, "decompose_general", "dressed.decompose_general", _after_decompose),
        (analytic, "action_values", "pulses.action_values", _after_action),
        (analytic, "trajectory", "analytic.trajectory", _after_trajectory),
        (analytic, "trajectory_to_csv", "analytic.trajectory_to_csv", _after_csv),
        (numeric, "integrate", "numeric.integrate", _after_integrate),
        (numeric, "leakage_scan", "numeric.leakage_scan", None),
        (numeric, "kick_convergence", "numeric.kick_convergence", None),
        (numeric, "compare", "numeric.compare", None),
    ]
