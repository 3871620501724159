"""Tracing for the benchmark's traced run: spans recorded around ringheat's public functions.

`Tracer.install` replaces public functions at their module (or class)
attributes with wrappers that record a span per call: name, start, end, the
enclosing span and a few counts.  Names that `ringheat.cli` binds with
`from ... import` are wrapped as well, under the callee's layer name, so
calls made through the CLI are not missed.  The program's source is not
edited.  Spans stay in memory; `layer_metrics` folds one invocation's spans
into the per-layer metrics, taking each layer's self time as its span
minus its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

#: verification functions timed one by one (`verification.<fn>.s`)
VERIFICATION_FNS = (
    "flow_residuals",
    "temperature_equation_residual",
    "reference_equation_residual",
    "determining_equation_residual",
    "invariant_annihilation",
    "reduced_ode_residual",
    "published_flux_discrepancy",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "child_time")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.counts = None
        self.child_time = 0.0


class Tracer:
    """Records spans of wrapped calls; one process, one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._open = Counter()
        self._patches: list = []

    def _wrap(self, owner, attr, name, counts=None, when=None):
        """Replace owner.attr by a recording wrapper.

        counts(args, result) gives the span's counts; when(args) decides
        before the call whether the call is recorded at all.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return original(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            self._open[name] += 1
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                self.spans.append(span)
            if counts is not None:
                span.counts = counts(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the layer boundaries of ringheat (imported already)."""
        from ringheat import cli, flow, solver, temperature, verification

        self._wrap(cli, "main", "cli.main")
        # the CLI's library calls, through both of their bindings
        for mod in (cli, verification):
            self._wrap(mod, "run_suite", "verification.run_suite",
                       counts=lambda a, r: {"failed_checks": sum(not c.passed for c in r.checks)})
        for mod in (cli, solver):
            self._wrap(mod, "solve_reference", "solver.solve_reference")
            self._wrap(mod, "solve_general", "solver.solve_general")
            self._wrap(mod, "convergence_study", "solver.convergence_study")

        self._wrap(solver, "march", "solver.march", counts=_march_counts)
        self._wrap(solver, "thomas_solve", "solver.thomas_solve")

        in_march = lambda args: self._open["solver.march"] > 0
        self._wrap(temperature, "reference_flux", "temperature.boundary", when=in_march)
        self._wrap(temperature.BoundaryTraces, "theta1", "temperature.boundary", when=in_march)
        self._wrap(temperature.BoundaryTraces, "theta2", "temperature.boundary", when=in_march)
        on_arrays = lambda args: any(isinstance(x, np.ndarray) for x in args[:2])
        points = lambda a, r: {"points": int(np.size(r))}
        for fn in ("theta_reference", "theta_general", "initial_profile"):
            self._wrap(temperature, fn, "temperature.field", counts=points, when=on_arrays)

        dual = lambda args: args[0].mode == "dual"
        self._wrap(verification.DerivativeEngine, "d1", "dualnum.derivative", when=dual)
        self._wrap(verification.DerivativeEngine, "d2", "dualnum.derivative", when=dual)
        for fn in VERIFICATION_FNS:
            self._wrap(verification, fn, "verification." + fn, counts=_residual_points)
        for mod in (verification, flow):
            self._wrap(mod, "quad", "flow.quad")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _march_counts(args, result):
    # march(grid, config, ...): the number of steps march takes for this
    # config, computed as march does, so the count does not depend on how
    # a step is carried out
    grid, config = args[0], args[1]
    if config.t_end == 0.0:
        steps = 0
    else:
        dt = config.dt if config.dt is not None else config.dt_over_h * grid.h
        steps = max(1, int(round(config.t_end / dt)))
    return {"steps": steps, "node_steps": steps * (grid.n_cells + 1)}


def _residual_points(args, result):
    reports = result.values() if isinstance(result, dict) else [result]
    return {"points": sum(getattr(r, "n_samples", 0) for r in reports)}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one invocation, from its spans.

    Counts are exact; times are in seconds unless the name says otherwise.
    """
    for span in spans:
        if span.parent is not None:
            span.parent.child_time += span.end - span.start
    calls = Counter()
    total = defaultdict(float)
    self_time = defaultdict(float)
    counts = defaultdict(Counter)
    for span in spans:
        d = span.end - span.start
        calls[span.name] += 1
        total[span.name] += d
        self_time[span.name] += d - span.child_time
        if span.counts:
            counts[span.name].update(span.counts)

    march, thomas = "solver.march", "solver.thomas_solve"
    steps = counts[march]["steps"]
    m = {
        "cli.self_s": self_time["cli.main"],
        "solver.march.calls": calls[march],
        "solver.march.steps": steps,
        "solver.march.self_s": self_time[march],
        "solver.march.us_per_step": _ratio(total[march], steps, 1e6),
        "solver.thomas_solve.calls": calls[thomas],
        "solver.thomas_solve.s": total[thomas],
        "solver.thomas_solve.us_per_call": _ratio(total[thomas], calls[thomas], 1e6),
        "solver.thomas_solve.share": _ratio(total[thomas], total[march]),
        "solver.node_steps_per_s": _ratio(counts[march]["node_steps"], total[march]),
        "temperature.boundary.calls": calls["temperature.boundary"],
        "temperature.boundary.us_per_call": _ratio(
            total["temperature.boundary"], calls["temperature.boundary"], 1e6),
        "temperature.field.points": counts["temperature.field"]["points"],
        "temperature.field.ns_per_point": _ratio(
            total["temperature.field"], counts["temperature.field"]["points"], 1e9),
        "dualnum.derivative.calls": calls["dualnum.derivative"],
        "dualnum.derivative.us_per_call": _ratio(
            total["dualnum.derivative"], calls["dualnum.derivative"], 1e6),
    }
    for fn in VERIFICATION_FNS:
        m[f"verification.{fn}.s"] = total["verification." + fn]
    residual_points = sum(counts["verification." + fn]["points"] for fn in VERIFICATION_FNS)
    residual_time = sum(total["verification." + fn] for fn in VERIFICATION_FNS
                        if counts["verification." + fn]["points"])
    m["verification.run_suite.self_s"] = self_time["verification.run_suite"]
    m["verification.residual_points"] = residual_points
    m["verification.us_per_residual_point"] = _ratio(residual_time, residual_points, 1e6)
    m["verification.failed_checks"] = counts["verification.run_suite"]["failed_checks"]
    m["flow.quad.calls"] = calls["flow.quad"]
    m["flow.quad.s"] = total["flow.quad"]
    return m
