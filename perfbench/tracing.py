"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces public funcsol functions with wrappers for the
duration of one traced run and restores them afterwards. Each wrapped
call is a span with a name, start, end, parent and the run's id; a
layer is the module named before the first dot. ``exprlang.evaluate``
runs hundreds of thousands of times per run on tiny arrays, so it gets a
counter and an accumulated time instead of spans; its time is charged to
the innermost open span as child time.

A span's self time is its duration minus the time its child spans and
evaluate calls cover, and a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from funcsol import cli, config, exprlang, pivot, reconstruct, twopoint, verify

SELF_TIME_LAYERS = ("cli", "pivot", "twopoint", "reconstruct", "verify")

TWO_POINT_SOLVERS = ("twopoint.solve_shooting", "twopoint.solve_scalar",
                     "twopoint.solve_fixed_point")


def _add_pivot_iters(counters, args, result):
    counters["pivot.cg_iters"] += result.iterations


def _add_stencil_iters(counters, args, result):
    counters["pivot.stencil_solves"] += 1
    counters["pivot.stencil_cg_iters"] += result[1]


def _add_two_point_iters(counters, args, result):
    counters["twopoint.iters"] += result.stats.get("iterations", 0)


def _counter(name):
    def add(counters, args, result):
        counters[name] += 1
    return add


def _add_rows(counters, args, result):
    counters["cli.rows_written"] += args[2].size


# (span name, owners whose attribute is replaced, attribute, counter hook).
# A function imported by name into cli is looked up there, so cli is an
# owner as well as the module that defines it.
TARGETS = (
    ("cli.main", (cli,), "main", None),
    ("cli.write_field_csv", (cli,), "write_field_csv", _add_rows),
    ("config.load_config", (cli, config), "load_config", None),
    ("pivot.solve_pivot", (cli, pivot), "solve_pivot", _add_pivot_iters),
    ("pivot.stencil_solve", (pivot.DivergenceStencil,), "solve", _add_stencil_iters),
    ("twopoint.solve_shooting", (cli, twopoint), "solve_shooting", _add_two_point_iters),
    ("twopoint.solve_scalar", (cli, twopoint), "solve_scalar", _add_two_point_iters),
    ("twopoint.solve_fixed_point", (cli, twopoint), "solve_fixed_point", _add_two_point_iters),
    ("twopoint.shooting_jacobian", (twopoint,), "shooting_jacobian",
     _counter("twopoint.jacobian_calls")),
    ("twopoint.integrate_profiles", (twopoint,), "integrate_profiles",
     _counter("twopoint.profile_integrations")),
    ("reconstruct.compose_fields", (cli, reconstruct), "compose_fields", None),
    ("reconstruct.darcy_reconstruct", (cli, reconstruct), "darcy_reconstruct", None),
    ("verify.divergence_residual", (cli, verify), "divergence_residual", None),
    ("verify.theta_linearity", (cli, verify), "theta_linearity", None),
    ("verify.direct_coupled_solve", (verify,), "direct_coupled_solve", None),
)

# per-layer metric -> the spans whose durations it sums
SPAN_TOTALS = {
    "config.load_s": ("config.load_config",),
    "pivot.solve_s": ("pivot.solve_pivot",),
    "pivot.stencil_solve_s": ("pivot.stencil_solve",),
    "twopoint.solve_s": TWO_POINT_SOLVERS,
    "reconstruct.s": ("reconstruct.compose_fields", "reconstruct.darcy_reconstruct"),
    "verify.residual_s": ("verify.divergence_residual",),
    "verify.theta_s": ("verify.theta_linearity",),
    "verify.direct_s": ("verify.direct_coupled_solve",),
    "cli.write_s": ("cli.write_field_csv",),
}

COUNTERS = ("pivot.cg_iters", "pivot.stencil_solves", "pivot.stencil_cg_iters",
            "twopoint.iters", "twopoint.jacobian_calls", "twopoint.profile_integrations",
            "cli.rows_written")


@dataclass
class Span:
    id: int
    parent: int | None
    run: int
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Spans of every traced run, and the counters of the current one."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.stack = []
        self.run_id = 0
        self.counters = defaultdict(int)
        self.eval_calls = 0
        self.eval_s = 0.0

    def _open(self, name):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, self.run_id, name, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.duration

    def _wrap(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return wrapper

    def _wrap_evaluate(self, fn):
        tracer = self
        clock = time.perf_counter

        def evaluate(node, env):
            t0 = clock()
            try:
                return fn(node, env)
            finally:
                dt = clock() - t0
                tracer.eval_calls += 1
                tracer.eval_s += dt
                if tracer.stack:
                    tracer.stack[-1].child_s += dt

        return evaluate

    @contextmanager
    def run(self):
        """Trace one run: install the wrappers, open its root span, restore."""
        self.run_id += 1
        self.counters = defaultdict(int)
        self.eval_calls, self.eval_s = 0, 0.0
        saved = []
        try:
            for name, owners, attr, hook in TARGETS:
                for owner in owners:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, hook))
            saved.append((exprlang, "evaluate", exprlang.evaluate))
            exprlang.evaluate = self._wrap_evaluate(exprlang.evaluate)
            root = self._open("bench.run")
            try:
                yield
            finally:
                self._close(root)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self):
        """Per-layer metrics of the latest traced run."""
        spans = [s for s in self.spans if s.run == self.run_id]
        out = {}
        for metric, names in SPAN_TOTALS.items():
            out[metric] = sum(s.duration for s in spans if s.name in names)
        for metric in COUNTERS:
            out[metric] = self.counters[metric]
        out["exprlang.eval_calls"] = self.eval_calls
        out["exprlang.eval_s"] = self.eval_s
        out["exprlang.eval_us_per_call"] = (
            1e6 * self.eval_s / self.eval_calls if self.eval_calls else 0.0)
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = sum(s.self_s for s in spans if s.layer == layer)
        return out

    def records(self):
        """Every span as a plain dict, times in seconds since the tracer began."""
        return [{"id": s.id, "parent": s.parent, "run": s.run, "name": s.name,
                 "layer": s.layer, "start": s.start - self.origin,
                 "end": s.end - self.origin, "self_s": s.self_s}
                for s in self.spans]
