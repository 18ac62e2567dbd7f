"""Spans around the layer entry points of pbergman, recorded from outside it.

Each function in ``LAYERS`` is replaced, at every module binding where
callers look it up (``kernel.minimize_pnorm``, ``analysis.mp_minimizer``,
``cli.build_grid``, ...), by a wrapper that records a span: its name, start,
end and the span that was open when it was called.  A span's self time is
its duration minus the time its child spans cover.  A listed name that no
longer exists raises ``TraceError``, so a refactor cannot silently drop a
layer from the trace.  Spans stay in memory until ``write`` is called.

The span stack is not thread-aware; the benchmark never passes ``--jobs``,
so every call runs on the main thread.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

# module -> public functions wrapped in a traced round
LAYERS = {
    "solver": ("minimize_pnorm", "multistart_minimize"),
    "kernel": ("mp_minimizer", "metric_at", "h_function", "kernel_metric_sweep"),
    "analysis": (
        "levi_metric_gap",
        "levi_form_log_kp",
        "holder_exponent",
        "hp_scaling_exponent",
        "dp_estimate",
        "limit_sweep",
    ),
    "geometry": ("build_grid",),
    "series": ("evaluate",),
    "lacunary": (
        "integrability_record",
        "criterion_integral",
        "series_grid_values",
        "direct_lp",
        "circle_norm_ratio",
    ),
    "cli": ("main",),
}

SOLVE = "solver.minimize_pnorm"
MULTISTART = "solver.multistart_minimize"

# unit of each per-layer metric; the rest are counts
LAYER_UNITS = {
    "solver.minimize_pnorm.self_s": "s",
    "solver.s_per_iteration": "s/iter",
    "solver.zero_iter_solve_s_p50": "s",
    "solver.converged_ratio": "frac",
    "solver.multistart.converged_ratio": "frac",
    "kernel.self_s": "s",
    "analysis.self_s": "s",
    "geometry.build_grid.self_s": "s",
    "series.evaluate.self_s": "s",
    "lacunary.criterion_integral.self_s": "s",
    "lacunary.series_grid_values.self_s": "s",
    "lacunary.direct_lp.self_s": "s",
    "lacunary.circle_norm_ratio.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class TraceError(RuntimeError):
    """A function the trace must wrap is missing from the program."""


def _program_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "pbergman" or name.startswith("pbergman."))
    ]


def _lookup(module_name: str, function: str):
    module = sys.modules.get(f"pbergman.{module_name}")
    if module is None:
        raise TraceError(f"module pbergman.{module_name} is not loaded")
    try:
        return getattr(module, function)
    except AttributeError:
        raise TraceError(f"pbergman.{module_name}.{function} no longer exists") from None


def _rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every module attribute bound to ``original`` at ``replacement``."""
    undo = []
    for module in _program_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


class SolveCounter:
    """Reads ``Solution.converged`` from every ``minimize_pnorm`` return.

    Installed in every run, traced or not, so an item's failure does not
    depend on the exit code the CLI chooses for a degraded solve.
    """

    def __init__(self):
        self.nonconverged = 0

    def install(self) -> None:
        original = _lookup("solver", "minimize_pnorm")

        @functools.wraps(original)
        def counted(*args, **kwargs):
            solution = original(*args, **kwargs)
            self.nonconverged += not solution.converged
            return solution

        _rebind(original, counted)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _solve_info(args, kwargs, solution) -> dict:
    problem = _arg(args, kwargs, 0, "problem")
    return {
        "iterations": solution.iterations,
        "converged": bool(solution.converged),
        # dense quadrature matrix size, computed from the problem, not measured
        "nd": problem.grid.nodes.size * problem.basis.dimension,
    }


_INFO = {
    SOLVE: _solve_info,
    "lacunary.series_grid_values": lambda args, kwargs, _: {
        "nodes": _arg(args, kwargs, 1, "grid").nodes.size
    },
    "cli.main": lambda args, kwargs, code: {"exit": code},
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Context manager: wraps every function in ``LAYERS`` while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        targets = [
            (f"{module}.{function}", _lookup(module, function))
            for module, functions in LAYERS.items()
            for function in functions
        ]
        for name, original in targets:
            self._undo += _rebind(original, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo = []

    def _wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._open, _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "parent": span.parent,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "self_s": span.self_s,
                } | span.info
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics; counts and times are per traced round."""
        by_name: dict[str, list[int]] = {}
        for index, span in enumerate(self.spans):
            by_name.setdefault(span.name, []).append(index)

        def spans_of(name):
            return [self.spans[i] for i in by_name.get(name, [])]

        def returned(name):  # a call that raised carries no result
            return [s for s in spans_of(name) if s.info]

        def calls(name):
            return len(by_name.get(name, [])) / rounds

        def self_s(*names):
            return sum(s.self_s for name in names for s in spans_of(name)) / rounds

        def layer_self_s(layer):
            return self_s(*(f"{layer}.{f}" for f in LAYERS[layer]))

        solves = returned(SOLVE)
        iterations = sum(s.info["iterations"] for s in solves)
        converged = sum(s.info["converged"] for s in solves)
        zero_iter = [s.duration for s in solves if s.info["iterations"] == 0]
        solved_in = {s.parent for s in solves}
        restarts = [s for s in solves if s.parent is not None
                    and self.spans[s.parent].name == MULTISTART]
        mp_spans = by_name.get("kernel.mp_minimizer", [])
        solver_self = layer_self_s("solver") * rounds
        return {
            "solver.minimize_pnorm.calls": calls(SOLVE),
            "solver.minimize_pnorm.self_s": self_s(SOLVE),
            "solver.iterations": iterations / rounds,
            "solver.s_per_iteration": solver_self / iterations if iterations else 0.0,
            "solver.zero_iter_solve_s_p50": statistics.median(zero_iter) if zero_iter else 0.0,
            "solver.nonconverged": (len(solves) - converged) / rounds,
            "solver.converged_ratio": converged / len(solves) if solves else 0.0,
            "solver.multistart_minimize.calls": calls(MULTISTART),
            "solver.multistart.converged_ratio": (
                sum(s.info["converged"] for s in restarts) / len(restarts) if restarts else 0.0
            ),
            "solver.dense_nd_computed": sum(s.info["nd"] for s in solves) / rounds,
            "kernel.mp_minimizer.calls": calls("kernel.mp_minimizer"),
            "kernel.mp_minimizer.cache_hits": sum(i not in solved_in for i in mp_spans) / rounds,
            "kernel.metric_at.calls": calls("kernel.metric_at"),
            "kernel.self_s": layer_self_s("kernel"),
            "analysis.self_s": layer_self_s("analysis"),
            "analysis.levi_metric_gap.calls": calls("analysis.levi_metric_gap"),
            "analysis.holder.calls": (
                calls("analysis.holder_exponent") + calls("analysis.hp_scaling_exponent")
            ),
            "analysis.limit_sweep.calls": calls("analysis.limit_sweep"),
            "geometry.build_grid.calls": calls("geometry.build_grid"),
            "geometry.build_grid.self_s": self_s("geometry.build_grid"),
            "series.evaluate.calls": calls("series.evaluate"),
            "series.evaluate.self_s": self_s("series.evaluate"),
            "lacunary.criterion_integral.self_s": self_s("lacunary.criterion_integral"),
            "lacunary.series_grid_values.self_s": self_s("lacunary.series_grid_values"),
            "lacunary.direct_lp.self_s": self_s("lacunary.direct_lp"),
            "lacunary.circle_norm_ratio.self_s": self_s("lacunary.circle_norm_ratio"),
            "lacunary.grid_nodes": (
                sum(s.info["nodes"] for s in returned("lacunary.series_grid_values")) / rounds
            ),
            "cli.main.calls": calls("cli.main"),
            "cli.self_s": self_s("cli.main"),
            # a call that raised counts as a non-zero exit
            "cli.exit_nonzero": sum(s.info.get("exit") != 0 for s in spans_of("cli.main")) / rounds,
        }
