"""Per-layer tracing from outside the program.

The tracer replaces, for the duration of one ``with Tracer(...)`` block,
the names that lamsa's callers look up at call time (module globals and
the CLI's command table) with timing wrappers, and puts the originals
back when the block ends.  Nothing inside ``src/`` is edited.

Each wrapper records one span per call into a layer: it adds the call's
duration to its own aggregate and to its parent's child time, so that a
layer's *self* time is its spans' durations minus the part covered by
deeper spans, and a layer's *total* time counts only the outermost span
of each nested run of the same layer.  Spans are aggregated in memory
(one record per span name, not per call): a 20x20 phase portrait makes
about a million field evaluations, too many to keep one by one.

The tracer fails loudly.  A name that is missing or not callable aborts
before any work runs, because a later rename would otherwise leave a
counter silently at zero.  Modules are resolved with
``importlib.import_module``: ``import lamsa.simulate`` yields the
*function* ``simulate`` that the package re-exports, not the module.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

LAYERS = ("model", "simulate", "equilibria", "stability", "bifurcation", "io", "config", "cli")


class TracerError(RuntimeError):
    """A traced name is missing, or the workload never reached a layer."""


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Trace:
    """Aggregates of one traced pass."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    layer_self_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    layer_total_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    counters: dict[str, int] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)

    def span(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)


# (module, attribute, span name, layer, hook).  A hook receives
# (trace, tracer, result, args) after a successful call.
Target = tuple[str, str, str, str, Callable[..., None] | None]


def _count(name: str, amount: Callable[[Any, tuple], int]) -> Callable[..., None]:
    def hook(trace: Trace, tracer: "Tracer", result: Any, args: tuple) -> None:
        trace.counters[name] = trace.counters.get(name, 0) + amount(result, args)

    return hook


def _count_written(trace: Trace, tracer: "Tracer", result: Any, args: tuple) -> None:
    # write_csv/write_events take the path first and return a row count;
    # write_manifest takes the directory and returns the path it wrote
    path = result if isinstance(result, os.PathLike) else args[0]
    trace.counters["io.files"] = trace.count("io.files") + 1
    trace.counters["io.bytes"] = trace.count("io.bytes") + os.path.getsize(path)
    if isinstance(result, int):
        trace.counters["io.rows"] = trace.count("io.rows") + result


def _count_field(trace: Trace, tracer: "Tracer", result: Any, args: tuple) -> None:
    if tracer.open_spans.get("simulate.simulate", 0):
        trace.counters["model.field_evals_in_simulate"] = trace.count("model.field_evals_in_simulate") + 1


def _count_fixed_points(trace: Trace, tracer: "Tracer", result: Any, args: tuple) -> None:
    trace.counters["equilibria.interior_points"] = trace.count("equilibria.interior_points") + sum(
        1 for fp in result if not fp.origin_flag
    )


CLI, SIM, EQ, STAB, BIF, IO = (
    "lamsa.cli", "lamsa.simulate", "lamsa.equilibria", "lamsa.stability", "lamsa.bifurcation", "lamsa.io",
)

TARGETS: tuple[Target, ...] = (
    # entry points the benchmark itself calls
    ("lamsa", "simulate", "simulate.simulate", "simulate", None),
    (CLI, "main", "cli.main", "cli", None),
    # cli -> its own helpers and config
    (CLI, "build_parser", "cli.build_parser", "cli", None),
    (CLI, "_load_config", "cli.load_config", "cli", None),
    (CLI, "parse_config", "config.parse_config", "config", None),
    (CLI, "build_config", "config.build_config", "config", None),
    (CLI, "apply_overrides", "config.apply_overrides", "config", None),
    (CLI, "parse_fl_range", "config.parse_fl_range", "config", None),
    (CLI, "parse_grid", "config.parse_grid", "config", None),
    # cli -> library layers
    (CLI, "simulate", "simulate.simulate", "simulate", None),
    (CLI, "fixed_points", "equilibria.fixed_points", "equilibria", _count_fixed_points),
    (CLI, "unlatched_fixed_point", "equilibria.unlatched_fixed_point", "equilibria", None),
    (CLI, "stability_report", "stability.report", "stability", None),
    (CLI, "trace_path", "bifurcation.trace", "bifurcation",
     _count("bifurcation.trace_samples", lambda r, a: len(r.samples))),
    (CLI, "saddle_region_map", "bifurcation.region", "bifurcation",
     _count("bifurcation.region_nodes", lambda r, a: int(r.h1.size))),
    (CLI, "nominal_rhs", "bifurcation.quiver", "bifurcation", None),
    (CLI, "in_region_U", "bifurcation.in_region_U", "bifurcation", None),
    (CLI, "design_feasibility", "bifurcation.design", "bifurcation", None),
    (CLI, "fmt", "io.fmt", "io", None),
    (CLI, "flag", "io.flag", "io", None),
    (CLI, "write_csv", "io.write_csv", "io", _count_written),
    (CLI, "write_trajectory", "io.write_trajectory", "io", None),
    (CLI, "write_events", "io.write_events", "io", _count_written),
    (CLI, "write_manifest", "io.write_manifest", "io", _count_written),
    (IO, "write_csv", "io.write_csv", "io", _count_written),
    # simulate internals
    (SIM, "integrate_step", "simulate.step", "simulate", None),
    (SIM, "_step_raw", "simulate.trial", "simulate", None),
    (SIM, "_locate_zero", "simulate.event", "simulate", None),
    (SIM, "project_to_constraint", "simulate.project", "simulate", None),
    (SIM, "_field_arr", "model.field", "model", _count_field),
    # equilibria / stability / bifurcation internals
    (EQ, "roots_in_interval", "equilibria.roots", "equilibria",
     _count("equilibria.roots_found", lambda r, a: len(r))),
    (EQ, "_field_arr", "model.field", "model", None),
    (STAB, "jacobian_fd_at", "stability.jacobian", "stability", None),
    (STAB, "_field_arr", "model.field", "model", None),
    (BIF, "jacobian_fd_at", "stability.jacobian", "stability", None),
    (BIF, "_newton_correct", "bifurcation.newton", "bifurcation",
     _count("bifurcation.corrector_iters", lambda r, a: r[1])),
)

# Spans at which an exception becomes a failed item: a simulate call (a
# portrait index row or a release call) and a CLI command (an exit code).
_FAILURE_SPANS = frozenset({"simulate.simulate", "cli.command", "cli.load_config"})


class Tracer:
    """Context manager that installs the wrappers into one ``Trace``."""

    def __init__(self, trace: Trace, targets: tuple[Target, ...] = TARGETS) -> None:
        self.trace = trace
        self.targets = targets
        self.stack: list[list] = []  # [layer, child seconds] per open span
        self.open_spans: dict[str, int] = {}
        self._saved: list[tuple[Any, str, Any, bool]] = []

    # -- installation -------------------------------------------------
    def __enter__(self) -> "Tracer":
        resolved = []
        for module_name, attr, span, layer, hook in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise TracerError(f"traced name {module_name}.{attr} is missing or not callable")
            resolved.append((module, attr, self._wrap(original, span, layer, hook)))
        commands = getattr(importlib.import_module(CLI), "_COMMANDS", None)
        if not isinstance(commands, dict) or not commands:
            raise TracerError("lamsa.cli._COMMANDS is missing; cannot trace CLI commands")
        try:
            for module, attr, wrapper in resolved:
                self._saved.append((module, attr, getattr(module, attr), False))
                setattr(module, attr, wrapper)
            for name, fn in list(commands.items()):
                self._saved.append((commands, name, fn, True))
                commands[name] = self._wrap(fn, "cli.command", "cli", None)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, key, original, is_item = self._saved.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- the wrapper --------------------------------------------------
    def _wrap(self, fn: Callable, span: str, layer: str, hook: Callable[..., None] | None) -> Callable:
        trace, stack, open_spans = self.trace, self.stack, self.open_spans
        stats = trace.spans.setdefault(span, SpanStats())
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            open_spans[span] = open_spans.get(span, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count each exception once, at the innermost failure span
                if span in _FAILURE_SPANS and not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    key = type(exc).__name__
                    trace.errors[key] = trace.errors.get(key, 0) + 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                open_spans[span] -= 1
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[1]
                trace.layer_self_s[layer] += dt - frame[1]
                if parent is None or parent[0] != layer:
                    trace.layer_total_s[layer] += dt
                if parent is not None:
                    parent[1] += dt
            if hook is not None:
                hook(trace, self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced


def layer_metrics(trace: Trace) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    sp = trace.span
    steps = sp("simulate.step").calls
    trials = sp("simulate.trial").calls
    roots = trace.count("equilibria.roots_found")
    known_errors = ("NoSignChangeError", "StepSizeUnderflowError", "ProjectionFailureError")
    metrics: dict[str, tuple[float, str]] = {
        "model.field_evals": (sp("model.field").calls, "count"),
        "model.evals_per_step": (trace.count("model.field_evals_in_simulate") / steps if steps else 0.0, "ratio"),
        "model.field_s": (sp("model.field").total_s, "s"),
        "simulate.calls": (sp("simulate.simulate").calls, "count"),
        "simulate.steps_accepted": (steps, "count"),
        "simulate.step_trials": (trials, "count"),
        "simulate.accept_ratio": (steps / trials if trials else 0.0, "ratio"),
        "simulate.step_s": (sp("simulate.step").total_s, "s"),
        "simulate.self_s": (trace.layer_self_s["simulate"], "s"),
        "simulate.event_calls": (sp("simulate.event").calls, "count"),
        "simulate.event_s": (sp("simulate.event").total_s, "s"),
        "simulate.project_calls": (sp("simulate.project").calls, "count"),
        "simulate.project_s": (sp("simulate.project").total_s, "s"),
        "io.files": (trace.count("io.files"), "count"),
        "io.rows": (trace.count("io.rows"), "count"),
        "io.bytes": (trace.count("io.bytes"), "B"),
        "io.write_s": (trace.layer_total_s["io"], "s"),
        "equilibria.fixed_points_calls": (sp("equilibria.fixed_points").calls, "count"),
        "equilibria.roots_s": (sp("equilibria.roots").total_s, "s"),
        "equilibria.roots_validated_ratio": (
            trace.count("equilibria.interior_points") / roots if roots else 0.0, "ratio"),
        "stability.jacobian_calls": (sp("stability.jacobian").calls, "count"),
        "stability.jacobian_s": (sp("stability.jacobian").total_s, "s"),
        "stability.report_s": (sp("stability.report").total_s, "s"),
        "bifurcation.region_nodes": (trace.count("bifurcation.region_nodes"), "count"),
        "bifurcation.region_s": (sp("bifurcation.region").total_s, "s"),
        "bifurcation.trace_samples": (trace.count("bifurcation.trace_samples"), "count"),
        "bifurcation.corrector_iters": (trace.count("bifurcation.corrector_iters"), "count"),
        "bifurcation.trace_s": (sp("bifurcation.trace").total_s, "s"),
        "bifurcation.quiver_s": (sp("bifurcation.quiver").total_s, "s"),
        "cli.self_s": (trace.layer_self_s["cli"], "s"),
        "config.parse_s": (trace.layer_total_s["config"], "s"),
    }
    for name in known_errors:
        metrics[f"errors.{name}"] = (trace.errors.get(name, 0), "count")
    metrics["errors.other"] = (
        sum(n for name, n in trace.errors.items() if name not in known_errors), "count")
    return metrics
