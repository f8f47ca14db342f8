"""In-memory span tracing by wrapping public functions of gbp_ba.

Each wrapper is installed on the module or class attribute that the calling
code resolves at call time (for example `gbp_ba.engine.solve_spd_masked`,
which the engine imported by name), so calls made inside the program are
timed, not only calls made by the benchmark.  A span is
`[id, parent_id, name, t_start, t_end, attrs]`; spans live in a list until
the run ends and are then written out as JSON.  Uninstalling restores the
exact original objects.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

SPAN_ID, SPAN_PARENT, SPAN_NAME, SPAN_T0, SPAN_T1, SPAN_ATTRS = range(6)


def _rows(args, result):
    return {"rows": int(args[0].shape[0])}


def _solve_spd_counts(args, result):
    mats = args[0]
    return {"d": int(mats.shape[1]), "rows": int(mats.shape[0]), "singular": int((~result[1]).sum())}


def _linearize_counts(args, result):
    # bound method wrapper: args[0] is the graph, args[1] the factor ids
    return {"rows": int(len(args[1])), "aborted": int((~result).sum())}


def _solver_iterations(args, result):
    return {"iterations": result.iterations if hasattr(result, "iterations") else len(result)}


def program_targets():
    """(owner, attribute, span name, count function) for every wrapped call."""
    from gbp_ba import dataset_io, engine, factor_graph

    graph = factor_graph.FactorGraph
    return [
        (dataset_io, "load", "dataset_io.load", None),
        (factor_graph, "build", "factor_graph.build", None),
        (factor_graph, "project_many", "camera.project_many", _rows),
        (factor_graph, "jacobian_many", "camera.jacobian_many", _rows),
        (graph, "linearize_factors", "factor_graph.linearize_factors", _linearize_counts),
        (graph, "average_reprojection_error", "factor_graph.average_reprojection_error", None),
        (graph, "energy", "factor_graph.energy", None),
        (graph, "add_measurements", "factor_graph.add_measurements", None),
        (engine, "solve", "engine.solve", _solver_iterations),
        (engine, "run", "engine.run", _solver_iterations),
        (engine, "iterate", "engine.iterate", None),
        (engine, "solve_spd_masked", "batch_linalg.solve_spd_masked", _solve_spd_counts),
    ]


class Tracer:
    """Collects spans from wrapped functions; single-threaded use only."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, original, name, count):
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                    time.perf_counter(), 0.0, None]
            self.spans.append(span)
            self._stack.append(span[SPAN_ID])
            try:
                result = original(*args, **kwargs)
            finally:
                span[SPAN_T1] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[SPAN_ATTRS] = count(args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "t0", "t1", "attrs"], "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Per-span duration minus the durations of its direct children.

    Children of one span run one after another in a single thread, so their
    summed duration is the part of the parent's interval they cover.
    """
    out = [s[SPAN_T1] - s[SPAN_T0] for s in spans]
    for s in spans:
        if s[SPAN_PARENT] >= 0:
            out[s[SPAN_PARENT]] -= s[SPAN_T1] - s[SPAN_T0]
    return out


def _inside(spans, name: str) -> list[bool]:
    """For each span, whether some ancestor is named `name`."""
    flags = [False] * len(spans)
    for s in spans:  # parents precede children in the list
        p = s[SPAN_PARENT]
        if p >= 0:
            flags[s[SPAN_ID]] = flags[p] or spans[p][SPAN_NAME] == name
    return flags


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one run's spans.  Values are (value, unit);
    counts are computed exactly from array shapes and masks."""
    dur = [(s[SPAN_T1] - s[SPAN_T0]) * 1e3 for s in spans]
    self_ms = [t * 1e3 for t in self_times(spans)]
    in_iter = _inside(spans, "engine.iterate")

    def named(name, only_in_iter=False):
        return [s for s in spans if s[SPAN_NAME] == name and (in_iter[s[SPAN_ID]] or not only_in_iter)]

    iters = named("engine.iterate")
    n_iter = max(len(iters), 1)
    out = {
        "engine.iterate.ms_p50": (_median([dur[s[SPAN_ID]] for s in iters]), "ms"),
        "engine.iterate.self_ms_p50": (_median([self_ms[s[SPAN_ID]] for s in iters]), "ms"),
        "engine.solve.iters_p50": (
            _median([s[SPAN_ATTRS]["iterations"] for s in named("engine.solve") + named("engine.run")]),
            "count",
        ),
    }
    solves = named("batch_linalg.solve_spd_masked", only_in_iter=True)
    for d in (3, 6):
        part = [s for s in solves if s[SPAN_ATTRS]["d"] == d]
        rows = sum(s[SPAN_ATTRS]["rows"] for s in part)
        singular = sum(s[SPAN_ATTRS]["singular"] for s in part)
        out[f"batch_linalg.solve_spd_masked.d{d}.ms_per_iter"] = (sum(dur[s[SPAN_ID]] for s in part) / n_iter, "ms/iter")
        out[f"batch_linalg.solve_spd_masked.d{d}.rows_per_iter"] = (rows / n_iter, "rows/iter")
        out[f"batch_linalg.solve_spd_masked.d{d}.singular_frac"] = (singular / max(rows, 1), "frac")
    for name in ("factor_graph.average_reprojection_error", "factor_graph.energy"):
        out[f"{name}.ms_p50"] = (_median([dur[s[SPAN_ID]] for s in named(name)]), "ms")
    lin = named("factor_graph.linearize_factors")
    lin_rows = sum(s[SPAN_ATTRS]["rows"] for s in lin)
    out["factor_graph.linearize_factors.ms_total"] = (sum(dur[s[SPAN_ID]] for s in lin), "ms")
    out["factor_graph.linearize_factors.rows"] = (lin_rows, "rows")
    out["factor_graph.linearize_factors.aborted_frac"] = (
        sum(s[SPAN_ATTRS]["aborted"] for s in lin) / max(lin_rows, 1), "frac")
    out["factor_graph.build.ms"] = (_median([dur[s[SPAN_ID]] for s in named("factor_graph.build")]), "ms")
    projections = named("camera.project_many", only_in_iter=True)
    out["camera.project_many.rows_per_iter"] = (sum(s[SPAN_ATTRS]["rows"] for s in projections) / n_iter, "rows/iter")
    out["camera.project_many.ms_per_iter"] = (sum(dur[s[SPAN_ID]] for s in projections) / n_iter, "ms/iter")
    out["camera.jacobian_many.rows"] = (sum(s[SPAN_ATTRS]["rows"] for s in named("camera.jacobian_many")), "rows")
    out["dataset_io.load.ms"] = (_median([dur[s[SPAN_ID]] for s in named("dataset_io.load")]), "ms")
    adds = named("factor_graph.add_measurements")
    if adds:
        out["factor_graph.add_measurements.ms_p50"] = (_median([dur[s[SPAN_ID]] for s in adds]), "ms")
    return out


def iterate_balance_ms(spans) -> float:
    """Largest |self + direct children - inclusive| over engine.iterate spans."""
    self_ms = self_times(spans)
    children: dict[int, float] = {}
    for s in spans:
        if s[SPAN_PARENT] >= 0:
            children[s[SPAN_PARENT]] = children.get(s[SPAN_PARENT], 0.0) + s[SPAN_T1] - s[SPAN_T0]
    worst = 0.0
    for s in spans:
        if s[SPAN_NAME] == "engine.iterate":
            incl = s[SPAN_T1] - s[SPAN_T0]
            worst = max(worst, abs(self_ms[s[SPAN_ID]] + children.get(s[SPAN_ID], 0.0) - incl))
    return worst * 1e3
