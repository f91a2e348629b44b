"""Spans and exact op counts, recorded from outside odcast.

odcast modules import each other's functions by name (``from .model import
step``), so each function is wrapped at every module attribute its callers
look it up through.  The library code itself runs unchanged; wrappers are
installed only for the duration of a traced or counted session and removed
afterwards.

Spans carry a name, start and end (``perf_counter_ns``), the index of the
enclosing span (-1 at the top) and the window id, which counts calls of
``model.step``.  Op counts come from a separate session with counting
wrappers only, so that they do not perturb the span timings.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter_ns

import workloads  # noqa: F401  (puts odcast's sources on sys.path)
from odcast import autodiff, evaluation, events, model, training

MODULES = {"autodiff": autodiff, "evaluation": evaluation, "events": events,
           "model": model, "training": training}

# Span name -> every "module.attribute" through which callers reach the function.
SPAN_POINTS = {
    "events.load_catalog": ("events.load_catalog",),
    "events.parse_events": ("events.parse_events",),
    "events.batch_by_cap": ("events.batch_by_cap", "evaluation.batch_by_cap"),
    "events.batch_by_window": ("events.batch_by_window", "training.batch_by_window",
                               "evaluation.batch_by_window"),
    "events.od_matrix_series": ("events.od_matrix_series", "training.od_matrix_series",
                                "evaluation.od_matrix_series"),
    "events.build_od_matrix": ("evaluation.build_od_matrix",),
    "model.step": ("model.step", "training.step", "evaluation.step"),
    "memory.aggregate_messages": ("model.aggregate_messages",),
    "multilevel.compute_relations": ("model.compute_relations",),
    "multilevel.project_cluster_messages": ("model.project_cluster_messages",),
    "multilevel.project_area_message": ("model.project_area_message",),
    "multilevel.update_level_memories": ("model.update_level_memories",),
    "multilevel.fuse": ("model.fuse",),
    "model.predict_od": ("model.predict_od", "training.predict_od", "evaluation.predict_od"),
    "model.od_loss": ("training.od_loss",),
    "autodiff.backward": ("training.backward",),
    "training.adam_step": ("training.adam_step",),
    "evaluation.compute_metrics": ("evaluation.compute_metrics",),
    "training.train": ("training.train",),
    "training.save_checkpoint": ("training.save_checkpoint",),
    "training.load_checkpoint": ("training.load_checkpoint",),
    "evaluation.evaluate": ("evaluation.evaluate",),
    "evaluation.predict_walk": ("evaluation.predict_walk",),
    "evaluation.write_predictions_csv": ("evaluation.write_predictions_csv",),
}

# The public tape ops of odcast.autodiff; none of them calls another.
OPS = ("matmul", "transpose", "add", "mul", "scale", "exp", "relu", "square", "softmax",
       "tensor_sum", "mean", "concat", "split")

# Layers called once per window in which they run: reported as ms per call.
PER_WINDOW = ("memory.aggregate_messages", "multilevel.compute_relations",
              "multilevel.project_cluster_messages", "multilevel.project_area_message",
              "multilevel.update_level_memories", "multilevel.fuse", "model.predict_od",
              "model.od_loss", "autodiff.backward", "training.adam_step")
# Layers reported as total ms per session.
PER_SESSION = ("events.build_od_matrix", "events.parse_events", "events.batch_by_cap",
               "training.load_checkpoint", "evaluation.write_predictions_csv")

# name -> (unit, better); the per-layer metrics of BENCHMARK.json.
LAYER_METRICS = {
    **{f"{name}.ms": ("ms", "lower") for name in PER_SESSION},
    "events.build_od_matrix.calls": ("count", "lower"),
    **{f"{name}.ms_per_window": ("ms", "lower") for name in PER_WINDOW},
    "model.step.self_ms_per_window": ("ms", "lower"),
    "autodiff.ops_per_window": ("count", "lower"),
    "autodiff.matmul_gflop_per_window": ("GFLOP", "lower"),
    "autodiff.matmul_gb_per_window": ("GB", "lower"),
    "memory.events_per_batch": ("count", "higher"),
    "trace.uncovered_frac": ("frac", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def _lookup(point: str):
    module, attr = point.split(".")
    return MODULES[module], attr


@contextmanager
def patched(replacements: dict[str, object]):
    """Set ``module.attribute`` lookups to replacements; restore them on exit."""
    saved = {point: getattr(*_lookup(point)) for point in replacements}
    try:
        for point, fn in replacements.items():
            setattr(*_lookup(point), fn)
        yield
    finally:
        for point, fn in saved.items():
            setattr(*_lookup(point), fn)


class Tracer:
    """In-memory span recorder; ``spans`` rows are [name, start, end, parent, window]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.window = -1

    def _enter(self, name: str) -> None:
        if name == "model.step":
            self.window += 1
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), 0, parent, self.window])

    def _exit(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def installed(self):
        return patched({point: self._wrap(name, getattr(*_lookup(point)))
                        for name, points in SPAN_POINTS.items() for point in points})

    def by_name(self) -> dict[str, dict[str, float]]:
        """Total ms, self ms (minus child spans) and calls per span name."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - covered[i]) / 1e6
            row["calls"] += 1
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one session's spans."""
        rows = self.by_name()
        empty = {"ms": 0.0, "self_ms": 0.0, "calls": 0}

        def per_call(name: str, key: str = "ms") -> float:
            row = rows.get(name, empty)
            return row[key] / max(row["calls"], 1)

        out = {f"{name}.ms": rows.get(name, empty)["ms"] for name in PER_SESSION}
        out["events.build_od_matrix.calls"] = rows.get("events.build_od_matrix", empty)["calls"]
        out.update({f"{name}.ms_per_window": per_call(name) for name in PER_WINDOW})
        out["model.step.self_ms_per_window"] = per_call("model.step", "self_ms")
        # Share of the timed phases that no call into odcast covers.
        phases = sum(row["ms"] for name, row in rows.items() if name.startswith("phase."))
        uncovered = sum(row["self_ms"] for name, row in rows.items() if name.startswith("phase."))
        out["trace.uncovered_frac"] = uncovered / phases if phases else 0.0
        return out


class OpCounter:
    """Exact tape-op counts, and matmul work computed from operand shapes.

    A matmul of (m, k) by (k, n) costs 2mkn flops and moves 8(mk + kn + mn)
    bytes forward.  When its output is on a tape that ``backward`` runs, its
    vector-Jacobian product adds two more products of the same size: 4mkn
    flops and 16(mk + kn + mn) bytes.  Such products are charged when
    ``backward`` is called for the window they were recorded in.
    """

    def __init__(self):
        self.ops: dict[str, int] = {op: 0 for op in OPS}
        self.windows = 0
        self.events = 0
        self.flop = 0
        self.bytes = 0
        self._pending_flop = 0
        self._pending_bytes = 0

    def _count(self, op: str, fn):
        def counted(*args, **kwargs):
            self.ops[op] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_matmul(self, fn):
        def counted(a, b):
            self.ops["matmul"] += 1
            out = fn(a, b)
            (m, k), n = a.data.shape, b.data.shape[1]
            elements = m * k + k * n + m * n
            self.flop += 2 * m * k * n
            self.bytes += 8 * elements
            if out.requires_grad:
                self._pending_flop += 4 * m * k * n
                self._pending_bytes += 16 * elements
            return out
        return counted

    def _count_window(self, fn):
        def counted(bank, batch, *args, **kwargs):
            self.windows += 1
            self.events += len(batch)
            self._pending_flop = self._pending_bytes = 0
            return fn(bank, batch, *args, **kwargs)
        return counted

    def _count_backward(self, fn):
        def counted(loss):
            self.flop += self._pending_flop
            self.bytes += self._pending_bytes
            self._pending_flop = self._pending_bytes = 0
            return fn(loss)
        return counted

    def installed(self):
        replacements = {f"autodiff.{op}": self._count(op, getattr(autodiff, op))
                        for op in OPS if op != "matmul"}
        replacements["autodiff.matmul"] = self._count_matmul(autodiff.matmul)
        for point in SPAN_POINTS["model.step"]:
            replacements[point] = self._count_window(getattr(*_lookup(point)))
        replacements["training.backward"] = self._count_backward(training.backward)
        return patched(replacements)

    def raw(self) -> dict:
        return {"ops": dict(self.ops), "windows": self.windows, "events": self.events,
                "matmul_flop": self.flop, "matmul_bytes": self.bytes}

    def layer_metrics(self) -> dict[str, float]:
        windows = max(self.windows, 1)
        return {
            "autodiff.ops_per_window": sum(self.ops.values()) / windows,
            "autodiff.matmul_gflop_per_window": self.flop / 1e9 / windows,
            "autodiff.matmul_gb_per_window": self.bytes / 1e9 / windows,
            "memory.events_per_batch": self.events / windows,
        }


def median_metrics(per_session: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_session) for name in per_session[0]}
