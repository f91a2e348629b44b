"""Metrics, the historical-average baseline, and the chronological replay of the model."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import LengthMismatch
from .events import (EventBatch, Events, EventStream, NodeCatalog, batch_by_cap,
                     batch_by_window, build_od_matrix, csv_field, default_t0,
                     od_matrix_series, write_csv)
from .model import HyperParams, MemoryBank, ModelParams, StepResult, predict_od, step
from .multilevel import RelationTensors

if TYPE_CHECKING:
    from .training import Splits


@dataclass
class MetricReport:
    """MAE/RMSE/PCC over flattened (window, origin, destination) cells.

    ``pcc`` is None when either flattened vector is constant (or empty),
    rather than silently zero.
    """

    scope: str
    mae: float
    rmse: float
    pcc: float | None
    windows: int
    cells: int

    def to_json_dict(self) -> dict:
        mae, rmse = (x if math.isfinite(x) else None for x in (self.mae, self.rmse))
        return {"scope": self.scope, "mae": mae, "rmse": rmse,
                "pcc": self.pcc, "windows": self.windows, "cells": self.cells}


def compute_metrics(preds: Sequence[np.ndarray], truths: Sequence[np.ndarray],
                    scope: str = "all_pairs") -> MetricReport:
    """Flatten prediction/truth sequences and compare.

    Scope ``above_average`` keeps only cells whose TRUE demand exceeds the
    average demand over every cell of the truth sequence.
    """
    if len(preds) != len(truths):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(truths)} truths")
    for k, (p, t) in enumerate(zip(preds, truths)):
        if np.shape(p) != np.shape(t):
            raise LengthMismatch(f"window {k}: prediction {np.shape(p)} vs truth {np.shape(t)}")
    if scope not in ("all_pairs", "above_average"):
        raise ValueError(f"unknown scope {scope!r}")
    if not preds:
        return MetricReport(scope, math.nan, math.nan, None, 0, 0)

    yhat = np.concatenate([np.asarray(p, dtype=float).ravel() for p in preds])
    y = np.concatenate([np.asarray(t, dtype=float).ravel() for t in truths])
    if scope == "above_average":
        keep = y > y.mean()
        y, yhat = y[keep], yhat[keep]

    cells = y.size
    if cells == 0:
        return MetricReport(scope, math.nan, math.nan, None, len(preds), 0)
    err = y - yhat
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err ** 2).mean()))
    sy, syh = float(y.std()), float(yhat.std())
    if sy == 0.0 or syh == 0.0:
        return MetricReport(scope, mae, rmse, None, len(preds), cells)
    pcc = float(((y - y.mean()) * (yhat - yhat.mean())).mean() / (sy * syh))
    return MetricReport(scope, mae, rmse, pcc, len(preds), cells)


class HistoricalAverage:
    """Per time-of-day-slot mean of the training OD matrices.

    A test window's slot is its start time modulo ``day_length``, quantized
    by tau.  Slots never seen in training fall back to the global mean matrix
    and are recorded in ``unseen_slots``.
    """

    def __init__(self, slot_means: dict[int, np.ndarray], global_mean: np.ndarray,
                 tau: float, day_length: float = 86400.0):
        self.slot_means = slot_means
        self.global_mean = global_mean
        self.tau = tau
        self.day_length = day_length
        self.unseen_slots: list[int] = []

    def slot_of(self, window_start: float) -> int:
        return int(math.floor(((window_start % self.day_length) + 1e-9) / self.tau))

    def predict(self, window_start: float) -> np.ndarray:
        slot = self.slot_of(window_start)
        mean = self.slot_means.get(slot)
        if mean is None:
            self.unseen_slots.append(slot)
            return self.global_mean.copy()
        return mean.copy()


def ha_baseline(train_truths: Sequence[tuple[float, np.ndarray]], tau: float,
                day_length: float = 86400.0) -> HistoricalAverage:
    """Fit the historical-average predictor from (window_start, matrix) pairs."""
    if not train_truths:
        raise LengthMismatch("historical average needs at least one training window")
    grouped: dict[int, list[np.ndarray]] = {}
    probe = HistoricalAverage({}, np.zeros_like(np.asarray(train_truths[0][1])), tau,
                              day_length)
    for window_start, matrix in train_truths:
        grouped.setdefault(probe.slot_of(window_start), []).append(np.asarray(matrix, dtype=float))
    slot_means = {slot: np.mean(mats, axis=0) for slot, mats in grouped.items()}
    global_mean = np.mean([m for _, m in train_truths], axis=0)
    return HistoricalAverage(slot_means, global_mean, tau, day_length)


@dataclass
class WindowPrediction:
    window_start: float
    window_end: float
    predicted: np.ndarray
    actual: np.ndarray | None


@dataclass
class EvalResult:
    all_pairs: MetricReport
    above_average: MetricReport
    predictions: list[WindowPrediction]


class Replay:
    """The model's chronological walk over an event stream, batched once.

    Batches are tau windows from ``t0`` (by default the first event floored
    to a tau boundary) through the last event, split every ``cap`` events
    when a cap is given.  With ``windows`` set, the walk covers exactly the
    first ``windows`` windows and drops the events outside them; otherwise
    the batching refuses a ``t0`` after the first event, as it refuses a
    ``cap`` below 1 (``ValueError``).  Each iteration starts a fresh
    :class:`MemoryBank` at ``t0`` and yields ``(batch, step result, bank)``.
    """

    def __init__(self, params: ModelParams, events: Events, catalog: NodeCatalog,
                 hyper: HyperParams, t0: float | None = None, cap: int | None = None,
                 windows: int | None = None):
        self.params, self.catalog, self.hyper = params, catalog, hyper
        stream = EventStream.of(events)
        tau = hyper.tau
        self.t0 = default_t0(stream, tau) if t0 is None else t0
        until = None
        if windows is not None:
            until = self.t0 + windows * tau
            lo, hi = np.searchsorted(stream.times, [self.t0, until], side="left")
            stream = stream[lo:hi]
        if cap is None:
            self.batches = batch_by_window(stream, self.t0, tau, until=until)
        else:
            self.batches = batch_by_cap(stream, self.t0, tau, cap, until=until)

    def __iter__(self) -> Iterator[tuple[EventBatch, StepResult, MemoryBank]]:
        bank = MemoryBank.initial(self.params, self.hyper, self.t0)
        for batch in self.batches:
            yield batch, step(bank, batch, self.params, self.hyper, self.catalog), bank


def evaluate(params: ModelParams, events: Events, catalog: NodeCatalog,
             hyper: HyperParams, splits: "Splits", t0: float | None = None) -> EvalResult:
    """Chronological walk over train+validation+test, reporting on test targets.

    Memories carry over between the phases exactly as a deployed system
    would run; no parameters are updated anywhere.
    """
    events = EventStream.of(events)
    tau = hyper.tau
    total = splits.total
    # The last window is only a target: walk the ones before it.
    replay = Replay(params, events, catalog, hyper, t0, windows=total - 1)
    t0 = replay.t0
    first_test = splits.train_windows + splits.val_windows

    truths = od_matrix_series(events, t0, tau, total, hyper.n)
    predictions: list[WindowPrediction] = []
    for w, (_, result, _) in enumerate(replay):
        target = w + 1
        if target >= first_test:
            pred = predict_od(result.z, params)
            ws, we = t0 + target * tau, t0 + (target + 1) * tau
            predictions.append(WindowPrediction(ws, we, pred.matrix, truths[target]))

    preds = [p.predicted for p in predictions]
    truths = [p.actual for p in predictions]
    return EvalResult(
        all_pairs=compute_metrics(preds, truths, "all_pairs"),
        above_average=compute_metrics(preds, truths, "above_average"),
        predictions=predictions,
    )


def predict_walk(params: ModelParams, events: Events, catalog: NodeCatalog,
                 hyper: HyperParams, t0: float | None = None, cap: int | None = None,
                 with_actual: bool = True) -> list[WindowPrediction]:
    """One prediction per batch of the whole stream, each for the next tau seconds.

    With ``cap`` given, busy windows are split every ``cap`` events, so
    memories advance by varied timespans and predictions densify at peak
    (each sub-batch yields a prediction for [window_end, window_end + tau)).
    :class:`Replay` refuses a bad ``t0`` or ``cap`` before any step.
    """
    stream = EventStream.of(events)
    tau = hyper.tau
    replay = Replay(params, stream, catalog, hyper, t0, cap)
    if with_actual:
        # One bisection of the sorted stream bounds every target window.
        # side="right" keeps an event at exactly t + tau in the slice;
        # build_od_matrix applies the exact half-open test to it.
        ends = np.array([batch.window_end for batch in replay.batches])
        los = np.searchsorted(stream.times, ends, side="left")
        his = np.searchsorted(stream.times, ends + tau, side="right")
    out: list[WindowPrediction] = []
    for k, (batch, result, _) in enumerate(replay):
        t = batch.window_end
        actual = (build_od_matrix(stream[los[k]:his[k]], t, tau, hyper.n)
                  if with_actual else None)
        out.append(WindowPrediction(t, t + tau, predict_od(result.z, params).matrix, actual))
    return out


def final_relations(params: ModelParams, events: Events,
                    catalog: NodeCatalog, hyper: HyperParams,
                    t0: float | None = None) -> RelationTensors:
    """Replay the whole stream and return the relation tensors of the last step.
    A no-ml model (``no_multilevel``) has none: it is refused before the replay."""
    if hyper.no_multilevel:
        raise ValueError("relations are not defined under the no-ml ablation")
    replay = Replay(params, events, catalog, hyper, t0)
    if not replay.batches:  # an empty stream still gets one idle window
        replay.batches.append(EventBatch((), replay.t0, replay.t0 + hyper.tau))
    for _, result, _ in replay:
        relations = result.relations
    return relations


def export_representations(params: ModelParams, events: Events, catalog: NodeCatalog,
                           hyper: HyperParams, nodes: Sequence[int], path,
                           t0: float | None = None) -> None:
    """Dump each tracked node's representation after every batch of the whole stream.

    Rows are ``timestamp,node,dim,value`` with timestamp the batch end; the
    raw d-dimensional series is suitable for offline projection (PCA etc.).
    A bad ``t0``, an empty node list or a node out of range fails before any step.
    """
    replay = Replay(params, events, catalog, hyper, t0)
    if not nodes:
        raise ValueError("the node list is empty")
    for node in nodes:
        if not 0 <= node < hyper.n:
            raise ValueError(f"node {node} out of range 0..{hyper.n - 1}")

    def rows():
        for batch, _, bank in replay:
            reps = bank.station_reps()
            for node in nodes:
                for dim in range(hyper.dim):
                    yield f"{batch.window_end!r},{node},{dim},{float(reps[node, dim])!r}\n"

    write_csv(path, ("timestamp", "node", "dim", "value"), rows())


def _actual_cells(actual) -> list[str]:
    """``repr`` of each actual value; when all are counts below the number of
    cells, through a table of count strings no longer than the window."""
    values = np.asarray(actual, dtype=float).ravel()
    if (values.size and not np.signbit(values).any() and values.max() < values.size
            and np.array_equal(values, np.floor(values))):
        table = [repr(float(k)) for k in range(int(values.max()) + 1)]
        return [table[k] for k in values.astype(np.intp).tolist()]
    return [repr(y) for y in values.tolist()]


def write_predictions_csv(predictions: Sequence[WindowPrediction], catalog: NodeCatalog,
                          path) -> None:
    """Prediction dump: ``origin,destination,window_start,window_end,predicted,actual``.

    The ``actual`` column is left out when any window has no actual matrix.
    Names are quoted where ``csv.writer`` would quote them.  ``predicted`` is
    fixed notation to six decimals (``format(x, ".6f")``), a millionth of a
    trip, so it does not round-trip the float64 forecast; window bounds and
    ``actual`` are written as ``repr`` writes them.  Each window's rows are
    filled into one ``%`` template per node count.
    """
    include_actual = all(p.actual is not None for p in predictions)
    # One row's conversions: the window bounds, predicted and (maybe) actual.
    row, stride = ("%s%.6f,%s\n", 3) if include_actual else ("%s%.6f\n", 2)
    templates: dict[int, str] = {}  # node count -> the rows of one window
    with open(path, "w", encoding="utf-8", newline="") as fh:
        header = "origin,destination,window_start,window_end,predicted"
        fh.write(header + (",actual\n" if include_actual else "\n"))
        for p in predictions:
            n = p.predicted.shape[0]
            if n not in templates:
                names = [csv_field(catalog.name_of(i)).replace("%", "%%") for i in range(n)]
                templates[n] = "".join(f"{o},{d},{row}" for o in names for d in names)
            cells = [f"{p.window_start!r},{p.window_end!r},"] * (n * n * stride)
            cells[1::stride] = np.asarray(p.predicted, dtype=float).ravel().tolist()
            if include_actual:
                cells[2::stride] = _actual_cells(p.actual)
            fh.write(templates[n] % tuple(cells))
