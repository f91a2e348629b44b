"""Workload definitions, input set-up and one timed user session.

Every workload is the same session a user of odcast runs: ingest the event
CSVs, train by chronological replay, evaluate, then serve the trained
checkpoint twice, once through the ``odcast predict`` path
(``predict_walk`` with actuals plus the CSV dump) and once as a live
forecaster that hands the next batch over only after the previous forecast
has returned (a closed loop with one client).  The workloads differ in city
size and in how long each part of the session is, so that each stresses a
different layer; the README explains which.

Inputs come from ``odcast.synthesis`` with the benchmark's seed.  odcast
itself only ever sees the written CSV files and the catalog.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "odcast" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no odcast sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from odcast import evaluation, events, model, synthesis, training  # noqa: E402
from odcast.errors import OdcastError  # noqa: E402

TAU = 1800.0
HALF_LIFE = 7200.0
HOUR = 3600.0
CAP_FRAC = 0.6  # predict cap as a share of the busiest live window's event count


@dataclass(frozen=True)
class Workload:
    """One city and session shape.

    The history span starts at ``history_start_h`` and holds the
    train/validation/test windows of ``splits``; the live span follows it
    directly.  Messages are as wide as memories (msg_dim = dim).
    """

    name: str
    n: int
    dim: int
    heads: int
    epochs: int
    history_start_h: float
    splits: tuple[int, int, int]
    live_h: float

    @property
    def history_start(self) -> float:
        return self.history_start_h * HOUR

    @property
    def live_start(self) -> float:
        return self.history_start + sum(self.splits) * TAU

    @property
    def live_end(self) -> float:
        return self.live_start + self.live_h * HOUR

    def hyper(self) -> model.HyperParams:
        return model.HyperParams(n=self.n, dim=self.dim, msg_dim=self.dim,
                                 heads=self.heads, tau=TAU,
                                 decay_rate=math.log(2.0) / HALF_LIFE)

    def train_config(self, seed: int) -> training.TrainConfig:
        # patience == epochs: no run stops early, so every rep replays the same windows.
        return training.TrainConfig(max_epochs=self.epochs, splits=training.Splits(*self.splits),
                                    patience=self.epochs, lr=1e-4, seed=seed,
                                    t0=self.history_start)

    def replayed_train_windows(self) -> int:
        return self.epochs * (self.splits[0] + self.splits[1] - 1)

    def replayed_eval_windows(self) -> int:
        return sum(self.splits) - 1


WORKLOADS = {
    w.name: w for w in (
        # Criterion-7 model shape: 24 nodes, d=32, H=4; 36 h of history, 12 h live.
        Workload("train-city24", n=24, dim=32, heads=4, epochs=2,
                 history_start_h=0.0, splits=(48, 12, 12), live_h=12.0),
        # 80 nodes: 6,400 pair rows per forecast, ~3k events per daytime window.
        Workload("train-city80", n=80, dim=64, heads=4, epochs=1,
                 history_start_h=5.0, splits=(8, 2, 2), live_h=3.0),
        # Same model as train-city24, a short history and a 2-day live stream.
        Workload("stream-predict", n=24, dim=32, heads=4, epochs=1,
                 history_start_h=0.0, splits=(16, 4, 4), live_h=48.0),
    )
}


@dataclass
class Inputs:
    """The files odcast reads, plus what the benchmark needs to check its outputs."""

    history_csv: Path
    live_csv: Path
    catalog_csv: Path
    checkpoint: Path
    predictions_csv: Path
    history_events: int
    live_times: np.ndarray
    live_origins: np.ndarray
    live_dests: np.ndarray
    cap: int


def set_up(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the seeded stream and write the history and live CSVs."""
    cfg = synthesis.SynthConfig(n=w.n, communities=3, days=w.live_end / 86400.0, seed=seed)
    stream, catalog, _ = synthesis.generate(cfg)
    history = [ev for ev in stream if w.history_start <= ev.timestamp < w.live_start]
    live = [ev for ev in stream if w.live_start <= ev.timestamp < w.live_end]
    live_times = np.array([ev.timestamp for ev in live])
    per_window = np.bincount(((live_times - w.live_start) // TAU).astype(np.int64))
    inputs = Inputs(
        history_csv=workdir / "history.csv", live_csv=workdir / "live.csv",
        catalog_csv=workdir / "catalog.csv", checkpoint=workdir / "checkpoint.bin",
        predictions_csv=workdir / "predictions.csv", history_events=len(history),
        live_times=live_times,
        live_origins=np.array([ev.origin for ev in live], dtype=np.int64),
        live_dests=np.array([ev.destination for ev in live], dtype=np.int64),
        cap=max(1, int(CAP_FRAC * per_window.max())),
    )
    events.write_events_csv(history, catalog, inputs.history_csv)
    events.write_events_csv(live, catalog, inputs.live_csv)
    events.write_catalog_csv(catalog, inputs.catalog_csv)
    return inputs


@dataclass
class Session:
    """Timings, failure counts and output digests of one session."""

    seconds: float = 0.0
    ingest_s: float = 0.0
    ingest_events: int = 0
    train_s: float = 0.0
    eval_s: float = 0.0
    predict_s: float = 0.0
    predict_windows: int = 0
    latencies_s: list[float] = field(default_factory=list)
    mae: float = math.nan
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""


def _bad_matrices(mats, n: int) -> int:
    """Forecasts that are not finite, not (n, n) or negative somewhere."""
    return sum(1 for m in mats
               if m.shape != (n, n) or not np.all(np.isfinite(m)) or np.any(m < 0.0))


def _reference_actual(inp: Inputs, t: float, n: int) -> np.ndarray:
    """Trips in ``[t, t + tau)`` counted from the generated live stream."""
    lo, hi = np.searchsorted(inp.live_times, [t, t + TAU], side="left")
    flat = inp.live_origins[lo:hi] * n + inp.live_dests[lo:hi]
    return np.bincount(flat, minlength=n * n).reshape(n, n).astype(float)


def _untraced(name: str):
    return nullcontext()


def run_session(w: Workload, inp: Inputs, seed: int, span=_untraced) -> Session:
    """One full session; ``span(name)`` brackets each phase when tracing."""
    s = Session()
    hyper = w.hyper()
    n = w.n
    planned = w.replayed_train_windows() + w.replayed_eval_windows()
    clock = time.perf_counter
    started = clock()
    try:
        with span("phase.ingest"):
            t = clock()
            catalog = events.load_catalog(inp.catalog_csv)
            history = events.parse_events(inp.history_csv, catalog)
            live = events.parse_events(inp.live_csv, catalog)
            batches = events.batch_by_cap(live, w.live_start, TAU, inp.cap)
            s.ingest_s = clock() - t
            s.ingest_events = len(history) + len(live)
        planned += 2 * len(batches)

        with span("phase.train"):
            t = clock()
            trained = training.train(history, catalog, hyper, w.train_config(seed))
            s.train_s = clock() - t
            training.save_checkpoint(trained.params, trained.opt, hyper, inp.checkpoint)
        s.attempted += w.replayed_train_windows()
        if not all(math.isfinite(e.train_loss) and math.isfinite(e.val_mae)
                   for e in trained.history) or len(trained.history) != w.epochs:
            s.problems.append("training loss or validation MAE not finite, or early stop")

        with span("phase.evaluate"):
            t = clock()
            report = evaluation.evaluate(trained.params, history, catalog, hyper,
                                         training.Splits(*w.splits), t0=w.history_start)
            s.eval_s = clock() - t
        s.attempted += w.replayed_eval_windows()
        s.mae = report.all_pairs.mae
        eval_mats = [p.predicted for p in report.predictions]
        s.failed += _bad_matrices(eval_mats, n)

        with span("phase.predict"):
            t = clock()
            params, _, served = training.load_checkpoint(inp.checkpoint)
            stream = events.parse_events(inp.live_csv, catalog)
            walk = evaluation.predict_walk(params, stream, catalog, served, t0=w.live_start,
                                           cap=inp.cap, with_actual=True)
            evaluation.write_predictions_csv(walk, catalog, inp.predictions_csv)
            s.predict_s = clock() - t
        s.predict_windows = len(walk)
        s.attempted += len(walk)
        walk_mats = [p.predicted for p in walk]
        s.failed += _bad_matrices(walk_mats, n)

        with span("phase.serve"):
            bank = model.MemoryBank.initial(params, served, w.live_start)
            served_mats = []
            for batch in batches:
                t = clock()
                result = model.step(bank, batch, params, served, catalog)
                forecast = model.predict_od(result.z, params)
                s.latencies_s.append(clock() - t)
                served_mats.append(forecast.matrix)
        s.attempted += len(served_mats)
        s.failed += _bad_matrices(served_mats, n)
    except OdcastError as exc:
        s.problems.append(f"{type(exc).__name__}: {exc}")
        s.failed += planned - s.attempted
        s.attempted = planned
        return s
    finally:
        s.seconds = clock() - started

    if len(served_mats) != len(walk) or any(
            a.tobytes() != b.tobytes() for a, b in zip(served_mats, walk_mats)):
        s.problems.append("online forecasts differ from predict_walk's")
    series = events.od_matrix_series(stream, w.live_start, TAU,
                                     int(round((w.live_end - w.live_start) / TAU)), n)
    for p in walk:
        k = (p.window_start - w.live_start) / TAU
        on_grid = k == int(k) and int(k) < len(series)
        expected = series[int(k)] if on_grid else _reference_actual(inp, p.window_start, n)
        if not np.array_equal(p.actual, expected):
            s.problems.append(f"predict_walk actual at t={p.window_start} is wrong")
            break
    with open(inp.predictions_csv, "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != len(walk) * n * n:
        s.problems.append(f"predictions.csv has {rows} rows, expected {len(walk) * n * n}")

    digest = hashlib.sha256(np.float64(s.mae).tobytes())
    for m in eval_mats + walk_mats:
        digest.update(m.tobytes())
    s.digest = digest.hexdigest()
    return s

