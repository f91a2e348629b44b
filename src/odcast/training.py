"""Chronological training loop with Adam, early stopping, and checkpointing.

Each epoch replays the stream from the initial memory bank: step through
window k's events, predict window k+1, take one Adam step on the masked OD
loss against window k+1's ground truth.  The walk continues into the
validation span with updates disabled; validation MAE over all pairs drives
early stopping.  Test windows are never touched here.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import evaluation
from .autodiff import backward, grad_of, zero_grads
from .errors import ChecksumMismatch, EmptyTrainSplit, IoError, ShapeError, VersionMismatch
from .events import Events, EventStream, NodeCatalog, od_matrix_series, write_csv
from .events import batch_by_window  # noqa: F401  (perfbench traces training.batch_by_window)
from .model import (HyperParams, ModelParams, empty_params, init_params, od_loss, param_layout,
                    predict_od)
from .model import step  # noqa: F401  (perfbench traces training.step)

CHECKPOINT_MAGIC = b"CMODCKPT"
# Version 2 checksums the header, the manifest and the payload; version 1,
# still read, checksummed the payload alone.
CHECKPOINT_VERSION = 2
_SIZES = ("n", "dim", "msg_dim", "heads", "rel_dim", "n_clusters")


# -- Adam ---------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's settings and moments.  :meth:`attach` lays ``flat_m`` and ``flat_v`` out
    like a model's ``ModelParams.flat``, with ``m[name]`` and ``v[name]`` their views
    under the checkpoint names, and sizes the two work buffers that every step reuses,
    so that a step allocates no parameter-sized array (the heap would trim such arrays
    and fault them back in on every step)."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    flat_m: np.ndarray | None = field(default=None, repr=False)
    flat_v: np.ndarray | None = field(default=None, repr=False)

    def attach(self, params: ModelParams) -> "AdamState":
        """Zero moments laid out like ``params.flat``; returns the state."""
        self.flat_m, self.flat_v = np.zeros(params.flat.size), np.zeros(params.flat.size)
        self.m, self.v = params.named_views(self.flat_m), params.named_views(self.flat_v)
        self._work = np.empty((2, params.flat.size))  # the gradient, then scratch
        return self


def adam_step(params: ModelParams, opt: AdamState) -> AdamState:
    """One bias-corrected Adam update of ``params.flat``, in place, from the gradients
    the last backward pass left on its tensors (zero where it did not reach).  ``opt``
    must be attached to ``params``; the update runs as in-place vector ops on the flat
    moments and work buffers."""
    g, scratch = opt._work
    grads = []
    for name, tensor in params.tensors.items():
        grad = grad_of(tensor)
        if grad.shape != tensor.data.shape:
            raise ShapeError(f"gradient for {name!r} has shape {grad.shape}, "
                             f"parameter has {tensor.data.shape}")
        grads.append(grad.ravel())
    np.concatenate(grads, out=g)
    opt.step_count += 1
    t = opt.step_count
    m, v = opt.flat_m, opt.flat_v
    m *= opt.beta1
    m += np.multiply(g, 1.0 - opt.beta1, out=scratch)                  # b1 m + (1 - b1) g
    v *= opt.beta2
    v += np.multiply(np.multiply(g, 1.0 - opt.beta2, out=scratch), g, out=scratch)
    denom = np.sqrt(np.divide(v, 1.0 - opt.beta2 ** t, out=scratch), out=scratch)
    denom += opt.eps
    step = np.divide(m, 1.0 - opt.beta1 ** t, out=g)  # g is spent: reuse it
    step *= opt.lr
    step /= denom                                      # lr m_hat / (sqrt(v_hat) + eps)
    params.flat -= step
    return opt


# -- configuration ------------------------------------------------------


@dataclass(frozen=True)
class Splits:
    """Contiguous chronological window counts: train, then validation, then test."""

    train_windows: int
    val_windows: int
    test_windows: int = 0

    def __post_init__(self):
        if self.train_windows < 2:
            raise EmptyTrainSplit("need at least two training windows (state + target)")
        if self.val_windows < 1 or self.test_windows < 0:
            raise ValueError("val_windows must be >= 1 and test_windows >= 0")

    @property
    def total(self) -> int:
        return self.train_windows + self.val_windows + self.test_windows

    @classmethod
    def from_days(cls, train_days: float, val_days: float, test_days: float, tau: float,
                  day_length: float = 86400.0) -> "Splits":
        """Window counts of the three spans; no span may be negative, and the day must
        hold a whole number of windows, at least one."""
        for span, days in zip(("train", "val", "test"), (train_days, val_days, test_days)):
            if days < 0:
                raise ValueError(f"bad value for {span}_days: {days!r} is negative")
        if day_length <= 0:
            raise ValueError(f"bad value for day_length: {day_length!r} is not positive")
        per_day = round(day_length / tau)
        if per_day < 1 or abs(day_length / tau - per_day) > 1e-9:
            raise ValueError(f"tau {tau} does not divide the day length {day_length}")
        return cls(train_windows=round(train_days * per_day),
                   val_windows=round(val_days * per_day),
                   test_windows=round(test_days * per_day))


@dataclass
class TrainConfig:
    max_epochs: int
    splits: Splits
    patience: int = 10
    lr: float = 1e-4
    seed: int = 0
    t0: float | None = None

    def __post_init__(self):
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be >= 1")
        if not self.lr > 0:
            raise ValueError(f"bad value for lr: {self.lr!r} is not positive")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_mae: float
    val_rmse: float
    val_pcc: float  # nan when validation variance is degenerate
    seconds: float

    def row(self) -> str:
        return (f"{self.epoch},{self.train_loss!r},{self.val_mae!r},{self.val_rmse!r},"
                f"{self.val_pcc!r},{self.seconds!r}")


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochStats]
    best_epoch: int
    best_val_mae: float
    opt: AdamState


class EarlyStopper:
    """Strict-improvement tracker: stop after ``patience`` stale epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.stale = 0
        self.epoch = 0

    def update(self, value: float) -> bool:
        """Record one epoch's metric; returns True when training should stop."""
        self.epoch += 1
        if value < self.best:
            self.best = value
            self.best_epoch = self.epoch
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


def write_history(history: Sequence[EpochStats], path) -> None:
    write_csv(path, ("epoch", "train_loss", "val_mae", "val_rmse", "val_pcc", "seconds"),
              (stats.row() + "\n" for stats in history))


# -- the loop ------------------------------------------------------------


def train(events: Events, catalog: NodeCatalog, hyper: HyperParams, tc: TrainConfig,
          on_epoch: Callable[[EpochStats], None] | None = None) -> TrainResult:
    """Train from scratch, returning the best-validation parameters.

    Stops once validation MAE has failed to improve for ``patience``
    consecutive epochs (or after ``max_epochs``).  The memory bank is reset
    to the initial state at the start of every epoch, so epochs are
    independent replays.
    """
    events = EventStream.of(events)
    splits = tc.splits
    walk_windows = splits.train_windows + splits.val_windows
    params = init_params(hyper, tc.seed)
    # The last window is only a target: walk the ones before it.
    replay = evaluation.Replay(params, events, catalog, hyper, tc.t0, windows=walk_windows - 1)
    truths = od_matrix_series(events, replay.t0, hyper.tau, walk_windows, hyper.n)

    opt = AdamState(lr=tc.lr).attach(params)

    history: list[EpochStats] = []
    stopper = EarlyStopper(tc.patience)
    best = params.flat.copy()

    for epoch in range(1, tc.max_epochs + 1):
        started = time.perf_counter()
        train_losses: list[float] = []
        val_preds: list[np.ndarray] = []
        val_truths: list[np.ndarray] = []

        for w, (_, result, _) in enumerate(replay):
            target = w + 1
            if target < splits.train_windows:
                pred = predict_od(result.z, params)
                loss = od_loss(pred.raw, truths[target], mse_loss=hyper.mse_loss)
                backward(loss)
                adam_step(params, opt)
                zero_grads(params.tensors.values())
                train_losses.append(loss.item())
            else:
                pred = predict_od(result.z, params)
                val_preds.append(pred.matrix)
                val_truths.append(truths[target])

        report = evaluation.compute_metrics(val_preds, val_truths, scope="all_pairs")
        stats = EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(train_losses)),
            val_mae=report.mae,
            val_rmse=report.rmse,
            val_pcc=report.pcc if report.pcc is not None else math.nan,
            seconds=time.perf_counter() - started,
        )
        history.append(stats)
        if on_epoch is not None:
            on_epoch(stats)

        should_stop = stopper.update(stats.val_mae)
        if stopper.best_epoch == epoch:
            best[...] = params.flat
        if should_stop:
            break

    params.flat[...] = best
    return TrainResult(params=params, history=history, best_epoch=stopper.best_epoch,
                       best_val_mae=stopper.best, opt=opt)


# -- checkpoints ---------------------------------------------------------


def _checksum(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()[:8]


def save_checkpoint(params: ModelParams, opt: AdamState | None, hyper: HyperParams,
                    path) -> None:
    """Binary checkpoint: magic, version, JSON manifest, float64 payload, and a
    checksum of everything before it."""
    arrays: list[tuple[str, np.ndarray]] = [(n, t.data) for n, t in params.named_tensors()]
    adam_meta = None
    if opt is not None:
        adam_meta = {"lr": opt.lr, "beta1": opt.beta1, "beta2": opt.beta2, "eps": opt.eps,
                     "step_count": opt.step_count}
        arrays.extend((f"adam.m.{name}", arr) for name, arr in sorted(opt.m.items()))
        arrays.extend((f"adam.v.{name}", arr) for name, arr in sorted(opt.v.items()))

    manifest = {
        "hyper": asdict(hyper),
        "adam": adam_meta,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    header = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(manifest_bytes))
    body = b"".join([header, manifest_bytes]
                    + [np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays])
    try:
        with open(path, "wb") as fh:
            fh.write(body)
            fh.write(_checksum(body))
    except OSError as exc:
        raise IoError(f"cannot write checkpoint {path}: {exc}") from exc


def _read_manifest(raw: bytes) -> tuple[HyperParams, AdamState | None, list]:
    """Decode the JSON manifest into hyperparameters, Adam state and array shapes."""
    try:
        manifest = json.loads(raw.decode("utf-8"))
        shapes = [(str(name), [int(s) for s in shape]) for name, shape in manifest["arrays"]]
        # Older checkpoints carry the dropped ``cap`` and ``feat_dim``, which was always n.
        stored = {k: v for k, v in manifest["hyper"].items() if k != "cap"}
        if stored.pop("feat_dim", stored.get("n")) != stored.get("n"):
            raise VersionMismatch("checkpoint has node features other than one-hot")
        hyper = HyperParams(**stored)
        meta = manifest["adam"]
        opt = None if meta is None else AdamState(
            lr=float(meta["lr"]), beta1=float(meta["beta1"]), beta2=float(meta["beta2"]),
            eps=float(meta["eps"]), step_count=int(meta["step_count"]))
    except (ValueError, TypeError, KeyError, AttributeError, OverflowError) as exc:
        raise VersionMismatch(f"malformed checkpoint manifest: {exc}") from exc
    if any(s < 0 for _, shape in shapes for s in shape):
        raise VersionMismatch("malformed checkpoint manifest: negative array extent")
    if any(type(getattr(hyper, k)) is not int for k in _SIZES):
        raise VersionMismatch(f"malformed checkpoint manifest: {', '.join(_SIZES)} "
                              "must be integers")
    return hyper, opt, shapes


def load_checkpoint(path) -> tuple[ModelParams, AdamState | None, HyperParams]:
    """Inverse of :func:`save_checkpoint`; bitwise-exact array round trip.

    A truncated file, trailing bytes or a failed checksum raise
    :class:`ChecksumMismatch`, a wrong version or a malformed manifest
    :class:`VersionMismatch`.  Version 1 files, whose checksum covers the
    payload alone, still load.  The manifest's arrays must be those of
    :func:`~odcast.model.param_layout` for its hyperparameters, in order,
    then Adam moments if it has Adam state: none, or one ``adam.m.<name>`` and one
    ``adam.v.<name>`` per parameter array, shaped like it, which fill the moments
    of a state attached to the loaded model.  They are compared before anything
    is allocated, so a manifest that declares a huge model is refused for what
    it lists, not by a failed allocation.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    if blob[:8] != CHECKPOINT_MAGIC:
        raise IoError(f"{path} is not a checkpoint (bad magic bytes)")
    if len(blob) < 16:
        raise ChecksumMismatch("checkpoint truncated inside the header")
    version, manifest_len = struct.unpack_from("<II", blob, 8)
    if version not in (1, CHECKPOINT_VERSION):
        raise VersionMismatch(f"checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    view = memoryview(blob)
    if version == CHECKPOINT_VERSION and _checksum(view[:-8]) != blob[-8:]:
        raise ChecksumMismatch("checkpoint failed its checksum")
    manifest_end = 16 + manifest_len
    if manifest_end > len(blob):
        raise ChecksumMismatch("checkpoint truncated inside the manifest")
    hyper, opt, shapes = _read_manifest(blob[16:manifest_end])

    total = sum(math.prod(shape) for _, shape in shapes)
    payload_end = manifest_end + 8 * total
    if payload_end + 8 > len(blob):
        raise ChecksumMismatch("checkpoint truncated inside the payload")
    if payload_end + 8 < len(blob):
        raise ChecksumMismatch(f"checkpoint has {len(blob) - payload_end - 8} trailing bytes")
    payload = view[manifest_end:payload_end]
    if version == 1 and _checksum(payload) != blob[payload_end:]:
        raise ChecksumMismatch("checkpoint payload failed its checksum")

    declared, arrays = iter(shapes), []
    for spec in param_layout(hyper):
        for name, shape, _ in spec.arrays():
            found = next(declared, None)
            if found != (name, list(shape)):
                raise VersionMismatch(
                    f"checkpoint arrays do not fit its hyperparameters: expected {name!r} "
                    f"of shape {list(shape)}, found {'none' if found is None else found}")
            arrays.append(found)
    moments = sorted(declared)
    if moments and (opt is None or moments != sorted(
            (f"adam.{k}.{name}", shape) for k in "mv" for name, shape in arrays)):
        raise VersionMismatch("checkpoint arrays after the parameters are not Adam state's "
                              "one adam.m.<name> and adam.v.<name> per parameter array")

    params = empty_params(hyper)
    offset = params.flat.size
    params.flat[...] = np.frombuffer(payload, dtype="<f8", count=offset)
    if moments:
        opt.attach(params)
    for name, shape in shapes[len(arrays):]:  # in file order: sorted by name, m before v
        count = math.prod(shape)
        getattr(opt, name[5])[name[7:]][...] = np.frombuffer(
            payload, dtype="<f8", count=count, offset=offset * 8).reshape(shape)
        offset += count
    return params, opt, hyper
