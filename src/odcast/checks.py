"""Self-verification harnesses: accumulator-vs-closed-form and gradient checks.

Both are available from the command line (``oracle-check``, ``grad-check``)
and drive the corresponding acceptance tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import FdReport, fd_check
from .events import EventBatch, EventStream, NodeCatalog, batch_by_window
from .memory import DecayConfig, aggregate_messages, oracle_representation, update_stations
from .model import HyperParams, MemoryBank, init_params, od_loss, predict_od, step
from .multilevel import LevelState


def random_stream(n_events: int, n_nodes: int, horizon: float, seed: int) -> EventStream:
    """Uniformly random endpoints, sorted uniform timestamps."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, horizon, size=n_events))
    origins = rng.integers(0, n_nodes, size=n_events)
    return EventStream(origins, rng.integers(0, n_nodes, size=n_events), times)


@dataclass
class OracleCheckResult:
    max_rel_error: float
    batches: int
    events: int
    seconds: float

    def passed(self, tol: float = 1e-9) -> bool:
        return self.max_rel_error <= tol


def oracle_equivalence_check(n_events: int = 10_000, n_nodes: int = 20,
                             n_batches: int = 50, seed: int = 0) -> OracleCheckResult:
    """Replay a random stream through the model's station update and compare
    every representation after every batch against the closed-form weighted mean.

    All stations advance together through :func:`memory.update_stations`, the
    same function :func:`model.step` runs, here with an identity update map,
    frozen neighbor representations, and no feature/role extension: the
    regime in which the accumulators are an exact rewrite of the closed form.
    The closed form includes the unit initial normalizer mass so both sides
    share the b=1 birth convention.
    """
    started = time.perf_counter()
    dim = 6  # width of the frozen neighbour representations
    rng = np.random.default_rng(seed)
    horizon = 3600.0 * n_batches / 2.0
    events = random_stream(n_events, n_nodes, horizon, seed + 1)
    frozen = rng.normal(size=(n_nodes, dim))
    cfg = DecayConfig(decay_rate=math.log(2.0) / 1800.0, dim=dim)
    catalog = NodeCatalog(n=n_nodes)
    tau = horizon / n_batches
    batches = batch_by_window(events, 0.0, tau, until=horizon)

    a, b, last = np.zeros((n_nodes, dim)), np.ones(n_nodes), 0.0
    worst = 0.0
    for batch in batches:
        msgs = aggregate_messages(batch, frozen, catalog, cfg,
                                  include_features=False, include_role=False)
        t = batch.window_end
        a_new, b = update_stations(a, b, ad.constant(msgs.p), msgs.q, t - last, cfg)
        a, last = a_new.data, t
        online = a / b[:, None]
        for node in range(n_nodes):
            closed = oracle_representation(node, events, t, frozen, cfg,
                                           initial_mass_time=0.0)
            scale = max(float(np.max(np.abs(closed))), 1e-30)
            worst = max(worst, float(np.max(np.abs(online[node] - closed))) / scale)
    return OracleCheckResult(max_rel_error=worst, batches=len(batches),
                             events=len(events), seconds=time.perf_counter() - started)


def toy_instance(seed: int = 0):
    """A tiny but fully wired model: N=3, d=4, H=2, N_c=2, plus one busy batch.

    The station accumulators are seeded with random constants so that the
    relation logits, fusion weights, and every projection see nonzero inputs.
    """
    hyper = HyperParams(n=3, dim=4, msg_dim=4, heads=2, rel_dim=2, n_clusters=2,
                        tau=60.0, decay_rate=math.log(2.0) / 120.0)
    catalog = NodeCatalog(n=3)
    params = init_params(hyper, seed)
    rng = np.random.default_rng(seed + 100)
    station_a = 0.5 * rng.normal(size=(hyper.n, hyper.dim))
    station_b = rng.uniform(1.0, 2.0, size=hyper.n)
    times = np.sort(rng.uniform(0.0, 60.0, size=6))
    ends = rng.integers(0, 3, size=(6, 2))  # (origin, destination) rows
    batch = EventBatch(EventStream(ends[:, 0], ends[:, 1], times), 0.0, 60.0)
    truth = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0], [3.0, 0.0, 1.0]])
    return hyper, catalog, params, station_a, station_b, batch, truth


def toy_gradient_check(seed: int = 0, tol: float = 1e-4) -> FdReport:
    """Central-difference check of every parameter array through one full
    step plus the masked OD loss on the toy instance.

    The bank entering the step holds constant station accumulators and the
    live initial cluster/area memories, exactly like the first step after a
    reset, so the tape covers every parameter path the training loop uses.
    """
    hyper, catalog, params, station_a, station_b, batch, truth = toy_instance(seed)

    def loss_fn():
        bank = MemoryBank(
            station_a=station_a.copy(),
            station_b=station_b.copy(),
            levels=LevelState(cluster_mem=params.cluster_mem0, area_mem=params.area_mem0),
            last_update=0.0,
        )
        result = step(bank, batch, params, hyper, catalog)
        pred = predict_od(result.z, params)
        return od_loss(pred.raw, truth, mse_loss=hyper.mse_loss)

    return fd_check(loss_fn, params.named_tensors(), tol=tol, seed=seed)
