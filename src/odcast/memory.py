"""Station-level exponential-decay accumulator memories.

Each station keeps two accumulators: a vector ``a`` (decay-weighted sum of
incoming update terms) and a scalar ``b`` (decay-weighted event mass,
initialized to 1).  The station representation is the ratio ``a / b``, an
exponentially weighted average of past event information: recent trips count
more, frequent neighbors count more.  Both accumulators are multiplied by
``exp(-decay_rate * dt)`` whenever time advances, so a batch of events can be
folded in with O(1) work per station regardless of history length.
:func:`update_stations` is the one implementation of that update.

Every event contributes one incidence to each of its endpoints: the origin
receives the destination's representation (role flag +1) and vice versa
(role flag -1).  A self-loop therefore contributes both incidences to the
same station.  :func:`aggregate_messages` sums a batch's incidences at once:
each station's message is its row of the batch's decayed flow matrix
(outgoing plus incoming trips) times the node states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DegenerateNormalizer, TimeRegression
from .events import EventBatch, Events, EventStream, NodeCatalog

#: Default decay rate: one-hour half-life.
DEFAULT_DECAY_RATE = math.log(2.0) / 3600.0


@dataclass(frozen=True)
class DecayConfig:
    """Decay rate (1/seconds), memory dimension, and decay weighting (off: no-mu)."""

    decay_rate: float = DEFAULT_DECAY_RATE
    dim: int = 256
    weighted: bool = True

    def __post_init__(self):
        if self.decay_rate <= 0:
            raise ValueError("decay_rate must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def factor(self, dt: float) -> float:
        """Decay factor for a time advance of ``dt`` seconds."""
        if dt < 0:
            raise TimeRegression(f"negative time advance {dt}")
        return math.exp(-self.decay_rate * dt) if self.weighted else 1.0


@dataclass
class StationMemory:
    """Accumulator pair for one station.

    Invariants: ``b > 0`` always (it starts at 1 and decay only multiplies
    it by a positive factor), and ``a`` stays finite elementwise.
    """

    a: np.ndarray
    b: float
    last_update: float

    @classmethod
    def fresh(cls, dim: int, t: float = 0.0) -> "StationMemory":
        return cls(a=np.zeros(dim), b=1.0, last_update=t)


@dataclass
class StationMessage:
    """Decay-weighted batch aggregate for one station: vector p, mass q.

    ``q == 0`` implies ``p`` is the zero vector (an idle station).
    """

    p: np.ndarray
    q: float


@dataclass
class StationMessages:
    """Batch messages for all stations at once: p is (N, d_s), q is (N,)."""

    p: np.ndarray
    q: np.ndarray

    def node(self, i: int) -> StationMessage:
        return StationMessage(p=self.p[i], q=float(self.q[i]))


def aggregate_messages(batch: EventBatch, reps: np.ndarray, catalog: NodeCatalog,
                       cfg: DecayConfig, include_features: bool = True,
                       include_role: bool = True) -> StationMessages:
    """Fold a batch of events into per-station messages.

    For station i, ``p_i`` sums ``w_k * s_k`` over the batch incidences
    touching i (both endpoints of every event), with weight
    ``w_k = exp(-decay_rate * (window_end - t_k))``, and ``q_i`` sums the
    weights alone.  Untouched stations get (p=0, q=0).  Under
    ``cfg.weighted=False`` every weight is 1 (plain sums).

    All of it is algebra on the batch's decayed flow matrix ``F``, whose
    entry ``F[i, j]`` sums the weights of the batch's i->j trips.  With
    ``S = F + F^T``, ``p = [S @ reps | S | F 1 - F^T 1]`` and ``q = S 1``: the
    message is the decayed flow matrix times the node states, whose one-hot
    features make the middle block ``S @ I = S``.
    """
    n, ev = catalog.n, batch.events
    w = np.exp(cfg.decay_rate * (ev.times - batch.window_end)) if cfg.weighted else np.ones(len(ev))
    flows = np.bincount(ev.origins * n + ev.destinations, weights=w, minlength=n * n).reshape(n, n)
    seen = flows + flows.T
    parts = [seen @ reps]
    if include_features:
        parts.append(seen)
    if include_role:
        # Outgoing trips carry role +1, incoming trips -1.
        parts.append((flows.sum(axis=1) - flows.sum(axis=0))[:, None])
    return StationMessages(p=np.concatenate(parts, axis=1), q=seen.sum(axis=1))


def update_stations(a: np.ndarray, b: np.ndarray, update: Tensor, q: np.ndarray, dt: float,
                    cfg: DecayConfig) -> tuple[Tensor, np.ndarray]:
    """Advance every station memory by ``dt`` seconds and fold in a batch.

    Row by row, ``a' = decay * a + [q > 0] * update`` and
    ``b' = decay * b + q`` with ``decay = cfg.factor(dt)``, where
    ``update`` is the update map applied to the batch messages ``p``.  Idle
    stations (``q == 0``) only decay: feeding the zero message through the
    map would leak its learned bias into every idle station each batch.
    ``a'`` is returned on the tape so gradients reach the update map.
    """
    decay = cfg.factor(dt)
    a_new = ad.decayed_update(ad.constant(a), decay, update, rows=(q > 0.0).astype(float))
    return a_new, decay * b + q


def update_station_memory(mem: StationMemory, msg: StationMessage, t: float,
                          update_mlp: Callable[[np.ndarray], np.ndarray],
                          cfg: DecayConfig) -> StationMemory:
    """Advance one station memory to time ``t`` through :func:`update_stations`."""
    update = ad.constant(np.asarray(update_mlp(msg.p), dtype=float)[None, :])
    a, b = update_stations(mem.a[None, :], np.array([mem.b]), update, np.array([msg.q]),
                           t - mem.last_update, cfg)
    return StationMemory(a=a.data[0], b=float(b[0]), last_update=t)


def read_representation(mem: StationMemory) -> np.ndarray:
    """Current representation ``a / b`` of a station memory."""
    if mem.b <= 0.0:
        raise DegenerateNormalizer(f"normalizer b={mem.b} must be positive")
    return mem.a / mem.b


def oracle_representation(node: int, events: Events, t: float, frozen_reps: np.ndarray,
                          cfg: DecayConfig, initial_mass_time: float | None = None) -> np.ndarray:
    """Brute-force closed form of the decayed representation.

    Evaluates ``sum_k w_k * r_other(k) / sum_k w_k`` with
    ``w_k = exp(-decay_rate * (t - t_k))`` over every history incidence
    touching ``node`` (both endpoints of each event; a self-loop contributes
    two incidences), holding neighbor representations frozen.  A node with
    no history reads as the zero vector.

    With ``initial_mass_time`` given, a unit of weight decayed from that
    time is added to the denominator, mirroring the online accumulators'
    b=1 initialization; without it, this is the pure weighted mean.
    """
    stream = EventStream.of(events)
    upto = stream.times <= t
    num = np.zeros(frozen_reps.shape[1])
    den = 0.0
    for mine, other in ((stream.origins, stream.destinations),
                        (stream.destinations, stream.origins)):
        keep = upto & (mine == node)
        if keep.any():
            w = np.exp(-cfg.decay_rate * (t - stream.times[keep]))
            num += w @ frozen_reps[other[keep]]
            den += float(w.sum())
    if initial_mass_time is not None:
        den += math.exp(-cfg.decay_rate * (t - initial_mass_time))
    elif den == 0.0:
        return num
    return num / den
