"""Per-step pipeline: messages, memory updates, relations, fusion, prediction.

One step consumes one event batch and advances the whole memory bank to the
batch's end time.  The bank entering a step is treated as a constant:
gradients reach every parameter through the current window (the update maps
feed the freshly updated memories, which feed fusion and the output head),
but do not flow backwards across windows.  The single exception is the first
step after a reset, where the trainable initial cluster/area memories are
still live on the tape; that is what makes them trainable at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionMismatch, TimeRegression
from .events import EventBatch, NodeCatalog
from .memory import DEFAULT_DECAY_RATE, DecayConfig, aggregate_messages, update_stations
from .multilevel import (AttentionWeights, LevelState, RelationTensors, compute_relations,
                         fuse, project_area_message, project_cluster_messages,
                         update_level_memories)


@dataclass(frozen=True)
class HyperParams:
    """All structural and ablation knobs.  ``rel_dim`` defaults to dim/heads and
    ``n_clusters`` to ceil(sqrt(n))."""

    n: int
    dim: int = 256
    msg_dim: int = 256
    heads: int = 8
    rel_dim: int | None = None
    n_clusters: int | None = None
    tau: float = 1800.0
    decay_rate: float = DEFAULT_DECAY_RATE
    relation_scale: bool = False
    no_multilevel: bool = False
    no_weighted_update: bool = False
    mse_loss: bool = False

    def __post_init__(self):
        if self.n < 1 or self.dim < 1 or self.heads < 1:
            raise ValueError("n, dim, heads must all be >= 1")
        if self.rel_dim is None:
            object.__setattr__(self, "rel_dim", max(1, self.dim // self.heads))
        if self.n_clusters is None:
            object.__setattr__(self, "n_clusters", math.ceil(math.sqrt(self.n)))
        if min(self.msg_dim, self.rel_dim, self.n_clusters) < 1:
            raise ValueError("msg_dim, rel_dim and n_clusters must all be >= 1")
        if self.msg_dim % self.heads != 0:
            raise ValueError(f"msg_dim {self.msg_dim} must be divisible by heads {self.heads}")
        if self.tau <= 0 or self.decay_rate <= 0:
            raise ValueError("tau and decay_rate must be positive")

    @property
    def station_msg_dim(self) -> int:
        """d_s: event representations are [r_other ; one-hot other ; role]."""
        return self.dim + self.n + 1

    @property
    def decay_config(self) -> DecayConfig:
        return DecayConfig(decay_rate=self.decay_rate, dim=self.dim,
                           weighted=not self.no_weighted_update)


@dataclass
class Mlp:
    """One hidden rectifier layer: x -> W2 relu(W1 x + b1) + b2, rows as samples."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def __call__(self, x: Tensor) -> Tensor:
        return ad.mlp(x, self.w1, self.b1, self.w2, self.b2)


class ParamSpec(NamedTuple):
    """One parameter array: its name, shape and init fan-in (0: zeros).  A stacked
    array is checkpointed one head (axis 0) at a time, as ``name.{h}``."""

    name: str
    shape: tuple[int, ...]
    fan_in: int
    stacked: bool = False

    def arrays(self) -> Iterator[tuple[str, tuple[int, ...], int | None]]:
        """Its checkpoint arrays, lazily: (name, shape, head or None)."""
        if not self.stacked:
            yield self.name, self.shape, None
            return
        for h in range(self.shape[0]):
            yield f"{self.name}.{h}", self.shape[1:], h


def param_layout(hyper: HyperParams) -> list[ParamSpec]:
    """Every parameter array of the model in checkpoint order, the one place that
    names and shapes them."""
    h, d, d_rel, d_msg = hyper.heads, hyper.dim, hyper.rel_dim, hyper.msg_dim
    d_s = hyper.station_msg_dim
    head_out = d_msg // h
    return [
        *(ParamSpec(name, (h, d_rel, d), d, True) for name in ("w_c1", "w_c2", "w_g1", "w_g2")),
        ParamSpec("w_c3", (h, head_out, d_s), d_s, True),
        ParamSpec("w_g3", (h, head_out, d_msg), d_msg, True),
        *(spec for mlp, k, o in (("station_mlp", d_s, d), ("cluster_mlp", d_msg, d),
                                 ("area_mlp", d_msg, d), ("output_mlp", 6 * d, 1))
          for spec in (ParamSpec(f"{mlp}.w1", (d, k), k), ParamSpec(f"{mlp}.b1", (d,), 0),
                       ParamSpec(f"{mlp}.w2", (o, d), d), ParamSpec(f"{mlp}.b2", (o,), 0))),
        ParamSpec("cluster_mem0", (hyper.n_clusters, d), d),
        ParamSpec("area_mem0", (1, d), d),
    ]


class ModelParams:
    """Every trainable array of the model, each a view of one zeroed flat vector
    ``flat`` laid out by :func:`param_layout`; ``tensors`` holds them by layout name."""

    def __init__(self, layout: list[ParamSpec]):
        self.layout = layout
        self.flat = np.zeros(sum(math.prod(spec.shape) for spec in layout))
        self.tensors = tensors = {spec.name: Tensor(view, requires_grad=True, name=spec.name)
                                  for spec, view in self.views(self.flat)}
        mlp = lambda group: Mlp(*(tensors[f"{group}.{p}"] for p in ("w1", "b1", "w2", "b2")))
        self.attention = AttentionWeights(*(tensors[k] for k in ("w_c1", "w_c2", "w_g1", "w_g2")))
        self.w_c3, self.w_g3 = tensors["w_c3"], tensors["w_g3"]  # (H, d_msg/H, d_s | d_msg)
        self.station_mlp, self.cluster_mlp, self.area_mlp, self.output_mlp = map(
            mlp, ("station_mlp", "cluster_mlp", "area_mlp", "output_mlp"))
        self.cluster_mem0, self.area_mem0 = tensors["cluster_mem0"], tensors["area_mem0"]

    def views(self, vector: np.ndarray) -> list[tuple[ParamSpec, np.ndarray]]:
        """Each layout entry with its view of ``vector``, a vector laid out like ``flat``."""
        ends = np.cumsum([math.prod(spec.shape) for spec in self.layout])[:-1]
        return [(spec, part.reshape(spec.shape))
                for spec, part in zip(self.layout, np.split(vector, ends))]

    def named_views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Views of ``vector``, a vector laid out like ``flat``, under the checkpoint names."""
        return {name: view if h is None else view[h]
                for spec, view in self.views(vector) for name, _, h in spec.arrays()}

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """Every parameter array under its checkpoint name; each head of a stacked
        weight is a view (``w_c1.{h}`` and so on) sharing its data and gradient."""
        return [(name, t if h is None else ad.View(t, h, name))
                for spec in self.layout for t in (self.tensors[spec.name],)
                for name, _, h in spec.arrays()]


def init_params(hyper: HyperParams, seed: int) -> ModelParams:
    """Seeded parameter initialization: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))
    draws in layout order, biases zero.  Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    params = ModelParams(param_layout(hyper))
    for spec, view in params.views(params.flat):
        if spec.fan_in:
            bound = 1.0 / math.sqrt(spec.fan_in)
            view[...] = rng.uniform(-bound, bound, size=spec.shape)
    return params


def empty_params(hyper: HyperParams) -> ModelParams:
    """All-zero parameter arrays with the right shapes (checkpoint loading)."""
    return ModelParams(param_layout(hyper))


class MemoryBank:
    """The model's entire evolving state: station accumulators plus level memories.

    Station memories start at (a=0, b=1); cluster and area memories start at
    the trainable initial arrays, which stay live on the tape for exactly one
    step after a reset.  ``last_update`` is the one clock of all three levels.
    """

    def __init__(self, station_a: np.ndarray, station_b: np.ndarray, levels: LevelState,
                 last_update: float):
        self.station_a = station_a
        self.station_b = station_b
        self.levels = levels
        self.last_update = last_update

    @classmethod
    def initial(cls, params: ModelParams, hyper: HyperParams, t0: float) -> "MemoryBank":
        return cls(
            station_a=np.zeros((hyper.n, hyper.dim)),
            station_b=np.ones(hyper.n),
            levels=LevelState(cluster_mem=params.cluster_mem0, area_mem=params.area_mem0),
            last_update=t0,
        )

    def station_reps(self) -> np.ndarray:
        return self.station_a / self.station_b[:, None]


@dataclass
class StepResult:
    z: Tensor                          # (N, 3d) fused representations
    relations: RelationTensors | None  # None under no_multilevel


def step(bank: MemoryBank, batch: EventBatch, params: ModelParams, hyper: HyperParams,
         catalog: NodeCatalog) -> StepResult:
    """Advance the bank through one batch and return fused representations.

    Order: event representations and station messages from the pre-update
    representations; station memory update; relations from the pre-update
    representations; cluster/area message projection and memory update;
    cross-level fusion.  The bank is mutated in place and left detached from
    the returned tape.
    """
    if batch.window_start < bank.last_update - 1e-9:
        raise TimeRegression(
            f"batch starts at {batch.window_start}, bank already at {bank.last_update}"
        )
    if catalog.n != hyper.n:
        raise DimensionMismatch(f"catalog has {catalog.n} nodes, hyperparameters {hyper.n}")
    t = batch.window_end
    dt = t - bank.last_update
    cfg = hyper.decay_config
    reps_prev = bank.station_reps()

    msgs = aggregate_messages(batch, reps_prev, catalog, cfg)
    a_new, b_new = update_stations(bank.station_a, bank.station_b,
                                   params.station_mlp(ad.constant(msgs.p)), msgs.q, dt, cfg)
    inv_b = 1.0 / b_new  # the station block of z is a_new / b_new, row by row

    if hyper.no_multilevel:
        z = ad.fuse_columns(a_new, ad.constant(np.zeros((hyper.n, hyper.dim))),
                            ad.constant(np.zeros((1, hyper.dim))), inv_b)
        relations = None
        new_levels = bank.levels
    else:
        relations = compute_relations(
            ad.constant(reps_prev), bank.levels.cluster_mem, bank.levels.area_mem,
            params.attention, scale_logits=hyper.relation_scale,
        )
        cluster_msgs = area_msg = None  # an idle step only decays the level memories
        if len(batch):
            cluster_msgs = project_cluster_messages(relations, msgs, params.w_c3)
            area_msg = project_area_message(relations, cluster_msgs, params.w_g3)
        new_levels = update_level_memories(bank.levels, cluster_msgs, area_msg, dt,
                                           params.cluster_mlp, params.area_mlp, cfg)
        z = fuse(a_new, new_levels, relations, row_scale=inv_b)

    bank.station_a = a_new.data
    bank.station_b = b_new
    bank.levels = new_levels.detached() if new_levels is not bank.levels else new_levels
    bank.last_update = t
    return StepResult(z=z, relations=relations)


@dataclass
class Prediction:
    """Clamped OD matrix for reporting plus the raw pairwise head output."""

    matrix: np.ndarray  # (N, N), elementwise max(raw, 0)
    raw: Tensor         # (N^2, 1) on the tape, for the loss


def predict_od(z: Tensor, params: ModelParams) -> Prediction:
    """Evaluate the pairwise output head densely on all ordered node pairs.

    The head is an MLP over ``[z_i ; z_j]`` for pair row ``i*N + j``, run as
    one ``pair_head`` op: its first layer is applied once per node, as an
    origin block (which takes the bias) and a destination block, and no
    (N^2, d) array is ever allocated.
    """
    mlp = params.output_mlp
    raw = ad.pair_head(z, mlp.w1, mlp.b1, mlp.w2, mlp.b2)
    n = z.data.shape[0]
    return Prediction(matrix=np.maximum(raw.data, 0.0).reshape(n, n), raw=raw)


def od_loss(raw, truth: np.ndarray, mse_loss: bool = False):
    """Masked squared error over all N^2 cells.

    A cell counts fully when its true demand is positive.  A zero-demand
    cell counts only if the raw prediction is positive: predicting at or
    below zero for a pair that saw no demand costs nothing.  With
    ``mse_loss`` every cell counts (the plain mean squared error).

    Accepts the raw prediction as a tape tensor (returns a scalar tensor;
    the mask is a constant, so the masked region gets exactly zero gradient)
    or as a plain array (returns a float).  Both run ``masked_mse``, so a
    non-finite entry raises ``NonFiniteValue`` on either path.
    """
    on_tape = isinstance(raw, Tensor)
    raw_t = raw if on_tape else ad.constant(np.asarray(raw, dtype=float))
    y = np.asarray(truth, dtype=float).reshape(raw_t.data.shape)
    mask = np.ones_like(y) if mse_loss else np.where(y > 0.0, 1.0, raw_t.data > 0.0)
    loss = ad.masked_mse(raw_t, y, mask)
    return loss if on_tape else loss.item()
