"""Station/cluster/area attention hierarchy and cross-level fusion.

Clusters and the single area node are virtual: their membership is a set of
per-head bilinear attention scores between level representations, learned
end to end rather than drawn from geography.  The same logits feed three
normalized views:

* ``acm`` - softmax over stations (per cluster column): how strongly each
  station's message flows INTO a cluster;
* ``agm`` - softmax over clusters: how strongly each cluster's message flows
  into the area node;
* ``ace`` - softmax over clusters (per station row): how strongly each
  cluster's memory flows BACK into a station during fusion.

There is no fusion view of the cluster-area logits: normalized over the
single area column it would be identically 1, so every station receives the
area memory unchanged.

Heads are a batch axis.  Every per-head weight is one (H, rows, cols)
array, and every logit and view is one (H, ., .) tensor, so each stage
records a few tape ops whatever H is.  Checkpoints still name the heads
one by one (``w_c1.0`` ... ``w_c1.{H-1}``), as views into the stacks.

Cluster and area memories keep only the weighted accumulator; the
normalization that station memories get from their ``b`` term is already
applied by the softmax weights here, and level relations shift too quickly
for a meaningful historical normalizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .events import write_csv
from .memory import DecayConfig, StationMessages


@dataclass
class AttentionWeights:
    """Bilinear projections for station-cluster and cluster-area logits, heads on axis 0."""

    w_c1: Tensor  # (H, d_rel, d), station side
    w_c2: Tensor  # (H, d_rel, d), cluster side
    w_g1: Tensor  # (H, d_rel, d), cluster side of the area relation
    w_g2: Tensor  # (H, d_rel, d), area side


@dataclass
class RelationTensors:
    """Relation logits and their normalized views, heads on axis 0 (see module docs).
    Indexing a head, as in ``acm[h]``, gives a view of its (N, N_c) or (N_c, 1) matrix."""

    ac: Tensor   # (H, N, N_c)
    ag: Tensor   # (H, N_c, 1)
    acm: Tensor  # softmax of ac over stations (axis 1)
    agm: Tensor  # softmax of ag over clusters (axis 1)
    ace: Tensor  # softmax of ac over clusters (axis 2)

    @property
    def heads(self) -> int:
        return self.ac.data.shape[0]


@dataclass
class LevelState:
    """Cluster memories (N_c, d), the area memory (1, d), and their clock."""

    cluster_mem: Tensor | np.ndarray
    area_mem: Tensor | np.ndarray
    last_update: float

    def cluster_array(self) -> np.ndarray:
        return self.cluster_mem.data if isinstance(self.cluster_mem, Tensor) else self.cluster_mem

    def area_array(self) -> np.ndarray:
        return self.area_mem.data if isinstance(self.area_mem, Tensor) else self.area_mem

    def detached(self) -> "LevelState":
        """The memories as constants off the tape, for the next step to read."""
        return LevelState(ad.detach(ad.as_tensor(self.cluster_mem)),
                          ad.detach(ad.as_tensor(self.area_mem)), self.last_update)


def compute_relations(station_reps, cluster_reps, area_rep, attn: AttentionWeights,
                      scale_logits: bool = False) -> RelationTensors:
    """Bilinear relation logits between adjacent levels, all heads at once.

    ``ac[h] = (station @ W_c1[h]^T) @ (cluster @ W_c2[h]^T)^T`` and the
    cluster-area logits ``ag[h]`` are built the same way from cluster and
    area representations.  Relations always use the representations from
    BEFORE the current batch's memory update.  ``scale_logits`` divides by
    sqrt(d_rel) before the softmaxes (off by default).
    """
    station, cluster, area = map(ad.as_tensor, (station_reps, cluster_reps, area_rep))
    ac = ad.bilinear(station, attn.w_c1, cluster, attn.w_c2)
    ag = ad.bilinear(cluster, attn.w_g1, area, attn.w_g2)
    if scale_logits:
        norm = 1.0 / np.sqrt(attn.w_c1.data.shape[1])
        ac = ad.scale(ac, norm)
        ag = ad.scale(ag, norm)
    return RelationTensors(ac=ac, ag=ag, acm=ad.softmax(ac, axis=1),
                           agm=ad.softmax(ag, axis=1), ace=ad.softmax(ac, axis=2))


def message_ratios(msgs: StationMessages) -> np.ndarray:
    """Per-station normalized messages p/q, with zero rows where q == 0."""
    q = msgs.q[:, None]
    return np.divide(msgs.p, q, out=np.zeros_like(msgs.p), where=q > 0.0)


def project_cluster_messages(relations: RelationTensors, msgs: StationMessages,
                             w_c3: Tensor) -> Tensor:
    """Attention-weighted projection of station messages up to clusters.

    Per head, cluster i receives ``sum_j acm[h, j, i] * (W_c3[h] @ (p_j / q_j))``;
    head outputs are concatenated.  Idle stations (q = 0) contribute zero.
    The projections are laid out as (H, d_msg/H, N), so ``acm`` multiplies
    them as it is.
    """
    return ad.head_project(w_c3, ad.constant(message_ratios(msgs)), relations.acm)


def project_area_message(relations: RelationTensors, cluster_msgs: Tensor,
                         w_g3: Tensor) -> Tensor:
    """Attention-weighted projection of cluster messages up to the area node."""
    return ad.head_project(w_g3, cluster_msgs, relations.agm)


def update_level_memories(state: LevelState, cluster_msgs: Tensor | None, area_msg: Tensor | None,
                          t: float, cluster_mlp: Callable[[Tensor], Tensor],
                          area_mlp: Callable[[Tensor], Tensor], cfg: DecayConfig) -> LevelState:
    """Decay cluster/area memories to time ``t`` and add mapped messages.

    There is no ``b`` normalizer at these levels.  A batch with no events has
    no messages (both None): its memories only decay, so idle decay cannot
    pick up the update maps' biases.
    """
    decay = cfg.factor(t - state.last_update)
    cluster, area = ad.as_tensor(state.cluster_mem), ad.as_tensor(state.area_mem)
    if cluster_msgs is None:
        cluster, area = ad.scale(cluster, decay), ad.scale(area, decay)
    else:
        cluster = ad.decayed_update(cluster, decay, cluster_mlp(cluster_msgs))
        area = ad.decayed_update(area, decay, area_mlp(area_msg))
    return LevelState(cluster_mem=cluster, area_mem=area, last_update=t)


def fuse(station_reps, state: LevelState, relations: RelationTensors,
         row_scale: np.ndarray) -> Tensor:
    """Concatenate station representations with their level memories.

    The cluster block reuses the relation logits, row-normalized so each
    station takes a convex combination of cluster memories per head,
    averaged over heads.  The area block is the area memory on every row: a
    station reaches the single area node through its clusters, whose weights
    sum to 1 and whose cluster-to-area weights are all 1.  Row i of
    ``station_reps`` is scaled by ``row_scale[i]`` first: the model passes
    the station accumulators ``a`` with ``1/b``.
    """
    station = ad.as_tensor(station_reps)
    cluster_mem = ad.as_tensor(state.cluster_mem)
    area_mem = ad.as_tensor(state.area_mem)
    # Averaging the weights over heads first takes one product, not one per head.
    from_clusters = ad.matmul(ad.head_mean(relations.ace), cluster_mem)  # (N, d)
    return ad.fuse_columns(station, from_clusters, area_mem, row_scale)


def relation_rows(relations: RelationTensors, view: str) -> list[tuple[int, int, int, float]]:
    """Flatten a relation view into (head, station, cluster, weight) rows."""
    weights = {"message": relations.acm, "fusion": relations.ace}[view].data
    return [(h, i, j, float(w)) for (h, i, j), w in np.ndenumerate(weights)]


def write_relation_csv(relations: RelationTensors, view: str, path) -> None:
    write_csv(path, ("head", "station", "cluster", "weight"),
              (f"{h},{i},{j},{w!r}\n" for h, i, j, w in relation_rows(relations, view)))
