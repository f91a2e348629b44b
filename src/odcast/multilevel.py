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

Cluster and area memories keep only the weighted accumulator; the
normalization that station memories get from their ``b`` term is already
applied by the softmax weights here, and level relations shift too quickly
for a meaningful historical normalizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionMismatch
from .memory import DecayConfig, StationMessages


@dataclass
class AttentionWeights:
    """Per-head bilinear projections for station-cluster and cluster-area logits."""

    w_c1: list[Tensor]  # H x (d_rel, d), station side
    w_c2: list[Tensor]  # H x (d_rel, d), cluster side
    w_g1: list[Tensor]  # H x (d_rel, d), cluster side of the area relation
    w_g2: list[Tensor]  # H x (d_rel, d), area side

    @property
    def heads(self) -> int:
        return len(self.w_c1)


@dataclass
class RelationTensors:
    """Per-head relation logits and their normalized views (see module docs)."""

    ac: list[Tensor]   # H x (N, N_c)
    ag: list[Tensor]   # H x (N_c, 1)
    acm: list[Tensor]  # softmax of ac over stations (axis 0)
    agm: list[Tensor]  # softmax of ag over clusters (axis 0)
    ace: list[Tensor]  # softmax of ac over clusters (axis 1)

    @property
    def heads(self) -> int:
        return len(self.ac)


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
        return LevelState(self.cluster_array().copy(), self.area_array().copy(),
                          self.last_update)


def _check_projection(ws: Sequence[Tensor], d: int, what: str) -> None:
    for h, w in enumerate(ws):
        if w.data.ndim != 2 or w.data.shape[1] != d:
            raise DimensionMismatch(
                f"{what}[{h}] has shape {w.data.shape}, expected (*, {d})"
            )


def compute_relations(station_reps, cluster_reps, area_rep, attn: AttentionWeights,
                      scale_logits: bool = False) -> RelationTensors:
    """Bilinear relation logits between adjacent levels, one matrix per head.

    ``ac[h] = (W_c1[h] @ station^T)^T @ (W_c2[h] @ cluster^T)`` and the
    cluster-area logits ``ag[h]`` are built the same way from cluster and
    area representations.  Relations always use the representations from
    BEFORE the current batch's memory update.  ``scale_logits`` divides by
    sqrt(d_rel) before the softmaxes (off by default).
    """
    station = ad.as_tensor(station_reps)
    cluster = ad.as_tensor(cluster_reps)
    area = ad.as_tensor(area_rep)
    d = station.data.shape[1]
    if cluster.data.shape[1] != d or area.data.shape != (1, d):
        raise DimensionMismatch(
            f"level widths disagree: station {station.data.shape}, "
            f"cluster {cluster.data.shape}, area {area.data.shape}"
        )
    _check_projection(attn.w_c1, d, "w_c1")
    _check_projection(attn.w_c2, d, "w_c2")
    _check_projection(attn.w_g1, d, "w_g1")
    _check_projection(attn.w_g2, d, "w_g2")

    ac, ag = [], []
    for h in range(attn.heads):
        left = ad.transpose(ad.matmul(attn.w_c1[h], ad.transpose(station)))
        right = ad.matmul(attn.w_c2[h], ad.transpose(cluster))
        logits_c = ad.matmul(left, right)
        left_g = ad.transpose(ad.matmul(attn.w_g1[h], ad.transpose(cluster)))
        right_g = ad.matmul(attn.w_g2[h], ad.transpose(area))
        logits_g = ad.matmul(left_g, right_g)
        if scale_logits:
            norm = 1.0 / np.sqrt(attn.w_c1[h].data.shape[0])
            logits_c = ad.scale(logits_c, norm)
            logits_g = ad.scale(logits_g, norm)
        ac.append(logits_c)
        ag.append(logits_g)

    return RelationTensors(
        ac=ac,
        ag=ag,
        acm=[ad.softmax(a, axis=0) for a in ac],
        agm=[ad.softmax(a, axis=0) for a in ag],
        ace=[ad.softmax(a, axis=1) for a in ac],
    )


def message_ratios(msgs: StationMessages) -> np.ndarray:
    """Per-station normalized messages p/q, with zero rows where q == 0."""
    out = np.zeros_like(msgs.p)
    active = msgs.q > 0.0
    out[active] = msgs.p[active] / msgs.q[active, None]
    return out


def project_cluster_messages(relations: RelationTensors, msgs: StationMessages,
                             w_c3: Sequence[Tensor]) -> Tensor:
    """Attention-weighted projection of station messages up to clusters.

    Per head, cluster i receives ``sum_j acm[h, j, i] * (W_c3[h] @ (p_j / q_j))``;
    head outputs are concatenated.  Idle stations (q = 0) contribute zero.
    """
    ratios = ad.constant(message_ratios(msgs))
    d_s = ratios.data.shape[1]
    _check_projection(w_c3, d_s, "w_c3")
    per_head = []
    for h, w in enumerate(w_c3):
        projected = ad.matmul(ratios, ad.transpose(w))          # (N, d_msg/H)
        per_head.append(ad.matmul(ad.transpose(relations.acm[h]), projected))
    return ad.concat(per_head, axis=1)


def project_area_message(relations: RelationTensors, cluster_msgs: Tensor,
                         w_g3: Sequence[Tensor]) -> Tensor:
    """Attention-weighted projection of cluster messages up to the area node."""
    d_msg = cluster_msgs.data.shape[1]
    _check_projection(w_g3, d_msg, "w_g3")
    per_head = []
    for h, w in enumerate(w_g3):
        projected = ad.matmul(cluster_msgs, ad.transpose(w))    # (N_c, d_msg/H)
        per_head.append(ad.matmul(ad.transpose(relations.agm[h]), projected))
    return ad.concat(per_head, axis=1)


def update_level_memories(state: LevelState, cluster_msgs: Tensor, area_msg: Tensor,
                          t: float, cluster_mlp: Callable[[Tensor], Tensor],
                          area_mlp: Callable[[Tensor], Tensor], cfg: DecayConfig,
                          weighted: bool = True, suppress_update: bool = False) -> LevelState:
    """Decay cluster/area memories to time ``t`` and add mapped messages.

    There is no ``b`` normalizer at these levels.  ``suppress_update`` skips
    the message terms entirely; it is set when the batch carried no events,
    so idle decay cannot pick up the update maps' biases.
    """
    dt = t - state.last_update
    decay = cfg.factor(dt, weighted)
    cluster = ad.scale(ad.as_tensor(state.cluster_mem), decay)
    area = ad.scale(ad.as_tensor(state.area_mem), decay)
    if not suppress_update:
        cluster = ad.add(cluster, cluster_mlp(cluster_msgs))
        area = ad.add(area, area_mlp(area_msg))
    return LevelState(cluster_mem=cluster, area_mem=area, last_update=t)


def fuse(station_reps, state: LevelState, relations: RelationTensors) -> Tensor:
    """Concatenate station representations with their level memories.

    The cluster block reuses the relation logits, row-normalized so each
    station takes a convex combination of cluster memories per head,
    averaged over heads.  The area block is the area memory on every row: a
    station reaches the single area node through its clusters, whose weights
    sum to 1 and whose cluster-to-area weights are all 1.
    """
    station = ad.as_tensor(station_reps)
    cluster_mem = ad.as_tensor(state.cluster_mem)
    area_mem = ad.as_tensor(state.area_mem)
    if cluster_mem.data.shape[1] != station.data.shape[1]:
        raise DimensionMismatch(
            f"cluster memory width {cluster_mem.data.shape} does not match "
            f"station width {station.data.shape}"
        )
    heads = relations.heads
    from_clusters = None
    for h in range(heads):
        pull_c = ad.matmul(relations.ace[h], cluster_mem)                  # (N, d)
        from_clusters = pull_c if from_clusters is None else ad.add(from_clusters, pull_c)
    from_clusters = ad.scale(from_clusters, 1.0 / heads)
    # A ones column broadcasts the area row and keeps the area memory on the tape.
    from_area = ad.matmul(ad.constant(np.ones((station.data.shape[0], 1))), area_mem)
    return ad.concat([station, from_clusters, from_area], axis=1)


def relation_rows(relations: RelationTensors, view: str) -> list[tuple[int, int, int, float]]:
    """Flatten a relation view into (head, station, cluster, weight) rows."""
    tensors = {"message": relations.acm, "fusion": relations.ace}[view]
    rows = []
    for h, tensor in enumerate(tensors):
        matrix = tensor.data
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                rows.append((h, i, j, float(matrix[i, j])))
    return rows


def write_relation_csv(relations: RelationTensors, view: str, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("head,station,cluster,weight\n")
        for h, i, j, w in relation_rows(relations, view):
            fh.write(f"{h},{i},{j},{w!r}\n")
