"""The model's forward pass, pinned to the bit.

A seeded 9-node, 3-head model walks a seeded stream.  The sha256 of its
``evaluate`` forecasts, its capped ``predict_walk`` forecasts and the last
step's ``acm`` and ``ace`` views must not change: a refactor of the tape may
change how the forward is recorded, never what it computes.
"""

import hashlib
import math

import numpy as np
import pytest

from odcast.evaluation import evaluate, final_relations, predict_walk
from odcast.events import NodeCatalog, TransactionEvent
from odcast.model import HyperParams, init_params
from odcast.training import Splits

N = 9
TAU = 600.0


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def setting():
    hyper = HyperParams(n=N, dim=6, msg_dim=6, heads=3, rel_dim=2, n_clusters=3,
                        tau=TAU, decay_rate=math.log(2.0) / 1800.0)
    params = init_params(hyper, 17)
    rng = np.random.default_rng(23)
    times = np.sort(rng.uniform(0.0, 12 * TAU, size=240))
    events = [TransactionEvent(int(rng.integers(0, N)), int(rng.integers(0, N)), float(t))
              for t in times]
    return hyper, params, NodeCatalog(n=N), events


def test_evaluate_forecasts_are_pinned(setting):
    hyper, params, catalog, events = setting
    result = evaluate(params, events, catalog, hyper, Splits(6, 3, 3), t0=0.0)
    assert len(result.predictions) == 3
    assert digest(p.predicted for p in result.predictions) == (
        "ec169b0d0c579df02ca4fcdd2cfaf788799969ecd6b089ea56a7d1f13ac613d8")


def test_capped_predict_walk_forecasts_are_pinned(setting):
    hyper, params, catalog, events = setting
    preds = predict_walk(params, events, catalog, hyper, t0=0.0, cap=7)
    assert len(preds) > 12
    assert digest(p.predicted for p in preds) == (
        "fdb325a87c24f7b07425b7b6a90fbe221d0ab020f9382b132219768502688e6e")


def test_final_relation_views_are_pinned(setting):
    hyper, params, catalog, events = setting
    relations = final_relations(params, events, catalog, hyper, t0=0.0)
    assert digest([relations.acm.data, relations.ace.data]) == (
        "a063436ee9c153ebc34a60de503e58fc8f3eba06dfcd33d88b2f6ca09c3d1dd2")
