"""The benchmark traces odcast functions by name; every name it wraps must resolve,
and every per-window layer must still be reached through it.

``perfbench/tracing.py`` is imported as it is, so renaming or dropping a traced
function, or calling a stage past the name it is traced by, fails here, not only
when the benchmark runs.
"""

import importlib
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from odcast import autodiff, evaluation, training
from odcast.events import NodeCatalog, TransactionEvent
from odcast.model import HyperParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))  # tracing imports its sibling ``workloads``
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_span_point_is_the_function_it_names(tracing):
    for span, points in tracing.SPAN_POINTS.items():
        module, name = span.split(".")
        function = getattr(importlib.import_module(f"odcast.{module}"), name)
        for point in points:
            module, name = point.split(".")
            assert getattr(tracing.MODULES[module], name, None) is function, point


def test_every_counted_op_is_a_tape_op(tracing):
    for name in tracing.OPS:
        assert callable(getattr(autodiff, name, None)), name


def test_every_per_window_span_fires_once_per_step(tracing):
    # A tiny train and evaluate under the benchmark's tracer.
    hyper = HyperParams(n=4, dim=4, msg_dim=4, heads=2, rel_dim=2, n_clusters=2, tau=60.0,
                        decay_rate=math.log(2.0) / 300.0)
    catalog = NodeCatalog(n=4)
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0.0, 8 * 60.0, size=40))
    events = [TransactionEvent(int(rng.integers(0, 4)), int(rng.integers(0, 4)), float(t))
              for t in times]
    splits = training.Splits(4, 2, 2)
    config = training.TrainConfig(max_epochs=2, splits=splits, patience=2, seed=0, t0=0.0)
    tracer = tracing.Tracer()
    with tracer.installed():
        trained = training.train(events, catalog, hyper, config)
        evaluation.evaluate(trained.params, events, catalog, hyper, splits, t0=0.0)

    stages = {"memory.aggregate_messages", "multilevel.compute_relations",
              "multilevel.project_cluster_messages", "multilevel.project_area_message",
              "multilevel.update_level_memories", "multilevel.fuse"}
    learning = {"model.od_loss", "autodiff.backward", "training.adam_step"}
    assert stages | learning | {"model.predict_od"} == set(tracing.PER_WINDOW)
    expected = []
    for _ in range(config.max_epochs):  # every training and validation window predicts
        expected += [stages | {"model.predict_od"} | (learning if w + 1 < 4 else set())
                     for w in range(splits.train_windows + splits.val_windows - 1)]
    expected += [stages | ({"model.predict_od"} if w + 1 >= 6 else set())
                 for w in range(splits.total - 1)]  # evaluation predicts test targets only
    fired = [Counter() for _ in expected]
    for name, _, _, _, window in tracer.spans:
        if name in tracing.PER_WINDOW:
            fired[window][name] += 1
    assert tracer.window == len(expected) - 1
    assert fired == [Counter(names) for names in expected]
