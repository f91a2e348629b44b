"""The benchmark traces odcast functions by name; every name it wraps must resolve.

``perfbench/tracing.py`` is imported as it is, so renaming or dropping a traced
function fails here, not only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

from odcast import autodiff

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
