"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/counts_check.py     (or: python3 perfbench/counts_check.py)

The name keeps the repository's own test run from collecting this file: it
replays every workload's session twice.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def counted_session(name: str, seed: int) -> dict:
    w = workloads.WORKLOADS[name]
    out_dir = workloads.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"check-{name}-", dir=out_dir))
    try:
        inputs = workloads.set_up(w, seed, workdir)
        counter = tracing.OpCounter()
        with counter.installed():
            session = workloads.run_session(w, inputs, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert not session.problems and session.failed == 0
    return counter.raw()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_op_counts_repeat_exactly(name):
    first = counted_session(name, seed=7)
    assert first["windows"] > 0 and first["matmul_flop"] > 0
    assert counted_session(name, seed=7) == first


def test_wrappers_are_removed_after_a_session():
    originals = {point: getattr(*tracing._lookup(point))
                 for points in tracing.SPAN_POINTS.values() for point in points}
    with tracing.Tracer().installed(), tracing.OpCounter().installed():
        pass
    assert all(getattr(*tracing._lookup(p)) is fn for p, fn in originals.items())


def test_metric_lists_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
            == tracing.LAYER_METRICS)


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
