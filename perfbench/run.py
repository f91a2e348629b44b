"""odcast benchmark: one user session per rep, timed end to end or traced per layer.

    python3 perfbench/run.py --workload train-city24 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run sets up its inputs (median of several set-ups reported as
``setup_s``), then repeats the workload's session until ``--seconds`` have
passed and reports medians over the sessions.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced sessions,
adds one op-counting session, and prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every output check
passed.  ``--workload all`` runs every workload in its own process.

Results, the environment stamp and (traced runs) the spans are written under
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

SETUP_REPEATS = 3
MIN_SESSIONS = 3       # even when --seconds runs out first; traced runs also need 2 traced
WORKLOAD_NAMES = ("train-city24", "train-city80", "stream-predict")

# name -> unit; the end-to-end metrics of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "train.windows_per_s": "1/s",
    "eval.windows_per_s": "1/s",
    "predict.windows_per_s": "1/s",
    "ingest.events_per_s": "1/s",
    "forecast_latency_ms.p50": "ms",
    "forecast_latency_ms.p90": "ms",
    "forecast_mae": "trips",
    "peak_rss_mb": "MB",
}


def pin_blas_threads() -> int:
    """Pin BLAS to the cores this process may use; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(root: Path, args, threads: int, workload, inputs, sessions: int,
                latency_samples: int) -> dict:
    import numpy as np
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "odcast").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "commit": commit, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "openblas": openblas, "blas_threads": threads, "nproc": os.cpu_count(),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workload": asdict(workload), "history_events": inputs.history_events,
        "live_events": len(inputs.live_times), "cap": inputs.cap,
        "sessions": sessions, "latency_samples": latency_samples,
    }


def end_to_end_metrics(w, plain, setup_s) -> dict[str, float]:
    import numpy as np
    med = statistics.median
    # Sessions replay the same batches: a batch's latency is its median over sessions.
    batches = max(len(s.latencies_s) for s in plain)
    per_batch = np.median([s.latencies_s for s in plain if len(s.latencies_s) == batches], axis=0)
    return {
        "setup_s": med(setup_s),
        "train.windows_per_s": med(w.replayed_train_windows() / s.train_s for s in plain),
        "eval.windows_per_s": med(w.replayed_eval_windows() / s.eval_s for s in plain),
        "predict.windows_per_s": med(s.predict_windows / s.predict_s for s in plain),
        "ingest.events_per_s": med(s.ingest_events / s.ingest_s for s in plain),
        "forecast_latency_ms.p50": float(np.percentile(per_batch, 50)) * 1e3,
        "forecast_latency_ms.p90": float(np.percentile(per_batch, 90)) * 1e3,
        "forecast_mae": plain[0].mae,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_one(args, threads: int) -> int:
    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]
    out_dir = workloads.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=out_dir))
    plain, traced, tracers, counted, counter = [], [], [], [], None
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            inputs = workloads.set_up(w, args.seed, workdir)
            setup_s.append(time.perf_counter() - started)

        deadline = time.perf_counter() + args.seconds
        while (time.perf_counter() < deadline or len(plain) < MIN_SESSIONS
               or (args.trace and len(traced) < 2)):
            gc.collect()  # every session starts from the same heap state
            if args.trace and len(plain) > len(traced):
                tracer = tracing.Tracer()
                with tracer.installed():
                    traced.append(workloads.run_session(w, inputs, args.seed, tracer.span))
                tracers.append(tracer)
            else:
                plain.append(workloads.run_session(w, inputs, args.seed))
        if args.trace:
            counter = tracing.OpCounter()
            with counter.installed():
                counted.append(workloads.run_session(w, inputs, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sessions = plain + traced + counted
    problems = sorted({p for s in sessions for p in s.problems})
    if len({s.digest for s in sessions}) != 1:
        problems.append("sessions with one seed produced different forecasts")
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    correct = not problems and failed == 0

    if args.trace:
        metrics = tracing.median_metrics([t.layer_metrics() for t in tracers])
        metrics.update(counter.layer_metrics())
        metrics["trace.overhead_frac"] = (statistics.median(s.seconds for s in traced)
                                          / statistics.median(s.seconds for s in plain) - 1.0)
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        metrics = end_to_end_metrics(w, plain, setup_s)
        units = END_TO_END

    latency_samples = sum(len(s.latencies_s) for s in plain)
    env = environment(workloads.ROOT, args, threads, w, inputs, len(sessions), latency_samples)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "problems": problems, "setup_s": setup_s,
              "sessions": [{k: v for k, v in asdict(s).items() if k != "latencies_s"}
                           for s in sessions], **result}
    if args.trace:
        record["op_counts"] = counter.raw()
        record["spans_ms"] = [t.by_name() for t in tracers]
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "window"],
             "sessions": [t.spans for t in tracers]}))
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, unit in units.items():
        print(f"{w.name:>15}  {name:<50} {metrics[name]:>12.6g} {unit}")
    print(f"{w.name:>15}  {len(sessions)} sessions, {latency_samples} latency samples, "
          f"{attempted} windows attempted, {failed} failed")
    for problem in problems:
        print(f"{w.name:>15}  CHECK FAILED: {problem}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            if not line.startswith('{"env"'):
                print(line)
        status = status or done.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {done.returncode})", file=sys.stderr)
            return done.returncode or 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, pin_blas_threads())


if __name__ == "__main__":
    sys.exit(main())
