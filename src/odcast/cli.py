"""Command line entry point.

Subcommands: synth, train, evaluate, predict, oracle-check, grad-check,
export-reps, export-relations.  Every option can also come from a JSON
config file (``--config``); explicit flags win over the file, and the
effective configuration plus its hash are echoed to ``run_config.json``
next to the outputs for provenance.

Exit codes: 0 success, 2 usage/config errors, 1 domain errors.  Both are
reported as one line with the error class name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import checks, evaluation
from .errors import OdcastError, UsageError
from .events import load_catalog, parse_events, write_catalog_csv, write_events_csv
from .memory import DEFAULT_DECAY_RATE
from .model import HyperParams
from .multilevel import write_relation_csv
from .synthesis import RateSegment, SynthConfig, generate
from .training import Splits, TrainConfig, load_checkpoint, save_checkpoint, train, write_history

ABLATIONS = {"no-ml": "no_multilevel", "no-mu": "no_weighted_update", "mse-loss": "mse_loss"}


class RunConfig:
    """Merged view of config-file keys and command line flags (flags win)."""

    def __init__(self, args: argparse.Namespace):
        self.file: dict = {}
        path = getattr(args, "config", None)
        if path:
            try:
                self.file = json.loads(Path(path).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read config {path}: {exc}") from exc
            if not isinstance(self.file, dict):
                raise UsageError("config file must hold a JSON object")
        self.args = args
        self.effective: dict = {}

    def get(self, key: str, default=None, cast=None):
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None:
            value = self.file.get(key, default)
        if value is not None and cast is not None:
            try:
                value = cast(value)
            except (TypeError, ValueError):
                raise UsageError(f"bad value for {key}: {value!r}") from None
        self.effective[key] = value
        return value

    def hash(self) -> str:
        blob = json.dumps(self.effective, sort_keys=True, default=str).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def echo(self, out_dir: Path, extra: dict | None = None) -> None:
        payload = {"config": self.effective, "config_hash": self.hash()}
        if extra:
            payload.update(extra)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "run_config.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8")


def _checked(build, *args, **kwargs):
    """Call a config constructor, reporting a rejected value as a UsageError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _hyper_from(rc: RunConfig, n: int) -> HyperParams:
    decay = rc.get("decay_rate", rc.file.get("lambda", DEFAULT_DECAY_RATE), float)
    ablation = rc.get("ablation")
    flags = {"no_multilevel": bool(rc.get("no_multilevel", False)),
             "no_weighted_update": bool(rc.get("no_weighted_update", False)),
             "mse_loss": bool(rc.get("mse_loss", False))}
    if ablation is not None:
        if ablation not in ABLATIONS:
            raise UsageError(f"unknown ablation {ablation!r}; choose from {sorted(ABLATIONS)}")
        flags[ABLATIONS[ablation]] = True
    return _checked(
        HyperParams,
        n=n,
        dim=rc.get("dim", 256, int),
        msg_dim=rc.get("msg_dim", 256, int),
        heads=rc.get("heads", 8, int),
        rel_dim=rc.get("rel_dim", None, int),
        n_clusters=rc.get("n_clusters", None, int),
        tau=rc.get("tau", 1800.0, float),
        decay_rate=decay,
        relation_scale=bool(rc.get("relation_scale", False)),
        **flags,
    )


def _splits_from(rc: RunConfig, tau: float) -> Splits:
    return _checked(
        Splits.from_days,
        rc.get("train_days", 14.0, float),
        rc.get("val_days", 2.0, float),
        rc.get("test_days", 2.0, float),
        tau,
        day_length=rc.get("day_length", 86400.0, float),
    )


def _load_stream(rc: RunConfig, n: int | None = None):
    """The ``--events`` stream and its catalog (``--catalog``, else ``n`` or ``--n`` nodes)."""
    events_path = rc.get("events")
    if not events_path:
        raise UsageError("--events is required")
    catalog_path = rc.get("catalog")
    if n is None:
        n = rc.get("n", None, int)
    if catalog_path is None and n is None:
        raise UsageError("need --catalog or an explicit --n node count")
    catalog = load_catalog(catalog_path, n)
    return parse_events(events_path, catalog), catalog


def _load_model_stream(rc: RunConfig):
    """``--checkpoint`` model plus the ``--events`` stream sized by its node count."""
    ckpt = rc.get("checkpoint")
    if not ckpt:
        raise UsageError("--checkpoint is required")
    params, _, hyper = load_checkpoint(ckpt)
    events, catalog = _load_stream(rc, hyper.n)
    return params, hyper, events, catalog


def _walk_t0(rc: RunConfig, events) -> float | None:
    """``--t0`` for a walk over the whole stream, which must not start after its first event."""
    t0 = rc.get("t0", None, float)
    if t0 is not None and len(events) and events.times[0] < t0:
        raise UsageError(f"--t0 {t0!r} is after the first event (t={float(events.times[0])!r})")
    return t0


def _synth_config(rc: RunConfig) -> SynthConfig:
    profile = rc.file.get("profile")
    kwargs = {}
    if profile is not None:
        kwargs["profile"] = tuple(RateSegment(**seg) for seg in profile)
    return _checked(
        SynthConfig,
        n=rc.get("n", 24, int),
        communities=rc.get("communities", 3, int),
        day_length=rc.get("day_length", 86400.0, float),
        days=rc.get("days", 18.0, float),
        base_rate=rc.get("base_rate", 1.0 / 1800.0, float),
        seed=rc.get("seed", 0, int),
        **kwargs,
    )


# -- subcommands ---------------------------------------------------------


def cmd_synth(args) -> int:
    rc = RunConfig(args)
    cfg = _synth_config(rc)
    out = Path(rc.get("out", "synth"))
    out.mkdir(parents=True, exist_ok=True)
    events, catalog, _ = generate(cfg)
    write_events_csv(events, catalog, out / "events.csv")
    write_catalog_csv(catalog, out / "catalog.csv")
    rc.echo(out, extra={"events": len(events)})
    print(f"synth: {len(events)} events over {cfg.days} days -> {out}")
    return 0


def cmd_train(args) -> int:
    rc = RunConfig(args)
    events, catalog = _load_stream(rc)
    hyper = _hyper_from(rc, catalog.n)
    splits = _splits_from(rc, hyper.tau)
    tc = _checked(
        TrainConfig,
        max_epochs=rc.get("epochs", 30, int),
        splits=splits,
        patience=rc.get("patience", 10, int),
        lr=rc.get("lr", 1e-4, float),
        seed=rc.get("seed", 0, int),
        t0=rc.get("t0", None, float),
    )
    out = Path(rc.get("out", "run"))
    out.mkdir(parents=True, exist_ok=True)

    def report(stats):
        print(f"epoch {stats.epoch}: train_loss={stats.train_loss:.6f} "
              f"val_mae={stats.val_mae:.6f} ({stats.seconds:.1f}s)")

    result = train(events, catalog, hyper, tc, on_epoch=report)
    save_checkpoint(result.params, result.opt, hyper, out / "checkpoint.bin")
    write_history(result.history, out / "history.csv")
    rc.echo(out, extra={"best_epoch": result.best_epoch,
                        "best_val_mae": result.best_val_mae})
    print(f"train: best epoch {result.best_epoch} val_mae={result.best_val_mae:.6f} -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    rc = RunConfig(args)
    params, hyper, events, catalog = _load_model_stream(rc)
    splits = _splits_from(rc, hyper.tau)
    out = Path(rc.get("out", "eval"))
    out.mkdir(parents=True, exist_ok=True)

    result = evaluation.evaluate(params, events, catalog, hyper, splits,
                                 t0=rc.get("t0", None, float))
    report = {
        "all_pairs": result.all_pairs.to_json_dict(),
        "above_average": result.above_average.to_json_dict(),
        "config_hash": rc.hash(),
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    evaluation.write_predictions_csv(result.predictions, catalog, out / "predictions.csv")
    rc.echo(out)
    print(f"evaluate: all-pairs mae={result.all_pairs.mae:.6f} "
          f"rmse={result.all_pairs.rmse:.6f} -> {out}")
    return 0


def cmd_predict(args) -> int:
    rc = RunConfig(args)
    params, hyper, events, catalog = _load_model_stream(rc)
    cap = rc.get("cap", None, int)
    if cap is not None and cap < 1:
        raise UsageError(f"--cap must be >= 1, got {cap}")
    out = Path(rc.get("out", "predictions.csv"))
    predictions = evaluation.predict_walk(params, events, catalog, hyper,
                                          t0=_walk_t0(rc, events), cap=cap)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    evaluation.write_predictions_csv(predictions, catalog, out)
    print(f"predict: {len(predictions)} windows -> {out}")
    return 0


def cmd_oracle_check(args) -> int:
    rc = RunConfig(args)
    result = checks.oracle_equivalence_check(
        n_events=rc.get("events", 10_000, int),
        n_nodes=rc.get("nodes", 20, int),
        n_batches=rc.get("batches", 50, int),
        seed=rc.get("seed", 0, int),
    )
    tol = rc.get("tol", 1e-9, float)
    status = "OK" if result.passed(tol) else "FAIL"
    print(f"oracle-check: max_rel_error={result.max_rel_error:.3e} over "
          f"{result.batches} batches / {result.events} events "
          f"({result.seconds:.2f}s) [{status}]")
    return 0 if result.passed(tol) else 1


def cmd_grad_check(args) -> int:
    rc = RunConfig(args)
    tol = rc.get("tol", 1e-4, float)
    report = checks.toy_gradient_check(seed=rc.get("seed", 0, int), tol=tol)
    out = rc.get("out")
    if out:
        report.write_csv(out)
    for array, worst in sorted(report.by_array().items()):
        print(f"  {array}: max_rel_error={worst:.3e}")
    status = "OK" if report.passed() else "FAIL"
    print(f"grad-check: {len(report.rows)} coordinates, "
          f"max_rel_error={report.max_rel_error:.3e} [{status}]")
    return 0 if report.passed() else 1


def cmd_export_reps(args) -> int:
    rc = RunConfig(args)
    params, hyper, events, catalog = _load_model_stream(rc)
    nodes = rc.get("nodes", None, lambda arg: [int(x) for x in str(arg).split(",") if x.strip()])
    if nodes is None:
        nodes = list(range(hyper.n))
    for node in nodes:
        if not 0 <= node < hyper.n:
            raise UsageError(f"node {node} out of range 0..{hyper.n - 1}")
    out = rc.get("out", "representations.csv")
    evaluation.export_representations(params, events, catalog, hyper, nodes, out,
                                      t0=_walk_t0(rc, events))
    print(f"export-reps: {len(nodes)} nodes -> {out}")
    return 0


def cmd_export_relations(args) -> int:
    rc = RunConfig(args)
    params, hyper, events, catalog = _load_model_stream(rc)
    if hyper.no_multilevel or rc.get("ablation") == "no-ml":
        raise UsageError("export-relations is meaningless under the no-ml ablation")
    out = Path(rc.get("out", "relations"))
    out.mkdir(parents=True, exist_ok=True)
    relations = evaluation.final_relations(params, events, catalog, hyper,
                                           t0=_walk_t0(rc, events))
    write_relation_csv(relations, "message", out / "message_weights.csv")
    write_relation_csv(relations, "fusion", out / "fusion_weights.csv")
    print(f"export-relations: {relations.heads} heads -> {out}")
    return 0


# -- parser ----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--seed", type=int, help="random seed (default 0)")


def _add_hyper(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, help="prediction window seconds (default 1800)")
    p.add_argument("--decay-rate", type=float, dest="decay_rate",
                   help="memory decay rate 1/s (default ln2/3600)")
    p.add_argument("--dim", type=int, help="memory dimension (default 256)")
    p.add_argument("--msg-dim", type=int, dest="msg_dim", help="message dimension (default 256)")
    p.add_argument("--heads", type=int, help="attention heads (default 8)")
    p.add_argument("--rel-dim", type=int, dest="rel_dim",
                   help="relation projection width (default dim/heads)")
    p.add_argument("--n-clusters", type=int, dest="n_clusters",
                   help="cluster count (default ceil(sqrt(N)))")
    p.add_argument("--ablation", choices=sorted(ABLATIONS),
                   help="variant switch: no-ml, no-mu, or mse-loss")


def _add_stream(p: argparse.ArgumentParser) -> None:
    p.add_argument("--events", help="event CSV (origin,destination,timestamp)")
    p.add_argument("--catalog", help="catalog CSV (name,index); omit to use raw indices")
    p.add_argument("--n", type=int, help="node count when no catalog file is given")
    p.add_argument("--t0", type=float,
                   help="window origin (default: first event floored to a tau boundary)")


def _add_splits(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train-days", type=float, dest="train_days", help="default 14")
    p.add_argument("--val-days", type=float, dest="val_days", help="default 2")
    p.add_argument("--test-days", type=float, dest="test_days", help="default 2")
    p.add_argument("--day-length", type=float, dest="day_length", help="default 86400")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odcast",
        description="Streaming origin-destination demand forecasting engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic event stream")
    _add_common(p)
    p.add_argument("--out", help="output directory (default synth/)")
    p.add_argument("--n", type=int, help="node count (default 24)")
    p.add_argument("--communities", type=int, help="planted communities (default 3)")
    p.add_argument("--days", type=float, help="stream length in days (default 18)")
    p.add_argument("--day-length", type=float, dest="day_length", help="default 86400")
    p.add_argument("--base-rate", type=float, dest="base_rate",
                   help="events/second per pair at multiplier 1")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on an event stream")
    _add_common(p)
    _add_stream(p)
    _add_hyper(p)
    _add_splits(p)
    p.add_argument("--out", help="output directory (default run/)")
    p.add_argument("--epochs", type=int, help="max epochs (default 30)")
    p.add_argument("--patience", type=int, help="early stopping patience (default 10)")
    p.add_argument("--lr", type=float, help="Adam learning rate (default 1e-4)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    _add_common(p)
    _add_stream(p)
    _add_splits(p)
    p.add_argument("--checkpoint", help="checkpoint file from train")
    p.add_argument("--out", help="output directory (default eval/)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="dump one prediction per processed batch")
    _add_common(p)
    _add_stream(p)
    p.add_argument("--checkpoint", help="checkpoint file from train")
    p.add_argument("--cap", type=int,
                   help="split busy windows every CAP events (varied timespans)")
    p.add_argument("--out", help="output CSV (default predictions.csv)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("oracle-check", help="online accumulators vs closed form")
    _add_common(p)
    p.add_argument("--events", type=int, help="stream size (default 10000)")
    p.add_argument("--nodes", type=int, help="node count (default 20)")
    p.add_argument("--batches", type=int, help="batch count (default 50)")
    p.add_argument("--tol", type=float, help="relative tolerance (default 1e-9)")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    _add_common(p)
    p.add_argument("--toy", action="store_true",
                   help="use the builtin toy instance (the default and only mode)")
    p.add_argument("--tol", type=float, help="relative tolerance (default 1e-4)")
    p.add_argument("--out", help="per-coordinate CSV report")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("export-reps", help="dump station representations per batch")
    _add_common(p)
    _add_stream(p)
    p.add_argument("--checkpoint", help="checkpoint file from train")
    p.add_argument("--nodes", help="comma-separated node indices (default: all)")
    p.add_argument("--out", help="output CSV (default representations.csv)")
    p.set_defaults(func=cmd_export_reps)

    p = sub.add_parser("export-relations", help="dump learned attention weights")
    _add_common(p)
    _add_stream(p)
    p.add_argument("--checkpoint", help="checkpoint file from train")
    p.add_argument("--ablation", choices=sorted(ABLATIONS), help=argparse.SUPPRESS)
    p.add_argument("--out", help="output directory (default relations/)")
    p.set_defaults(func=cmd_export_relations)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return 2
    except OdcastError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
