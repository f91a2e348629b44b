"""Command line entry point.

Subcommands: synth, train, evaluate, predict, oracle-check, grad-check,
export-reps, export-relations.  Each reads the keys of its table in
:data:`COMMANDS`; flags win over a JSON config file (``--config``), and the
file over the table default.  :func:`typed` types every value.  synth, train
and evaluate echo the typed configuration plus its hash to
``run_config.json`` next to their outputs for provenance.

Exit codes: 0 success, 2 usage/config errors, 1 domain errors.  Both are
reported as one line with the error class name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import namedtuple
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

#: Most cells (windows x N^2) a run's truth array may have, checked before any
#: per-window array is built: 0.5 GiB of float64.  Criterion 7 needs 864 x 24^2.
MAX_TRUTH_CELLS = 1 << 26


#: A key's type, default and flag help (None: config file only).  ``kind`` is bool, int,
#: float, str, a tuple of allowed strings, or a function that types a JSON value.
Key = namedtuple("Key", "kind default help", defaults=(None, None))


def typed(key: str, kind, value):
    """``value`` as ``kind``, or a UsageError naming ``key``.  Booleans must be JSON
    booleans, integers integral numbers, floats finite numbers (ints widen)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        if (kind in (bool, str) and isinstance(value, kind)
                or isinstance(kind, tuple) and value in kind):
            return value
        if kind is int and number and float(value).is_integer():
            return int(value)
        if kind is float and number and math.isfinite(value):
            return float(value)
        if not isinstance(kind, (type, tuple)):
            return kind(value)
    except (OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"bad value for {key}: {exc}") from None
    what = {bool: "true or false", int: "an integer", float: "a finite number",
            str: "a string"}.get(kind) or f"one of {', '.join(kind)}"
    raise UsageError(f"bad value for {key}: {value!r} is not {what}")


def _profile(value) -> tuple[RateSegment, ...]:
    """synth ``profile``: a list of objects with RateSegment's keys, ``days`` optional."""
    kinds = {"origin_group": int, "dest_group": int, "start": float, "end": float,
             "multiplier": float, "days": lambda ds: [typed("profile days", int, d) for d in ds]}
    if not (isinstance(value, list) and all(isinstance(seg, dict) and set(kinds) - {"days"}
                                            <= set(seg) <= set(kinds) for seg in value)):
        raise TypeError(f"not a list of objects with the keys {', '.join(kinds)} (days optional)")
    return tuple(RateSegment(**{key: typed(f"profile {key}", kinds[key], item)
                                for key, item in seg.items() if item is not None or key != "days"})
                 for seg in value)


class RunConfig:
    """Typed view of one subcommand's keys: flag over config file over table default."""

    def __init__(self, args: argparse.Namespace):
        path = args.config
        try:
            self.file = json.loads(Path(path).read_text(encoding="utf-8")) if path else {}
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(self.file, dict):
            raise UsageError("config file must hold a JSON object")
        if "lambda" in self.file:  # the paper's name for decay_rate, which wins if both are set
            self.file.setdefault("decay_rate", self.file.pop("lambda"))
        unknown = sorted(set(self.file) - FILE_KEYS)
        if unknown:
            raise UsageError(f"unknown config key {unknown[0]!r}")
        self.args = args
        self.keys: dict[str, Key] = args.keys
        self.effective: dict = {}

    def get(self, key: str):
        """The typed value of ``key``; a JSON null in the file means unset."""
        spec = self.keys[key]
        value = getattr(self.args, key, None)
        value = self.file.get(key) if value is None else value
        value = spec.default if value is None else typed(key, spec.kind, value)
        self.effective[key] = value
        return value

    def hash(self) -> str:
        blob = json.dumps(self.effective, sort_keys=True, default=str).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def echo(self, out_dir: Path, extra: dict | None = None) -> None:
        payload = {"config": self.effective, "config_hash": self.hash(), **(extra or {})}
        out_dir.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
        (out_dir / "run_config.json").write_text(text, encoding="utf-8")


def _checked(build, *args, **kwargs):
    """Call a config constructor, reporting a rejected value as a UsageError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _splits_from(rc: RunConfig, hyper: HyperParams) -> Splits:
    """The day splits in windows of ``hyper.tau``, within :data:`MAX_TRUTH_CELLS`."""
    keys = ("train_days", "val_days", "test_days")
    days = tuple(rc.get(key) for key in keys)
    for key, value in zip(keys, days):
        if value < 0:
            raise UsageError(f"bad value for {key}: {value!r} is negative")
    day_length = rc.get("day_length")
    windows = sum(days) * day_length / hyper.tau
    if not windows * hyper.n ** 2 <= MAX_TRUTH_CELLS:
        raise UsageError(f"tau {hyper.tau!r} cuts the splits into {windows:.3g} windows: more than "
                         f"{MAX_TRUTH_CELLS} truth cells at {hyper.n} nodes")
    return _checked(Splits.from_days, *days, hyper.tau, day_length=day_length)


def _load_stream(rc: RunConfig, n: int | None = None):
    """The ``--events`` stream and its catalog (``--catalog``, else ``n`` or ``--n`` nodes)."""
    events_path = rc.get("events")
    if not events_path:
        raise UsageError("--events is required")
    catalog_path = rc.get("catalog")
    if n is None:
        n = rc.get("n")
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
    t0 = rc.get("t0")
    if t0 is not None and len(events) and events.times[0] < t0:
        raise UsageError(f"--t0 {t0!r} is after the first event (t={float(events.times[0])!r})")
    return t0


# -- subcommands ---------------------------------------------------------


def cmd_synth(rc: RunConfig) -> int:
    kwargs = {key: rc.get(key) for key in (*SYNTH, "seed")}
    if kwargs["profile"] is None:  # the built-in profile; unechoed, so default runs keep their hash
        del kwargs["profile"], rc.effective["profile"]
    cfg = _checked(SynthConfig, **kwargs)
    out = Path(rc.get("out"))
    out.mkdir(parents=True, exist_ok=True)
    events, catalog, _ = generate(cfg)
    write_events_csv(events, catalog, out / "events.csv")
    write_catalog_csv(catalog, out / "catalog.csv")
    rc.echo(out, extra={"events": len(events)})
    print(f"synth: {len(events)} events over {cfg.days} days -> {out}")
    return 0


def cmd_train(rc: RunConfig) -> int:
    events, catalog = _load_stream(rc)
    kwargs = {key: rc.get(key) for key in HYPER if key != "ablation"}
    if (ablation := rc.get("ablation")) is not None:
        kwargs[ABLATIONS[ablation]] = True
    hyper = _checked(HyperParams, n=catalog.n, **kwargs)
    splits = _splits_from(rc, hyper)
    tc = _checked(TrainConfig, max_epochs=rc.get("epochs"), splits=splits,
                  **{key: rc.get(key) for key in ("patience", "lr", "seed", "t0")})
    out = Path(rc.get("out"))
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


def cmd_evaluate(rc: RunConfig) -> int:
    params, hyper, events, catalog = _load_model_stream(rc)
    splits = _splits_from(rc, hyper)
    out = Path(rc.get("out"))
    out.mkdir(parents=True, exist_ok=True)

    result = evaluation.evaluate(params, events, catalog, hyper, splits, t0=rc.get("t0"))
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


def cmd_predict(rc: RunConfig) -> int:
    params, hyper, events, catalog = _load_model_stream(rc)
    cap = rc.get("cap")
    if cap is not None and cap < 1:
        raise UsageError(f"--cap must be >= 1, got {cap}")
    out = Path(rc.get("out"))
    predictions = evaluation.predict_walk(params, events, catalog, hyper,
                                          t0=_walk_t0(rc, events), cap=cap)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    evaluation.write_predictions_csv(predictions, catalog, out)
    print(f"predict: {len(predictions)} windows -> {out}")
    return 0


def cmd_oracle_check(rc: RunConfig) -> int:
    result = checks.oracle_equivalence_check(n_events=rc.get("events"), n_nodes=rc.get("nodes"),
                                             n_batches=rc.get("batches"), seed=rc.get("seed"))
    tol = rc.get("tol")
    status = "OK" if result.passed(tol) else "FAIL"
    print(f"oracle-check: max_rel_error={result.max_rel_error:.3e} over "
          f"{result.batches} batches / {result.events} events "
          f"({result.seconds:.2f}s) [{status}]")
    return 0 if result.passed(tol) else 1


def cmd_grad_check(rc: RunConfig) -> int:
    tol = rc.get("tol")
    report = checks.toy_gradient_check(seed=rc.get("seed"), tol=tol)
    out = rc.get("out")
    if out:
        report.write_csv(out)
    for array, worst in sorted(report.by_array().items()):
        print(f"  {array}: max_rel_error={worst:.3e}")
    status = "OK" if report.passed() else "FAIL"
    print(f"grad-check: {len(report.rows)} coordinates, "
          f"max_rel_error={report.max_rel_error:.3e} [{status}]")
    return 0 if report.passed() else 1


def cmd_export_reps(rc: RunConfig) -> int:
    params, hyper, events, catalog = _load_model_stream(rc)
    nodes = rc.get("nodes")
    if nodes is None:
        nodes = list(range(hyper.n))
    for node in nodes:
        if not 0 <= node < hyper.n:
            raise UsageError(f"node {node} out of range 0..{hyper.n - 1}")
    out = rc.get("out")
    evaluation.export_representations(params, events, catalog, hyper, nodes, out,
                                      t0=_walk_t0(rc, events))
    print(f"export-reps: {len(nodes)} nodes -> {out}")
    return 0


def cmd_export_relations(rc: RunConfig) -> int:
    params, hyper, events, catalog = _load_model_stream(rc)
    if hyper.no_multilevel:
        raise UsageError("export-relations is meaningless under the no-ml ablation")
    out = Path(rc.get("out"))
    out.mkdir(parents=True, exist_ok=True)
    relations = evaluation.final_relations(params, events, catalog, hyper,
                                           t0=_walk_t0(rc, events))
    write_relation_csv(relations, "message", out / "message_weights.csv")
    write_relation_csv(relations, "fusion", out / "fusion_weights.csv")
    print(f"export-relations: {relations.heads} heads -> {out}")
    return 0


# -- key tables and parser ------------------------------------------------

COMMON = {"config": Key(str, None, "JSON config file; flags override its keys"),
          "seed": Key(int, 0, "random seed")}
STREAM = {"events": Key(str, None, "event CSV (origin,destination,timestamp)"),
          "catalog": Key(str, None, "catalog CSV (name,index); omit to use raw indices"),
          "n": Key(int, None, "node count when no catalog file is given"),
          "t0": Key(float, None, "window origin (unset: first event floored to a tau boundary)")}
HYPER = {"tau": Key(float, 1800.0, "prediction window seconds"),
         "decay_rate": Key(float, DEFAULT_DECAY_RATE, "memory decay rate 1/s"),
         "dim": Key(int, 256, "memory dimension"), "msg_dim": Key(int, 256, "message dimension"),
         "heads": Key(int, 8, "attention heads"),
         "rel_dim": Key(int, None, "relation projection width (unset: dim/heads)"),
         "n_clusters": Key(int, None, "cluster count (unset: ceil(sqrt(N)))"),
         "ablation": Key(tuple(sorted(ABLATIONS)), None,
                         "variant switch: no-ml, no-mu, or mse-loss"),
         "relation_scale": Key(bool, False), "no_multilevel": Key(bool, False),
         "no_weighted_update": Key(bool, False), "mse_loss": Key(bool, False)}
SPLITS = {"train_days": Key(float, 14.0, "training days"),
          "val_days": Key(float, 2.0, "validation days"), "test_days": Key(float, 2.0, "test days"),
          "day_length": Key(float, 86400.0, "seconds per day")}
CHECKPOINT = {"checkpoint": Key(str, None, "checkpoint file from train")}
SYNTH = {"n": Key(int, 24, "node count"), "communities": Key(int, 3, "planted communities"),
         "days": Key(float, 18.0, "stream length in days"), "day_length": SPLITS["day_length"],
         "base_rate": Key(float, 1.0 / 1800.0, "events/second per pair at multiplier 1"),
         "profile": Key(_profile)}

#: Subcommand -> (handler, help, key table).
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic event stream", {
        **COMMON, **SYNTH, "out": Key(str, "synth", "output directory")}),
    "train": (cmd_train, "train on an event stream", {
        **COMMON, **STREAM, **HYPER, **SPLITS, "out": Key(str, "run", "output directory"),
        "epochs": Key(int, 30, "max epochs"), "patience": Key(int, 10, "early stopping patience"),
        "lr": Key(float, 1e-4, "Adam learning rate")}),
    "evaluate": (cmd_evaluate, "evaluate a checkpoint on the test split", {
        **COMMON, **STREAM, **SPLITS, **CHECKPOINT, "out": Key(str, "eval", "output directory")}),
    "predict": (cmd_predict, "dump one prediction per processed batch", {
        **COMMON, **STREAM, **CHECKPOINT,
        "cap": Key(int, None, "split busy windows every CAP events (varied timespans)"),
        "out": Key(str, "predictions.csv", "output CSV")}),
    "oracle-check": (cmd_oracle_check, "online accumulators vs closed form", {
        **COMMON, "events": Key(int, 10_000, "stream size"), "nodes": Key(int, 20, "node count"),
        "batches": Key(int, 50, "batch count"), "tol": Key(float, 1e-9, "relative tolerance")}),
    "grad-check": (cmd_grad_check, "finite-difference gradient verification", {
        **COMMON, "toy": Key(bool, False, "use the builtin toy instance (the only mode)"),
        "tol": Key(float, 1e-4, "relative tolerance"),
        "out": Key(str, None, "per-coordinate CSV report")}),
    "export-reps": (cmd_export_reps, "dump station representations per batch", {
        **COMMON, **STREAM, **CHECKPOINT,
        "nodes": Key(lambda text: [int(x) for x in str(text).split(",") if x.strip()], None,
                     "comma-separated node indices (unset: all)"),
        "out": Key(str, "representations.csv", "output CSV")}),
    "export-relations": (cmd_export_relations, "dump learned attention weights", {
        **COMMON, **STREAM, **CHECKPOINT, "out": Key(str, "relations", "output directory")}),
}

#: Keys a config file may hold: any subcommand's, so one file serves several.
FILE_KEYS = {key for _, _, keys in COMMANDS.values() for key in keys} - {"config"} | {"lambda"}


def build_parser() -> argparse.ArgumentParser:
    """One flag per key with help, typed by argparse; unset flags stay None."""
    parser = argparse.ArgumentParser(
        prog="odcast", description="Streaming origin-destination demand forecasting engine.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, about, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=func, keys=keys)
        for key, spec in keys.items():
            flag, shown = "--" + key.replace("_", "-"), spec.default
            if spec.help is not None and spec.kind is bool:
                p.add_argument(flag, action="store_true", default=None, help=spec.help)
            elif spec.help is not None:
                shown = f"{shown:g}" if isinstance(shown, float) else shown
                p.add_argument(flag, type=spec.kind if spec.kind in (int, float) else None,
                               choices=spec.kind if isinstance(spec.kind, tuple) else None,
                               help=spec.help + ("" if shown is None else f" (default {shown})"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(RunConfig(args))
    except UsageError as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return 2
    except OdcastError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
