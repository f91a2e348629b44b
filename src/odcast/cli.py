"""Command line entry point.

Subcommands: synth, train, evaluate, predict, oracle-check, grad-check,
export-reps, export-relations.  Each reads the keys of its table in
:data:`COMMANDS`, and its table holds no key it leaves unread (grad-check's
``--toy`` names its only mode).  Flags win over a JSON config file
(``--config``), and the file over the table default.  :func:`typed` types
every value, a flag's as the file's: a numeric flag's text is read as a
number first.  synth, train and evaluate echo the typed configuration plus
its hash to ``run_config.json`` next to their outputs for provenance.  A
setting is checked once, where it is read: the library refuses a bad split,
``lr``, walk ``t0`` or ``cap``, or the relations of a no-ml model with a
ValueError before any step, and :func:`_checked` reports it as a UsageError.

Exit codes: 0 success, 2 usage/config errors (a command line that argparse
refuses too), 1 domain errors.  Both are reported as one line with the error
class name.
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
from .model import HyperParams, param_layout
from .multilevel import write_relation_csv
from .synthesis import RateSegment, SynthConfig, generate
from .training import Splits, TrainConfig, load_checkpoint, save_checkpoint, train, write_history

ABLATIONS = {"no-ml": "no_multilevel", "no-mu": "no_weighted_update", "mse-loss": "mse_loss"}

#: Most cells any one array of a run may have, checked before any is built: 0.5 GiB
#: of float64.  The default model's largest parameter, the output head's first
#: layer, has 6 x 256^2; criterion 7's truth array (windows x N^2) 864 x 24^2.
MAX_ARRAY_CELLS = 1 << 26


#: A key's type, default and flag help (None: config file only).  ``kind`` is bool, int,
#: float, str, a tuple of allowed strings, or a function that types a JSON value.
Key = namedtuple("Key", "kind default help", defaults=(None, None))


def typed(key: str, kind, value):
    """``value`` as ``kind``, or a UsageError naming ``key``.  Booleans must be JSON
    booleans, integers integral numbers, floats finite numbers (exact ints widen)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        if (kind in (bool, str) and isinstance(value, kind)
                or isinstance(kind, tuple) and value in kind):
            return value
        if kind is int and number and float(value).is_integer():
            return int(value)
        if kind is float and number and math.isfinite(value) and float(value) == value:
            return float(value)
        if not isinstance(kind, (type, tuple)):
            return kind(value)
    except (OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"bad value for {key}: {exc}") from None
    what = {bool: "true or false", int: "an integer", float: "a finite float",
            str: "a string"}.get(kind) or f"one of {', '.join(kind)}"
    raise UsageError(f"bad value for {key}: {value!r} is not {what}")


def _number(text: str):
    """A numeric flag's text as an int, else a float, else as it is for :func:`typed`."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


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
        """The typed value of ``key``; a JSON null in the file means unset.  A numeric
        flag's text is read as a number first, so it is typed as the file's would be."""
        spec = self.keys[key]
        value = getattr(self.args, key, None)
        if value is None:
            value = self.file.get(key)
        elif spec.kind in (int, float):
            value = _number(value)
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
    """Call a config constructor or a walk, reporting its ValueError as a UsageError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _splits_from(rc: RunConfig, hyper: HyperParams) -> Splits:
    """The day splits in windows of ``hyper.tau``, if their truth array is not too big."""
    days = tuple(rc.get(key) for key in ("train_days", "val_days", "test_days"))
    day_length = rc.get("day_length")
    _within_cells({"the truth array (windows x nodes x nodes)":
                   (sum(days) * day_length / hyper.tau, hyper.n, hyper.n)})
    return _checked(Splits.from_days, *days, hyper.tau, day_length=day_length)


def _within_cells(arrays: dict[str, tuple[int, ...]]) -> None:
    """A UsageError naming the first array with more than :data:`MAX_ARRAY_CELLS` cells."""
    for what, shape in arrays.items():
        if math.prod(shape) > MAX_ARRAY_CELLS:
            raise UsageError(f"{what} would be {' x '.join(map(str, shape))}: more than "
                             f"{MAX_ARRAY_CELLS} cells")


def _sized(hyper: HyperParams) -> HyperParams:
    """``hyper``, if none of its model's parameter arrays nor its relation logits is too big."""
    _within_cells({"relation logits (heads x nodes x n_clusters)":
                   (hyper.heads, hyper.n, hyper.n_clusters),
                   **{f"parameter {spec.name}": spec.shape for spec in param_layout(hyper)}})
    return hyper


def _load_stream(rc: RunConfig, n: int | None):
    """The ``--events`` stream and its catalog: ``--catalog``, else ``n`` nodes."""
    events_path = rc.get("events")
    if not events_path:
        raise UsageError("--events is required")
    catalog = _checked(load_catalog, rc.get("catalog"), n)
    return parse_events(events_path, catalog), catalog


def _load_model_stream(rc: RunConfig):
    """``--checkpoint`` model, refused like ``train``'s flags if its use would build a
    too-big array, plus the ``--events`` stream sized by its node count."""
    ckpt = rc.get("checkpoint")
    if not ckpt:
        raise UsageError("--checkpoint is required")
    params, _, hyper = load_checkpoint(ckpt)
    events, catalog = _load_stream(rc, _sized(hyper).n)
    return params, hyper, events, catalog


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
    events, catalog = _load_stream(rc, rc.get("n"))
    kwargs = {key: rc.get(key) for key in HYPER if key != "ablation"}
    if (ablation := rc.get("ablation")) is not None:
        kwargs[ABLATIONS[ablation]] = True
    hyper = _sized(_checked(HyperParams, n=catalog.n, **kwargs))
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
    if splits.test_windows == 0:
        raise UsageError(f"bad value for test_days: {rc.get('test_days')!r} holds no test window")
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
    out = Path(rc.get("out"))
    out.parent.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before the walk
    predictions = _checked(evaluation.predict_walk, params, events, catalog, hyper,
                           t0=rc.get("t0"), cap=rc.get("cap"))
    evaluation.write_predictions_csv(predictions, catalog, out)
    print(f"predict: {len(predictions)} windows -> {out}")
    return 0


def cmd_oracle_check(rc: RunConfig) -> int:
    n_events, n_nodes, n_batches = rc.get("events"), rc.get("nodes"), rc.get("batches")
    _within_cells({"the event columns": (n_events,),
                   "the flow matrix (nodes x nodes)": (n_nodes, n_nodes),
                   "the window edges": (n_batches,)})
    tol = rc.get("tol")
    result = checks.oracle_equivalence_check(n_events=n_events, n_nodes=n_nodes,
                                             n_batches=n_batches, seed=rc.get("seed"))
    status = "OK" if result.passed(tol) else "FAIL"
    print(f"oracle-check: max_rel_error={result.max_rel_error:.3e} over "
          f"{result.batches} batches / {result.events} events "
          f"({result.seconds:.2f}s) [{status}]")
    return 0 if result.passed(tol) else 1


def cmd_grad_check(rc: RunConfig) -> int:
    tol = rc.get("tol")
    out = rc.get("out")
    if out:
        open(out, "a").close()  # an unwritable --out fails here, before the check runs
    report = checks.toy_gradient_check(seed=rc.get("seed"), tol=tol)
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
    nodes = list(range(hyper.n)) if nodes is None else nodes
    out = rc.get("out")
    _checked(evaluation.export_representations, params, events, catalog, hyper, nodes, out,
             t0=rc.get("t0"))
    print(f"export-reps: {len(nodes)} nodes -> {out}")
    return 0


def cmd_export_relations(rc: RunConfig) -> int:
    params, hyper, events, catalog = _load_model_stream(rc)
    out = Path(rc.get("out"))
    out.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before the walk
    relations = _checked(evaluation.final_relations, params, events, catalog, hyper,
                         t0=rc.get("t0"))
    write_relation_csv(relations, "message", out / "message_weights.csv")
    write_relation_csv(relations, "fusion", out / "fusion_weights.csv")
    print(f"export-relations: {relations.heads} heads -> {out}")
    return 0


# -- key tables and parser ------------------------------------------------

COMMON = {"config": Key(str, None, "JSON config file; flags override its keys")}
SEED = {"seed": Key(int, 0, "random seed")}
STREAM = {"events": Key(str, None, "event CSV (origin,destination,timestamp)"),
          "catalog": Key(str, None, "catalog CSV (name,index); omit to use raw indices"),
          "t0": Key(float, None, "window origin (unset: first event floored to a tau boundary)")}
HYPER = {"tau": Key(float, 1800.0, "prediction window seconds"),
         "decay_rate": Key(float, DEFAULT_DECAY_RATE, "memory decay rate 1/s"),
         "dim": Key(int, 256, "memory dimension"), "msg_dim": Key(int, 256, "message dimension"),
         "heads": Key(int, 8, "attention heads"),
         "rel_dim": Key(int, None, "relation projection width (unset: dim/heads)"),
         "n_clusters": Key(int, None, "cluster count (unset: ceil(sqrt(N)))"),
         "ablation": Key(tuple(sorted(ABLATIONS)), None,
                         "variant switch: no-ml, no-mu, or mse-loss"),
         "relation_scale": Key(bool, False)}
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
        **COMMON, **SEED, **SYNTH, "out": Key(str, "synth", "output directory")}),
    "train": (cmd_train, "train on an event stream", {
        **COMMON, **SEED, **STREAM, "n": Key(int, None, "node count when no catalog file is given"),
        **HYPER, **SPLITS, "out": Key(str, "run", "output directory"),
        "epochs": Key(int, 30, "max epochs"), "patience": Key(int, 10, "early stopping patience"),
        "lr": Key(float, 1e-4, "Adam learning rate")}),
    "evaluate": (cmd_evaluate, "evaluate a checkpoint on the test split", {
        **COMMON, **STREAM, **SPLITS, **CHECKPOINT, "out": Key(str, "eval", "output directory")}),
    "predict": (cmd_predict, "dump one prediction per processed batch", {
        **COMMON, **STREAM, **CHECKPOINT,
        "cap": Key(int, None, "split busy windows every CAP events (varied timespans)"),
        "out": Key(str, "predictions.csv", "output CSV")}),
    "oracle-check": (cmd_oracle_check, "online accumulators vs closed form", {
        **COMMON, **SEED, "events": Key(int, 10_000, "stream size"),
        "nodes": Key(int, 20, "node count"), "batches": Key(int, 50, "batch count"),
        "tol": Key(float, 1e-9, "relative tolerance")}),
    "grad-check": (cmd_grad_check, "finite-difference gradient verification", {
        **COMMON, **SEED, "toy": Key(bool, False, "use the builtin toy instance (the only mode)"),
        "tol": Key(float, 1e-4, "relative tolerance"),
        "out": Key(str, None, "per-coordinate CSV report")}),
    "export-reps": (cmd_export_reps, "dump station representations per batch", {
        **COMMON, **STREAM, **CHECKPOINT,
        "nodes": Key(lambda v: [typed("nodes", int, x) for x in v] if isinstance(v, list)
                     else [int(x) for x in str(v).split(",") if x.strip()], None,
                     "comma-separated node indices (unset: all)"),
        "out": Key(str, "representations.csv", "output CSV")}),
    "export-relations": (cmd_export_relations, "dump learned attention weights", {
        **COMMON, **STREAM, **CHECKPOINT, "out": Key(str, "relations", "output directory")}),
}

#: Keys a config file may hold: any subcommand's, so one file serves several.
FILE_KEYS = {key for _, _, keys in COMMANDS.values() for key in keys} - {"config"} | {"lambda"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """One flag per key with help, left as text for :meth:`RunConfig.get` to type; unset
    flags stay None.  A command line argparse refuses is a UsageError."""
    parser = _Parser(
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
                default = "" if shown is None else f" (default {shown})"
                p.add_argument(flag, help=spec.help + default)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(RunConfig(args))
    except SystemExit as exc:  # --help, after printing it
        return exc.code
    except UsageError as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return 2
    except OdcastError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output the command could not write
        print(f"IoError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
