import contextlib
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcast import checks, cli, evaluation
from odcast.cli import COMMANDS, RunConfig, main, typed
from odcast.errors import UsageError
from odcast.model import HyperParams, empty_params
from odcast.synthesis import RateSegment
from odcast.training import Splits, TrainConfig, load_checkpoint, save_checkpoint


def run(*argv):
    return main(list(argv))


def strict_json(text):
    """``json.loads`` that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def crafted_checkpoint(path, **hyper):
    """The checkpoint at ``path`` with ``hyper`` set in its manifest, checksum recomputed."""
    blob = path.read_bytes()
    manifest_end = 16 + struct.unpack_from("<I", blob, 12)[0]
    manifest = json.loads(blob[16:manifest_end])
    manifest["hyper"].update(hyper)
    raw = json.dumps(manifest, sort_keys=True).encode("utf-8")
    body = b"CMODCKPT" + struct.pack("<II", 2, len(raw)) + raw + blob[manifest_end:-8]
    return body + hashlib.sha256(body).digest()[:8]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("stream")
    code = run("synth", "--out", str(out), "--seed", "7", "--n", "6",
               "--communities", "3", "--days", "2.0")
    assert code == 0
    return out


def train_tiny(synth_dir, out, *flags):
    return run("train", "--events", str(synth_dir / "events.csv"),
               "--catalog", str(synth_dir / "catalog.csv"), "--out", str(out),
               "--train-days", "1.0", "--val-days", "0.5", "--test-days", "0.5",
               "--dim", "6", "--msg-dim", "6", "--heads", "2", *flags)


@pytest.fixture(scope="module")
def no_ml_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("ablated")
    assert train_tiny(synth_dir, out, "--epochs", "1", "--ablation", "no-ml") == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    assert train_tiny(synth_dir, out, "--epochs", "2", "--lr", "0.001", "--seed", "0") == 0
    return out


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "events.csv").exists()
        assert (synth_dir / "catalog.csv").exists()
        payload = json.loads((synth_dir / "run_config.json").read_text())
        assert "config_hash" in payload

    def test_deterministic_given_seed(self, tmp_path, synth_dir):
        again = tmp_path / "again"
        assert run("synth", "--out", str(again), "--seed", "7", "--n", "6",
                   "--communities", "3", "--days", "2.0") == 0
        assert (again / "events.csv").read_bytes() == \
            (synth_dir / "events.csv").read_bytes()
        assert (again / "catalog.csv").read_bytes() == \
            (synth_dir / "catalog.csv").read_bytes()


class TestTrainEvaluatePredict:
    def test_train_outputs(self, trained_dir):
        assert (trained_dir / "checkpoint.bin").exists()
        history = (trained_dir / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_loss,val_mae,val_rmse,val_pcc,seconds"
        assert len(history) == 3

    def test_flag_overrides_reach_checkpoint(self, trained_dir):
        _, _, hyper = load_checkpoint(trained_dir / "checkpoint.bin")
        assert hyper.dim == 6 and hyper.heads == 2

    def test_evaluate(self, tmp_path, synth_dir, trained_dir):
        out = tmp_path / "eval"
        code = run("evaluate",
                   "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--events", str(synth_dir / "events.csv"),
                   "--catalog", str(synth_dir / "catalog.csv"),
                   "--train-days", "1.0", "--val-days", "0.5", "--test-days", "0.5",
                   "--out", str(out))
        assert code == 0
        report = strict_json((out / "report.json").read_text())
        assert set(report) == {"all_pairs", "above_average", "config_hash"}
        assert set(report["all_pairs"]) == {"scope", "mae", "rmse", "pcc", "windows",
                                            "cells"}
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "origin,destination,window_start,window_end,predicted,actual"

    def test_predict_with_cap(self, tmp_path, synth_dir, trained_dir):
        out = tmp_path / "pred.csv"
        code = run("predict",
                   "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--events", str(synth_dir / "events.csv"),
                   "--catalog", str(synth_dir / "catalog.csv"),
                   "--cap", "50",
                   "--out", str(out))
        assert code == 0
        assert out.exists()

    def test_empty_above_average_scope_is_null(self, tmp_path, synth_dir, trained_dir):
        # The test windows hold no trips, so no cell is above the average demand.
        lines = (synth_dir / "events.csv").read_text().splitlines()
        t_cut = float(lines[1].split(",")[2]) + 1.25 * 86400
        events = tmp_path / "events.csv"
        events.write_text("\n".join(line for line in lines
                                    if line == lines[0] or float(line.split(",")[2]) < t_cut))
        assert run("evaluate", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--events", str(events), "--catalog", str(synth_dir / "catalog.csv"),
                   "--train-days", "1.0", "--val-days", "0.5", "--test-days", "0.5",
                   "--out", str(tmp_path / "eval")) == 0
        report = strict_json((tmp_path / "eval" / "report.json").read_text())
        assert report["above_average"]["cells"] == 0
        assert report["above_average"]["mae"] is None and report["above_average"]["rmse"] is None
        assert report["all_pairs"]["mae"] is not None

    def test_evaluate_without_checkpoint_is_usage_error(self, synth_dir):
        assert run("evaluate", "--events", str(synth_dir / "events.csv")) == 2


class TestChecks:
    def test_oracle_check(self):
        assert run("oracle-check", "--events", "1500", "--nodes", "8",
                   "--batches", "12") == 0

    def test_grad_check_writes_csv(self, tmp_path):
        out = tmp_path / "fd.csv"
        assert run("grad-check", "--toy", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "array,coordinate,analytic,numeric,rel_error"
        assert len(lines) > 100


class TestExports:
    def test_export_reps(self, tmp_path, synth_dir, trained_dir):
        out = tmp_path / "reps.csv"
        code = run("export-reps",
                   "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--events", str(synth_dir / "events.csv"),
                   "--catalog", str(synth_dir / "catalog.csv"),
                   "--nodes", "0,2",
                   "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "timestamp,node,dim,value"
        # Files parse as plain floats (no numpy reprs).
        float(lines[1].split(",")[3])

    @pytest.mark.parametrize("nodes", [[0, 2], "0,2"], ids=["json-list", "comma-string"])
    def test_export_reps_nodes_from_config(self, tmp_path, synth_dir, trained_dir, nodes):
        args = ["export-reps", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--events", str(synth_dir / "events.csv"),
                "--catalog", str(synth_dir / "catalog.csv")]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nodes": nodes}))
        assert run(*args, "--config", str(config), "--out", str(tmp_path / "file.csv")) == 0
        assert run(*args, "--nodes", "0,2", "--out", str(tmp_path / "flag.csv")) == 0
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_export_relations(self, tmp_path, synth_dir, trained_dir):
        out = tmp_path / "relations"
        code = run("export-relations",
                   "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--events", str(synth_dir / "events.csv"),
                   "--catalog", str(synth_dir / "catalog.csv"),
                   "--out", str(out))
        assert code == 0
        weights = (out / "message_weights.csv").read_text().splitlines()
        assert weights[0] == "head,station,cluster,weight"
        total = sum(float(line.split(",")[3]) for line in weights[1:])
        # Each head's Acm columns sum to one: heads * n_clusters in total.
        assert total == pytest.approx(2 * 3, rel=1e-9)

    def test_export_relations_rejects_no_ml(self, tmp_path, synth_dir, no_ml_dir):
        code = run("export-relations",
                   "--checkpoint", str(no_ml_dir / "checkpoint.bin"),
                   "--events", str(synth_dir / "events.csv"),
                   "--catalog", str(synth_dir / "catalog.csv"),
                   "--out", str(tmp_path / "rel"))
        assert code == 2


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path, synth_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dim": 6, "msg_dim": 6, "heads": 2, "epochs": 1,
            "train_days": 1.0, "val_days": 0.5, "test_days": 0.5,
            "events": str(synth_dir / "events.csv"),
            "catalog": str(synth_dir / "catalog.csv"),
        }))
        out = tmp_path / "run"
        assert run("train", "--config", str(config), "--out", str(out),
                   "--heads", "3", "--msg-dim", "9") == 0
        _, _, hyper = load_checkpoint(out / "checkpoint.bin")
        assert hyper.heads == 3      # flag wins
        assert hyper.dim == 6        # file value survives

    def test_bad_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert run("train", "--config", str(bad)) == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run("frobnicate") == 2


def test_ablation_flag_round_trip(tmp_path, synth_dir):
    out = tmp_path / "mse"
    assert run("train",
               "--events", str(synth_dir / "events.csv"),
               "--catalog", str(synth_dir / "catalog.csv"),
               "--out", str(out),
               "--train-days", "1.0", "--val-days", "0.5", "--test-days", "0.5",
               "--dim", "6", "--msg-dim", "6", "--heads", "2", "--epochs", "1",
               "--ablation", "mse-loss") == 0
    _, _, hyper = load_checkpoint(out / "checkpoint.bin")
    assert hyper.mse_loss and not hyper.no_multilevel


# Config-file values that no flag overrides; each must fail before any window is built.
TRAIN_CONFIGS = {
    "string-false-bool": {"relation_scale": "false"},
    "string-bool": {"relation_scale": "no"},
    "fractional-int": {"dim": 3.7},
    "bool-as-int": {"dim": True},
    "fractional-seed": {"seed": 1.5},
    "unknown-key": {"dimm": 64},
    "nan-string-tau": {"tau": "nan"},
    "nan-string-decay": {"decay_rate": "nan"},
    "tau-key-too-many-windows": {"tau": 1e-300},
}
SPLIT_FLAGS = ("--train-days", "--val-days", "--test-days")
NOT_POSITIVE_DAY_LENGTHS = ("0", "-86400")
# Sizes whose arrays NumPy can never allocate: a missing ceiling fails at once.
HUGE = "1000000000000000000"
TOO_BIG = {
    "dim": ["--dim", HUGE], "msg-dim": ["--msg-dim", HUGE],
    "heads": ["--heads", HUGE, "--msg-dim", HUGE], "rel-dim": ["--rel-dim", HUGE],
    "n-clusters": ["--n-clusters", HUGE],
}
NOT_POSITIVE = {"msg-dim": ["--msg-dim", "-2", "--heads", "2"], "rel-dim": ["--rel-dim", "-1"]}
TOO_BIG_ORACLE = {"events": "2" + HUGE[1:], "nodes": HUGE, "batches": "2" + HUGE[1:]}
NODE_LISTS = {"nodes-bool-entry": {"nodes": [0, True]}, "nodes-fractional-entry": {"nodes": [1.5]},
              "nodes-string-entry": {"nodes": ["0"]}, "nodes-empty-list": {"nodes": []}}
# Command lines argparse refuses, and flag text typed as the file's value would be.
TRAIN_FLAGS = {"unknown-flag": ["--dimm", "3"], "flag-without-value": ["--dim"],
               "fractional-dim-flag": ["--dim", "3.5"],
               "unknown-ablation-flag": ["--ablation", "bogus"],
               "fractional-seed-flag": ["--seed", "1.5"]}
PROFILES = {
    "profile-not-a-list": {"profile": 5},
    "profile-unknown-segment-key": {"profile": [{"bogus": 1}]},
    "profile-end-before-start": {"profile": [{"origin_group": 0, "dest_group": 0, "start": 7200.0,
                                              "end": 3600.0, "multiplier": 2.0}]},
}


#: Commands that load a checkpoint; each refuses one too big to run as ``train`` would.
OVERSIZED_COMMANDS = ("predict", "evaluate", "export-reps", "export-relations")


@pytest.fixture(scope="module")
def oversized_checkpoint(tmp_path_factory):
    """A 2.4 MB checkpoint whose relation logits would be 64 x 4096 x 4096 cells (8 GiB)."""
    hyper = HyperParams(n=4096, dim=4, msg_dim=64, heads=64, rel_dim=1, n_clusters=4096)
    path = tmp_path_factory.mktemp("oversized") / "checkpoint.bin"
    save_checkpoint(empty_params(hyper), None, hyper, path)
    return path


@pytest.mark.parametrize("argv, code, error", [
    (["train", "--events", "{tmp}/missing.csv", "--n", "4"], 1, "IoError"),
    (["train", "--events", "{events}", "--catalog", "{tmp}/missing.csv"], 1, "IoError"),
    (["train", "--events", "{events}", "--catalog", "{catalog}", "--heads", "0"], 2,
     "UsageError"),
    (["train", "--events", "{events}", "--catalog", "{catalog}", "--tau", "7000"], 2,
     "UsageError"),
    (["export-reps", "--checkpoint", "{checkpoint}", "--events", "{events}",
      "--catalog", "{catalog}", "--nodes", "99", "--out", "{tmp}/reps.csv"], 2, "UsageError"),
    (["predict", "--checkpoint", "{checkpoint}", "--events", "{events}",
      "--catalog", "{catalog}", "--cap", "0", "--out", "{tmp}/pred.csv"], 2, "UsageError"),
    (["train", "--config", "{tmp}/dim.json", "--events", "{events}", "--catalog", "{catalog}"],
     2, "UsageError"),
    (["predict", "--checkpoint", "{checkpoint}", "--events", "{events}",
      "--catalog", "{catalog}", "--t0", "90000", "--out", "{tmp}/pred.csv"], 2, "UsageError"),
    (["train", "--events", "{tmp}/latin1.csv", "--n", "4"], 1, "MalformedRow"),
    *((["train", "--config", f"{{tmp}}/{name}.json", "--events", "{events}",
        "--catalog", "{catalog}"], 2, "UsageError") for name in TRAIN_CONFIGS),
    (["train", "--events", "{events}", "--catalog", "{catalog}", "--tau", "1e-300"], 2,
     "UsageError"),
    *((["synth", "--config", f"{{tmp}}/{name}.json", "--out", "{tmp}/synth"], 2, "UsageError")
      for name in PROFILES),
    *((["train", "--events", "{events}", "--catalog", "{catalog}", flag, "-1"], 2,
       "UsageError") for flag in SPLIT_FLAGS),
    (["grad-check", "--toy", "--out", "{tmp}/missing/fd.csv"], 1, "IoError"),
    (["export-reps", "--checkpoint", "{checkpoint}", "--events", "{events}",
      "--catalog", "{catalog}", "--nodes", "0", "--out", "{tmp}/missing/reps.csv"], 1, "IoError"),
    (["export-relations", "--checkpoint", "{checkpoint}", "--events", "{events}",
      "--catalog", "{catalog}", "--out", "{tmp}/dim.json/relations"], 1, "IoError"),
    *((["train", "--events", "{events}", "--catalog", "{catalog}", *flags], 2, "UsageError")
      for flags in (*TOO_BIG.values(), *NOT_POSITIVE.values())),
    *((["oracle-check", f"--{key}", value], 2, "UsageError")
      for key, value in TOO_BIG_ORACLE.items()),
    (["train", "--events", "{events}", "--catalog", "{catalog}", "--epochs", "0"], 2,
     "UsageError"),
    (["evaluate", "--checkpoint", "{checkpoint}", "--events", "{events}", "--catalog",
      "{catalog}", "--train-days", "1.0", "--val-days", "0.5", "--test-days", "0",
      "--out", "{tmp}/eval"], 2, "UsageError"),
    *((["export-reps", "--checkpoint", "{checkpoint}", "--events", "{events}", "--catalog",
        "{catalog}", "--config", f"{{tmp}}/{name}.json", "--out", "{tmp}/reps.csv"], 2,
       "UsageError") for name in NODE_LISTS),
    (["export-reps", "--checkpoint", "{checkpoint}", "--events", "{events}", "--catalog",
      "{catalog}", "--nodes", "", "--out", "{tmp}/reps.csv"], 2, "UsageError"),
    *((["train", "--events", "{events}", "--catalog", "{catalog}", *flags], 2, "UsageError")
      for flags in TRAIN_FLAGS.values()),
    (["predict", "--checkpoint", "{checkpoint}", "--events", "{events}", "--catalog",
      "{catalog}", "--seed", "5", "--out", "{tmp}/pred.csv"], 2, "UsageError"),
    (["train", "--events", "{events}", "--n", "0"], 2, "UsageError"),
    (["train", "--events", "{events}"], 2, "UsageError"),
    *((["train", "--events", "{events}", "--catalog", "{catalog}", "--day-length", value], 2,
       "UsageError") for value in NOT_POSITIVE_DAY_LENGTHS),
    *((["evaluate", "--checkpoint", "{checkpoint}", "--events", "{events}", "--catalog",
        "{catalog}", "--day-length", value, "--out", "{tmp}/eval"], 2, "UsageError")
      for value in NOT_POSITIVE_DAY_LENGTHS),
    *((["train", "--events", "{events}", "--catalog", "{catalog}", "--lr", value], 2,
       "UsageError") for value in ("0", "-1")),
    (["predict", "--checkpoint", "{checkpoint}", "--events", "{events}", "--catalog",
      "{catalog}", "--out", "{tmp}/dim.json/pred.csv"], 1, "IoError"),
    (["train", "--events", "{events}", "--catalog", "{catalog}", "--day-length", "1e-300"], 2,
     "UsageError"),
    (["evaluate", "--checkpoint", "{checkpoint}", "--events", "{events}", "--catalog",
      "{catalog}", "--day-length", "1e-300", "--out", "{tmp}/eval"], 2, "UsageError"),
    (["predict", "--checkpoint", "{tmp}/huge-dim.ckpt", "--events", "{events}", "--catalog",
      "{catalog}", "--out", "{tmp}/pred.csv"], 1, "VersionMismatch"),
    *(([command, "--checkpoint", "{oversized}", "--events", "{events}", "--catalog",
        "{catalog}", "--out", f"{{tmp}}/{command}-out"], 2, "UsageError")
      for command in OVERSIZED_COMMANDS),
], ids=["missing-events", "missing-catalog", "zero-heads", "tau-not-dividing-day",
        "node-out-of-range", "zero-cap", "non-integer-config-value", "t0-after-first-event",
        "non-utf8-events", *TRAIN_CONFIGS, "tau-flag-too-many-windows", *PROFILES,
        *(f"negative-{flag[2:]}" for flag in SPLIT_FLAGS), "grad-check-out-in-missing-dir",
        "export-reps-out-in-missing-dir", "export-relations-out-under-a-file",
        *(f"too-big-{key}" for key in TOO_BIG), *(f"not-positive-{key}" for key in NOT_POSITIVE),
        *(f"too-big-oracle-{key}" for key in TOO_BIG_ORACLE), "zero-epochs",
        "evaluate-zero-test-windows", *NODE_LISTS, "nodes-empty-flag", *TRAIN_FLAGS,
        "predict-seed-flag", "zero-n-without-catalog", "neither-catalog-nor-n",
        *(f"{command}-day-length-{value}" for command in ("train", "evaluate")
          for value in NOT_POSITIVE_DAY_LENGTHS), "zero-lr", "negative-lr",
        "predict-out-under-a-file", "train-day-shorter-than-tau",
        "evaluate-day-shorter-than-tau", "predict-huge-dim-checkpoint",
        *(f"{command}-oversized-checkpoint" for command in OVERSIZED_COMMANDS)])
def test_bad_input_is_one_line_error(tmp_path, capsys, monkeypatch, synth_dir, trained_dir,
                                     oversized_checkpoint, argv, code, error):
    def never(*args, **kwargs):  # each refusal comes before any check or step runs
        raise AssertionError("the work ran")

    monkeypatch.setattr(checks, "toy_gradient_check", never)
    monkeypatch.setattr(evaluation, "step", never)
    (tmp_path / "huge-dim.ckpt").write_bytes(
        crafted_checkpoint(trained_dir / "checkpoint.bin", dim=10**10))
    (tmp_path / "dim.json").write_text(json.dumps({"dim": "abc"}))
    for name, config in {**TRAIN_CONFIGS, **PROFILES, **NODE_LISTS}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    (tmp_path / "latin1.csv").write_bytes(b"origin,destination,timestamp\n0,1,1.0\n\xe9,1,2.0\n")
    paths = {"tmp": tmp_path, "events": synth_dir / "events.csv",
             "catalog": synth_dir / "catalog.csv", "checkpoint": trained_dir / "checkpoint.bin",
             "oversized": oversized_checkpoint}
    capsys.readouterr()
    assert run(*(arg.format(**paths) for arg in argv)) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{error}: ")
    if "{oversized}" in argv:
        assert re.search(r"relation logits .* more than 67108864 cells$", lines[0])


# Walk settings the library refuses, each before the walk's first step.
LATE_T0 = ["--t0", "90000"]
WALK_REFUSALS = {
    "predict-zero-cap": ["predict", "--cap", "0", "--out", "{tmp}/pred.csv"],
    "predict-late-t0": ["predict", *LATE_T0, "--out", "{tmp}/pred.csv"],
    "export-reps-late-t0": ["export-reps", *LATE_T0, "--out", "{tmp}/reps.csv"],
    "export-relations-late-t0": ["export-relations", *LATE_T0, "--out", "{tmp}/rel"],
    "export-relations-no-ml": ["export-relations", "--checkpoint", "{no_ml}", "--out",
                               "{tmp}/rel"],
}


@pytest.mark.parametrize("argv", WALK_REFUSALS.values(), ids=WALK_REFUSALS)
def test_bad_walk_setting_is_refused_before_any_step(tmp_path, capsys, monkeypatch, synth_dir,
                                                    trained_dir, no_ml_dir, argv):
    def never(*args):
        raise AssertionError("the walk stepped")

    monkeypatch.setattr(evaluation, "step", never)
    paths = {"tmp": tmp_path, "events": synth_dir / "events.csv",
             "catalog": synth_dir / "catalog.csv", "checkpoint": trained_dir / "checkpoint.bin",
             "no_ml": no_ml_dir / "checkpoint.bin"}
    command, *flags = argv
    argv = [command, "--checkpoint", "{checkpoint}", "--events", "{events}",
            "--catalog", "{catalog}", *flags]  # a later --checkpoint wins
    capsys.readouterr()
    assert run(*(arg.format(**paths) for arg in argv)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("UsageError: ")


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("flag", SPLIT_FLAGS)
def test_negative_split_days_name_the_key(capsys, synth_dir, trained_dir, command, flag):
    argv = [command, "--events", str(synth_dir / "events.csv"),
            "--catalog", str(synth_dir / "catalog.csv"), flag, "-0.5"]
    if command == "evaluate":
        argv += ["--checkpoint", str(trained_dir / "checkpoint.bin")]
    capsys.readouterr()
    assert run(*argv) == 2
    key = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"UsageError: bad value for {key}: -0.5 is negative\n"


def test_lambda_alias_and_other_subcommands_keys(tmp_path, synth_dir):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dim": 6, "msg_dim": 6, "heads": 2, "epochs": 1, "lambda": 0.001, "rel_dim": None,
        "train_days": 1.0, "val_days": 0.5, "test_days": 0.5, "cap": 50, "checkpoint": "x.bin",
        "events": str(synth_dir / "events.csv"), "catalog": str(synth_dir / "catalog.csv"),
    }))
    out = tmp_path / "run"
    assert run("train", "--config", str(config), "--out", str(out)) == 0
    _, _, hyper = load_checkpoint(out / "checkpoint.bin")
    assert hyper.decay_rate == 0.001 and hyper.rel_dim == 3   # null rel_dim means unset
    echoed = json.loads((out / "run_config.json").read_text())["config"]
    assert echoed["decay_rate"] == 0.001 and "lambda" not in echoed


def test_synth_profile_from_config(tmp_path):
    config = tmp_path / "profile.json"
    config.write_text(json.dumps({"profile": [
        {"origin_group": 0, "dest_group": 1, "start": 0, "end": 3600.0, "multiplier": 3.0,
         "days": [0, 1]}]}))
    out = tmp_path / "synth"
    assert run("synth", "--config", str(config), "--out", str(out), "--n", "4",
               "--days", "0.1") == 0
    # Echoed as typed: the integer start widened to float, days a tuple.
    assert json.loads((out / "run_config.json").read_text())["config"]["profile"] == [
        "RateSegment(origin_group=0, dest_group=1, start=0.0, end=3600.0, multiplier=3.0, "
        "days=(0, 1))"]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_help_lists_every_flagged_key(capsys, name):
    assert run(name, "--help") == 0
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    for key, spec in COMMANDS[name][2].items():
        assert (f"--{key.replace('_', '-')}" in flags) == (spec.help is not None), key


SEGMENT_KEYS = ["origin_group", "dest_group", "start", "end", "multiplier"]
json_leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
               | st.sampled_from([10**400, -(10**400), 2.0, 1e300, math.nan, math.inf, "0,2",
                                  " 1, 3 ", "1,x", "no-ml", "mse-loss", "nan"]))
json_values = json_leaves | st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from([*SEGMENT_KEYS, "days", "bogus"]), children, max_size=7)
    | st.fixed_dictionaries({key: children for key in SEGMENT_KEYS},
                            optional={"days": children | st.lists(st.integers(0, 6))}),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), value=json_values)
def test_any_json_value_types_or_is_usage_error(data, value):
    name = data.draw(st.sampled_from(sorted(COMMANDS)))
    keys = COMMANDS[name][2]
    key = data.draw(st.sampled_from(sorted(keys)))
    kind = keys[key].kind
    try:
        result = typed(key, kind, value)
    except UsageError as exc:
        assert key in str(exc) and "\n" not in str(exc)
        return
    if kind in (bool, int, float, str):
        assert type(result) is kind and result == value
        assert kind not in (int, float) or type(value) is not bool
        assert kind is not float or math.isfinite(result)
    elif isinstance(kind, tuple):
        assert result in kind
    elif key == "nodes":
        assert all(type(node) is int for node in result)
    else:
        assert key == "profile" and all(isinstance(seg, RateSegment) for seg in result)


class _Reached(Exception):
    """Raised by a command's stubbed work: the run passed every check before it."""


#: Command -> the module attribute that starts its work, and a config that lets it start.
WORK = {
    "synth": (cli, "generate", {"out": "{tmp}/synth"}),
    "train": (cli, "train", {"events": "{events}", "catalog": "{catalog}", "out": "{tmp}/run"}),
    "evaluate": (evaluation, "evaluate", {"checkpoint": "{checkpoint}", "events": "{events}",
                                          "catalog": "{catalog}", "out": "{tmp}/eval"}),
    "predict": (evaluation, "predict_walk", {"checkpoint": "{checkpoint}", "events": "{events}",
                                             "catalog": "{catalog}", "out": "{tmp}/pred.csv"}),
    "oracle-check": (checks, "oracle_equivalence_check", {}),
    "grad-check": (checks, "toy_gradient_check", {}),
    "export-reps": (evaluation, "export_representations", {
        "checkpoint": "{checkpoint}", "events": "{events}", "catalog": "{catalog}",
        "out": "{tmp}/reps.csv"}),
    "export-relations": (evaluation, "final_relations", {
        "checkpoint": "{checkpoint}", "events": "{events}", "catalog": "{catalog}",
        "out": "{tmp}/relations"}),
}
PATH_KEYS = {"events", "catalog", "checkpoint", "out"}


@pytest.fixture(scope="module")
def paths(tmp_path_factory, synth_dir, trained_dir):
    return {"tmp": tmp_path_factory.mktemp("work"), "events": synth_dir / "events.csv",
            "catalog": synth_dir / "catalog.csv", "checkpoint": trained_dir / "checkpoint.bin"}


def run_to_work(command, paths, config, *flags):
    """Run ``command`` with its work stubbed, on ``config`` over the command's WORK config:
    (exit code, stderr, typed objects), where the exit code is None and the objects are those
    the work was given when the run reached it."""
    module, name, base = WORK[command]
    config = {key: value.format(**paths) if key in PATH_KEYS and isinstance(value, str)
              else value for key, value in {**base, **config}.items()}
    (paths["tmp"] / "config.json").write_text(json.dumps(config))
    recorded = []

    def work(*args, **kwargs):
        recorded.extend(arg for arg in args if isinstance(arg, (HyperParams, TrainConfig, Splits)))
        recorded.append({key: value for key, value in kwargs.items() if not callable(value)})
        raise _Reached

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(module, name, work)
        mp.chdir(paths["tmp"])  # a null path key means the default, a relative path
        try:
            code = run(command, "--config", str(paths["tmp"] / "config.json"), *flags)
        except _Reached:
            code = None
    return code, err.getvalue(), recorded


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_reads_every_key_of_its_table(monkeypatch, paths, command):
    read = set()
    get = RunConfig.get

    def reading(self, key):
        read.add(key)
        return get(self, key)

    monkeypatch.setattr(RunConfig, "get", reading)
    code, err, _ = run_to_work(command, paths, {})
    assert code is None, err
    assert read == set(COMMANDS[command][2]) - {"config", "toy"}


NUMBERS = (st.integers(-10**20, 10**20) | st.floats()
           | st.sampled_from([2.0, 3.5, -0.0, 1e-300, 1e300, 10**18, -(10**18), 10**400]))


def mostly(good, bad):
    """Values from ``good`` nine times in ten, else from ``bad`` (lists are sampled)."""
    good, bad = (st.sampled_from(v) if isinstance(v, list) else v for v in (good, bad))
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


def _key_values():
    """Values for every key of train, evaluate and predict, most of them good, the others
    bad or too big for any array.  A path key gets no other text: it would name a missing
    file, which is an IoError."""
    days = mostly([0.5, 1.0, 2], [0, 0.01, -1.0, 1e300])
    not_text = st.none() | st.booleans() | NUMBERS | st.lists(st.integers(), max_size=2)
    return {
        "tau": mostly([1800.0, 3600, 900.0], [7000.0, 1e-300, 0.0, -1800.0]),
        "decay_rate": mostly(st.floats(1e-6, 1e-2), [0.0, -1e-4]),
        "dim": mostly([2, 4, 6, 8], [0, -1, 10**18]),
        "msg_dim": mostly([2, 4, 6, 8], [0, -2, 10**18]),
        "heads": mostly([1, 2], [3, 0, 10**18]), "rel_dim": mostly([None, 1, 3], [0, -1, 10**18]),
        "n_clusters": mostly([None, 1, 2, 3], [0, -1, 10**18]),
        "epochs": mostly([1, 2], [0, -1]), "patience": mostly([1, 5], [0]),
        "lr": mostly(st.floats(1e-6, 1.0), NUMBERS), "seed": mostly(st.integers(), NUMBERS),
        "n": mostly([None, 6, 7], [0, -1, 10**18]),
        "t0": mostly([None, 0.0, 1800.0], st.sampled_from([9e4, -1e9]) | NUMBERS),
        "train_days": days, "val_days": days, "test_days": days,
        "day_length": mostly([86400.0, 3600], [1800.0, 0, -86400.0, 1e-300]),
        "cap": mostly([None, 1, 50, 2.0], st.sampled_from([0, -5]) | NUMBERS),
        "ablation": mostly([None, "no-ml", "no-mu", "mse-loss"], ["bogus"]),
        "relation_scale": mostly([True, False, None], ["false", 0]),
        **{key: mostly([f"{{{key}}}"], not_text) for key in ("events", "catalog", "checkpoint")},
        "out": mostly(["{tmp}/out"], not_text),
    }


KEY_VALUES = _key_values()
#: Any JSON value, for any key but a path key.
JUNK = json_leaves | st.lists(json_leaves, max_size=2) | st.sampled_from(["nan", "3", "no-ml"])
#: Domain errors a config can meet with valid files: a training split under two windows,
#: and an index catalog (no ``catalog`` key) that does not hold the file's node names.
DOMAIN_ERRORS = {"EmptyTrainSplit", "UnknownNode"}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(["train", "evaluate", "predict"]))
def test_any_config_reaches_the_work_or_is_one_usage_error(paths, data, command):
    keys = sorted(set(COMMANDS[command][2]) - {"config"})
    config = data.draw(st.fixed_dictionaries({}, optional={key: KEY_VALUES[key] for key in keys}))
    # At most one junk value, perhaps under an unknown key or another command's key.
    config |= data.draw(st.dictionaries(
        st.sampled_from([*sorted(set(keys) - PATH_KEYS), "dimm", "lambda", "communities"]),
        JUNK, max_size=1))
    code, err, recorded = run_to_work(command, paths, config)
    if code is None:  # every size of the model it reached can be built
        hyper = next(obj for obj in recorded if isinstance(obj, HyperParams))
        assert min(hyper.n, hyper.dim, hyper.msg_dim, hyper.heads, hyper.rel_dim,
                   hyper.n_clusters) >= 1
        return
    lines = err.splitlines()
    assert len(lines) == 1, err
    error = lines[0].split(":")[0]
    if code == 1:
        assert error in DOMAIN_ERRORS, err
        assert error == "EmptyTrainSplit" or config.get("catalog", "") is None, err
    else:
        assert (code, error) == (2, "UsageError"), err


NUMERIC_KEYS = sorted({(command, key) for command in ("train", "evaluate", "predict")
                       for key, spec in COMMANDS[command][2].items() if spec.kind in (int, float)})


def assert_flag_types_as_the_file(paths, command, key, value):
    """``--key=value`` and ``{"key": value}`` give the same exit, error and typed objects."""
    from_file = run_to_work(command, paths, {key: value})
    from_flag = run_to_work(command, paths, {}, f"--{key.replace('_', '-')}={value}")
    assert from_flag == from_file
    return from_file


@settings(max_examples=200, deadline=None)
@given(command_key=st.sampled_from(NUMERIC_KEYS), value=NUMBERS)
def test_numeric_flag_text_types_as_the_file_value(paths, command_key, value):
    assert_flag_types_as_the_file(paths, *command_key, value)


@pytest.mark.parametrize("command, key, value, typed_value", [
    ("predict", "cap", 2.0, 2), ("predict", "t0", 0, 0.0), ("train", "dim", 3.5, None),
    ("train", "seed", 1.5, None), ("train", "tau", 1e-300, None),
    ("train", "lr", 2**53 + 1, None)])  # no float holds it exactly
def test_flag_text_is_typed_by_the_file_rules(paths, command, key, value, typed_value):
    code, err, recorded = assert_flag_types_as_the_file(paths, command, key, value)
    if typed_value is None:
        assert code == 2 and err.startswith("UsageError: ") and err.count("\n") == 1
    else:
        assert code is None and recorded[-1][key] == typed_value
        assert type(recorded[-1][key]) is type(typed_value)


def test_module_entry_point_runs_and_refuses_in_one_line():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}

    def odcast(*argv):
        return subprocess.run([sys.executable, "-m", "odcast", *argv], capture_output=True,
                              text=True, env=env, timeout=300)

    checked = odcast("grad-check", "--toy")
    assert checked.returncode == 0 and "[OK]" in checked.stdout
    refused = odcast("predict")  # no --checkpoint
    assert refused.returncode == 2
    assert refused.stderr.splitlines() == ["UsageError: --checkpoint is required"]
