import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcast import checks
from odcast.cli import COMMANDS, main, typed
from odcast.errors import UsageError
from odcast.synthesis import RateSegment
from odcast.training import load_checkpoint


def run(*argv):
    return main(list(argv))


def strict_json(text):
    """``json.loads`` that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("stream")
    code = run("synth", "--out", str(out), "--seed", "7", "--n", "6",
               "--communities", "3", "--days", "2.0")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    code = run("train",
               "--events", str(synth_dir / "events.csv"),
               "--catalog", str(synth_dir / "catalog.csv"),
               "--out", str(out),
               "--train-days", "1.0", "--val-days", "0.5", "--test-days", "0.5",
               "--dim", "6", "--msg-dim", "6", "--heads", "2", "--epochs", "2",
               "--lr", "0.001", "--seed", "0")
    assert code == 0
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

    def test_export_relations_rejects_no_ml(self, tmp_path, synth_dir):
        run_dir = tmp_path / "ablated"
        assert run("train",
                   "--events", str(synth_dir / "events.csv"),
                   "--catalog", str(synth_dir / "catalog.csv"),
                   "--out", str(run_dir),
                   "--train-days", "1.0", "--val-days", "0.5", "--test-days", "0.5",
                   "--dim", "6", "--msg-dim", "6", "--heads", "2", "--epochs", "1",
                   "--ablation", "no-ml") == 0
        code = run("export-relations",
                   "--checkpoint", str(run_dir / "checkpoint.bin"),
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
    "string-false-bool": {"no_multilevel": "false"},
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
# Sizes whose arrays NumPy can never allocate: a missing ceiling fails at once.
HUGE = "1000000000000000000"
TOO_BIG = {
    "dim": ["--dim", HUGE], "msg-dim": ["--msg-dim", HUGE],
    "heads": ["--heads", HUGE, "--msg-dim", HUGE], "rel-dim": ["--rel-dim", HUGE],
    "n-clusters": ["--n-clusters", HUGE],
}
TOO_BIG_ORACLE = {"events": "2" + HUGE[1:], "nodes": HUGE, "batches": "2" + HUGE[1:]}
NODE_LISTS = {"nodes-bool-entry": {"nodes": [0, True]}, "nodes-fractional-entry": {"nodes": [1.5]},
              "nodes-string-entry": {"nodes": ["0"]}}
PROFILES = {
    "profile-not-a-list": {"profile": 5},
    "profile-unknown-segment-key": {"profile": [{"bogus": 1}]},
    "profile-end-before-start": {"profile": [{"origin_group": 0, "dest_group": 0, "start": 7200.0,
                                              "end": 3600.0, "multiplier": 2.0}]},
}


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
      for flags in TOO_BIG.values()),
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
], ids=["missing-events", "missing-catalog", "zero-heads", "tau-not-dividing-day",
        "node-out-of-range", "zero-cap", "non-integer-config-value", "t0-after-first-event",
        "non-utf8-events", *TRAIN_CONFIGS, "tau-flag-too-many-windows", *PROFILES,
        *(f"negative-{flag[2:]}" for flag in SPLIT_FLAGS), "grad-check-out-in-missing-dir",
        "export-reps-out-in-missing-dir", "export-relations-out-under-a-file",
        *(f"too-big-{key}" for key in TOO_BIG),
        *(f"too-big-oracle-{key}" for key in TOO_BIG_ORACLE), "zero-epochs",
        "evaluate-zero-test-windows", *NODE_LISTS])
def test_bad_input_is_one_line_error(tmp_path, capsys, monkeypatch, synth_dir, trained_dir, argv,
                                     code, error):
    def never(**kwargs):  # grad-check reports an unwritable --out before its check runs
        raise AssertionError("the gradient check ran")

    monkeypatch.setattr(checks, "toy_gradient_check", never)
    (tmp_path / "dim.json").write_text(json.dumps({"dim": "abc"}))
    for name, config in {**TRAIN_CONFIGS, **PROFILES, **NODE_LISTS}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    (tmp_path / "latin1.csv").write_bytes(b"origin,destination,timestamp\n0,1,1.0\n\xe9,1,2.0\n")
    paths = {"tmp": tmp_path, "events": synth_dir / "events.csv",
             "catalog": synth_dir / "catalog.csv", "checkpoint": trained_dir / "checkpoint.bin"}
    capsys.readouterr()
    assert run(*(arg.format(**paths) for arg in argv)) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{error}: ")


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
