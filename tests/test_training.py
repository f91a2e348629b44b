import hashlib
import json
import math
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcast.autodiff import grad_of
from odcast.errors import (ChecksumMismatch, EmptyTrainSplit, IoError, OdcastError,
                           ShapeError, VersionMismatch)
from odcast.events import TransactionEvent, NodeCatalog
from odcast.model import HyperParams, init_params, param_layout
from odcast.training import (AdamState, EarlyStopper, Splits, TrainConfig, adam_step,
                             load_checkpoint, save_checkpoint, train, write_history)


#: The smallest model: 24 arrays of at most 6 cells, 33 in all.
TINY = HyperParams(n=1, dim=1, msg_dim=1, heads=1, rel_dim=1, n_clusters=1)


def with_grads(params, grad):
    """``params``, each tensor's gradient ``grad`` (a value or a name -> value map; a
    name left out, or None, has no gradient)."""
    for name, tensor in params.tensors.items():
        value = grad.get(name) if isinstance(grad, dict) else grad
        tensor.grad = None if value is None else np.broadcast_to(
            np.asarray(value, dtype=float), tensor.data.shape).copy()
    return params


def attached(params, **settings):
    return AdamState(**settings).attach(params)


def reference_adam(arrays, m, v, grads, t, opt):
    """One Adam step array by array, each op in the order the flat update runs it;
    ``arrays``, ``m`` and ``v`` map checkpoint names to arrays, replaced by the results."""
    for name, param in arrays.items():
        g = grads[name]
        m[name] = m[name] * opt.beta1 + g * (1.0 - opt.beta1)
        v[name] = v[name] * opt.beta2 + (g * (1.0 - opt.beta2)) * g
        denom = np.sqrt(v[name] / (1.0 - opt.beta2 ** t)) + opt.eps
        arrays[name] = param - m[name] / (1.0 - opt.beta1 ** t) * opt.lr / denom


class TestAdam:
    def test_first_step_moves_by_about_lr(self):
        params = with_grads(init_params(TINY, 0), 3.7)
        before = params.flat.copy()
        adam_step(params, attached(params, lr=0.01))
        # Bias-corrected first step is lr * g / (|g| + eps'): almost exactly lr.
        assert params.flat == pytest.approx(before - 0.01, abs=1e-6)

    def test_zero_gradient_leaves_parameter(self):
        params = with_grads(init_params(TINY, 0), 0.0)
        before = params.flat.tobytes()
        adam_step(params, attached(params, lr=0.1))
        assert params.flat.tobytes() == before

    def test_later_steps_allocate_no_parameter_sized_array(self):
        params = with_grads(init_params(HyperParams(n=300, dim=64, msg_dim=64, heads=1), 0),
                            0.5)
        assert params.flat.size > 100_000
        opt = attached(params)
        adam_step(params, opt)
        tracemalloc.start()
        try:
            adam_step(params, opt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.flat.nbytes // 4

    def test_three_steps_match_hand_recurrence(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        params = init_params(TINY, 0)
        opt = attached(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        xs = params.flat.tolist()
        m = [0.0] * len(xs)
        v = [0.0] * len(xs)
        for t in range(1, 4):
            for tensor in params.tensors.values():
                tensor.grad = 2.0 * tensor.data  # gradient of the sum of squares
            adam_step(params, opt)
            for k, x in enumerate(xs):
                g = 2.0 * x
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                m_hat = m[k] / (1 - b1 ** t)
                v_hat = v[k] / (1 - b2 ** t)
                xs[k] = x - lr * m_hat / (math.sqrt(v_hat) + eps)
            assert params.flat.tolist() == pytest.approx(xs, abs=1e-12)

    def test_shape_error(self):
        params = with_grads(init_params(TINY, 0), 1.0)
        params.tensors["output_mlp.b2"].grad = np.zeros(3)
        with pytest.raises(ShapeError, match="output_mlp.b2"):
            adam_step(params, attached(params))

    def test_missing_gradient_is_zero(self):
        params = with_grads(init_params(TINY, 0), {"output_mlp.b2": 1.0})
        before = dict((name, a.copy()) for name, a in params.named_views(params.flat).items())
        adam_step(params, attached(params, lr=0.05))
        for name, array in params.named_views(params.flat).items():
            if name == "output_mlp.b2":
                assert array == pytest.approx(before[name] - 0.05, abs=1e-6)
            else:
                assert array.tobytes() == before[name].tobytes(), name


@st.composite
def adam_runs(draw):
    """Small random hyperparameters, Adam settings and three steps of gradients,
    each tensor's left out (None) or drawn from a seeded normal at a drawn scale."""
    heads = draw(st.integers(1, 3))
    hyper = HyperParams(n=draw(st.integers(1, 4)), dim=draw(st.integers(1, 4)),
                        msg_dim=heads * draw(st.integers(1, 3)), heads=heads,
                        rel_dim=draw(st.integers(1, 3)), n_clusters=draw(st.integers(1, 3)),
                        no_multilevel=draw(st.booleans()))
    settings = dict(lr=draw(st.sampled_from([1e-4, 3e-3, 0.5])),
                    beta1=draw(st.sampled_from([0.0, 0.9])),
                    beta2=draw(st.sampled_from([0.5, 0.999])),
                    eps=draw(st.sampled_from([1e-8, 1.0])))
    names = [spec.name for spec in param_layout(hyper)]
    steps = [{name: draw(st.sampled_from([None, 0.0, 1e-6, 1.0, 1e6])) for name in names}
             for _ in range(3)]
    return hyper, settings, steps, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(run=adam_runs())
def test_flat_adam_matches_the_per_array_update_bit_for_bit(run):
    hyper, settings, steps, seed = run
    rng = np.random.default_rng(seed)
    params = init_params(hyper, seed % 1000)
    opt = attached(params, **settings)
    arrays = {name: t.data.copy() for name, t in params.named_tensors()}
    m = {name: np.zeros_like(a) for name, a in arrays.items()}
    v = {name: np.zeros_like(a) for name, a in arrays.items()}
    for t, scales in enumerate(steps, start=1):
        for name, tensor in params.tensors.items():
            scale = scales[name]
            tensor.grad = None if scale is None else scale * rng.normal(size=tensor.data.shape)
        grads = {name: grad_of(view) for name, view in params.named_tensors()}
        adam_step(params, opt)
        reference_adam(arrays, m, v, grads, t, opt)
        assert params.flat.tobytes() == b"".join(a.tobytes() for a in arrays.values())
        for name in arrays:
            assert opt.m[name].tobytes() == m[name].tobytes(), name
            assert opt.v[name].tobytes() == v[name].tobytes(), name
    assert opt.step_count == 3


class TestEarlyStopper:
    def test_patience_two_on_plateau(self):
        # Validation sequence [5, 4, 4, 4]: stops after two non-improving
        # epochs and keeps epoch 2 as best.
        stopper = EarlyStopper(patience=2)
        assert stopper.update(5.0) is False
        assert stopper.update(4.0) is False
        assert stopper.update(4.0) is False
        assert stopper.update(4.0) is True
        assert stopper.best_epoch == 2
        assert stopper.best == 4.0

    def test_improvement_resets_patience(self):
        stopper = EarlyStopper(patience=2)
        for value in (5.0, 4.9, 5.2, 4.5):
            assert stopper.update(value) is False
        assert stopper.best_epoch == 4


class TestSplits:
    def test_from_days(self):
        splits = Splits.from_days(2, 1, 1, tau=1800.0)
        assert (splits.train_windows, splits.val_windows, splits.test_windows) == \
            (96, 48, 48)

    def test_requires_two_train_windows(self):
        with pytest.raises(EmptyTrainSplit):
            Splits(train_windows=1, val_windows=4)

    def test_rejects_non_dividing_tau(self):
        with pytest.raises(ValueError):
            Splits.from_days(1, 1, 1, tau=7000.0)

    @pytest.mark.parametrize("day_length", [1e-300, 1e-7, 899.0])
    def test_rejects_day_shorter_than_one_window(self, day_length):
        with pytest.raises(ValueError, match="does not divide"):
            Splits.from_days(1, 1, 1, tau=1800.0, day_length=day_length)


def constant_pair_stream(count_per_window, windows, tau=60.0):
    """Deterministic stream: exactly c evenly spaced 0->1 trips per window."""
    events = []
    for w in range(windows):
        for k in range(count_per_window):
            events.append(TransactionEvent(0, 1, w * tau + (k + 0.5) * tau / count_per_window))
    return events


def small_hyper(n=2, **overrides):
    base = dict(n=n, dim=6, msg_dim=6, heads=1, rel_dim=2, n_clusters=1, tau=60.0,
                decay_rate=math.log(2.0) / 240.0)
    base.update(overrides)
    return HyperParams(**base)


class TestTrainLoop:
    def test_learns_constant_demand(self):
        c = 4
        windows = 72
        events = constant_pair_stream(c, windows)
        catalog = NodeCatalog(n=2)
        hyper = small_hyper()
        splits = Splits(train_windows=60, val_windows=12)
        tc = TrainConfig(max_epochs=60, splits=splits, patience=60, lr=3e-3, seed=1,
                         t0=0.0)
        result = train(events, catalog, hyper, tc)
        # Loss decreases in trend.
        losses = [s.train_loss for s in result.history]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])
        # The learned prediction for the busy pair approaches c.
        from odcast.evaluation import predict_walk
        preds = predict_walk(result.params, events, catalog, hyper, t0=0.0)
        tail = [p.predicted[0, 1] for p in preds[-12:]]
        assert abs(np.mean(tail) - c) / c < 0.10

    def test_seed_determinism_and_epoch_reset(self):
        events = constant_pair_stream(2, 24)
        catalog = NodeCatalog(n=2)
        hyper = small_hyper()
        splits = Splits(train_windows=18, val_windows=6)

        def history_of(max_epochs):
            tc = TrainConfig(max_epochs=max_epochs, splits=splits, patience=50,
                             lr=1e-3, seed=9, t0=0.0)
            return train(events, catalog, hyper, tc).history

        two = history_of(2)
        one = history_of(1)
        again = history_of(2)
        for a, b in zip(two, again):
            assert (a.epoch, a.train_loss, a.val_mae, a.val_rmse) == \
                (b.epoch, b.train_loss, b.val_mae, b.val_rmse)
        # First epoch of a longer run matches a one-epoch run exactly: the
        # memory bank is rebuilt from the initial state every epoch.
        assert one[0].train_loss == two[0].train_loss
        assert one[0].val_mae == two[0].val_mae

    def test_best_params_beat_final_epoch_on_validation(self):
        events = constant_pair_stream(3, 36)
        catalog = NodeCatalog(n=2)
        hyper = small_hyper()
        splits = Splits(train_windows=30, val_windows=6)
        tc = TrainConfig(max_epochs=8, splits=splits, patience=8, lr=1e-3, seed=2,
                         t0=0.0)
        result = train(events, catalog, hyper, tc)
        assert result.best_val_mae == min(s.val_mae for s in result.history)

    def test_returns_the_best_epochs_parameters(self):
        events = constant_pair_stream(3, 36)
        catalog = NodeCatalog(n=2)
        hyper = small_hyper()
        splits = Splits(train_windows=30, val_windows=6)

        def run(max_epochs):
            tc = TrainConfig(max_epochs=max_epochs, splits=splits, patience=max_epochs,
                             lr=0.05, seed=2, t0=0.0)
            return train(events, catalog, hyper, tc)

        full = run(8)
        assert full.best_epoch < len(full.history)  # later epochs moved the parameters on
        # Epochs are deterministic, so a run that stops at the best epoch ends on its parameters.
        assert run(full.best_epoch).params.flat.tobytes() == full.params.flat.tobytes()

    def test_history_file_format(self, tmp_path):
        events = constant_pair_stream(2, 24)
        catalog = NodeCatalog(n=2)
        hyper = small_hyper()
        tc = TrainConfig(max_epochs=1, splits=Splits(18, 6), patience=5, lr=1e-3,
                         seed=0, t0=0.0)
        result = train(events, catalog, hyper, tc)
        path = tmp_path / "history.csv"
        write_history(result.history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_mae,val_rmse,val_pcc,seconds"
        assert len(lines) == 2 and lines[1].startswith("1,")


def manifest_of(blob: bytes) -> dict:
    return json.loads(blob[16:16 + struct.unpack_from("<I", blob, 12)[0]])


def payload_of(blob: bytes) -> bytes:
    return blob[16 + struct.unpack_from("<I", blob, 12)[0]:-8]


def v2_checkpoint(manifest: dict, payload: bytes) -> bytes:
    """A version 2 checkpoint file holding ``manifest``, its checksum recomputed."""
    raw = json.dumps(manifest, sort_keys=True).encode("utf-8")
    body = b"CMODCKPT" + struct.pack("<II", 2, len(raw)) + raw + payload
    return body + hashlib.sha256(body).digest()[:8]


def v1_checkpoint(manifest: bytes, payload: bytes) -> bytes:
    """A version 1 checkpoint file, whose checksum covers the payload alone."""
    return (b"CMODCKPT" + struct.pack("<II", 1, len(manifest)) + manifest + payload
            + hashlib.sha256(payload).digest()[:8])


class TestCheckpoints:
    def roundtrip(self, tmp_path, opt=None):
        hyper = small_hyper(n=3)
        params = init_params(hyper, 4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, opt, hyper, path)
        return params, load_checkpoint(path), hyper

    def test_bitwise_round_trip(self, tmp_path):
        params, (loaded, opt, hyper2), hyper = self.roundtrip(tmp_path)
        assert hyper2 == hyper
        assert opt is None
        for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
            assert np.array_equal(a.data, b.data), name

    def test_adam_state_round_trip(self, tmp_path):
        params = init_params(small_hyper(n=3), 4)
        opt = AdamState(lr=0.005, step_count=17).attach(params)
        opt.flat_m[...] = np.arange(params.flat.size) / 7.0
        opt.flat_v[...] = np.arange(params.flat.size) ** 2 / 3.0
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, opt, small_hyper(n=3), path)
        loaded, loaded_opt, _ = load_checkpoint(path)
        assert loaded_opt.lr == 0.005 and loaded_opt.step_count == 17
        assert loaded_opt.flat_m.tobytes() == opt.flat_m.tobytes()
        assert loaded_opt.flat_v.tobytes() == opt.flat_v.tobytes()
        assert set(loaded_opt.m) == set(opt.m) == {name for name, _ in params.named_tensors()}
        for name, moment in opt.m.items():  # the loaded views lie in the loaded vectors
            assert np.array_equal(loaded_opt.m[name], moment), name
            assert np.shares_memory(loaded_opt.m[name], loaded_opt.flat_m), name
            assert np.shares_memory(loaded_opt.v[name], loaded_opt.flat_v), name

    def test_manifest_names_every_head(self, tmp_path):
        hyper = HyperParams(n=3, dim=4, msg_dim=4, heads=2, rel_dim=2, n_clusters=2,
                            tau=60.0, decay_rate=0.01)
        params = with_grads(init_params(hyper, 0), 1.0)
        opt = adam_step(params, AdamState().attach(params))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, opt, hyper, path)
        blob = path.read_bytes()
        manifest = json.loads(blob[16:16 + struct.unpack_from("<I", blob, 12)[0]])
        heads = [(f"{group}.{h}", shape) for group, shape in
                 (("w_c1", [2, 4]), ("w_c2", [2, 4]), ("w_g1", [2, 4]), ("w_g2", [2, 4]),
                  ("w_c3", [2, 8]), ("w_g3", [2, 4])) for h in range(2)]
        mlps = [(f"{mlp}.{name}", shape) for mlp, d_in in
                (("station_mlp", 8), ("cluster_mlp", 4), ("area_mlp", 4))
                for name, shape in (("w1", [4, d_in]), ("b1", [4]), ("w2", [4, 4]),
                                    ("b2", [4]))]
        out = [("output_mlp.w1", [4, 24]), ("output_mlp.b1", [4]), ("output_mlp.w2", [1, 4]),
               ("output_mlp.b2", [1]), ("cluster_mem0", [2, 4]), ("area_mem0", [1, 4])]
        arrays = heads + mlps + out
        moments = [(f"adam.{k}.{name}", shape) for k in "mv" for name, shape in sorted(arrays)]
        assert [tuple(a) for a in manifest["arrays"]] == arrays + moments
        loaded, loaded_opt, _ = load_checkpoint(path)
        assert loaded.attention.w_c1.data.shape == (2, 2, 4)
        assert np.array_equal(loaded.w_c3.data[1], dict(params.named_tensors())["w_c3.1"].data)
        assert np.array_equal(loaded_opt.m["w_g3.1"], opt.m["w_g3.1"])

    def test_truncated_file(self, tmp_path):
        hyper = small_hyper(n=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(hyper, 0), None, hyper, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_corrupted_payload(self, tmp_path):
        hyper = small_hyper(n=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(hyper, 0), None, hyper, path)
        blob = bytearray(path.read_bytes())
        blob[-20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTACKPTxxxxxxxxxxxx")
        with pytest.raises(IoError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        hyper = small_hyper(n=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(hyper, 0), None, hyper, path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99  # format version field
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_shape_mismatch_is_version_class_error(self, tmp_path):
        # The arrays of a dim=8 model under the hyperparameters of a dim=6 one.
        other = small_hyper(n=3, dim=8, msg_dim=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(other, 0), None, other, path)
        blob = path.read_bytes()
        manifest = manifest_of(blob)
        manifest["hyper"].update(dim=6, msg_dim=6)
        path.write_bytes(v2_checkpoint(manifest, payload_of(blob)))
        with pytest.raises(VersionMismatch, match="expected 'w_c1.0' of shape \\[2, 6\\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["heads", "rel_dim"])
    def test_size_that_is_not_an_integer_is_version_mismatch(self, tmp_path, key):
        blob = (Path(__file__).parent / "data" / "checkpoint_v2.ckpt").read_bytes()
        manifest = manifest_of(blob)
        manifest["hyper"][key] = 2.0  # equal to the stored 2, so the shapes would match
        path = tmp_path / "model.ckpt"
        path.write_bytes(v2_checkpoint(manifest, payload_of(blob)))
        with pytest.raises(VersionMismatch, match="must be integers"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [{"dim": 10**10}, {"n": 10**10},
                                      {"heads": 10**9, "msg_dim": 10**9}],
                             ids=["dim", "n", "heads-and-msg-dim"])
    def test_manifest_declaring_a_huge_model_is_refused_before_allocating(self, tmp_path, edit):
        blob = (Path(__file__).parent / "data" / "checkpoint_v2.ckpt").read_bytes()
        manifest = manifest_of(blob)
        del manifest["hyper"]["feat_dim"]
        manifest["hyper"].update(edit)
        path = tmp_path / "model.ckpt"
        path.write_bytes(v2_checkpoint(manifest, payload_of(blob)))
        started = time.perf_counter()
        with pytest.raises(VersionMismatch, match="do not fit its hyperparameters"):
            load_checkpoint(path)
        assert time.perf_counter() - started < 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_manifest_with_legacy_cap_field_loads(self, tmp_path):
        # Only version 1 files carry ``cap``: rewrite a checkpoint as one.
        params, _, hyper = self.roundtrip(tmp_path)
        path = tmp_path / "model.ckpt"
        blob = path.read_bytes()
        manifest_end = 16 + struct.unpack_from("<I", blob, 12)[0]
        manifest = json.loads(blob[16:manifest_end])
        manifest["hyper"]["cap"] = 200_000
        path.write_bytes(v1_checkpoint(json.dumps(manifest, sort_keys=True).encode("utf-8"),
                                       blob[manifest_end:-8]))
        loaded, _, hyper2 = load_checkpoint(path)
        assert hyper2 == hyper
        for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
            assert np.array_equal(a.data, b.data), name

    def test_edited_manifest_that_still_validates_is_rejected(self, tmp_path):
        self.roundtrip(tmp_path, AdamState(lr=0.005))
        path = tmp_path / "model.ckpt"
        blob = path.read_bytes()
        edited = blob.replace(b'"lr": 0.005', b'"lr": 0.009')
        assert len(edited) == len(blob) and edited != blob
        path.write_bytes(edited)
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_trailing_byte_is_rejected(self, tmp_path, version):
        self.roundtrip(tmp_path)
        path = tmp_path / "model.ckpt"
        blob = path.read_bytes()
        if version == 1:
            manifest_end = 16 + struct.unpack_from("<I", blob, 12)[0]
            blob = v1_checkpoint(blob[16:manifest_end], blob[manifest_end:-8])
        path.write_bytes(blob)
        load_checkpoint(path)
        path.write_bytes(blob + b"\0")
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_version_1_file_loads_bit_exactly(self, tmp_path):
        # Written by the version 1 writer: init_params(hyper, 0) plus Adam
        # moments built from arange and powers of 0.5.
        params, opt, hyper = load_checkpoint(Path(__file__).parent / "data" / "checkpoint_v1.ckpt")
        assert hyper == HyperParams(n=3, dim=4, msg_dim=4, heads=2, rel_dim=2, n_clusters=2,
                                    tau=60.0, decay_rate=0.01)
        assert (opt.lr, opt.step_count) == (0.005, 17)
        expected = init_params(hyper, 0).named_tensors()
        assert [name for name, _ in params.named_tensors()] == [name for name, _ in expected]
        for k, ((name, t), (_, ref)) in enumerate(zip(params.named_tensors(), expected)):
            assert np.array_equal(t.data, ref.data), name
            assert np.array_equal(opt.m[name], np.arange(t.data.size, dtype=float)
                                  .reshape(t.data.shape) / (k + 1)), name
            assert np.array_equal(opt.v[name], np.full(t.data.shape, 0.5 ** k)), name
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, opt, hyper, path)
        assert struct.unpack_from("<I", path.read_bytes(), 8)[0] == 2
        again, opt_again, _ = load_checkpoint(path)
        for (name, a), (_, b) in zip(params.named_tensors(), again.named_tensors()):
            assert np.array_equal(a.data, b.data), name
            assert np.array_equal(opt.m[name], opt_again.m[name]), name

    def test_version_2_file_with_feat_dim_loads_bit_exactly(self, tmp_path):
        # Written by the version 2 writer while HyperParams still had ``feat_dim``:
        # init_params(hyper, 5) plus Adam moments built from arange and powers of 0.25.
        blob = (Path(__file__).parent / "data" / "checkpoint_v2.ckpt").read_bytes()
        assert manifest_of(blob)["hyper"]["feat_dim"] == 3
        path = tmp_path / "old.ckpt"
        path.write_bytes(blob)
        params, opt, hyper = load_checkpoint(path)
        assert hyper == HyperParams(n=3, dim=4, msg_dim=4, heads=2, rel_dim=2, n_clusters=2,
                                    tau=60.0, decay_rate=0.01)
        assert (opt.lr, opt.step_count) == (0.002, 9)
        expected = init_params(hyper, 5).named_tensors()
        assert [name for name, _ in params.named_tensors()] == [name for name, _ in expected]
        for k, ((name, t), (_, ref)) in enumerate(zip(params.named_tensors(), expected)):
            assert np.array_equal(t.data, ref.data), name
            assert np.array_equal(opt.m[name], np.arange(t.data.size, dtype=float)
                                  .reshape(t.data.shape) / (k + 2)), name
            assert np.array_equal(opt.v[name], np.full(t.data.shape, 0.25 ** k)), name
        # Saved again, the manifest drops the key; the arrays round-trip.
        save_checkpoint(params, opt, hyper, path)
        saved = path.read_bytes()
        assert "feat_dim" not in manifest_of(saved)["hyper"]
        assert saved[16 + struct.unpack_from("<I", saved, 12)[0]:-8] == \
            blob[16 + struct.unpack_from("<I", blob, 12)[0]:-8]
        again, opt_again, hyper_again = load_checkpoint(path)
        assert hyper_again == hyper
        for (name, a), (_, b) in zip(params.named_tensors(), again.named_tensors()):
            assert np.array_equal(a.data, b.data), name
            assert np.array_equal(opt.m[name], opt_again.m[name]), name

    def test_feat_dim_other_than_node_count_is_version_mismatch(self, tmp_path):
        blob = (Path(__file__).parent / "data" / "checkpoint_v2.ckpt").read_bytes()
        manifest = manifest_of(blob)
        manifest["hyper"]["feat_dim"] = 4
        path = tmp_path / "model.ckpt"
        path.write_bytes(v2_checkpoint(manifest, payload_of(blob)))
        with pytest.raises(VersionMismatch, match="one-hot"):
            load_checkpoint(path)

    def test_every_header_and_manifest_bit_flip_and_truncation(self, tmp_path):
        hyper = small_hyper(n=3)
        params = init_params(hyper, 0)
        opt = AdamState(lr=0.005, step_count=3).attach(params)
        opt.flat_m[...], opt.flat_v[...] = 0.25, 0.5
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, opt, hyper, path)
        blob = path.read_bytes()
        manifest_end = 16 + struct.unpack_from("<I", blob, 12)[0]
        corruptions = [blob[:length] for length in range(len(blob))]
        for pos in range(manifest_end):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[pos] ^= 1 << bit
                corruptions.append(bytes(flipped))
        escapes = []
        for corrupt in corruptions:
            path.write_bytes(corrupt)
            try:
                load_checkpoint(path)
            except OdcastError:
                pass
            except Exception as exc:  # noqa: BLE001 - every other class is a finding
                escapes.append(type(exc).__name__)
        assert escapes == []


# -- crafted manifests ------------------------------------------------------

MUTATIONS = ("hyper", "heads", "reorder", "shorten", "extend", "resize", "adam-null",
             "moments", "truncate")
MOMENT_EDITS = ("stray", "misshaped", "dropped")


def edit_moments(manifest: dict, payload: bytes, edit: str, pick: int = 0) -> bytes:
    """Add a stray ``adam.m.bogus``, give moment ``pick`` (modulo their count) a shape of
    the same size with a trailing 1, or drop it with its bytes; returns the payload."""
    arrays = manifest["arrays"]
    if edit == "stray":
        arrays.append(["adam.m.bogus", [2]])
        return payload + bytes(16)
    moments = [k for k, (name, _) in enumerate(arrays) if name.startswith("adam.")]
    k = moments[pick % len(moments)]
    if edit == "misshaped":
        arrays[k][1] = [*arrays[k][1], 1]
        return payload
    offset = 8 * sum(math.prod(shape) for _, shape in arrays[:k])
    size = 8 * math.prod(arrays.pop(k)[1])
    return payload[:offset] + payload[offset + size:]


@pytest.fixture(scope="module")
def base_checkpoint(tmp_path_factory):
    """A two-head checkpoint with Adam moments for every parameter, and a directory."""
    hyper = HyperParams(n=3, dim=4, msg_dim=4, heads=2, rel_dim=2, n_clusters=2, tau=60.0,
                        decay_rate=0.01)
    params = init_params(hyper, 0)
    opt = AdamState(lr=0.01, step_count=1).attach(params)
    opt.flat_m[...], opt.flat_v[...] = params.flat * 0.5, params.flat ** 2
    out = tmp_path_factory.mktemp("crafted")
    save_checkpoint(params, opt, hyper, out / "base.ckpt")
    return (out / "base.ckpt").read_bytes(), out


@st.composite
def crafted(draw, blob):
    """``blob`` with one to three manifest edits, its payload optionally cut to fit the
    declared arrays, and the checksum recomputed; ``truncate`` then cuts the file."""
    manifest, payload = manifest_of(blob), payload_of(blob)
    kinds = draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3))
    for kind in kinds:
        arrays = manifest["arrays"]
        if kind == "hyper":
            key = draw(st.sampled_from(sorted(manifest["hyper"])))
            manifest["hyper"][key] = draw(st.sampled_from([0, -1, -10**10, 10**10, 10**400,
                                                            2.0, True, None]))
        elif kind == "heads":
            manifest["hyper"].update(heads=10**9, msg_dim=10**9)
        elif kind == "reorder" and arrays:
            manifest["arrays"] = draw(st.permutations(arrays))
        elif kind == "shorten" and arrays:
            del arrays[draw(st.integers(0, len(arrays) - 1))]
        elif kind == "extend":
            name = draw(st.sampled_from(["extra", "adam.m.extra", "adam.v.w_c1.0", "w_c1.2"]))
            shape = draw(st.lists(st.integers(0, 4), max_size=3))
            arrays.insert(draw(st.integers(0, len(arrays))), [name, shape])
        elif kind == "resize" and arrays:
            _, shape = draw(st.sampled_from(arrays))
            if shape:
                shape[draw(st.integers(0, len(shape) - 1))] = draw(
                    st.sampled_from([0, 1, 3, 10**10]))
        elif kind == "adam-null":
            manifest["adam"] = None
        elif kind == "moments" and any(name.startswith("adam.") for name, _ in arrays):
            payload = edit_moments(manifest, payload, draw(st.sampled_from(MOMENT_EDITS)),
                                   draw(st.integers(0, 10**6)))
    cells = sum(math.prod(shape) for _, shape in manifest["arrays"])
    if cells <= 10**5 and draw(st.booleans()):
        payload = (payload + bytes(8 * cells))[:8 * cells]
    out = v2_checkpoint(manifest, payload)
    if "truncate" in kinds:
        out = out[:draw(st.integers(0, len(out) - 1))]
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_crafted_manifest_loads_or_is_one_error_quickly_and_small(base_checkpoint, data):
    blob, out = base_checkpoint
    blob = data.draw(crafted(blob))
    path = out / "model.ckpt"
    path.write_bytes(blob)
    tracemalloc.start()
    started = time.perf_counter()
    try:
        load_checkpoint(path)
    except OdcastError:
        pass
    finally:
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 4 * len(blob) + 2**18


@pytest.mark.parametrize("edit", MOMENT_EDITS)
def test_moment_set_that_misses_the_layout_is_version_mismatch(base_checkpoint, edit):
    blob, out = base_checkpoint
    manifest = manifest_of(blob)
    payload = edit_moments(manifest, payload_of(blob), edit)
    path = out / f"moments-{edit}.ckpt"
    path.write_bytes(v2_checkpoint(manifest, payload))
    with pytest.raises(VersionMismatch, match="adam.m.<name> and adam.v.<name>"):
        load_checkpoint(path)
