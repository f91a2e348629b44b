import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from odcast import autodiff as ad
from odcast.autodiff import Tensor, backward, grad_of, zero_grads
from odcast.events import EventBatch, NodeCatalog, TransactionEvent
from odcast.model import (HyperParams, MemoryBank, init_params, od_loss, param_layout,
                          predict_od, step)
from odcast.training import load_checkpoint


def ev(o, d, t):
    return TransactionEvent(o, d, t)


def tiny_hyper(**overrides):
    base = dict(n=2, dim=2, msg_dim=2, heads=1, rel_dim=1, n_clusters=1,
                tau=30.0, decay_rate=0.01)
    base.update(overrides)
    return HyperParams(**base)


def toy_hyper(**overrides):
    base = dict(n=3, dim=4, msg_dim=4, heads=2, rel_dim=2, n_clusters=2,
                tau=60.0, decay_rate=math.log(2.0) / 120.0)
    base.update(overrides)
    return HyperParams(**base)


def fresh_bank(params, hyper, rng=None):
    bank = MemoryBank.initial(params, hyper, 0.0)
    if rng is not None:
        bank.station_a = rng.normal(size=(hyper.n, hyper.dim))
        bank.station_b = rng.uniform(1.0, 2.0, size=hyper.n)
    return bank


def random_batch(rng, hyper, count, start, end):
    times = np.sort(rng.uniform(start, end, size=count))
    events = tuple(ev(int(rng.integers(0, hyper.n)), int(rng.integers(0, hyper.n)),
                      float(t)) for t in times)
    return EventBatch(events, start, end)


def address(array):
    return array.__array_interface__["data"][0]


class TestParamLayout:
    @pytest.mark.parametrize("hyper", [tiny_hyper(), toy_hyper(), toy_hyper(no_multilevel=True),
                                       toy_hyper(heads=4, msg_dim=8, rel_dim=3, n_clusters=3)],
                             ids=["tiny", "toy", "toy-no-ml", "four-heads"])
    def test_named_arrays_tile_the_flat_vector_in_order(self, hyper):
        params = init_params(hyper, 3)
        named = params.named_tensors()
        assert [name for name, _ in named] == [name for spec in param_layout(hyper)
                                               for name, _, _ in spec.arrays()]
        offset = 0
        for name, tensor in named:
            assert tensor.data.flags.c_contiguous and not tensor.data.flags.owndata, name
            assert address(tensor.data) == address(params.flat) + 8 * offset, name
            offset += tensor.data.size
        assert offset == params.flat.size
        for spec in param_layout(hyper):  # the stacks the model steps with are the same views
            tensor = params.tensors[spec.name]
            assert tensor.data.shape == spec.shape and np.shares_memory(tensor.data, params.flat)

    @pytest.mark.parametrize("file, seed", [("checkpoint_v1.ckpt", 0), ("checkpoint_v2.ckpt", 5)])
    def test_fixture_checkpoints_fill_the_flat_vector_bit_exactly(self, file, seed):
        path = Path(__file__).parent / "data" / file
        params, _, hyper = load_checkpoint(path)
        blob = path.read_bytes()
        start = 16 + struct.unpack_from("<I", blob, 12)[0]
        assert params.flat.tobytes() == blob[start:start + 8 * params.flat.size]
        assert params.flat.tobytes() == init_params(hyper, seed).flat.tobytes()


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        hyper = toy_hyper()
        a = init_params(hyper, 7)
        b = init_params(hyper, 7)
        for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert np.array_equal(ta.data, tb.data), name

    def test_different_seeds_differ(self):
        hyper = toy_hyper()
        a = init_params(hyper, 0)
        b = init_params(hyper, 1)
        assert any(not np.array_equal(ta.data, tb.data)
                   for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()))

    def test_fan_in_scale_and_zero_biases(self):
        hyper = toy_hyper()
        params = init_params(hyper, 0)
        d_s = hyper.station_msg_dim
        assert np.max(np.abs(params.station_mlp.w1.data)) <= 1.0 / math.sqrt(d_s)
        assert np.max(np.abs(params.output_mlp.w1.data)) <= 1.0 / math.sqrt(6 * hyper.dim)
        assert not params.station_mlp.b1.data.any()
        assert not params.output_mlp.b2.data.any()
        assert np.max(np.abs(params.cluster_mem0.data)) <= 1.0 / math.sqrt(hyper.dim)


class TestStepPipeline:
    def test_hand_evaluated_single_event(self):
        """Every intermediate of one step on a 2-node, 1-head, 1-cluster model
        is recomputed here with plain numpy loops."""
        hyper = tiny_hyper()
        catalog = NodeCatalog(n=2)
        params = init_params(hyper, 3)
        rng = np.random.default_rng(5)
        bank = fresh_bank(params, hyper, rng)
        a0 = bank.station_a.copy()
        b0 = bank.station_b.copy()
        reps_prev = a0 / b0[:, None]
        cluster0 = params.cluster_mem0.data.copy()
        area0 = params.area_mem0.data.copy()

        t_event, t_end = 10.0, 30.0
        batch = EventBatch((ev(0, 1, t_event),), 0.0, t_end)
        result = step(bank, batch, params, hyper, catalog)

        lam = hyper.decay_rate
        w = math.exp(-lam * (t_end - t_event))
        s_origin = np.concatenate([reps_prev[1], np.eye(2)[1], [1.0]])
        s_dest = np.concatenate([reps_prev[0], np.eye(2)[0], [-1.0]])
        p = np.stack([w * s_origin, w * s_dest])
        q = np.array([w, w])

        def mlp(m, x):
            hidden = np.maximum(m.w1.data @ x + m.b1.data, 0.0)
            return m.w2.data @ hidden + m.b2.data

        decay = math.exp(-lam * t_end)
        a1 = decay * a0 + np.stack([mlp(params.station_mlp, p[0]),
                                    mlp(params.station_mlp, p[1])])
        b1 = decay * b0 + q
        r1 = a1 / b1[:, None]
        assert np.allclose(bank.station_a, a1, rtol=1e-12)
        assert np.allclose(bank.station_b, b1, rtol=1e-12)

        # Relations from PRE-update representations; single cluster/area.
        attn = params.attention
        ac = np.array([[float((attn.w_c1[0].data @ reps_prev[i])
                              @ (attn.w_c2[0].data @ cluster0[0]))] for i in range(2)])
        assert np.allclose(result.relations.ac[0].data, ac, rtol=1e-12)
        acm = np.exp(ac - ac.max()) / np.exp(ac - ac.max()).sum()
        assert np.allclose(result.relations.acm[0].data, acm, rtol=1e-12)

        ratios = p / q[:, None]
        cmsg = sum(acm[j, 0] * (params.w_c3[0].data @ ratios[j]) for j in range(2))
        amsg = 1.0 * (params.w_g3[0].data @ cmsg)  # single cluster: agm weight 1
        cluster1 = decay * cluster0[0] + mlp(params.cluster_mlp, cmsg)
        area1 = decay * area0[0] + mlp(params.area_mlp, amsg)
        assert np.allclose(bank.levels.cluster_array()[0], cluster1, rtol=1e-12)
        assert np.allclose(bank.levels.area_array()[0], area1, rtol=1e-12)

        z_expected = np.concatenate(
            [r1, np.tile(cluster1, (2, 1)), np.tile(area1, (2, 1))], axis=1)
        assert np.allclose(result.z.data, z_expected, rtol=1e-12)

    def test_empty_batch_decays_only(self):
        hyper = toy_hyper()
        catalog = NodeCatalog(n=3)
        params = init_params(hyper, 0)
        rng = np.random.default_rng(1)
        bank = fresh_bank(params, hyper, rng)
        reps_before = bank.station_reps()
        cluster_before = bank.levels.cluster_array().copy()

        result = step(bank, EventBatch((), 0.0, 60.0), params, hyper, catalog)
        # Ratio invariance: the station block of Z equals the pre-decay read.
        assert np.allclose(result.z.data[:, :hyper.dim], reps_before, rtol=1e-12)
        decay = math.exp(-hyper.decay_rate * 60.0)
        assert np.allclose(bank.levels.cluster_array(), decay * cluster_before,
                           rtol=1e-12)

    def test_two_steps_differ_from_one_concatenated(self):
        hyper = toy_hyper()
        catalog = NodeCatalog(n=3)
        params = init_params(hyper, 2)
        rng = np.random.default_rng(3)
        events = random_batch(rng, hyper, 12, 0.0, 120.0).events
        mid = int(np.searchsorted(events.times, 60.0))
        first, second = events[:mid], events[mid:]

        bank_a = fresh_bank(params, hyper, np.random.default_rng(4))
        step(bank_a, EventBatch(first, 0.0, 60.0), params, hyper, catalog)
        z_two = step(bank_a, EventBatch(second, 60.0, 120.0), params, hyper, catalog)

        bank_b = fresh_bank(params, hyper, np.random.default_rng(4))
        z_one = step(bank_b, EventBatch(events, 0.0, 120.0), params, hyper, catalog)
        # The nonlinear update maps break batch-splitting equivalence on purpose.
        assert not np.allclose(z_two.z.data, z_one.z.data, atol=1e-6)

    def test_step_determinism(self):
        hyper = toy_hyper()
        catalog = NodeCatalog(n=3)
        params = init_params(hyper, 5)
        batch = random_batch(np.random.default_rng(6), hyper, 8, 0.0, 60.0)
        outs = []
        for _ in range(2):
            bank = fresh_bank(params, hyper, np.random.default_rng(7))
            outs.append(step(bank, batch, params, hyper, catalog).z.data.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_no_multilevel_zero_blocks_and_param_invariance(self):
        hyper = toy_hyper(no_multilevel=True)
        catalog = NodeCatalog(n=3)
        params = init_params(hyper, 1)
        batch = random_batch(np.random.default_rng(8), hyper, 6, 0.0, 60.0)

        bank = fresh_bank(params, hyper, np.random.default_rng(9))
        result = step(bank, batch, params, hyper, catalog)
        assert result.relations is None
        assert not result.z.data[:, hyper.dim:].any()
        pred_before = predict_od(result.z, params).matrix

        # Perturbing every cluster-level array must not change the output.
        for stack in (params.attention.w_c1, params.attention.w_c2,
                      params.attention.w_g1, params.attention.w_g2,
                      params.w_c3, params.w_g3):
            stack.data = stack.data + 7.0
        params.cluster_mem0.data = params.cluster_mem0.data + 3.0
        params.area_mem0.data = params.area_mem0.data - 4.0

        bank = fresh_bank(params, hyper, np.random.default_rng(9))
        result2 = step(bank, batch, params, hyper, catalog)
        assert np.array_equal(predict_od(result2.z, params).matrix, pred_before)

    def test_no_weighted_update_uses_plain_sums(self):
        hyper = toy_hyper(no_weighted_update=True)
        catalog = NodeCatalog(n=3)
        params = init_params(hyper, 2)
        bank = MemoryBank.initial(params, hyper, 0.0)
        a_before = bank.station_a.copy()
        b_before = bank.station_b.copy()
        step(bank, EventBatch((), 0.0, 3600.0), params, hyper, catalog)
        # Decay factor is 1: an idle hour changes nothing at all.
        assert np.array_equal(bank.station_a, a_before)
        assert np.array_equal(bank.station_b, b_before)

    def test_time_regression(self):
        from odcast.errors import TimeRegression
        hyper = toy_hyper()
        catalog = NodeCatalog(n=3)
        params = init_params(hyper, 0)
        bank = MemoryBank.initial(params, hyper, 100.0)
        with pytest.raises(TimeRegression):
            step(bank, EventBatch((), 0.0, 60.0), params, hyper, catalog)

    def test_initial_cluster_memories_receive_gradient_on_first_step(self):
        hyper = toy_hyper()
        catalog = NodeCatalog(n=3)
        params = init_params(hyper, 4)
        bank = MemoryBank.initial(params, hyper, 0.0)
        batch = random_batch(np.random.default_rng(10), hyper, 6, 0.0, 60.0)
        result = step(bank, batch, params, hyper, catalog)
        pred = predict_od(result.z, params)
        truth = np.ones((3, 3))
        zero_grads(t for _, t in params.named_tensors())
        backward(od_loss(pred.raw, truth))
        assert np.abs(grad_of(params.cluster_mem0)).max() > 0.0
        # After the first step the bank is detached: no second-step flow.
        batch2 = random_batch(np.random.default_rng(11), hyper, 6, 60.0, 120.0)
        result2 = step(bank, batch2, params, hyper, catalog)
        pred2 = predict_od(result2.z, params)
        zero_grads(t for _, t in params.named_tensors())
        backward(od_loss(pred2.raw, truth))
        assert np.abs(grad_of(params.cluster_mem0)).max() == 0.0


def tape_op_count(*roots):
    """Op nodes (not leaves or constants) reachable from ``roots`` through the tape."""
    seen, stack, ops = set(), list(roots), 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops += node._vjp is not None
            stack.extend(node._parents)
    return ops


def criterion7_model():
    """The criterion-7 model shape: 24 nodes, d = 32, 4 heads."""
    hyper = HyperParams(n=24, dim=32, msg_dim=32, heads=4, tau=1800.0,
                        decay_rate=math.log(2.0) / 7200.0)
    return hyper, NodeCatalog(n=24), init_params(hyper, 0)


def test_a_training_window_records_at_most_18_ops():
    hyper, catalog, params = criterion7_model()
    bank = MemoryBank.initial(params, hyper, 0.0)
    rng = np.random.default_rng(13)
    truth = rng.poisson(0.5, size=(24, 24)).astype(float)
    # The first window after a reset keeps the initial level memories on the tape.
    for k in range(2):
        batch = random_batch(rng, hyper, 300, k * 1800.0, (k + 1) * 1800.0)
        result = step(bank, batch, params, hyper, catalog)
        loss = od_loss(predict_od(result.z, params).raw, truth)
        assert tape_op_count(loss) <= 18


def test_a_serve_step_records_at_most_16_ops(monkeypatch):
    # Every op records itself through ``_make``, reachable from z or not.
    recorded = []

    def counting_make(data, parents, vjp, op):
        recorded.append(op)
        return make(data, parents, vjp, op)

    make = ad._make
    monkeypatch.setattr(ad, "_make", counting_make)
    hyper, catalog, params = criterion7_model()
    bank = MemoryBank.initial(params, hyper, 0.0)
    rng = np.random.default_rng(14)
    for k in range(3):  # busy, idle, busy
        batch = random_batch(rng, hyper, 300 * (k != 1), k * 1800.0, (k + 1) * 1800.0)
        recorded.clear()
        result = step(bank, batch, params, hyper, catalog)
        assert len(recorded) <= 16, recorded
        rel = result.relations
        # An idle step builds no messages; it still serves its relations.
        roots = (result.z,) if len(batch) else (result.z, rel.ac, rel.ag, rel.acm, rel.agm, rel.ace)
        assert tape_op_count(*roots) == len(recorded), recorded
        assert ("head_project" in recorded) == bool(len(batch))


class TestPredictOd:
    def test_zero_weight_head_with_bias(self):
        hyper = tiny_hyper()
        params = init_params(hyper, 0)
        for t in (params.output_mlp.w1, params.output_mlp.w2):
            t.data = np.zeros_like(t.data)
        params.output_mlp.b2.data = np.array([-0.75])
        z = ad.constant(np.random.default_rng(0).normal(size=(2, 6)))
        pred = predict_od(z, params)
        assert np.allclose(pred.raw.data, -0.75)
        assert np.array_equal(pred.matrix, np.zeros((2, 2)))
        params.output_mlp.b2.data = np.array([0.25])
        pred = predict_od(z, params)
        assert np.allclose(pred.matrix, 0.25)

    def test_single_node_self_pair(self):
        hyper = HyperParams(n=1, dim=2, msg_dim=2, heads=1, rel_dim=1, n_clusters=1,
                            tau=30.0, decay_rate=0.01)
        params = init_params(hyper, 1)
        z = ad.constant(np.random.default_rng(2).normal(size=(1, 6)))
        pred = predict_od(z, params)
        assert pred.matrix.shape == (1, 1)
        x = np.concatenate([z.data[0], z.data[0]])
        hidden = np.maximum(params.output_mlp.w1.data @ x, 0.0)
        raw = (params.output_mlp.w2.data @ hidden)[0]
        assert pred.raw.data[0, 0] == pytest.approx(raw, rel=1e-12)

    def test_matches_pairwise_loop_oracle(self):
        hyper = HyperParams(n=4, dim=2, msg_dim=2, heads=1, rel_dim=1, n_clusters=2,
                            tau=30.0, decay_rate=0.01)
        params = init_params(hyper, 3)
        rng = np.random.default_rng(4)
        z = ad.constant(rng.normal(size=(4, 6)))
        pred = predict_od(z, params)
        for i in range(4):
            for j in range(4):
                x = np.concatenate([z.data[i], z.data[j]])
                hidden = np.maximum(params.output_mlp.w1.data @ x
                                    + params.output_mlp.b1.data, 0.0)
                raw = (params.output_mlp.w2.data @ hidden
                       + params.output_mlp.b2.data)[0]
                assert pred.raw.data[i * 4 + j, 0] == pytest.approx(raw, rel=1e-12)
                assert pred.matrix[i, j] == pytest.approx(max(raw, 0.0), rel=1e-12)

    def test_matches_selector_formulation(self):
        # The head as an MLP on the explicit (N^2, 6d) pair rows [z_i ; z_j],
        # gathered by 0/1 selector matrices: same values, same gradients.
        n = 7
        hyper = HyperParams(n=n, dim=3, msg_dim=3, heads=1, rel_dim=1, n_clusters=3,
                            tau=30.0, decay_rate=0.01)
        params = init_params(hyper, 11)
        mlp = params.output_mlp
        rng = np.random.default_rng(12)
        z = Tensor(rng.normal(size=(n, 9)), requires_grad=True)
        truth = rng.poisson(0.5, size=(n, n)).astype(float)
        left, right = np.zeros((n * n, n)), np.zeros((n * n, n))
        for i in range(n):
            for j in range(n):
                left[i * n + j, i] = right[i * n + j, j] = 1.0

        def selector_raw():
            pairs = ad.concat([ad.matmul(ad.constant(left), z),
                               ad.matmul(ad.constant(right), z)], axis=1)
            return mlp(pairs)

        tensors = [z, mlp.w1, mlp.b1, mlp.w2, mlp.b2]
        results = []
        for raw_of in (lambda: predict_od(z, params).raw, selector_raw):
            zero_grads(tensors)
            raw = raw_of()
            backward(od_loss(raw, truth))
            results.append((raw.data.copy(), [grad_of(t).copy() for t in tensors]))
        (raw, grads), (raw_ref, grads_ref) = results
        assert raw.shape == (n * n, 1)
        assert np.allclose(raw, raw_ref, rtol=1e-12, atol=1e-14)
        for g, g_ref in zip(grads, grads_ref):
            assert np.abs(g_ref).max() > 0.0
            assert np.allclose(g, g_ref, rtol=1e-10, atol=1e-13)

    def test_head_allocates_no_pair_hidden_layer(self):
        # One (N^2, d) float64 array is 33.5 MB at N=256, d=64; the head, the
        # loss and backward together stay well below that.
        n, d = 256, 64
        hyper = HyperParams(n=n, dim=d, msg_dim=d, heads=4, n_clusters=16)
        params = init_params(hyper, 0)
        rng = np.random.default_rng(13)
        z = Tensor(rng.normal(size=(n, 3 * d)), requires_grad=True)
        truth = rng.poisson(0.5, size=(n, n)).astype(float)
        tracemalloc.start()
        try:
            backward(od_loss(predict_od(z, params).raw, truth))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.abs(params.output_mlp.w2.grad).max() > 0.0
        assert peak < 16 * 2**20

    def test_clamped_nonnegative(self):
        hyper = tiny_hyper()
        params = init_params(hyper, 5)
        z = ad.constant(np.random.default_rng(6).normal(size=(2, 6)) * 5.0)
        assert (predict_od(z, params).matrix >= 0.0).all()


class TestOdLoss:
    def test_unit_vectors(self):
        assert od_loss(np.array([[-0.5]]), np.array([[0.0]])) == 0.0
        assert od_loss(np.array([[0.5]]), np.array([[0.0]])) == 0.25
        assert od_loss(np.array([[1.0]]), np.array([[2.0]])) == 1.0

    def test_two_cell_mean(self):
        raw = np.array([[0.5, 1.0]])
        truth = np.array([[0.0, 2.0]])
        assert od_loss(raw, truth) == pytest.approx(0.625, abs=1e-15)

    def test_matches_entrywise_loop(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(5, 5)) * 2.0
        truth = rng.poisson(1.0, size=(5, 5)).astype(float)
        total = 0.0
        for i in range(5):
            for j in range(5):
                y, yhat = truth[i, j], raw[i, j]
                mask = 1.0 if y > 0 else (1.0 if yhat > 0 else 0.0)
                total += mask * (y - yhat) ** 2
        assert od_loss(raw, truth) == pytest.approx(total / 25.0, rel=1e-12)

    def test_tape_path_matches_numpy_path(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(size=(3, 3))
        truth = rng.poisson(0.8, size=(3, 3)).astype(float)
        tape_value = od_loss(ad.constant(raw.reshape(9, 1)), truth).item()
        assert tape_value == pytest.approx(od_loss(raw, truth), rel=1e-15)

    @pytest.mark.parametrize("mse_loss", [False, True], ids=["masked", "mse"])
    def test_tape_and_numpy_paths_are_bitwise_equal(self, mse_loss):
        rng = np.random.default_rng(10)
        for _ in range(20):
            raw = rng.normal(size=(6, 6)) * 2.0
            truth = rng.poisson(0.8, size=(6, 6)).astype(float)
            tape_value = od_loss(ad.constant(raw.reshape(36, 1)), truth, mse_loss).item()
            value = od_loss(raw, truth, mse_loss)
            assert np.float64(tape_value).tobytes() == np.float64(value).tobytes()

    def test_masked_region_gets_zero_gradient(self):
        raw = Tensor(np.array([[-0.5], [1.0]]), requires_grad=True)
        truth = np.array([[0.0], [0.0]])
        loss = od_loss(raw, truth)
        backward(loss)
        assert raw.grad[0, 0] == 0.0   # y=0, raw<=0: flat region
        assert raw.grad[1, 0] != 0.0   # y=0, raw>0: pushed down

    def test_od_loss_never_exceeds_mse(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            raw = rng.normal(size=(3, 3)) * 3.0
            truth = rng.poisson(0.7, size=(3, 3)).astype(float)
            assert od_loss(raw, truth) <= od_loss(raw, truth, mse_loss=True) + 1e-15

    def test_zero_loss_characterization(self):
        truth = np.array([[0.0, 2.0]])
        assert od_loss(np.array([[-1.0, 2.0]]), truth) == 0.0
        assert od_loss(np.array([[0.0, 2.0]]), truth) == 0.0
        assert od_loss(np.array([[0.1, 2.0]]), truth) > 0.0
        assert od_loss(np.array([[-1.0, 2.1]]), truth) > 0.0

    def test_mse_ablation_counts_everything(self):
        raw = np.array([[-0.5]])
        truth = np.array([[0.0]])
        assert od_loss(raw, truth, mse_loss=True) == 0.25
