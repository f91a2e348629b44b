import math

import numpy as np
import pytest

from odcast import autodiff as ad
from odcast.errors import ShapeError, TimeRegression
from odcast.memory import DecayConfig, StationMessages
from odcast.multilevel import (AttentionWeights, LevelState, compute_relations, fuse,
                               message_ratios, project_area_message,
                               project_cluster_messages, relation_rows,
                               update_level_memories)


def params(data):
    return ad.Tensor(np.asarray(data, dtype=float), requires_grad=True)


def random_attention(rng, heads, d_rel, d):
    def heads_of():
        return params(rng.normal(size=(heads, d_rel, d)))
    return AttentionWeights(w_c1=heads_of(), w_c2=heads_of(), w_g1=heads_of(),
                            w_g2=heads_of())


def random_setup(rng, n=5, n_c=2, d=3, heads=2, d_rel=2):
    """Station, cluster and area representations as constants, and attention weights."""
    station, cluster, area = (ad.constant(rng.normal(size=shape))
                              for shape in ((n, d), (n_c, d), (1, d)))
    attn = random_attention(rng, heads, d_rel, d)
    return station, cluster, area, attn


def zeros(*shape):
    return ad.constant(np.zeros(shape))


def level_state(cluster_mem, area_mem):
    return LevelState(ad.constant(cluster_mem), ad.constant(area_mem))


class TestComputeRelations:
    def test_logits_match_bilinear_loop(self):
        rng = np.random.default_rng(0)
        station, cluster, area, attn = random_setup(rng)
        rel = compute_relations(station, cluster, area, attn)
        station, cluster, area = station.data, cluster.data, area.data
        for h in range(2):
            w1, w2 = attn.w_c1[h].data, attn.w_c2[h].data
            for i in range(station.shape[0]):
                for j in range(cluster.shape[0]):
                    expected = float((w1 @ station[i]) @ (w2 @ cluster[j]))
                    assert rel.ac[h].data[i, j] == pytest.approx(expected, rel=1e-12)
            g1, g2 = attn.w_g1[h].data, attn.w_g2[h].data
            for i in range(cluster.shape[0]):
                expected = float((g1 @ cluster[i]) @ (g2 @ area[0]))
                assert rel.ag[h].data[i, 0] == pytest.approx(expected, rel=1e-12)

    def test_stochasticity_invariants(self):
        rng = np.random.default_rng(1)
        station, cluster, area, attn = random_setup(rng, n=7, n_c=3)
        rel = compute_relations(station, cluster, area, attn)
        for h in range(rel.heads):
            assert np.allclose(rel.acm[h].data.sum(axis=0), 1.0, atol=1e-9)
            assert np.allclose(rel.agm[h].data.sum(axis=0), 1.0, atol=1e-9)
            assert np.allclose(rel.ace[h].data.sum(axis=1), 1.0, atol=1e-9)
            for view in (rel.acm[h], rel.ace[h]):
                assert (view.data > 0.0).all() and (view.data < 1.0).all()

    def test_zero_reps_give_uniform_views(self):
        rng = np.random.default_rng(2)
        attn = random_attention(rng, heads=2, d_rel=2, d=3)
        rel = compute_relations(zeros(4, 3), zeros(2, 3), zeros(1, 3), attn)
        assert np.allclose(rel.acm[0].data, 0.25)
        assert np.allclose(rel.ace[0].data, 0.5)

    def test_single_cluster_degenerates(self):
        rng = np.random.default_rng(3)
        station, cluster, area, attn = random_setup(rng, n=4, n_c=1)
        rel = compute_relations(station, cluster, area, attn)
        assert np.allclose(rel.acm[0].data.sum(axis=0), 1.0)
        assert np.array_equal(rel.ace[0].data, np.ones((4, 1)))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        station, cluster, area, attn = random_setup(rng)
        with pytest.raises(ShapeError):
            compute_relations(ad.constant(station.data[:, :2]), cluster, area, attn)

    def test_scale_flag_shrinks_logits(self):
        rng = np.random.default_rng(5)
        station, cluster, area, attn = random_setup(rng, d_rel=4)
        plain = compute_relations(station, cluster, area, attn)
        scaled = compute_relations(station, cluster, area, attn, scale_logits=True)
        assert np.allclose(scaled.ac[0].data, plain.ac[0].data / 2.0)


class TestProjections:
    def test_single_station_identity_projection(self):
        # One station, one cluster, q=1: each head replicates s through an
        # identity projection.
        d_s = 3
        s = np.array([0.5, -1.0, 2.0])
        msgs = StationMessages(p=s[None, :], q=np.array([1.0]))
        attn = random_attention(np.random.default_rng(0), heads=2, d_rel=2, d=2)
        rel = compute_relations(zeros(1, 2), zeros(1, 2), zeros(1, 2), attn)
        w_c3 = params(np.stack([np.eye(d_s), np.eye(d_s)]))
        out = project_cluster_messages(rel, msgs, w_c3)
        assert np.allclose(out.data, np.concatenate([s, s])[None, :])

    def test_idle_stations_contribute_zero(self):
        rng = np.random.default_rng(1)
        station, cluster, area, attn = random_setup(rng, n=3, n_c=2)
        rel = compute_relations(station, cluster, area, attn)
        msgs = StationMessages(p=np.zeros((3, 4)), q=np.zeros(3))
        w_c3 = params(rng.normal(size=(2, 2, 4)))
        out = project_cluster_messages(rel, msgs, w_c3)
        assert not out.data.any()

    def test_ratio_convention(self):
        p = np.array([[2.0, 4.0], [0.0, 0.0]])
        q = np.array([2.0, 0.0])
        ratios = message_ratios(StationMessages(p=p, q=q))
        assert np.array_equal(ratios, [[1.0, 2.0], [0.0, 0.0]])

    def test_cluster_messages_match_loop_oracle(self):
        rng = np.random.default_rng(2)
        n, n_c, d, heads, d_s, d_msg = 5, 2, 3, 2, 4, 6
        station, cluster, area, attn = random_setup(rng, n=n, n_c=n_c, d=d, heads=heads)
        rel = compute_relations(station, cluster, area, attn)
        p = rng.normal(size=(n, d_s))
        q = rng.uniform(0.5, 2.0, size=n)
        q[1] = 0.0
        p[1] = 0.0
        msgs = StationMessages(p=p, q=q)
        w_c3 = params(rng.normal(size=(heads, d_msg // heads, d_s)))
        out = project_cluster_messages(rel, msgs, w_c3).data

        for i in range(n_c):
            expected = []
            for h in range(heads):
                acc = np.zeros(d_msg // heads)
                for j in range(n):
                    ratio = p[j] / q[j] if q[j] > 0 else np.zeros(d_s)
                    acc += rel.acm[h].data[j, i] * (w_c3[h].data @ ratio)
                expected.append(acc)
            assert np.allclose(out[i], np.concatenate(expected), rtol=1e-12, atol=1e-12)

    def test_area_message_single_cluster(self):
        rng = np.random.default_rng(3)
        station, cluster, area, attn = random_setup(rng, n=3, n_c=1)
        rel = compute_relations(station, cluster, area, attn)
        cmsgs = params(rng.normal(size=(1, 4)))
        w_g3 = params(rng.normal(size=(2, 2, 4)))
        out = project_area_message(rel, cmsgs, w_g3).data
        expected = np.concatenate([w.data @ cmsgs.data[0] for w in w_g3])
        assert np.allclose(out[0], expected, rtol=1e-12)

    def test_area_message_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        n_c, heads, d_msg = 3, 2, 6
        station, cluster, area, attn = random_setup(rng, n=4, n_c=n_c)
        rel = compute_relations(station, cluster, area, attn)
        cmsgs = params(rng.normal(size=(n_c, d_msg)))
        w_g3 = params(rng.normal(size=(heads, d_msg // heads, d_msg)))
        out = project_area_message(rel, cmsgs, w_g3).data

        expected = []
        for h in range(heads):
            acc = np.zeros(d_msg // heads)
            for i in range(n_c):
                acc += rel.agm[h].data[i, 0] * (w_g3[h].data @ cmsgs.data[i])
            expected.append(acc)
        assert np.allclose(out[0], np.concatenate(expected), rtol=1e-12, atol=1e-12)


def zero_free_mlp(value=0.0):
    """A map whose output is identically `value` (stands in for an update MLP)."""
    def apply(x):
        return ad.scale(ad.constant(np.full(x.data.shape, value)), 1.0)
    return apply


class TestLevelUpdates:
    def test_suppressed_idle_is_identity_at_dt_zero(self):
        cfg = DecayConfig(decay_rate=0.1, dim=2)
        state = level_state(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
        out = update_level_memories(state, None, None, 0.0, zero_free_mlp(), zero_free_mlp(), cfg)
        assert np.array_equal(out.cluster_array(), state.cluster_array())
        assert np.array_equal(out.area_array(), state.area_array())

    def test_pure_decay_halves_at_half_life(self):
        cfg = DecayConfig(decay_rate=math.log(2.0) / 30.0, dim=2)
        state = level_state(np.array([[2.0, -4.0]]), np.array([[8.0, 0.5]]))
        out = update_level_memories(state, None, None, 30.0, zero_free_mlp(), zero_free_mlp(), cfg)
        assert np.allclose(out.cluster_array(), [[1.0, -2.0]])
        assert np.allclose(out.area_array(), [[4.0, 0.25]])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        cfg = DecayConfig(decay_rate=0.02, dim=3)
        cluster0 = rng.normal(size=(2, 3))
        area0 = rng.normal(size=(1, 3))
        cmsg = rng.normal(size=(2, 3))
        amsg = rng.normal(size=(1, 3))
        shift = 0.75

        def affine(x):
            return ad.add(x, ad.constant(np.full(x.data.shape, shift)))

        state = level_state(cluster0.copy(), area0.copy())
        out = update_level_memories(state, ad.constant(cmsg), ad.constant(amsg), 25.0,
                                    affine, affine, cfg)
        decay = math.exp(-cfg.decay_rate * 25.0)
        assert np.allclose(out.cluster_array(), decay * cluster0 + cmsg + shift,
                           rtol=1e-12)
        assert np.allclose(out.area_array(), decay * area0 + amsg + shift, rtol=1e-12)

    def test_unweighted_skips_decay(self):
        cfg = DecayConfig(decay_rate=0.5, dim=1, weighted=False)
        state = level_state(np.array([[3.0]]), np.array([[5.0]]))
        out = update_level_memories(state, None, None, 100.0, zero_free_mlp(), zero_free_mlp(), cfg)
        assert np.array_equal(out.cluster_array(), [[3.0]])

    def test_time_regression(self):
        cfg = DecayConfig(decay_rate=0.1, dim=1)
        state = level_state(np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(TimeRegression):
            update_level_memories(state, zeros(1, 1), zeros(1, 1), -5.0,
                                  zero_free_mlp(), zero_free_mlp(), cfg)


class TestFuse:
    def test_single_cluster_broadcasts_exactly(self):
        rng = np.random.default_rng(7)
        n, d = 4, 3
        station, cluster, area, attn = random_setup(rng, n=n, n_c=1, d=d)
        rel = compute_relations(station, cluster, area, attn)
        cluster_mem = rng.normal(size=(1, d))
        area_mem = rng.normal(size=(1, d))
        z = fuse(station, level_state(cluster_mem, area_mem), rel, np.ones(n)).data
        for i in range(n):
            assert np.max(np.abs(z[i, d:2 * d] - cluster_mem[0])) <= 1e-12
            assert np.max(np.abs(z[i, 2 * d:] - area_mem[0])) <= 1e-12

    def test_zero_memories_leave_station_block(self):
        rng = np.random.default_rng(8)
        station, cluster, area, attn = random_setup(rng, n=3, n_c=2, d=3)
        rel = compute_relations(station, cluster, area, attn)
        z = fuse(station, level_state(np.zeros((2, 3)), np.zeros((1, 3))), rel, np.ones(3)).data
        assert np.array_equal(z[:, :3], station.data)
        assert not z[:, 3:].any()

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(9)
        n, n_c, d, heads = 5, 3, 2, 2
        station, cluster, area, attn = random_setup(rng, n=n, n_c=n_c, d=d, heads=heads)
        rel = compute_relations(station, cluster, area, attn)
        cluster_mem = rng.normal(size=(n_c, d))
        area_mem = rng.normal(size=(1, d))
        z = fuse(station, level_state(cluster_mem, area_mem), rel, np.ones(n)).data

        for i in range(n):
            rc = np.zeros(d)
            rg = np.zeros(d)
            for h in range(heads):
                for j in range(n_c):
                    rc += rel.ace[h].data[i, j] * cluster_mem[j]
                    # The single area column: every cluster-to-area fusion weight is 1.
                    rg += rel.ace[h].data[i, j] * area_mem[0]
            rc /= heads
            rg /= heads
            assert np.allclose(z[i], np.concatenate([station.data[i], rc, rg]),
                               rtol=1e-12, atol=1e-12)

    def test_cluster_fusion_is_convex(self):
        rng = np.random.default_rng(10)
        n, n_c, d = 6, 3, 2
        station, cluster, area, attn = random_setup(rng, n=n, n_c=n_c, d=d)
        rel = compute_relations(station, cluster, area, attn)
        cluster_mem = rng.normal(size=(n_c, d))
        z = fuse(station, level_state(cluster_mem, np.zeros((1, d))), rel, np.ones(n)).data
        pulled = z[:, d:2 * d]
        assert (pulled >= cluster_mem.min(axis=0) - 1e-12).all()
        assert (pulled <= cluster_mem.max(axis=0) + 1e-12).all()

    def test_cluster_permutation_leaves_fusion_unchanged(self):
        rng = np.random.default_rng(11)
        n, n_c, d = 4, 3, 2
        station, cluster, area, attn = random_setup(rng, n=n, n_c=n_c, d=d)
        cluster_mem = rng.normal(size=(n_c, d))
        area_mem = rng.normal(size=(1, d))

        rel = compute_relations(station, cluster, area, attn)
        z = fuse(station, level_state(cluster_mem.copy(), area_mem), rel, np.ones(n)).data

        perm = np.array([2, 0, 1])
        rel_p = compute_relations(station, ad.constant(cluster.data[perm]), area, attn)
        z_p = fuse(station, level_state(cluster_mem[perm], area_mem), rel_p, np.ones(n)).data
        assert np.allclose(z, z_p, rtol=1e-12, atol=1e-12)


def test_relation_rows_cover_every_entry():
    rng = np.random.default_rng(12)
    station, cluster, area, attn = random_setup(rng, n=3, n_c=2)
    rel = compute_relations(station, cluster, area, attn)
    rows = relation_rows(rel, "message")
    assert len(rows) == rel.heads * 3 * 2
    h, i, j, w = rows[0]
    assert w == pytest.approx(rel.acm[0].data[0, 0])
