import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcast.errors import TimeRegression
from odcast.events import EventBatch, NodeCatalog, TransactionEvent, batch_by_window
from odcast.memory import (DecayConfig, StationMemory, StationMessage, aggregate_messages,
                           oracle_representation, read_representation, update_station_memory)

identity = lambda p: p  # noqa: E731


def ev(o, d, t):
    return TransactionEvent(o, d, t)


@st.composite
def batches(draw):
    """(n, reps, events) inside [0, 120]: few distinct stamps (ties), many self-loops."""
    n = draw(st.integers(1, 12))
    reps = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        size=(n, draw(st.integers(1, 4))))
    events = []
    for stamp in sorted(draw(st.lists(st.integers(0, 12), max_size=60))):
        origin = draw(st.integers(0, n - 1))
        dest = draw(st.one_of(st.just(origin), st.integers(0, n - 1)))
        events.append(ev(origin, dest, 10.0 * stamp))
    return n, reps, tuple(events)


class TestAggregateMessages:
    def test_weight_one_at_window_end(self):
        catalog = NodeCatalog(n=2)
        cfg = DecayConfig(decay_rate=0.1, dim=2)
        reps = np.array([[1.0, 2.0], [3.0, 4.0]])
        batch = EventBatch((ev(0, 1, 30.0),), 0.0, 30.0)
        msgs = aggregate_messages(batch, reps, catalog, cfg)
        assert msgs.q[0] == 1.0
        # The origin sees [r_destination ; F_destination ; +1].
        assert np.array_equal(msgs.p[0], [3.0, 4.0, 0.0, 1.0, 1.0])

    def test_exponential_weight(self):
        catalog = NodeCatalog(n=2)
        cfg = DecayConfig(decay_rate=0.1, dim=1)
        batch = EventBatch((ev(0, 1, 20.0),), 0.0, 30.0)
        msgs = aggregate_messages(batch, np.zeros((2, 1)), catalog, cfg)
        assert msgs.q[0] == pytest.approx(0.3678794, abs=1e-7)

    def test_untouched_nodes_zero(self):
        catalog = NodeCatalog(n=3)
        cfg = DecayConfig(decay_rate=0.1, dim=1)
        batch = EventBatch((ev(0, 1, 10.0),), 0.0, 30.0)
        msgs = aggregate_messages(batch, np.zeros((3, 1)), catalog, cfg)
        assert msgs.q[2] == 0.0
        assert not msgs.p[2].any()

    def test_self_loop_contributes_both_roles(self):
        catalog = NodeCatalog(n=2)
        cfg = DecayConfig(decay_rate=0.1, dim=1)
        batch = EventBatch((ev(0, 0, 30.0),), 0.0, 30.0)
        msgs = aggregate_messages(batch, np.full((2, 1), 0.5), catalog, cfg)
        assert msgs.q[0] == 2.0
        # +1 and -1 role slots cancel; representation and feature blocks double.
        assert np.allclose(msgs.p[0], [1.0, 2.0, 0.0, 0.0])

    @settings(max_examples=150, deadline=None)
    @given(case=batches(), weighted=st.booleans(), include_features=st.booleans(),
           include_role=st.booleans())
    def test_matches_per_event_loop_oracle(self, case, weighted, include_features,
                                           include_role):
        n, reps, events = case
        catalog = NodeCatalog(n=n)
        cfg = DecayConfig(decay_rate=1.0 / 40.0, dim=reps.shape[1], weighted=weighted)
        batch = EventBatch(events, 0.0, 120.0)
        msgs = aggregate_messages(batch, reps, catalog, cfg, include_features=include_features,
                                  include_role=include_role)

        def incidence(other, role):
            parts = [reps[other]]
            if include_features:
                parts.append(np.eye(n)[other])
            if include_role:
                parts.append([role])
            return np.concatenate(parts)

        width = reps.shape[1] + (n if include_features else 0) + (1 if include_role else 0)
        p = np.zeros((n, width))
        q = np.zeros(n)
        for e in events:  # apply the definition one incidence at a time
            w = math.exp(-cfg.decay_rate * (120.0 - e.timestamp)) if weighted else 1.0
            p[e.origin] += w * incidence(e.destination, 1.0)
            q[e.origin] += w
            p[e.destination] += w * incidence(e.origin, -1.0)
            q[e.destination] += w
        assert msgs.p.shape == p.shape
        assert np.allclose(msgs.p, p, rtol=1e-12, atol=1e-12)
        assert np.allclose(msgs.q, q, rtol=1e-12, atol=1e-12)

    def test_unweighted_counts(self):
        catalog = NodeCatalog(n=2)
        cfg = DecayConfig(decay_rate=0.1, dim=1, weighted=False)
        batch = EventBatch((ev(0, 1, 0.0), ev(0, 1, 10.0)), 0.0, 30.0)
        msgs = aggregate_messages(batch, np.zeros((2, 1)), catalog, cfg)
        assert msgs.q[0] == 2.0 and msgs.q[1] == 2.0


class TestUpdateAndRead:
    def test_plug_in(self):
        cfg = DecayConfig(decay_rate=0.1, dim=2)
        mem = StationMemory(a=np.zeros(2), b=1.0, last_update=0.0)
        s = np.array([0.7, -0.2])
        out = update_station_memory(mem, StationMessage(p=s, q=1.0), 0.0, identity, cfg)
        assert np.array_equal(out.a, s)
        assert out.b == 2.0

    def test_empty_message_half_life(self):
        cfg = DecayConfig(decay_rate=math.log(2.0) / 50.0, dim=2)
        mem = StationMemory(a=np.array([4.0, -2.0]), b=2.0, last_update=0.0)
        out = update_station_memory(mem, StationMessage(p=np.zeros(2), q=0.0), 50.0,
                                    identity, cfg)
        assert np.allclose(out.a, [2.0, -1.0])
        assert out.b == pytest.approx(1.0)
        assert np.allclose(read_representation(out), read_representation(mem))

    def test_q_zero_suppresses_update_map(self):
        cfg = DecayConfig(decay_rate=0.1, dim=1)
        biased = lambda p: p + 100.0  # noqa: E731 - a map with a loud bias
        mem = StationMemory(a=np.array([1.0]), b=1.0, last_update=0.0)
        out = update_station_memory(mem, StationMessage(p=np.zeros(1), q=0.0), 10.0,
                                    biased, cfg)
        assert out.a[0] == pytest.approx(math.exp(-1.0))

    def test_time_regression(self):
        cfg = DecayConfig(decay_rate=0.1, dim=1)
        mem = StationMemory(a=np.zeros(1), b=1.0, last_update=10.0)
        with pytest.raises(TimeRegression):
            update_station_memory(mem, StationMessage(p=np.zeros(1), q=0.0), 5.0,
                                  identity, cfg)

    def test_read(self):
        mem = StationMemory(a=np.array([2.0, 4.0]), b=2.0, last_update=0.0)
        assert np.array_equal(read_representation(mem), [1.0, 2.0])

    def test_fresh_reads_zero(self):
        assert not read_representation(StationMemory.fresh(3)).any()

    def test_b_lower_bound(self):
        cfg = DecayConfig(decay_rate=0.01, dim=1)
        mem = StationMemory.fresh(1, t=0.0)
        t = 0.0
        rng = np.random.default_rng(1)
        for _ in range(20):
            t += float(rng.uniform(0.0, 100.0))
            mem = update_station_memory(mem, StationMessage(np.zeros(1), 0.0), t,
                                        identity, cfg)
            floor = math.exp(-cfg.decay_rate * t)
            assert mem.b >= floor * (1.0 - 1e-12) and mem.b > 0.0


class TestOracleRepresentation:
    def test_identical_neighbor_reps_give_that_rep(self):
        cfg = DecayConfig(decay_rate=0.02, dim=2)
        frozen = np.tile([1.5, -0.5], (3, 1))
        events = [ev(0, 1, 10.0), ev(2, 0, 30.0)]
        out = oracle_representation(0, events, 40.0, frozen, cfg)
        assert np.allclose(out, [1.5, -0.5])

    def test_single_event_at_t(self):
        cfg = DecayConfig(decay_rate=0.02, dim=1)
        frozen = np.array([[0.0], [3.0]])
        out = oracle_representation(0, [ev(0, 1, 25.0)], 25.0, frozen, cfg)
        assert np.allclose(out, [3.0])

    def test_no_history_reads_zero(self):
        cfg = DecayConfig(decay_rate=0.02, dim=2)
        out = oracle_representation(1, [ev(0, 2, 5.0)], 10.0, np.ones((3, 2)), cfg)
        assert not out.any()

    def test_monotone_forgetting(self):
        cfg = DecayConfig(decay_rate=0.05, dim=1)
        weights = [math.exp(-cfg.decay_rate * (t - 3.0)) for t in (10.0, 20.0, 40.0)]
        assert weights[0] > weights[1] > weights[2] > 0.0


class TestOnlineOfflineEquivalence:
    def run_stream(self, seed, n=8, d=3, n_events=600, horizon=2000.0, n_batches=10):
        rng = np.random.default_rng(seed)
        catalog = NodeCatalog(n=n)
        cfg = DecayConfig(decay_rate=math.log(2.0) / 300.0, dim=d)
        frozen = rng.normal(size=(n, d))
        times = np.sort(rng.uniform(0.0, horizon, size=n_events))
        events = [ev(int(rng.integers(0, n)), int(rng.integers(0, n)), float(t))
                  for t in times]
        batches = batch_by_window(events, 0.0, horizon / n_batches, until=horizon)
        memories = [StationMemory.fresh(d) for _ in range(n)]
        for batch in batches:
            msgs = aggregate_messages(batch, frozen, catalog, cfg,
                                      include_features=False, include_role=False)
            for node in range(n):
                memories[node] = update_station_memory(
                    memories[node], msgs.node(node), batch.window_end, identity, cfg)
                online = read_representation(memories[node])
                closed = oracle_representation(node, events, batch.window_end, frozen,
                                               cfg, initial_mass_time=0.0)
                scale = max(np.max(np.abs(closed)), 1e-30)
                assert np.max(np.abs(online - closed)) / scale <= 1e-9

    def test_equivalence(self):
        self.run_stream(seed=0)

    def test_batch_splitting_linear_frozen(self):
        rng = np.random.default_rng(4)
        n, d = 5, 2
        catalog = NodeCatalog(n=n)
        cfg = DecayConfig(decay_rate=0.01, dim=d)
        frozen = rng.normal(size=(n, d))
        times = np.sort(rng.uniform(0.0, 100.0, size=60))
        events = tuple(ev(int(rng.integers(0, n)), int(rng.integers(0, n)), float(t))
                       for t in times)
        t1 = 47.0
        whole = EventBatch(events, 0.0, 100.0)
        first = EventBatch(tuple(e for e in events if e.timestamp < t1), 0.0, t1)
        second = EventBatch(tuple(e for e in events if e.timestamp >= t1), t1, 100.0)

        for node in range(n):
            mem0 = StationMemory.fresh(d)
            one = update_station_memory(
                mem0, aggregate_messages(whole, frozen, catalog, cfg,
                                         include_features=False,
                                         include_role=False).node(node),
                100.0, identity, cfg)
            mem = StationMemory.fresh(d)
            for part in (first, second):
                mem = update_station_memory(
                    mem, aggregate_messages(part, frozen, catalog, cfg,
                                            include_features=False,
                                            include_role=False).node(node),
                    part.window_end, identity, cfg)
            assert np.allclose(one.a, mem.a, rtol=1e-12, atol=1e-14)
            assert one.b == pytest.approx(mem.b, rel=1e-12)
