import gc
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcast.errors import MalformedRow, NonMonotonicTimestamp, UnknownNode
from odcast.events import (EventBatch, NodeCatalog, TransactionEvent, batch_by_cap,
                           batch_by_window, build_od_matrix, default_t0, load_catalog,
                           od_matrix_series, parse_events, write_catalog_csv,
                           write_events_csv)


def ev(o, d, t):
    return TransactionEvent(o, d, t)


def make_catalog_ab():
    return NodeCatalog(n=2, names=("A", "B"))


class TestParseEvents:
    def test_two_rows(self):
        src = io.StringIO("origin,destination,timestamp\nA,B,10.0\nA,B,20.0\n")
        events = parse_events(src, make_catalog_ab())
        assert events == [ev(0, 1, 10.0), ev(0, 1, 20.0)]

    def test_header_only(self):
        src = io.StringIO("origin,destination,timestamp\n")
        assert parse_events(src, make_catalog_ab()) == []

    def test_non_monotonic_reports_line(self):
        src = io.StringIO("origin,destination,timestamp\nA,B,20.0\nA,B,10.0\n")
        with pytest.raises(NonMonotonicTimestamp) as err:
            parse_events(src, make_catalog_ab())
        assert err.value.line == 3

    def test_unknown_node(self):
        src = io.StringIO("origin,destination,timestamp\nA,C,10.0\n")
        with pytest.raises(UnknownNode):
            parse_events(src, make_catalog_ab())

    def test_malformed_row_reports_line(self):
        src = io.StringIO("origin,destination,timestamp\nA,B,10.0\nA,B\n")
        with pytest.raises(MalformedRow) as err:
            parse_events(src, make_catalog_ab())
        assert err.value.line == 3

    def test_bad_timestamp(self):
        src = io.StringIO("origin,destination,timestamp\nA,B,frog\n")
        with pytest.raises(MalformedRow):
            parse_events(src, make_catalog_ab())

    def test_bad_header(self):
        src = io.StringIO("origin,dest,time\nA,B,1\n")
        with pytest.raises(MalformedRow):
            parse_events(src, make_catalog_ab())

    def test_crlf_and_bytes(self):
        raw = b"origin,destination,timestamp\r\nA,B,10.0\r\nB,A,11.5\r\n"
        events = parse_events(io.BytesIO(raw), make_catalog_ab())
        assert events == [ev(0, 1, 10.0), ev(1, 0, 11.5)]

    def test_non_utf8_bytes_are_a_malformed_row(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"origin,destination,timestamp\nA,B,1.0\n\xe9,B,2.0\n")
        with pytest.raises(MalformedRow, match="UTF-8"):
            parse_events(path, make_catalog_ab())
        catalog_path = tmp_path / "latin1_catalog.csv"
        catalog_path.write_bytes(b"name,index\nA,0\n\xe9,1\n")
        with pytest.raises(MalformedRow, match="UTF-8"):
            load_catalog(catalog_path)

    def test_caller_streams_stay_open(self):
        for src in (io.StringIO("origin,destination,timestamp\nA,B,1.0\n"),
                    io.BytesIO(b"origin,destination,timestamp\nA,B,1.0\n")):
            parse_events(src, make_catalog_ab())
            gc.collect()
            assert not src.closed

    @pytest.mark.parametrize("body", ["A,B,1.0\nB,A,2.0\n", "A,B,1.0\nA,B\n",
                                      "A,B,2.0\nA,B,1.0\n"])
    def test_parse_from_path_leaves_no_open_file(self, tmp_path, body):
        path = tmp_path / "events.csv"
        path.write_text("origin,destination,timestamp\n" + body, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                parse_events(path, make_catalog_ab())
            except (MalformedRow, NonMonotonicTimestamp):
                pass
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_index_mode_without_names(self):
        src = io.StringIO("origin,destination,timestamp\n0,1,3.5\n1,1,4.0\n")
        events = parse_events(src, NodeCatalog(n=2))
        assert events == [ev(0, 1, 3.5), ev(1, 1, 4.0)]

    def test_index_mode_out_of_range(self):
        src = io.StringIO("origin,destination,timestamp\n0,7,3.5\n")
        with pytest.raises(UnknownNode):
            parse_events(src, NodeCatalog(n=2))


class TestCatalogFiles:
    def test_round_trip(self, tmp_path):
        catalog = NodeCatalog(n=3, names=("x", "y", "z"))
        path = tmp_path / "catalog.csv"
        write_catalog_csv(catalog, path)
        loaded = load_catalog(path)
        assert loaded.names == ("x", "y", "z")
        assert loaded.n == 3

    def test_events_round_trip(self, tmp_path):
        catalog = make_catalog_ab()
        events = [ev(0, 1, 1.25), ev(1, 0, 2.5), ev(1, 1, 2.5)]
        path = tmp_path / "events.csv"
        write_events_csv(events, catalog, path)
        assert parse_events(path, catalog) == events

    def test_features_default_one_hot(self):
        catalog = NodeCatalog(n=3)
        assert np.array_equal(catalog.features, np.eye(3))


class TestBatchByWindow:
    def test_one_event_per_window(self):
        events = [ev(0, 1, 5.0), ev(0, 1, 35.0), ev(0, 1, 65.0)]
        batches = batch_by_window(events, 0.0, 30.0)
        assert [len(b) for b in batches] == [1, 1, 1]
        assert [(b.window_start, b.window_end) for b in batches] == [
            (0.0, 30.0), (30.0, 60.0), (60.0, 90.0)]

    def test_empty_stream_with_horizon(self):
        batches = batch_by_window([], 0.0, 30.0, until=90.0)
        assert [(b.window_start, b.window_end, len(b)) for b in batches] == [
            (0.0, 30.0, 0), (30.0, 60.0, 0), (60.0, 90.0, 0)]

    def test_two_events_one_window(self):
        events = [ev(0, 1, 5.0), ev(1, 0, 10.0)]
        batches = batch_by_window(events, 0.0, 30.0)
        assert len(batches) == 1 and len(batches[0]) == 2

    def test_boundary_event_goes_to_next_window(self):
        batches = batch_by_window([ev(0, 1, 30.0)], 0.0, 30.0)
        assert [len(b) for b in batches] == [0, 1]

    def test_empty_windows_between_events(self):
        events = [ev(0, 1, 5.0), ev(0, 1, 95.0)]
        batches = batch_by_window(events, 0.0, 30.0)
        assert [len(b) for b in batches] == [1, 0, 0, 1]

    def test_event_before_t0_rejected(self):
        with pytest.raises(ValueError):
            batch_by_window([ev(0, 1, 5.0)], 10.0, 30.0)

    def test_non_monotonic_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            batch_by_window([ev(0, 1, 9.0), ev(0, 1, 5.0)], 0.0, 30.0)


class TestBatchByCap:
    def test_five_events_cap_two(self):
        times = [1.0, 5.0, 11.0, 17.0, 23.0]
        events = [ev(0, 1, t) for t in times]
        batches = batch_by_cap(events, 0.0, 30.0, cap=2)
        assert [len(b) for b in batches] == [2, 2, 1]
        # Non-final sub-batches end at their last event; the final one at the
        # window boundary; starts chain.
        assert [(b.window_start, b.window_end) for b in batches] == [
            (0.0, 5.0), (5.0, 17.0), (17.0, 30.0)]

    def test_huge_cap_matches_window_batching(self):
        events = [ev(0, 1, 5.0), ev(1, 0, 10.0), ev(0, 1, 40.0)]
        assert batch_by_cap(events, 0.0, 30.0, cap=200_000) == \
            batch_by_window(events, 0.0, 30.0)

    def test_empty_window_emits_one_batch(self):
        batches = batch_by_cap([], 0.0, 30.0, cap=2, until=30.0)
        assert batches == [EventBatch((), 0.0, 30.0)]

    def test_partition_property(self):
        rng = np.random.default_rng(7)
        times = np.sort(rng.uniform(0.0, 300.0, size=100))
        events = [ev(int(rng.integers(0, 4)), int(rng.integers(0, 4)), float(t))
                  for t in times]
        for cap in (1, 3, 7, 1000):
            batches = batch_by_cap(events, 0.0, 60.0, cap=cap)
            flattened = [e for b in batches for e in b.events]
            assert flattened == events

    def test_cap_one(self):
        events = [ev(0, 1, 1.0), ev(0, 1, 2.0), ev(0, 1, 3.0)]
        batches = batch_by_cap(events, 0.0, 30.0, cap=1)
        assert [len(b) for b in batches] == [1, 1, 1]
        assert [b.window_end for b in batches] == [1.0, 2.0, 30.0]


class TestOdMatrix:
    def test_counting(self):
        events = [ev(0, 1, 10.0), ev(0, 1, 20.0), ev(1, 0, 40.0)]
        matrix = build_od_matrix(events, 0.0, 30.0, 2)
        expected = np.zeros((2, 2))
        expected[0, 1] = 2
        assert np.array_equal(matrix, expected)

    def test_empty(self):
        assert np.array_equal(build_od_matrix([], 0.0, 30.0, 3), np.zeros((3, 3)))

    def test_self_loops_count_on_diagonal(self):
        matrix = build_od_matrix([ev(1, 1, 5.0)], 0.0, 30.0, 2)
        assert matrix[1, 1] == 1.0

    def test_against_counting_oracle(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 500.0, size=1000))
        events = [ev(int(rng.integers(0, 4)), int(rng.integers(0, 4)), float(t))
                  for t in times]
        t, tau, n = 120.0, 90.0, 4
        oracle = np.zeros((n, n))
        for e in events:  # one event at a time, independent tally
            if t <= e.timestamp < t + tau:
                oracle[e.origin, e.destination] += 1
        assert np.array_equal(build_od_matrix(events, t, tau, n), oracle)

    def test_series_matches_single_windows(self):
        rng = np.random.default_rng(11)
        times = np.sort(rng.uniform(0.0, 400.0, size=300))
        events = [ev(int(rng.integers(0, 3)), int(rng.integers(0, 3)), float(t))
                  for t in times]
        series = od_matrix_series(events, 0.0, 50.0, 8, 3)
        for k in range(8):
            assert np.array_equal(series[k], build_od_matrix(events, 50.0 * k, 50.0, 3))

    def test_sum_property(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0.0, 300.0, size=250))
        events = [ev(int(rng.integers(0, 4)), int(rng.integers(0, 4)), float(t))
                  for t in times]
        series = od_matrix_series(events, 0.0, 30.0, 10, 4)
        assert series.sum() == len(events)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 5), stamps=st.lists(st.integers(0, 100), max_size=60),
           t0=st.integers(0, 20), tau=st.integers(1, 12), count=st.integers(1, 6),
           data=st.data())
    def test_series_property(self, n, stamps, t0, tau, count, data):
        # Half-integer timestamps against integer t0 and tau: boundaries are exact,
        # so events land on them, before t0 and past the last window.
        node = st.integers(0, n - 1)
        events = [ev(data.draw(node), data.draw(node), stamp / 2.0) for stamp in sorted(stamps)]
        series = od_matrix_series(events, float(t0), float(tau), count, n)
        assert series.shape == (count, n, n)
        assert series.sum() == sum(t0 <= e.timestamp < t0 + count * tau for e in events)
        for k in range(count):
            assert np.array_equal(series[k], build_od_matrix(events, t0 + k * tau, tau, n))

    @settings(max_examples=300, deadline=None)
    @given(t0=st.integers(0, 10_000), tau=st.integers(1, 5_000), count=st.integers(1, 5),
           data=st.data())
    def test_series_cuts_where_batch_by_window_cuts(self, t0, tau, count, data):
        # One-decimal t0 and tau are not exact in binary, so t0 + k*tau is a
        # rounded value; events sit on it and on its two float neighbours.
        t0, tau, n = t0 / 10.0, tau / 10.0, 3
        node = st.integers(0, n - 1)
        stamps = []
        for k in range(count + 1):
            bound = t0 + k * tau
            stamps += [np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf)]
        end = t0 + count * tau
        events = [ev(data.draw(node), data.draw(node), float(t))
                  for t in sorted(stamps) if t0 <= t < end]
        series = od_matrix_series(events, t0, tau, count, n)
        batches = batch_by_window(events, t0, tau, until=end)
        for k in range(count):
            counts = np.zeros((n, n))
            for e in batches[k].events:
                counts[e.origin, e.destination] += 1.0
            assert np.array_equal(series[k], counts)


class TestEventBatchType:
    def test_rejects_events_outside_window(self):
        with pytest.raises(ValueError):
            EventBatch((ev(0, 1, 50.0),), 0.0, 30.0)

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            EventBatch((), 10.0, 5.0)


def test_default_t0_floors_to_tau_boundary():
    assert default_t0([ev(0, 1, 73.0)], 30.0) == 60.0
    assert default_t0([], 30.0) == 0.0
