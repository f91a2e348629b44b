import csv
import gc
import io
import string
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcast.errors import MalformedRow, NonMonotonicTimestamp, OdcastError, UnknownNode
from odcast.events import (EventBatch, EventStream, NodeCatalog, TransactionEvent, batch_by_cap,
                           batch_by_window, build_od_matrix, default_t0, load_catalog,
                           od_matrix_series, parse_events, write_catalog_csv,
                           write_events_csv)


def ev(o, d, t):
    return TransactionEvent(o, d, t)


def make_catalog_ab():
    return NodeCatalog(n=2, names=("A", "B"))


def concatenated(batches):
    """The events of consecutive batches as one stream."""
    return EventStream(*(np.concatenate([getattr(b.events, name) for b in batches])
                         for name in ("origins", "destinations", "times")))


def boundary_stamps(t0, tau, count):
    """Each window edge t0 + k*tau (k = 0..count) and its two float neighbours."""
    stamps = []
    for k in range(count + 1):
        edge = t0 + k * tau
        stamps += [float(np.nextafter(edge, -np.inf)), edge, float(np.nextafter(edge, np.inf))]
    return stamps


def not_a_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


def not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


NAMES = ("north", "south", "east", "west")
# Invalid UTF-8: a stray continuation byte, bytes never used, a truncated
# sequence, an encoded surrogate, an over-long form.
BAD_UTF8 = (b"\x80", b"\xff", b"\xfe", b"\xc3(", b"\xed\xa0\x80", b"\xc0\xaf")


def csv_bytes(header, table, data, kind):
    """UTF-8 CSV bytes of ``header`` and ``table``; kind non_utf8 splices in invalid bytes."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(table)
    raw = text.getvalue().encode("utf-8")
    if kind == "non_utf8":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.sampled_from(BAD_UTF8)) + raw[at:]
    return raw


class TestParseEvents:
    def test_two_rows(self):
        src = io.StringIO("origin,destination,timestamp\nA,B,10.0\nA,B,20.0\n")
        events = parse_events(src, make_catalog_ab())
        assert events == EventStream.of([ev(0, 1, 10.0), ev(0, 1, 20.0)])

    def test_header_only(self):
        src = io.StringIO("origin,destination,timestamp\n")
        assert parse_events(src, make_catalog_ab()) == EventStream.of([])

    def test_non_monotonic_reports_line(self):
        src = io.StringIO("origin,destination,timestamp\nA,B,20.0\nA,B,10.0\n")
        with pytest.raises(NonMonotonicTimestamp) as err:
            parse_events(src, make_catalog_ab())
        assert err.value.line == 3

    def test_unknown_node(self):
        src = io.StringIO("origin,destination,timestamp\nA,B,1.0\nA,C,10.0\n")
        with pytest.raises(UnknownNode, match="^line 3: unknown node name 'C'"):
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
        assert events == EventStream.of([ev(0, 1, 10.0), ev(1, 0, 11.5)])

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

    @pytest.mark.parametrize("row", ["A,B,1\r2\n", "A,B," + "1" * 200_000 + "\n", 'A,B,"1\n'],
                             ids=["bare-carriage-return", "oversized-field",
                                  "truncated-quoted-field"])
    def test_csv_module_errors_are_malformed_rows(self, row):
        src = io.StringIO("origin,destination,timestamp\nA,B,1.0\n" + row)
        with pytest.raises(MalformedRow) as err:
            parse_events(src, make_catalog_ab())
        assert err.value.line == 3

    def test_index_mode_without_names(self):
        src = io.StringIO("origin,destination,timestamp\n0,1,3.5\n1,1,4.0\n")
        events = parse_events(src, NodeCatalog(n=2))
        assert events == EventStream.of([ev(0, 1, 3.5), ev(1, 1, 4.0)])

    def test_index_mode_out_of_range(self):
        src = io.StringIO("origin,destination,timestamp\n0,7,3.5\n")
        with pytest.raises(UnknownNode):
            parse_events(src, NodeCatalog(n=2))


class TestEventStream:
    def test_columns_are_typed_and_read_only(self):
        stream = EventStream([0, 1], [1, 1], [2, 3])
        assert stream.origins.dtype == np.int64 and stream.times.dtype == np.float64
        with pytest.raises(ValueError):
            stream.times[0] = 5.0

    def test_of_passes_a_stream_through(self):
        stream = EventStream.of([ev(0, 1, 1.0), ev(1, 0, 2.0)])
        assert EventStream.of(stream) is stream
        assert len(stream) == 2 and stream.destinations.tolist() == [1, 0]

    def test_decreasing_times_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            EventStream([0, 0, 0], [1, 1, 1], [1.0, 3.0, 2.0])

    def test_decreasing_times_name_the_event_not_a_line(self):
        message = r"^event 2: timestamp 2\.0 decreases below predecessor 3\.0$"
        with pytest.raises(NonMonotonicTimestamp, match=message) as err:
            EventStream([0, 0, 0], [1, 1, 1], [1.0, 3.0, 2.0])
        assert err.value.line is None and err.value.index == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EventStream([0], [1], [bad])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            EventStream([0, 1], [1], [1.0, 2.0])

    def test_slices_are_index_ranges_of_views(self):
        stream = EventStream([0, 1, 2, 0], [1, 2, 0, 0], [1.0, 2.0, 2.0, 5.0])
        part = stream[1:3]
        assert part == EventStream([1, 2], [2, 0], [2.0, 2.0])
        assert np.shares_memory(part.times, stream.times)
        with pytest.raises(TypeError):
            stream[::-1]
        with pytest.raises(TypeError):
            stream[0]


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
        assert parse_events(path, catalog) == EventStream.of(events)

    def test_features_default_one_hot(self):
        catalog = NodeCatalog(n=3)
        assert np.array_equal(catalog.features, np.eye(3))

    def test_catalog_without_rows_is_malformed(self):
        with pytest.raises(MalformedRow):
            load_catalog(io.StringIO("name,index\n"))

    @settings(max_examples=100, deadline=None)
    @given(names=st.one_of(
               st.none(),
               st.lists(st.text(string.ascii_letters + string.digits + ' ,"_-é', min_size=1,
                                max_size=8).map(str.strip).filter(bool),
                        min_size=1, max_size=6, unique=True)),
           data=st.data())
    def test_csv_round_trip_is_bitwise(self, names, data):
        n = len(names) if names else data.draw(st.integers(1, 6))
        catalog = NodeCatalog(n=n, names=names)
        node = st.integers(0, n - 1)
        times = sorted(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                          max_size=40)))
        rows = [ev(data.draw(node), data.draw(node), t) for t in times]
        with tempfile.TemporaryDirectory() as tmp:
            events_path, catalog_path = Path(tmp) / "events.csv", Path(tmp) / "catalog.csv"
            write_events_csv(rows, catalog, events_path)
            if names:
                write_catalog_csv(catalog, catalog_path)
            parsed = parse_events(events_path,
                                  load_catalog(catalog_path if names else None, n))
        expected = EventStream.of(rows)
        for name in ("origins", "destinations", "times"):
            assert getattr(parsed, name).tobytes() == getattr(expected, name).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["drop_field", "extra_field", "non_numeric_time",
                                 "non_finite_time", "decreasing_time", "unknown_name",
                                 "bad_index", "non_utf8"]),
           named=st.booleans(), rows=st.integers(2, 6), data=st.data())
    def test_corrupt_event_csv_is_an_odcast_error(self, kind, named, rows, data):
        named = named and kind != "bad_index"
        catalog = NodeCatalog(n=4, names=NAMES if named else None)
        node = st.sampled_from([catalog.name_of(i) for i in range(4)])
        table = [[data.draw(node), data.draw(node), repr(float(k))] for k in range(rows)]
        i = data.draw(st.integers(1, rows - 1))
        if kind == "drop_field":
            del table[i][data.draw(st.integers(0, 2))]
        elif kind == "extra_field":
            table[i].insert(data.draw(st.integers(0, 3)), data.draw(st.text(max_size=4)))
        elif kind == "non_numeric_time":
            table[i][2] = data.draw(st.text(max_size=6).filter(not_a_float))
        elif kind == "non_finite_time":
            table[i][2] = data.draw(st.sampled_from(["nan", "inf", "-Infinity", "1e999"]))
        elif kind == "decreasing_time":
            table[i][2] = repr(float(np.nextafter(i - 1.0, -np.inf)))
        elif kind == "unknown_name":
            unknown = (st.text(max_size=6).filter(lambda x: x.strip() not in NAMES) if named
                       else st.text(string.ascii_letters, min_size=1, max_size=6))
            table[i][data.draw(st.integers(0, 1))] = data.draw(unknown)
        elif kind == "bad_index":
            index = st.one_of(st.integers(max_value=-1), st.integers(min_value=4))
            table[i][data.draw(st.integers(0, 1))] = str(data.draw(index))
        raw = csv_bytes(("origin", "destination", "timestamp"), table, data, kind)
        with pytest.raises(OdcastError):
            parse_events(io.BytesIO(raw), catalog)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["drop_field", "extra_field", "non_integer_index",
                                 "out_of_range_index", "duplicate_index", "no_rows",
                                 "non_utf8"]),
           n=st.integers(2, 5), data=st.data())
    def test_corrupt_catalog_csv_is_an_odcast_error(self, kind, n, data):
        table = [[name, str(k)] for k, name in enumerate(NAMES + ("up",))][:n]
        i = data.draw(st.integers(0, n - 1))
        if kind == "drop_field":
            del table[i][data.draw(st.integers(0, 1))]
        elif kind == "extra_field":
            table[i].insert(data.draw(st.integers(0, 2)), data.draw(st.text(max_size=4)))
        elif kind == "non_integer_index":
            table[i][1] = data.draw(st.text(max_size=6).filter(not_an_int))
        elif kind == "out_of_range_index":
            index = st.one_of(st.integers(max_value=-1), st.integers(min_value=n))
            table[i][1] = str(data.draw(index))
        elif kind == "duplicate_index":
            table[i][1] = table[(i + 1) % n][1]
        elif kind == "no_rows":
            table = []
        raw = csv_bytes(("name", "index"), table, data, kind)
        with pytest.raises(OdcastError):
            load_catalog(io.BytesIO(raw))


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

    def test_event_on_a_rounded_boundary_is_kept(self):
        # (177.2 - 69.2) / 4.5 rounds down to 23.999..., but 69.2 + 24 * 4.5 == 177.2:
        # the event opens window 24, which must exist.
        batches = batch_by_window([ev(0, 1, 177.2)], 69.2, 4.5)
        assert len(batches) == 25 and len(batches[-1]) == 1
        assert batches[-1].window_start == 177.2
        assert all(type(b.window_start) is float and type(b.window_end) is float
                   for b in batches)


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
            assert concatenated(batches) == EventStream.of(events)

    @settings(max_examples=300, deadline=None)
    @given(t0=st.integers(0, 10_000), tau=st.integers(1, 5_000), count=st.integers(1, 5),
           cap=st.integers(1, 6), data=st.data())
    def test_batching_property(self, t0, tau, count, cap, data):
        # One-decimal t0 and tau: window edges are rounded values, and events sit
        # on them, on their float neighbours, and in between.
        t0, tau = t0 / 10.0, tau / 10.0
        stamps = [t for t in boundary_stamps(t0, tau, count) if t >= t0]
        stamp = st.one_of(st.sampled_from(stamps), st.floats(t0, t0 + count * tau))
        times = sorted(data.draw(st.lists(stamp, max_size=25)))
        node = st.integers(0, 2)
        stream = EventStream([data.draw(node) for _ in times],
                             [data.draw(node) for _ in times], times)
        until = data.draw(st.one_of(st.none(), st.sampled_from(stamps)))
        windows = batch_by_window(stream, t0, tau, until=until)
        capped = batch_by_cap(stream, t0, tau, cap, until=until)
        for batches in (windows, capped):
            if len(stream) or (until is not None and until > t0):
                assert concatenated(batches) == stream  # each event once, in order
                assert batches[0].window_start == t0
            for before, after in zip(batches, batches[1:]):
                assert before.window_end == after.window_start
            for b in batches:
                assert ((b.window_start <= b.events.times)
                        & (b.events.times <= b.window_end)).all()
        for k, b in enumerate(windows):
            assert (b.window_start, b.window_end) == (t0 + k * tau, t0 + (k + 1) * tau)
            assert (b.events.times < b.window_end).all()
        if windows:  # the fewest windows: the last one holds an event or reaches until
            assert len(windows[-1]) or (until is not None and windows[-1].window_start < until)
        if until is not None and windows:
            assert windows[-1].window_end >= until
        assert all(len(b) <= cap for b in capped)
        huge = max(len(stream), 1) + data.draw(st.integers(0, 3))
        assert batch_by_cap(stream, t0, tau, huge, until=until) == windows

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
        end = t0 + count * tau
        events = [ev(data.draw(node), data.draw(node), t)
                  for t in sorted(boundary_stamps(t0, tau, count)) if t0 <= t < end]
        series = od_matrix_series(events, t0, tau, count, n)
        batches = batch_by_window(events, t0, tau, until=end)
        for k in range(count):
            counts = np.zeros((n, n))
            np.add.at(counts, (batches[k].events.origins, batches[k].events.destinations), 1.0)
            assert np.array_equal(series[k], counts)


class TestEventBatchType:
    def test_rejects_events_outside_window(self):
        with pytest.raises(ValueError):
            EventBatch((ev(0, 1, 50.0),), 0.0, 30.0)
        with pytest.raises(ValueError):
            EventBatch((ev(0, 1, 5.0), ev(0, 1, 20.0)), 10.0, 30.0)

    def test_rows_are_stored_as_a_stream(self):
        batch = EventBatch((ev(0, 1, 5.0), ev(1, 1, 7.0)), 0.0, 30.0)
        assert batch.events == EventStream([0, 1], [1, 1], [5.0, 7.0])
        assert len(EventBatch((), 0.0, 30.0)) == 0

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            EventBatch((), 10.0, 5.0)


def test_default_t0_floors_to_tau_boundary():
    assert default_t0([ev(0, 1, 73.0)], 30.0) == 60.0
    assert default_t0([], 30.0) == 0.0
