import csv
import gc
import io
import math
import string
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcast import events as events_module
from odcast.errors import MalformedRow, NonMonotonicTimestamp, OdcastError, UnknownNode
from odcast.events import (EVENT_HEADER, EventBatch, EventStream, NodeCatalog, TransactionEvent,
                           batch_by_cap, batch_by_window, build_od_matrix, default_t0,
                           load_catalog, od_matrix_series, parse_events, write_catalog_csv,
                           write_events_csv)
from odcast.memory import DecayConfig, aggregate_messages


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


def reference_parse(stream, catalog):
    """The row-at-a-time parse that block parsing replaced: ``csv.reader`` over the
    text stream and the per-row checks, one row at a time."""
    origins, destinations, times = [], [], []
    reader = csv.reader(stream, strict=True)
    try:
        first = next(reader, None)
        if first is None or [h.strip().lower() for h in first] != list(EVENT_HEADER):
            raise MalformedRow(1, f"expected header {','.join(EVENT_HEADER)}, got {first}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise MalformedRow(line, f"expected 3 fields, got {len(row)}")
            try:
                origins.append(catalog.resolve(row[0].strip()))
                destinations.append(catalog.resolve(row[1].strip()))
            except UnknownNode as exc:
                raise UnknownNode(f"line {line}: {exc}") from None
            try:
                timestamp = float(row[2])
            except ValueError:
                raise MalformedRow(line, f"bad timestamp {row[2]!r}") from None
            if not math.isfinite(timestamp):
                raise MalformedRow(line, f"non-finite timestamp {row[2]!r}")
            if times and timestamp < times[-1]:
                raise NonMonotonicTimestamp(line, timestamp, times[-1])
            times.append(timestamp)
    except UnicodeDecodeError as exc:
        raise MalformedRow(reader.line_num + 1,
                           f"not UTF-8 text at or after this line ({exc.reason})") from None
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None
    return EventStream(origins, destinations, times)


def outcome(parse, source, catalog):
    """The parsed columns' bytes, or the error's class, line and message."""
    try:
        stream = parse(source, catalog)
    except OdcastError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return tuple(getattr(stream, name).tobytes() for name in ("origins", "destinations", "times"))


def sources(text, kind, chunk=8192, bad=None):
    """The same text as the parser's and the reference's source.  Bytes are read
    as a path is, with ``newline=""``; a text stream (``str``, or a newline
    mode) is read as it is, with its own line ends, and decoded ``chunk`` bytes
    at a time.  ``bad``, a (fraction, bytes) pair, splices invalid UTF-8 into
    the bytes that far in."""
    raw = text.encode("utf-8")
    if bad is not None:
        at = int(bad[0] * len(raw))
        raw = raw[:at] + bad[1] + raw[at:]
    if kind == "bytes":
        return io.BytesIO(raw), io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    if kind == "str":
        return io.StringIO(text), io.StringIO(text)
    pair = tuple(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=kind)
                 for _ in range(2))
    for stream in pair:
        stream._CHUNK_SIZE = chunk
    return pair


def block_starts(text):
    """The line number of each block's first line, as the parser reads ``text``."""
    stream = io.StringIO(text, newline="")
    stream.readline()  # the header
    starts, line = [], 2
    for lines in events_module._blocks(stream):
        starts.append(line)
        line += len(lines)
    return starts


QUOTED_NAMES = ("a", "b,c", 'q"x', "s p\nq")


def reference_load_catalog(stream):
    """The row-at-a-time catalog load: ``csv.reader`` over the text stream and the
    per-row checks, one row at a time, then the index checks."""
    pairs = []
    reader = csv.reader(stream, strict=True)
    try:
        first = next(reader, None)
        if first is None or [h.strip().lower() for h in first] != ["name", "index"]:
            raise MalformedRow(1, f"expected header name,index, got {first}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise MalformedRow(line, f"expected 2 fields, got {len(row)}")
            name = row[0].strip()
            if name in dict(pairs):
                raise MalformedRow(line, f"duplicate catalog name {name!r}")
            try:
                pairs.append((name, int(row[1])))
            except ValueError:
                raise MalformedRow(line, f"bad index {row[1]!r}") from None
    except UnicodeDecodeError as exc:
        raise MalformedRow(reader.line_num + 1,
                           f"not UTF-8 text at or after this line ({exc.reason})") from None
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None
    if not pairs:
        raise MalformedRow(2, "catalog lists no nodes")
    names = [None] * len(pairs)
    for name, idx in pairs:
        if not 0 <= idx < len(pairs):
            raise MalformedRow(1, f"catalog indices must cover 0..{len(pairs) - 1}, got {idx}")
        if names[idx] is not None:
            raise MalformedRow(1, f"duplicate catalog index {idx}")
        names[idx] = name
    return NodeCatalog(n=len(pairs), names=tuple(names))


def catalog_outcome(load, source):
    """The loaded names, or the error's class, line and message."""
    try:
        return load(source).names
    except OdcastError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


@st.composite
def catalog_csv_texts(draw):
    """A catalog CSV text: rows of distinct names with their indices, in any order,
    a few of them corrupted.  Rows are written quoted or raw and end in LF, CRLF or
    bare CR, with an occasional blank or whitespace-only line.  Corruptions bring
    csv errors (stray quotes, NUL, an open quote at the end), extra or missing
    cells, bad, out-of-range and duplicate indices, and duplicate names."""
    names = draw(st.lists(st.sampled_from(NAMES + QUOTED_NAMES + (" up ",)), max_size=8,
                          unique=True))
    rows = draw(st.permutations([[name, str(i)] for i, name in enumerate(names)]))
    bad_index = st.sampled_from(["-1", "99", str(len(rows)), "1.0", " 1 ", "x", ""])
    junk = st.one_of(bad_index, st.sampled_from(['"a"', 'a"', '"']),
                     st.text(',"\r\n\0 ab1', max_size=4))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        change = draw(st.sampled_from(["index", "duplicate", "replace", "insert", "drop"]))
        if change == "index" and len(row) > 1:
            row[1] = draw(bad_index)
        elif change == "duplicate" and len(rows) > 1:  # another row's name or index
            other = rows[(i + draw(st.integers(1, len(rows) - 1))) % len(rows)]
            at = draw(st.integers(0, min(len(row), len(other)) - 1))
            row[at] = other[at]
        elif change == "insert":
            row.insert(draw(st.integers(0, len(row))), draw(junk))
        elif row:
            at = draw(st.integers(0, len(row) - 1))
            if change == "drop":
                del row[at]
            else:
                row[at] = draw(junk)
    header = draw(st.sampled_from(["name,index", '"name", index', "Name ,INDEX"] * 3 + ["name"]))
    ends = st.sampled_from(draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"],
                                                 ["\n", "\r\n", "\r"]])))
    out = [header, draw(ends)]
    for row in rows:
        if draw(st.sampled_from([True] * 3 + [False])):  # mostly quoted where needed, else raw
            quoted = io.StringIO()
            csv.writer(quoted, lineterminator="").writerow(row)
            out.append(quoted.getvalue())
        else:
            out.append(",".join(row))
        out.append(draw(ends))
        if draw(st.sampled_from([False] * 9 + [True])):
            out.append(draw(st.sampled_from(["\n", "\r\n", "  \n"])))
    text = "".join(out)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@st.composite
def event_csv_texts(draw):
    """An event CSV text and its catalog: valid rows, a few of them corrupted.
    Names have commas, quotes and spaces; rows are written quoted or raw and
    end in LF, CRLF or bare CR; blank and whitespace-only lines come between
    them.  Corruptions bring NUL, long fields, unknown names, extra or missing
    cells, and bad, non-finite and decreasing times."""
    catalog = NodeCatalog(n=4, names=QUOTED_NAMES if draw(st.booleans()) else None)
    known = st.sampled_from([catalog.name_of(i) for i in range(4)])
    pad = st.text(" ", max_size=12)
    name = st.one_of(known, st.tuples(pad, known, pad).map("".join))
    rows = draw(st.lists(st.tuples(name, name, st.floats(0, 1e6).map(repr)).map(list),
                         max_size=30))
    if draw(st.sampled_from([True] * 4 + [False])):  # mostly in order, so later rows are reached
        for row, stamp in zip(rows, sorted(float(row[2]) for row in rows)):
            row[2] = repr(stamp)
    bad_time = st.sampled_from(["frog", "", "nan", "inf", "-Infinity", "1e999", " 5 ", "1" * 20,
                                "1_0", "0x1", "0.5", "-1"])
    junk = st.one_of(st.sampled_from(["zz", "", "9", "-1", '"a"', 'a"']), bad_time,
                     st.text(',"\r\n\0 ab1.', max_size=6))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        at = draw(st.integers(0, len(row)))
        change = draw(st.sampled_from(["time", "replace", "insert", "drop"]))
        if change == "time" and row:
            row[-1] = draw(bad_time)
        elif change == "insert":
            row.insert(at, draw(junk))
        elif row:
            at = min(at, len(row) - 1)
            if change == "drop":
                del row[at]
            else:
                row[at] = draw(junk)
    header = draw(st.sampled_from(["origin,destination,timestamp",
                                   '"origin",destination,timestamp',
                                   "Origin , destination,TIMESTAMP"]))
    if draw(st.sampled_from([False] * 15 + [True])):
        header = "origin,destination"
    out = [header, draw(st.sampled_from(["\n", "\r\n", "\r"]))]
    for row in rows:
        if draw(st.sampled_from([True] * 3 + [False])):  # mostly quoted where needed, else raw
            quoted = io.StringIO()
            csv.writer(quoted, lineterminator="").writerow(row)
            out.append(quoted.getvalue())
        else:
            out.append(",".join(row))
        out.append(draw(st.sampled_from(["\n"] * 6 + ["\r\n"] * 3 + ["\r"])))
        if draw(st.sampled_from([False] * 19 + [True])):
            out.append(draw(st.sampled_from(["\n", "\n", "\r\n", "  \n", "\t\n"])))
    text = "".join(out)
    return (text.rstrip("\r\n") if draw(st.booleans()) else text), catalog


class TestBlockParsing:
    @settings(max_examples=400, deadline=None)
    @given(case=event_csv_texts(), kind=st.sampled_from(["bytes", "str", None, "\n", "\r", "\r\n"]),
           block=st.sampled_from([1, 7, 40, 1 << 16]), run=st.sampled_from([1, 2, 256]),
           limit=st.sampled_from([None, None, 20]), chunk=st.sampled_from([1, 5, 8192]),
           bad=st.one_of(st.none(), st.tuples(st.floats(0, 1), st.sampled_from(BAD_UTF8))))
    def test_matches_the_row_at_a_time_parse(self, case, kind, block, run, limit, chunk, bad):
        # Small blocks put block edges everywhere; a small field limit makes long fields;
        # small decode chunks let invalid UTF-8 stop the read at its own line.
        text, catalog = case
        previous = csv.field_size_limit()
        try:
            if limit is not None:
                csv.field_size_limit(limit)
            source, reference_source = sources(text, kind, chunk, bad)
            with mock.patch.multiple(events_module, _BLOCK_CHARS=block, _RUN_LINES=run):
                got = outcome(parse_events, source, catalog)
            expected = outcome(reference_parse, reference_source, catalog)
        finally:
            csv.field_size_limit(previous)
        assert got == expected

    @staticmethod
    def multi_block_text(rows):
        """An event CSV of ``rows`` rows over NAMES, fixed width, at least 4 blocks."""
        body = "".join(f"{NAMES[k % 4]:>5},{NAMES[(k * 7) % 4]:>5},{k:012d}.5\n"
                       for k in range(rows))
        text = "origin,destination,timestamp\n" + body
        assert len(block_starts(text)) > 3
        return text

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "second-row-quoted"])
    def test_doubling_the_file_at_most_doubles_the_parse_work(self, monkeypatch, quoted):
        # Deterministic work counts, not timings: the rows handed to the block reader
        # and to the row walk, wrapped under the names parse_events calls.  Small
        # blocks give each file many of them.
        monkeypatch.setattr(events_module, "_BLOCK_CHARS", 2048)
        columns, walk = events_module._columns, events_module._walk
        work = {}

        def counted_columns(cells, *args):
            work["columns"] += len(cells) // 3
            return columns(cells, *args)

        def counted_walk(records, *args):
            def rows():
                for row in records:
                    work["walked"] += 1
                    yield row
            return walk(rows(), *args)

        monkeypatch.setattr(events_module, "_columns", counted_columns)
        monkeypatch.setattr(events_module, "_walk", counted_walk)

        def parse(rows):
            # Names repeat every 4 rows, so with 3000 rows the doubled file is the
            # stream followed by a copy shifted by its span.
            body = [f"{NAMES[k % 4]},{NAMES[k * 7 % 4]},{k}.5\n" for k in range(rows)]
            if quoted:
                body[1] = '"' + body[1].replace(",", '",', 1)
            work.update(columns=0, walked=0)
            stream = parse_events(io.StringIO("origin,destination,timestamp\n" + "".join(body)),
                                  NodeCatalog(n=4, names=NAMES))
            assert len(stream) == rows
            return work["columns"], work["walked"]

        rows = 3000
        single, doubled = parse(rows), parse(2 * rows)
        assert single == ((0, rows) if quoted else (rows, 0))
        # Give or take one block: a block that fails its checks is also walked.
        block_rows = events_module._BLOCK_CHARS // len("west,east,0.5\n") + events_module._RUN_LINES
        for count, doubled_count in zip(single, doubled):
            assert doubled_count <= 2 * count + block_rows

    def test_decreasing_time_on_a_block_edge(self):
        text = self.multi_block_text(12_000)
        line = block_starts(text)[1]
        lines = text.split("\n")
        lines[line - 1] = lines[line - 1][:12] + f"{0:012d}.5"
        text = "\n".join(lines)
        assert block_starts(text)[1] == line
        catalog = NodeCatalog(n=4, names=NAMES)
        with pytest.raises(NonMonotonicTimestamp) as err:
            parse_events(io.StringIO(text), catalog)
        assert err.value.line == line
        assert outcome(parse_events, io.StringIO(text), catalog) == \
            outcome(reference_parse, io.StringIO(text), catalog)

    def test_unknown_name_in_the_third_block(self):
        text = self.multi_block_text(12_000)
        starts = block_starts(text)
        line = (starts[2] + starts[3]) // 2
        lines = text.split("\n")
        lines[line - 1] = "nowhr" + lines[line - 1][5:]
        text = "\n".join(lines)
        assert starts[2] <= line < block_starts(text)[3]
        catalog = NodeCatalog(n=4, names=NAMES)
        with pytest.raises(UnknownNode, match=f"^line {line}: unknown node name 'nowhr'$"):
            parse_events(io.StringIO(text), catalog)
        assert outcome(parse_events, io.StringIO(text), catalog) == \
            outcome(reference_parse, io.StringIO(text), catalog)

    def test_a_line_ended_by_a_bare_cr_is_not_split_again(self):
        # A newline="\r" stream ends lines at \r: csv.reader then sees "\nA,B,2" as a
        # line with a line break before its first field.
        text = "origin,destination,timestamp\rA,B,1\r\nA,B,2"
        got, expected = (outcome(parse, io.TextIOWrapper(io.BytesIO(text.encode()), newline="\r"),
                                 make_catalog_ab())
                         for parse in (parse_events, reference_parse))
        assert got == expected and expected[:2] == (MalformedRow, 3)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("width", [15, 16, 17])
    def test_fields_at_the_csv_field_limit(self, width, end):
        text = f"origin,destination,timestamp\nA,B,1{end}{'A':>{width}},B,2{end}B,A,3{end}"
        previous = csv.field_size_limit(16)
        try:
            got, expected = (outcome(parse, io.StringIO(text), make_catalog_ab())
                             for parse in (parse_events, reference_parse))
        finally:
            csv.field_size_limit(previous)
        assert got == expected
        assert (expected[0] is MalformedRow) == (width > 16)

    @staticmethod
    def with_bad_byte(text, line):
        """``text`` as UTF-8 with a 0xff byte at the start of line ``line``."""
        lines = text.encode("utf-8").split(b"\n")
        lines[line - 1] = b"\xff" + lines[line - 1]
        return b"\n".join(lines)

    def test_bad_byte_in_a_later_block(self, tmp_path):
        text = self.multi_block_text(12_000)
        line = (block_starts(text)[2] + block_starts(text)[3]) // 2
        raw = self.with_bad_byte(text, line)
        catalog = NodeCatalog(n=4, names=NAMES)
        # Decoded one byte at a time, the read stops on the bad byte's own line.
        got = []
        for parse in (parse_events, reference_parse):
            stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
            stream._CHUNK_SIZE = 1
            got.append(outcome(parse, stream, catalog))
        assert got[0] == got[1] == (
            MalformedRow, line, f"line {line}: not UTF-8 text at or after this line "
                                "(invalid start byte)")
        # Decoded in the default chunks, it stops a chunk early, where the
        # row-at-a-time parse stops.
        path = tmp_path / "events.csv"
        path.write_bytes(raw)
        with open(path, encoding="utf-8", newline="") as stream:
            expected = outcome(reference_parse, stream, catalog)
        assert outcome(parse_events, path, catalog) == expected
        assert expected[0] is MalformedRow and line - 8192 // 27 - 1 <= expected[1] <= line

    def test_a_row_error_before_a_bad_byte_comes_first(self):
        # The bad row is two decode chunks before the bad byte, in the same block.
        text = self.multi_block_text(12_000)
        starts = block_starts(text)
        line = starts[2] + 1500
        assert starts[2] <= line - 700 and line < starts[3]
        lines = text.split("\n")
        lines[line - 701] = "nowhr" + lines[line - 701][5:]
        raw = self.with_bad_byte("\n".join(lines), line)
        catalog = NodeCatalog(n=4, names=NAMES)
        got = outcome(parse_events, io.BytesIO(raw), catalog)
        assert got == outcome(reference_parse,
                              io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""),
                              catalog)
        assert got == (UnknownNode, None, f"line {line - 700}: unknown node name 'nowhr'")

    @pytest.mark.parametrize("block", [1, 1 << 16], ids=["line-blocks", "one-block"])
    def test_bad_byte_inside_a_quoted_line_break(self, block):
        # csv.reader meets the bad byte while it follows the record on line 3 past
        # the block's lines: into the stream, or into the decode error that ended them.
        raw = b'origin,destination,timestamp\na,"b,c",1\n"s p\n\xffq",a,2\na,a,3\n'
        catalog = NodeCatalog(n=4, names=QUOTED_NAMES)
        got = []
        for parse in (parse_events, reference_parse):
            stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
            stream._CHUNK_SIZE = 1
            with mock.patch.multiple(events_module, _BLOCK_CHARS=block, _RUN_LINES=1):
                got.append(outcome(parse, stream, catalog))
        assert got[0] == got[1] == (
            MalformedRow, 4, "line 4: not UTF-8 text at or after this line (invalid start byte)")

    def test_quoted_rows_across_blocks(self, tmp_path):
        # Every fourth name holds a line break, so rows are records, not lines.
        catalog = NodeCatalog(n=4, names=QUOTED_NAMES)
        rows = [ev(k % 4, (k * 3) % 4, k / 4) for k in range(12_000)]
        path = tmp_path / "events.csv"
        write_events_csv(rows, catalog, path)
        assert len(block_starts(path.read_text(encoding="utf-8"))) > 3
        assert parse_events(path, catalog) == EventStream.of(rows)
        rows[11_000] = ev(0, 1, 0.5)
        write_events_csv(rows, catalog, path)
        with pytest.raises(NonMonotonicTimestamp) as err:
            parse_events(path, catalog)
        assert err.value.line == 11_002

    @pytest.mark.parametrize("names", [NAMES, QUOTED_NAMES], ids=["plain", "quoted"])
    def test_resolve_runs_once_per_distinct_name(self, tmp_path, names):
        catalog = NodeCatalog(n=4, names=names)
        rows = [ev(k % 4, (k // 4) % 4, float(k)) for k in range(10_000)]
        path = tmp_path / "events.csv"
        write_events_csv(rows, catalog, path)
        calls = []
        resolve = catalog.resolve
        catalog.resolve = lambda name: calls.append(name) or resolve(name)
        assert parse_events(path, catalog) == EventStream.of(rows)
        assert sorted(calls) == sorted(names)


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

    def test_names_with_a_lone_cr_round_trip(self, tmp_path):
        catalog = NodeCatalog(n=2, names=("a\rb", "c"))
        rows = [ev(0, 1, 1.5), ev(1, 0, 2.0)]
        write_catalog_csv(catalog, tmp_path / "catalog.csv")
        write_events_csv(rows, catalog, tmp_path / "events.csv")
        loaded = load_catalog(tmp_path / "catalog.csv")
        assert loaded.names == catalog.names
        assert parse_events(tmp_path / "events.csv", loaded) == EventStream.of(rows)

    @settings(max_examples=100, deadline=None)
    @given(names=st.lists(st.text(st.characters(blacklist_characters="\r",
                                                blacklist_categories=("Cs",)),
                                  min_size=1, max_size=6), min_size=1, max_size=6, unique=True),
           data=st.data())
    def test_names_without_cr_keep_the_csv_writer_bytes(self, names, data):
        catalog = NodeCatalog(n=len(names), names=names)
        node = st.integers(0, len(names) - 1)
        times = sorted(data.draw(st.lists(st.floats(0.0, 1e9), max_size=20)))
        rows = [ev(data.draw(node), data.draw(node), t) for t in times]
        expected = {}
        for kind, header, table in (
                ("events", EVENT_HEADER, [[names[e.origin], names[e.destination],
                                           repr(e.timestamp)] for e in rows]),
                ("catalog", ("name", "index"), [[name, i] for i, name in enumerate(names)])):
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(table)
            expected[kind] = buffer.getvalue().encode("utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            write_events_csv(rows, catalog, Path(tmp) / "events.csv")
            write_catalog_csv(catalog, Path(tmp) / "catalog.csv")
            for kind in expected:
                assert (Path(tmp) / f"{kind}.csv").read_bytes() == expected[kind]

    def test_features_default_one_hot(self):
        # Each endpoint's message carries the other endpoint's indicator row.
        batch = EventBatch(EventStream([0], [2], [5.0]), 0.0, 5.0)
        msgs = aggregate_messages(batch, np.zeros((3, 1)), NodeCatalog(n=3), DecayConfig(dim=1),
                                  include_role=False)
        assert np.array_equal(msgs.p[:, 1:], [[0, 0, 1], [0, 0, 0], [1, 0, 0]])

    def test_duplicate_catalog_name_is_malformed_at_its_second_line(self):
        with pytest.raises(MalformedRow, match="^line 4: duplicate catalog name 'A'$"):
            load_catalog(io.StringIO("name,index\nA,0\nB,1\n A ,2\n"))

    def test_repeated_names_are_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            NodeCatalog(n=3, names=("A", "B", "A"))

    def test_catalog_without_rows_is_malformed(self):
        with pytest.raises(MalformedRow):
            load_catalog(io.StringIO("name,index\n"))

    @settings(max_examples=100, deadline=None)
    @given(names=st.one_of(
               st.none(),
               st.lists(st.text(string.ascii_letters + string.digits + ' ,"_-é\r\n', min_size=1,
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

    @settings(max_examples=300, deadline=None)
    @given(text=catalog_csv_texts(), kind=st.sampled_from(["bytes", "str", None, "\n", "\r"]),
           chunk=st.sampled_from([1, 5, 8192]),
           bad=st.sampled_from([None] * 3 * len(BAD_UTF8) + list(BAD_UTF8)), at=st.floats(0, 1))
    def test_corrupt_catalog_matches_the_row_at_a_time_load(self, text, kind, chunk, bad, at):
        source, reference_source = sources(text, kind, chunk, bad and (at, bad))
        assert catalog_outcome(load_catalog, source) == \
            catalog_outcome(reference_load_catalog, reference_source)


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
