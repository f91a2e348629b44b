"""Transaction stream ingestion, windowed batching, and OD matrix counting.

File formats owned by this module:

* event CSV: header line ``origin,destination,timestamp``; origin and
  destination are strings resolved through the :class:`NodeCatalog`;
  timestamp is a decimal number of seconds.  UTF-8, LF or CRLF.  Fields may
  be quoted as the ``csv`` module quotes them (names with commas, quotes or
  line breaks); blocks of rows up to the first quoted one are cut with
  ``str.split``, the rest is read by ``csv.reader``.
* catalog CSV: header line ``name,index``, one distinct name per node.  When
  no catalog file is given, node identifiers are taken to be the indices
  themselves.

In memory the stream is one :class:`EventStream` of three columns, checked
once when built; batches are index ranges into it.  :meth:`EventStream.of`
is the one conversion from :class:`TransactionEvent` rows.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import IoError, MalformedRow, NonMonotonicTimestamp, UnknownNode

EVENT_HEADER = ("origin", "destination", "timestamp")
CATALOG_HEADER = ("name", "index")


@dataclass(frozen=True, slots=True)
class TransactionEvent:
    """One timestamped origin->destination trip record.

    Self-loops (origin == destination) are legal and are counted on the
    diagonal of the OD matrix.
    """

    origin: int
    destination: int
    timestamp: float


@dataclass(frozen=True, eq=False)
class EventStream:
    """A time-ordered event stream as three read-only columns.

    ``origins`` and ``destinations`` are int64 node indices and ``times``
    float64 seconds, finite and non-decreasing.  Slicing by an index range
    gives a stream of views into the same columns.
    """

    origins: np.ndarray
    destinations: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        origins = np.array(self.origins, dtype=np.int64)
        destinations = np.array(self.destinations, dtype=np.int64)
        times = np.array(self.times, dtype=np.float64)
        if times.ndim != 1 or origins.shape != times.shape or destinations.shape != times.shape:
            raise ValueError("origins, destinations and times must be 1-D of one length")
        if not np.isfinite(times).all():
            raise ValueError("event times must be finite")
        drops = np.flatnonzero(times[1:] < times[:-1])
        if drops.size:
            first = int(drops[0]) + 1
            raise NonMonotonicTimestamp(None, float(times[first]), float(times[first - 1]),
                                        index=first)
        self._hold(origins, destinations, times)

    def _hold(self, *columns: np.ndarray) -> None:
        for name, column in zip(("origins", "destinations", "times"), columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def _unchecked(cls, *columns: np.ndarray) -> EventStream:
        """A stream that holds ``columns`` as they are: int64, int64 and float64, 1-D
        of one length, finite and in time order, as the caller has checked."""
        stream = object.__new__(cls)
        stream._hold(*columns)
        return stream

    @classmethod
    def of(cls, events: Events) -> EventStream:
        """``events`` as a stream: a stream passes through, rows are converted."""
        if isinstance(events, EventStream):
            return events
        return cls([ev.origin for ev in events], [ev.destination for ev in events],
                   [ev.timestamp for ev in events])

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, rows: slice) -> EventStream:
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError("an event stream is sliced by an index range")
        # A range of a valid stream needs no check.
        return EventStream._unchecked(self.origins[rows], self.destinations[rows], self.times[rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("origins", "destinations", "times"))


@dataclass(frozen=True)
class EventBatch:
    """A contiguous slice of the event stream with its time window.

    ``window_start`` is the previous update time and ``window_end`` the
    reference time used for decay weighting.  All event timestamps satisfy
    ``window_start <= t <= window_end``.  Zero-width batches
    (``window_start == window_end``) can only arise from cap splitting at
    tied timestamps.  Events given as rows are stored as a stream.
    """

    events: EventStream
    window_start: float
    window_end: float

    def __post_init__(self):
        object.__setattr__(self, "events", EventStream.of(self.events))
        if not (self.window_start <= self.window_end):
            raise ValueError(f"window_start {self.window_start} > window_end {self.window_end}")
        times = self.events.times  # sorted: the range check is on its ends
        if len(times) and not (self.window_start <= times[0] and times[-1] <= self.window_end):
            raise ValueError(f"events at t={float(times[0])!r}..{float(times[-1])!r} outside "
                             f"window [{self.window_start}, {self.window_end}]")

    def __len__(self) -> int:
        return len(self.events)


#: A stream, or rows for :meth:`EventStream.of`: what the stream readers accept.
Events = EventStream | Sequence[TransactionEvent]


@dataclass
class NodeCatalog:
    """Node count and optional external names.  A node's features are its
    one-hot indicator, so the catalog stores none."""

    n: int
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("catalog needs at least one node")
        if self.names is not None:
            self.names = tuple(self.names)
            if len(self.names) != self.n:
                raise ValueError("names must have one entry per node")
            self._index = {name: i for i, name in enumerate(self.names)}
            if len(self._index) != self.n:
                raise ValueError("node names must be distinct")
        else:
            self._index = None

    def resolve(self, identifier: str) -> int:
        """Map an external identifier to a node index."""
        if self._index is not None:
            try:
                return self._index[identifier]
            except KeyError:
                raise UnknownNode(f"unknown node name {identifier!r}") from None
        try:
            idx = int(identifier)
        except ValueError:
            raise UnknownNode(
                f"node identifier {identifier!r} is not an index and no names are loaded"
            ) from None
        if not 0 <= idx < self.n:
            raise UnknownNode(f"node index {idx} out of range 0..{self.n - 1}")
        return idx

    def name_of(self, index: int) -> str:
        return self.names[index] if self.names is not None else str(index)


_BLOCK_CHARS = 1 << 16  # characters of whole lines parsed at a time (about 64k)
_RUN_LINES = 256  # lines read at a time while a block fills
_ROW_SEPARATORS = np.frombuffer(b",,\n", np.uint8)  # the separators of one plain row


def _not_utf8(line: int, exc: UnicodeDecodeError) -> MalformedRow:
    # The decoder reads ahead in blocks, so the bad byte may sit on a later line.
    return MalformedRow(line, f"not UTF-8 text at or after this line ({exc.reason})")


@contextmanager
def _csv_text(source: str | Path | IO, header: tuple[str, ...]) -> Iterator[tuple[IO, int]]:
    """The text stream of a CSV path, text or binary stream, read past ``header``,
    and the number of lines the header took.

    A file opened here is closed on exit, error or not; a stream passed in stays
    open.  A wrong header, non-UTF-8 bytes and csv errors in it raise :class:`MalformedRow`.
    """
    is_path = isinstance(source, (str, Path))
    if is_path:
        try:
            stream = open(source, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise IoError(f"cannot read {source}: {exc}") from exc
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or (
        hasattr(source, "read") and isinstance(source.read(0), bytes)
    ):
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="")
    else:
        stream = source
    try:
        reader = csv.reader(stream, strict=True)  # a file cut inside a quoted field is an error
        try:
            first = next(reader, None)
        except UnicodeDecodeError as exc:
            raise _not_utf8(reader.line_num + 1, exc) from None
        except csv.Error as exc:
            raise MalformedRow(reader.line_num, str(exc)) from None
        if first is None or [h.strip().lower() for h in first] != list(header):
            raise MalformedRow(1, f"expected header {','.join(header)}, got {first}")
        yield stream, reader.line_num
    finally:
        if is_path:
            stream.close()
        elif stream is not source:
            stream.detach()  # hand the caller's binary stream back unclosed


def _plain_cells(lines: list[str]) -> list[str] | None:
    """The cells of ``lines``, three per line, cut with ``str.split``; None unless
    ``csv.reader`` would cut them the same way.

    That holds when the lines have no quote, no NUL (older csv modules reject
    it), no carriage return outside ``\\r\\n``, one line break each, at its end
    (the last line may have none), two commas each and no field over
    ``csv.field_size_limit()``.  Streams end lines after ``\\n`` or a lone
    ``\\r``; only one opened with ``newline="\\r"`` also ends them inside
    ``\\r\\n``, and then its first line ends in ``\\r``.
    """
    text = "".join(lines)
    if ('"' in text or "\0" in text
            or ("\r" in text and text.count("\r") != text.count("\r\n"))
            or not (len(lines) == 1 or lines[0].endswith("\n"))):
        return None
    if not text.endswith("\n"):
        text += "\n"
    codes = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    seps = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    # ",,\n" once per line: one line break per line, so each line ends at its own.
    # A field's UTF-8 length bounds its character count from above.
    if (seps.size != 3 * len(lines) or not (codes[seps].reshape(-1, 3) == _ROW_SEPARATORS).all()
            or np.diff(seps, prepend=-1).max() > csv.field_size_limit() + 1):
        return None
    return text[:-1].replace("\n", ",").split(",")  # a time cell may keep its \r


def _blocks(stream: IO) -> Iterator[list[str]]:
    """The lines of ``stream`` in blocks of about ``_BLOCK_CHARS`` characters.

    A decode error ends the blocks where the stream raised it: the lines read
    before it come as one more block, and then it is raised.  ``list.extend``
    keeps the lines it got before the error, so a line-at-a-time read would
    meet the error at the same line.
    """
    while True:
        lines: list[str] = []
        chars = 0
        try:
            while chars < _BLOCK_CHARS:
                start = len(lines)
                lines.extend(itertools.islice(stream, _RUN_LINES))
                if len(lines) == start:
                    break
                chars += sum(map(len, lines[start:]))
        except UnicodeDecodeError:
            if lines:
                yield lines
            raise
        if not lines:
            return
        yield lines


def _records(lines: Iterable[str], line: int) -> Iterator[list[str]]:
    """``csv.reader``'s records of ``lines``, which follow line ``line``; non-UTF-8
    bytes and csv errors raise :class:`MalformedRow` at their line."""
    reader = csv.reader(lines, strict=True)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise _not_utf8(line + reader.line_num + 1, exc) from None
    except csv.Error as exc:
        raise MalformedRow(line + reader.line_num, str(exc)) from None


class _Resolved(dict):
    """Node index by raw name cell, with one ``catalog.resolve`` per distinct cell."""

    def __init__(self, catalog: NodeCatalog):
        super().__init__()
        self.catalog = catalog

    def __missing__(self, cell: str) -> int:
        self[cell] = index = self.catalog.resolve(cell.strip())
        return index


def _columns(cells: list[str], resolved: _Resolved,
             last: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The columns of a plain block's ``cells`` (three per row) after events up to
    time ``last``; None when a row fails a check: an unknown node, a bad,
    non-finite or decreasing time."""
    rows = len(cells) // 3
    try:
        origins = np.fromiter(map(resolved.__getitem__, cells[0::3]), np.int64, rows)
        destinations = np.fromiter(map(resolved.__getitem__, cells[1::3]), np.int64, rows)
        times = np.fromiter(map(float, cells[2::3]), np.float64, rows)
    except (UnknownNode, ValueError):
        return None
    if (not np.isfinite(times).all() or (times.size and times[0] < last)
            or (times[1:] < times[:-1]).any()):
        return None
    return origins, destinations, times


def _walk(records: Iterable[list[str]], line: int, resolved: _Resolved,
          last: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check ``records``, numbered from ``line``, one row at a time after events up
    to time ``last``: the first bad row raises its error, with its line."""
    origins, destinations, times = [], [], []
    for line, row in enumerate(records, start=line):
        if not row:
            continue
        if len(row) != 3:
            raise MalformedRow(line, f"expected 3 fields, got {len(row)}")
        try:
            origins.append(resolved[row[0]])
            destinations.append(resolved[row[1]])
        except UnknownNode as exc:
            raise UnknownNode(f"line {line}: {exc}") from None
        try:
            timestamp = float(row[2])
        except ValueError:
            raise MalformedRow(line, f"bad timestamp {row[2]!r}") from None
        if not math.isfinite(timestamp):
            raise MalformedRow(line, f"non-finite timestamp {row[2]!r}")
        if timestamp < last:
            raise NonMonotonicTimestamp(line, timestamp, last)
        times.append(timestamp)
        last = timestamp
    return (np.array(origins, np.int64), np.array(destinations, np.int64),
            np.array(times, np.float64))


def parse_events(source: str | Path | IO, catalog: NodeCatalog) -> EventStream:
    """Parse an event CSV into a validated, time-ordered event stream.

    Events keep their file order.  Raises :class:`MalformedRow`,
    :class:`UnknownNode`, or :class:`NonMonotonicTimestamp` (all carrying
    the offending 1-based line number where applicable).

    The rows are read in blocks of whole lines, and each distinct name is
    resolved once.  A plain block (see :func:`_plain_cells`) is cut with one
    ``str.split`` and its columns are converted and checked as arrays.  The
    first block that is not plain, or that fails a check, and every line after
    it are read by one ``csv.reader`` and walked one row at a time, so errors
    name the same line and say the same as a row-by-row parse.
    """
    resolved = _Resolved(catalog)
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]  # typed if no rows
    last = -math.inf
    with _csv_text(source, EVENT_HEADER) as (stream, header_lines):
        line = header_lines  # lines read; rows are numbered by record from 2
        blocks = _blocks(stream)
        try:
            for lines in blocks:
                cells = _plain_cells(lines)
                part = None if cells is None else _columns(cells, resolved, last)
                if part is None:
                    rest = itertools.chain(lines, itertools.chain.from_iterable(blocks))
                    parts.append(_walk(_records(rest, line), line - header_lines + 2,
                                       resolved, last))
                    break
                parts.append(part)
                if len(part[2]):
                    last = float(part[2][-1])
                line += len(lines)
        except UnicodeDecodeError as exc:
            raise _not_utf8(line + 1, exc) from None
    # Each part is checked and starts no earlier than the one before it ends.
    return EventStream._unchecked(*(np.concatenate(column) for column in zip(*parts)))


def csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted where ``csv.writer`` would quote it.

    The writer quotes a line break only when its terminator contains it, so a
    CRLF terminator makes it quote a lone CR as well as LF."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow([text])
    return buffer.getvalue()[:-2]


def write_csv(path: str | Path, header: tuple[str, ...], rows: Iterable[str]) -> None:
    """Write the header, then stream the already formatted rows, each ending in LF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(rows)


def write_events_csv(events: Iterable[TransactionEvent], catalog: NodeCatalog,
                     path: str | Path) -> None:
    names = [csv_field(catalog.name_of(i)) for i in range(catalog.n)]
    write_csv(path, EVENT_HEADER, (f"{names[ev.origin]},{names[ev.destination]},"
                                   f"{ev.timestamp!r}\n" for ev in events))


def write_catalog_csv(catalog: NodeCatalog, path: str | Path) -> None:
    write_csv(path, CATALOG_HEADER, (f"{csv_field(catalog.name_of(i))},{i}\n"
                                     for i in range(catalog.n)))


def load_catalog(path: str | Path | None, n: int | None = None) -> NodeCatalog:
    """Load a ``name,index`` catalog file, or build an index-only catalog of size n."""
    if path is None:
        if n is None:
            raise ValueError("need either a catalog file or an explicit node count")
        return NodeCatalog(n=n)
    pairs: list[tuple[str, int]] = []
    seen: set[str] = set()
    with _csv_text(path, CATALOG_HEADER) as (stream, header_lines):
        for line, row in enumerate(_records(stream, header_lines), start=2):
            if not row:
                continue
            if len(row) != 2:
                raise MalformedRow(line, f"expected 2 fields, got {len(row)}")
            name = row[0].strip()
            if name in seen:
                raise MalformedRow(line, f"duplicate catalog name {name!r}")
            seen.add(name)
            try:
                pairs.append((name, int(row[1])))
            except ValueError:
                raise MalformedRow(line, f"bad index {row[1]!r}") from None
    count = len(pairs)
    if count == 0:
        raise MalformedRow(2, "catalog lists no nodes")
    names: list[str | None] = [None] * count
    for name, idx in pairs:
        if not 0 <= idx < count:
            raise MalformedRow(1, f"catalog indices must cover 0..{count - 1}, got {idx}")
        if names[idx] is not None:
            raise MalformedRow(1, f"duplicate catalog index {idx}")
        names[idx] = name
    return NodeCatalog(n=count, names=tuple(names))  # type: ignore[arg-type]


def default_t0(events: Events, tau: float) -> float:
    """First event timestamp floored to a tau boundary (0.0 for an empty stream)."""
    times = EventStream.of(events).times
    return math.floor(times[0] / tau) * tau if len(times) else 0.0


def batch_by_window(events: Events, t0: float, tau: float,
                    until: float | None = None) -> list[EventBatch]:
    """Partition events into fixed tau windows ``[t0 + k*tau, t0 + (k+1)*tau)``.

    Empty windows are emitted too (they still trigger memory decay).  With
    ``until`` given, enough trailing windows are produced to cover it.
    """
    stream = EventStream.of(events)
    times = stream.times
    if tau <= 0:
        raise ValueError("tau must be positive")
    if len(times) and times[0] < t0:
        raise ValueError(f"event at t={float(times[0])!r} precedes t0={t0!r}")
    # The window count is read off the edges the cut uses: the fewest windows
    # that hold the last event (an event on an edge opens that edge's window)
    # and reach ``until``.
    last = times[-1] if len(times) else -math.inf
    end = max(last, t0 if until is None else until)
    edges = t0 + np.arange(int((end - t0) // tau) + 3) * tau
    count = max(int(np.searchsorted(edges, last, side="right")),
                0 if until is None else int(np.searchsorted(edges, until, side="left")))
    cuts = np.searchsorted(times, edges[:count + 1], side="left").tolist()
    bounds = edges[:count + 1].tolist()  # Python floats: bounds are repr'd into CSVs
    return [EventBatch(stream[lo:hi], start, end)
            for lo, hi, start, end in zip(cuts, cuts[1:], bounds, bounds[1:])]


def batch_by_cap(events: Events, t0: float, tau: float, cap: int,
                 until: float | None = None) -> list[EventBatch]:
    """Partition into tau windows, splitting busy windows every ``cap`` events.

    Within a window, each sub-batch except the last ends at its final
    event's timestamp; the final sub-batch ends at the window boundary.
    Sub-batch windows chain, so memories advance by varied timespans.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    batches: list[EventBatch] = []
    for window in batch_by_window(events, t0, tau, until):
        inner = range(cap, len(window), cap)
        cuts = [0, *inner, len(window)]
        ends = window.events.times[[cut - 1 for cut in inner]].tolist()
        bounds = [window.window_start, *ends, window.window_end]
        batches.extend(EventBatch(window.events[lo:hi], start, end)
                       for lo, hi, start, end in zip(cuts, cuts[1:], bounds, bounds[1:]))
    return batches


def build_od_matrix(events: Events, t: float, tau: float, n: int) -> np.ndarray:
    """Count trips per ordered (origin, destination) pair within ``[t, t + tau)``."""
    return od_matrix_series(events, t, tau, 1, n)[0]


def od_matrix_series(events: Events, t0: float, tau: float, count: int, n: int) -> np.ndarray:
    """OD matrices for ``count`` consecutive windows starting at ``t0``, one pass.

    Returns a (count, n, n) array; events outside ``[t0, t0 + count*tau)``
    are ignored.  Window k is ``[t0 + k*tau, t0 + (k+1)*tau)`` with the
    boundaries computed exactly as :func:`batch_by_window` computes them.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if tau <= 0 or count < 1:
        raise ValueError("tau must be positive and count >= 1")
    stream = EventStream.of(events)
    bounds = t0 + np.arange(count + 1) * tau
    widx = np.searchsorted(bounds, stream.times, side="right") - 1
    keep = (widx >= 0) & (widx < count)
    flat = (widx[keep] * n + stream.origins[keep]) * n + stream.destinations[keep]
    counts = np.bincount(flat, minlength=count * n * n)
    return counts.reshape(count, n, n).astype(float)
