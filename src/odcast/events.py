"""Transaction stream ingestion, windowed batching, and OD matrix counting.

File formats owned by this module:

* event CSV: header line ``origin,destination,timestamp``; origin and
  destination are strings resolved through the :class:`NodeCatalog`;
  timestamp is a decimal number of seconds.  UTF-8, LF or CRLF.
* catalog CSV: header line ``name,index``.  When no catalog file is given,
  node identifiers are taken to be the indices themselves.
* packed events: :func:`pack_events` is the one conversion of an event
  sequence into ``(origins, destinations, timestamps)`` arrays.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import IoError, MalformedRow, NonMonotonicTimestamp, UnknownNode

EVENT_HEADER = ("origin", "destination", "timestamp")
CATALOG_HEADER = ("name", "index")


@dataclass(frozen=True)
class TransactionEvent:
    """One timestamped origin->destination trip record.

    Self-loops (origin == destination) are legal and are counted on the
    diagonal of the OD matrix.
    """

    origin: int
    destination: int
    timestamp: float


@dataclass(frozen=True)
class EventBatch:
    """A contiguous slice of the event stream with its time window.

    ``window_start`` is the previous update time and ``window_end`` the
    reference time used for decay weighting.  All event timestamps satisfy
    ``window_start <= t <= window_end``.  Zero-width batches
    (``window_start == window_end``) can only arise from cap splitting at
    tied timestamps.
    """

    events: tuple[TransactionEvent, ...]
    window_start: float
    window_end: float

    def __post_init__(self):
        if not (self.window_start <= self.window_end):
            raise ValueError(
                f"window_start {self.window_start} > window_end {self.window_end}"
            )
        for ev in self.events:
            if not (self.window_start <= ev.timestamp <= self.window_end):
                raise ValueError(
                    f"event at t={ev.timestamp} outside window "
                    f"[{self.window_start}, {self.window_end}]"
                )

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class NodeCatalog:
    """Node count, optional external names, and per-node feature rows.

    Features default to the N x N identity (one-hot encoding).
    """

    n: int
    names: tuple[str, ...] | None = None
    features: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("catalog needs at least one node")
        if self.features is None:
            self.features = np.eye(self.n)
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2 or self.features.shape[0] != self.n:
            raise ValueError(
                f"features must have exactly {self.n} rows, got {self.features.shape}"
            )
        if self.features.shape[1] < 1:
            raise ValueError("feature dimension must be >= 1")
        if self.names is not None:
            self.names = tuple(self.names)
            if len(self.names) != self.n:
                raise ValueError("names must have one entry per node")
            self._index = {name: i for i, name in enumerate(self.names)}
        else:
            self._index = None

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

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


@contextmanager
def _csv_reader(source: str | Path | IO) -> Iterator:
    """A csv reader over a path, a text stream or a binary stream.

    A file opened here is closed on exit, error or not; a stream passed in
    stays open.  Bytes that are not UTF-8 raise :class:`MalformedRow`.
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
    reader = csv.reader(stream)
    try:
        yield reader
    except UnicodeDecodeError as exc:
        # The decoder reads ahead in blocks, so the bad byte may sit on a later line.
        raise MalformedRow(reader.line_num + 1,
                           f"not UTF-8 text at or after this line ({exc.reason})") from None
    finally:
        if is_path:
            stream.close()
        elif stream is not source:
            stream.detach()  # hand the caller's binary stream back unclosed


def parse_events(source: str | Path | IO, catalog: NodeCatalog) -> list[TransactionEvent]:
    """Parse an event CSV into a validated, time-ordered event list.

    Events are returned in file order.  Raises :class:`MalformedRow`,
    :class:`UnknownNode`, or :class:`NonMonotonicTimestamp` (all carrying
    the offending 1-based line number where applicable).
    """
    with _csv_reader(source) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(1, "missing header line") from None
        if [h.strip().lower() for h in header] != list(EVENT_HEADER):
            raise MalformedRow(1, f"expected header {','.join(EVENT_HEADER)}, got {header}")

        events: list[TransactionEvent] = []
        previous = -math.inf
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise MalformedRow(line, f"expected 3 fields, got {len(row)}")
            origin = catalog.resolve(row[0].strip())
            destination = catalog.resolve(row[1].strip())
            try:
                timestamp = float(row[2])
            except ValueError:
                raise MalformedRow(line, f"bad timestamp {row[2]!r}") from None
            if not math.isfinite(timestamp):
                raise MalformedRow(line, f"non-finite timestamp {row[2]!r}")
            if timestamp < previous:
                raise NonMonotonicTimestamp(line, timestamp, previous)
            previous = timestamp
            events.append(TransactionEvent(origin, destination, timestamp))
        return events


def write_events_csv(events: Iterable[TransactionEvent], catalog: NodeCatalog,
                     path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVENT_HEADER)
        for ev in events:
            writer.writerow([catalog.name_of(ev.origin), catalog.name_of(ev.destination),
                             repr(ev.timestamp)])


def write_catalog_csv(catalog: NodeCatalog, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CATALOG_HEADER)
        for i in range(catalog.n):
            writer.writerow([catalog.name_of(i), i])


def load_catalog(path: str | Path | None, n: int | None = None) -> NodeCatalog:
    """Load a ``name,index`` catalog file, or build an index-only catalog of size n."""
    if path is None:
        if n is None:
            raise ValueError("need either a catalog file or an explicit node count")
        return NodeCatalog(n=n)
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != list(CATALOG_HEADER):
            raise MalformedRow(1, f"expected header {','.join(CATALOG_HEADER)}")
        pairs: list[tuple[str, int]] = []
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise MalformedRow(line, f"expected 2 fields, got {len(row)}")
            try:
                pairs.append((row[0].strip(), int(row[1])))
            except ValueError:
                raise MalformedRow(line, f"bad index {row[1]!r}") from None
    count = len(pairs)
    names: list[str | None] = [None] * count
    for name, idx in pairs:
        if not 0 <= idx < count:
            raise MalformedRow(1, f"catalog indices must cover 0..{count - 1}, got {idx}")
        if names[idx] is not None:
            raise MalformedRow(1, f"duplicate catalog index {idx}")
        names[idx] = name
    return NodeCatalog(n=count, names=tuple(names))  # type: ignore[arg-type]


def pack_events(events: Sequence[TransactionEvent]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Event sequence as (origins, destinations, timestamps) arrays."""
    count = len(events)
    origins = np.fromiter((ev.origin for ev in events), dtype=np.int64, count=count)
    dests = np.fromiter((ev.destination for ev in events), dtype=np.int64, count=count)
    times = np.fromiter((ev.timestamp for ev in events), dtype=float, count=count)
    return origins, dests, times


def default_t0(events: Sequence[TransactionEvent], tau: float) -> float:
    """First event timestamp floored to a tau boundary (0.0 for an empty stream)."""
    if not events:
        return 0.0
    return math.floor(events[0].timestamp / tau) * tau


def _check_batching_args(events: Sequence[TransactionEvent], t0: float, tau: float):
    if tau <= 0:
        raise ValueError("tau must be positive")
    previous = -math.inf
    for ev in events:
        if ev.timestamp < previous:
            raise NonMonotonicTimestamp(0, ev.timestamp, previous)
        previous = ev.timestamp
    if events and events[0].timestamp < t0:
        raise ValueError(f"event at t={events[0].timestamp} precedes t0={t0}")


def _window_count(events: Sequence[TransactionEvent], t0: float, tau: float,
                  until: float | None) -> int:
    k = 0
    if events:
        # An event exactly on a boundary belongs to the next window.
        k = int(math.floor((events[-1].timestamp - t0) / tau)) + 1
    if until is not None and until > t0:
        k = max(k, int(math.ceil((until - t0) / tau)))
    return k


def batch_by_window(events: Sequence[TransactionEvent], t0: float, tau: float,
                    until: float | None = None) -> list[EventBatch]:
    """Partition events into fixed tau windows ``[t0 + k*tau, t0 + (k+1)*tau)``.

    Empty windows are emitted too (they still trigger memory decay).  With
    ``until`` given, enough trailing windows are produced to cover it.
    """
    _check_batching_args(events, t0, tau)
    count = _window_count(events, t0, tau, until)
    batches: list[EventBatch] = []
    pos = 0
    for k in range(count):
        lo, hi = t0 + k * tau, t0 + (k + 1) * tau
        start = pos
        while pos < len(events) and events[pos].timestamp < hi:
            pos += 1
        batches.append(EventBatch(tuple(events[start:pos]), lo, hi))
    if pos != len(events):
        raise ValueError("events extend past the final window; widen `until`")
    return batches


def batch_by_cap(events: Sequence[TransactionEvent], t0: float, tau: float, cap: int,
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
        evs = window.events
        if len(evs) <= cap:
            batches.append(window)
            continue
        start_t = window.window_start
        pos = 0
        while pos < len(evs):
            chunk = evs[pos:pos + cap]
            pos += len(chunk)
            end_t = window.window_end if pos >= len(evs) else chunk[-1].timestamp
            batches.append(EventBatch(chunk, start_t, end_t))
            start_t = end_t
    return batches


def build_od_matrix(events: Iterable[TransactionEvent], t: float, tau: float,
                    n: int) -> np.ndarray:
    """Count trips per ordered (origin, destination) pair within ``[t, t + tau)``."""
    return od_matrix_series(events, t, tau, 1, n)[0]


def od_matrix_series(events: Iterable[TransactionEvent], t0: float, tau: float,
                     count: int, n: int) -> np.ndarray:
    """OD matrices for ``count`` consecutive windows starting at ``t0``, one pass.

    Returns a (count, n, n) array; events outside ``[t0, t0 + count*tau)``
    are ignored.  Window k is ``[t0 + k*tau, t0 + (k+1)*tau)`` with the
    boundaries computed exactly as :func:`batch_by_window` computes them.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if tau <= 0 or count < 1:
        raise ValueError("tau must be positive and count >= 1")
    origins, dests, times = pack_events(list(events))
    bounds = t0 + np.arange(count + 1) * tau
    widx = np.searchsorted(bounds, times, side="right") - 1
    keep = (widx >= 0) & (widx < count)
    flat = (widx[keep] * n + origins[keep]) * n + dests[keep]
    counts = np.bincount(flat, minlength=count * n * n)
    return counts.reshape(count, n, n).astype(float)
