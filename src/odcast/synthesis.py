"""Seeded synthetic transaction streams with planted community structure.

Every ordered node pair is an independent inhomogeneous Poisson process whose
rate depends on the two nodes' communities, the day of week, and the time of
day: ``rate(i, j, t) = base_rate * multiplier(comm(i), comm(j), dow(t), tod(t))``.
Multipliers are piecewise-constant profiles (e.g. a morning-peak segment from
a residential community to a business community painted over a low cross
baseline, weekdays only).  Sampling is by thinning against the pair's peak
rate, with one derived RNG per pair, so streams are reproducible and pairs
are independent.

The default profile plants a weekly rhythm: busy weekdays with commute peaks
and quiet weekends.  Day 0 of the stream is a Thursday, so the default
14/2/2-day split trains across two full weekends and tests on one (a slot-of-
day average baseline blends weekday and weekend levels; a model that reads
the live stream does not have to).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .events import NodeCatalog, TransactionEvent

ALL_DAYS = (0, 1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class RateSegment:
    """One painted interval of a community-pair rate profile.

    ``days`` restricts the segment to day-of-week indices (stream day modulo
    7); None applies it every day.
    """

    origin_group: int
    dest_group: int
    start: float        # seconds into the day
    end: float
    multiplier: float
    days: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.start < self.end:
            raise ValueError(f"bad segment bounds [{self.start}, {self.end})")
        if self.multiplier < 0.0:
            raise ValueError("multipliers must be nonnegative")
        if self.days is not None:
            object.__setattr__(self, "days", tuple(self.days))
            if not all(0 <= d < 7 for d in self.days):
                raise ValueError("day-of-week indices must lie in 0..6")

    def applies(self, dow: int) -> bool:
        return self.days is None or dow in self.days


def _default_profile() -> tuple[RateSegment, ...]:
    """Residential (0), business (1), and leisure (2) communities with a weekly
    rhythm.  Day 0 of the stream is a Thursday, so weekends are dow {2, 3}.

    Regime changes shift the traffic MIX, not just its level: nights are
    residential-skewed, weekday daytime is business-led with directional
    commute peaks, weekends shut the business community down and route
    residential-leisure flows instead.
    """
    hour = 3600.0
    day = 86400.0
    weekdays = (0, 1, 4, 5, 6)
    weekend = (2, 3)
    segments = []

    def paint(gi, gj, start, end, mult, days):
        segments.append(RateSegment(gi, gj, start * hour, end * hour, mult, days))

    # Quiet nights, residential-heavy.
    for gi in range(3):
        for gj in range(3):
            base = 0.15 if gi == gj == 0 else (0.08 if gi == gj else 0.04)
            paint(gi, gj, 0.0, 5.0, base, weekdays)
            paint(gi, gj, 0.0, 7.0, base, weekend)
    # Weekday daytime: business-led.
    paint(0, 0, 5.0, 24.0, 1.00, weekdays)
    paint(1, 1, 5.0, 24.0, 1.60, weekdays)
    paint(2, 2, 5.0, 24.0, 0.80, weekdays)
    for gi in range(3):
        for gj in range(3):
            if gi != gj:
                paint(gi, gj, 5.0, 24.0, 0.35, weekdays)
    paint(0, 1, 6.5, 9.5, 2.20, weekdays)    # morning commute
    paint(1, 0, 16.5, 19.5, 2.20, weekdays)  # evening commute
    paint(1, 2, 17.0, 21.0, 0.90, weekdays)  # after-work leisure
    # Weekend daytime: business shut, leisure busy.
    paint(0, 0, 7.0, 24.0, 0.90, weekend)
    paint(1, 1, 7.0, 24.0, 0.25, weekend)
    paint(2, 2, 7.0, 24.0, 1.60, weekend)
    for gi in range(3):
        for gj in range(3):
            if gi != gj:
                paint(gi, gj, 7.0, 24.0, 0.12, weekend)
    paint(0, 2, 9.0, 22.0, 0.80, weekend)    # leisure trips out
    paint(2, 0, 12.0, 23.0, 0.80, weekend)   # and back home
    return tuple(segments)


@dataclass(frozen=True)
class SynthConfig:
    """Desk-scale default: 24 nodes in 3 communities over 18 days."""

    n: int = 24
    communities: int = 3
    day_length: float = 86400.0
    days: float = 18.0
    base_rate: float = 1.0 / 1800.0   # events/second per pair at multiplier 1
    profile: tuple[RateSegment, ...] = field(default_factory=_default_profile)
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or not 1 <= self.communities <= self.n:
            raise ValueError("need 1 <= communities <= n")
        if self.day_length <= 0 or self.days <= 0 or self.base_rate < 0:
            raise ValueError("day_length and days must be positive, base_rate >= 0")
        for seg in self.profile:
            if not (0 <= seg.origin_group < self.communities
                    and 0 <= seg.dest_group < self.communities):
                raise ValueError(f"segment groups out of range: {seg}")
            if seg.end > self.day_length:
                raise ValueError(f"segment extends past the day length: {seg}")

    @property
    def horizon(self) -> float:
        return self.days * self.day_length

    def community(self, node: int) -> int:
        """Balanced block partition of nodes into communities."""
        return node * self.communities // self.n


def _compile_profile(cfg: SynthConfig) -> dict[tuple[int, int, int],
                                               tuple[np.ndarray, np.ndarray]]:
    """Per (origin community, dest community, day of week): breakpoints and
    the multiplier on each interval.

    Segments are painted in order over a neutral multiplier of 1, so later
    segments override earlier ones where they overlap.
    """
    table = {}
    for gi in range(cfg.communities):
        for gj in range(cfg.communities):
            relevant = [s for s in cfg.profile
                        if s.origin_group == gi and s.dest_group == gj]
            for dow in range(7):
                active = [s for s in relevant if s.applies(dow)]
                points = {0.0, cfg.day_length}
                for seg in active:
                    points.update((seg.start, seg.end))
                breaks = np.array(sorted(points))
                mults = np.ones(len(breaks) - 1)
                for seg in active:
                    covered = (breaks[:-1] >= seg.start) & (breaks[:-1] < seg.end)
                    mults[covered] = seg.multiplier
                table[(gi, gj, dow)] = (breaks, mults)
    return table


def _integral_to(breaks: np.ndarray, mults: np.ndarray, x: float) -> float:
    """Integral of the step multiplier from time-of-day 0 to ``x``."""
    widths = np.minimum(breaks[1:], x) - np.minimum(breaks[:-1], x)
    return float((widths * mults).sum())


class RateFunction:
    """The exact generating rate, exposed for diagnostics and oracles."""

    def __init__(self, cfg: SynthConfig):
        self.cfg = cfg
        self.table = _compile_profile(cfg)

    def multiplier(self, gi: int, gj: int, dow: int, time_of_day):
        """The step multiplier at a time of day, or at each of an array of them."""
        breaks, mults = self.table[(gi, gj, dow)]
        k = np.searchsorted(breaks, time_of_day, side="right") - 1
        return mults[np.clip(k, 0, len(mults) - 1)]

    def __call__(self, origin: int, dest: int, t: float) -> float:
        return float(self.rates(np.array([origin]), np.array([dest]), np.array([t]))[0])

    def rates(self, origins: np.ndarray, dests: np.ndarray, times: np.ndarray) -> np.ndarray:
        """The rate of each (origin, destination, time) triple, as ``__call__`` gives it."""
        cfg = self.cfg
        day_index = np.floor(times / cfg.day_length)
        tod = times - day_index * cfg.day_length
        key = ((cfg.community(origins) * cfg.communities + cfg.community(dests)) * 7
               + day_index.astype(np.int64) % 7)
        out = np.empty(times.shape)
        for k in np.unique(key):
            sel = key == k
            groups, dow = divmod(int(k), 7)
            out[sel] = self.multiplier(*divmod(groups, cfg.communities), dow, tod[sel])
        return cfg.base_rate * out

    def peak(self, origin: int, dest: int) -> float:
        gi, gj = self.cfg.community(origin), self.cfg.community(dest)
        worst = max(float(self.table[(gi, gj, dow)][1].max()) for dow in range(7))
        return self.cfg.base_rate * worst

    def integral(self, origin: int, dest: int, t_start: float, t_end: float) -> float:
        """Expected event count for the pair over [t_start, t_end)."""
        cfg = self.cfg
        gi, gj = cfg.community(origin), cfg.community(dest)
        day = cfg.day_length
        total = 0.0
        t = t_start
        while t < t_end - 1e-12:
            day_index = int(math.floor(t / day))
            day_start = day_index * day
            chunk_end = min(t_end, day_start + day)
            breaks, mults = self.table[(gi, gj, day_index % 7)]
            total += (_integral_to(breaks, mults, chunk_end - day_start)
                      - _integral_to(breaks, mults, t - day_start))
            t = chunk_end
        return cfg.base_rate * total


def generate(cfg: SynthConfig) -> tuple[list[TransactionEvent], NodeCatalog, RateFunction]:
    """Draw one stream: events sorted by time, the catalog, and the true rates.

    Each pair is thinned against its own peak rate with an RNG derived from
    (seed, origin, destination); identical configs give identical streams.
    A gap is drawn as ``standard_exponential() * scale`` and a thinning draw as
    ``random()``: the very operations of ``exponential(scale)`` and
    ``uniform()``, bit for bit, without their argument handling.
    """
    rate = RateFunction(cfg)
    horizon = cfg.horizon
    # A pair's peak depends only on its communities: one call per community pair.
    member = {cfg.community(node): node for node in range(cfg.n)}
    peak_of = {(gi, gj): rate.peak(i, j) for gi, i in member.items() for gj, j in member.items()}
    rows = []  # per origin: (origin, destinations, times) of the kept events
    for i in range(cfg.n):
        group = cfg.community(i)
        dests: list[int] = []    # one entry per pair with a positive peak
        peaks: list[float] = []
        counts: list[int] = []   # that pair's candidates
        times = array("d")       # one entry per candidate
        draws = array("d")
        for j in range(cfg.n):
            peak = peak_of[group, cfg.community(j)]
            if peak <= 0.0:
                continue
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i, j)))
            scale = 1.0 / peak
            first = len(times)
            t = 0.0
            while True:
                t += rng.standard_exponential() * scale
                if t >= horizon:
                    break
                times.append(t)
                draws.append(rng.random())
            dests.append(j)
            peaks.append(peak)
            counts.append(len(times) - first)
        # Thin the row's candidates at once, with the same product and
        # comparison ``u * peak < rate(i, j, t)`` as a test per candidate.
        t = np.frombuffer(times)
        dest = np.repeat(np.array(dests, dtype=np.int64), counts)
        keep = (np.frombuffer(draws) * np.repeat(peaks, counts)
                < rate.rates(np.full(len(t), i), dest, t))
        rows.append((np.full(int(keep.sum()), i), dest[keep], t[keep]))
    origin, dest, t = (np.concatenate(column) for column in zip(*rows))
    order = np.lexsort((dest, origin, t))
    events = list(map(TransactionEvent, origin[order].tolist(), dest[order].tolist(),
                      t[order].tolist()))
    catalog = NodeCatalog(n=cfg.n, names=tuple(f"n{i:02d}" for i in range(cfg.n)))
    return events, catalog, rate


def true_window_mean(cfg: SynthConfig, pair: tuple[int, int],
                     window: tuple[float, float]) -> float:
    """Closed-form expected demand for a pair over a window (rate integral)."""
    t_start, t_end = window
    if not 0.0 <= t_start <= t_end <= cfg.horizon:
        raise ValueError(f"window {window} outside the horizon [0, {cfg.horizon}]")
    return RateFunction(cfg).integral(pair[0], pair[1], t_start, t_end)
