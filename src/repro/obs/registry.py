"""Metric primitives: counters, gauges, bounded histograms, registry.

Everything here is plain Python (stdlib only) and JSON-friendly. A
:class:`MetricsRegistry` owns named instruments created on first use;
:meth:`MetricsRegistry.snapshot` renders the whole registry as one
JSON-serializable dict, and :meth:`MetricsRegistry.merge_snapshots`
combines snapshots from independent processes (the supervisor's fleet
rollup): counters and amount gauges sum, level gauges
(:data:`LEVEL_GAUGES`) take the largest reading, histograms pool their
streaming aggregates exactly and their reservoirs approximately.

Histograms are **bounded**: they keep exact streaming ``count``, ``sum``,
``min``, and ``max``, plus a fixed-capacity uniform reservoir (Vitter's
Algorithm R with a private seeded generator) for percentiles — memory is
O(capacity) no matter how many values are recorded, and percentiles are
exact until the stream outgrows the reservoir. The private generator
means recording metrics never perturbs any model RNG stream. Each
histogram keeps its reservoir sorted as it records, so reading
percentiles (every health snapshot does) costs no sort.
"""

from __future__ import annotations

import bisect
import math
import random
import threading
from typing import Iterable, Sequence

#: Snapshot sections, in render order.
_SECTIONS = ("counters", "gauges", "histograms")

#: Gauges that every process reports about one shared fleet state, so a
#: fleet rollup takes the largest reading instead of the sum: two workers
#: at epoch 1 are a fleet at epoch 1, not 2. Every other gauge is an
#: amount (entries, bytes) and sums.
LEVEL_GAUGES = frozenset({
    "epoch",
    "recovery.epoch",
    "snapshot.epoch",
    "shm.shard.manifest",
})


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValueError(f"counters only go up; got increment {n!r}")
        self.value += int(n)


class Gauge:
    """A point-in-time float (queue depth, pool size, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)


class Histogram:
    """Bounded distribution sketch: exact aggregates + uniform reservoir.

    Parameters
    ----------
    capacity:
        Reservoir bound. Memory is O(capacity) regardless of how many
        values are recorded; percentiles are exact while
        ``count <= capacity`` and unbiased estimates afterwards.
    seed:
        Seed of the private ``random.Random`` driving reservoir
        replacement — deterministic, and isolated from every model RNG.

    The reservoir is kept in ascending order, so :meth:`percentiles`
    reads it without sorting. Algorithm R replaces a uniformly chosen
    slot, and a uniform slot of the sorted list is a uniform member of
    the reservoir, so the sample stays uniform.
    """

    __slots__ = ("capacity", "count", "total", "min_value", "max_value",
                 "_values", "_rng")

    def __init__(self, capacity: int = 512, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = int(capacity)
        self.count = 0
        self.total = 0.0
        self.min_value: "float | None" = None
        self.max_value: "float | None" = None
        self._values: list[float] = []
        self._rng = random.Random(seed)

    # ------------------------------------------------------------ recording

    def record(self, value: float) -> None:
        """Fold one value into the streaming aggregates and the reservoir."""
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot record NaN into a histogram")
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if len(self._values) >= self.capacity:
            # Algorithm R: keep each of the `count` values with equal
            # probability capacity/count.
            j = self._rng.randrange(self.count)
            if j >= self.capacity:
                return
            del self._values[j]
        bisect.insort(self._values, value)

    # ------------------------------------------------------------ reporting

    @property
    def mean(self) -> float:
        """Exact streaming mean (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over the reservoir (0.0 when empty).

        Out-of-range fractions raise even on an empty histogram — a bad
        argument is the caller's bug regardless of the data.
        """
        return self.percentiles((fraction,))[0]

    def percentiles(self, fractions: Sequence[float]) -> list[float]:
        """Several nearest-rank percentiles, read off the sorted reservoir."""
        for fraction in fractions:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(
                    f"fraction must be in [0, 1], got {fraction!r}"
                )
        return _ranked(self._values, fractions)

    def as_dict(self) -> dict:
        """JSON form; carries the reservoir so snapshots stay mergeable."""
        p50, p95 = self.percentiles((0.50, 0.95))
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min_value,
            "max": self.max_value,
            "p50": p50,
            "p95": p95,
            "capacity": self.capacity,
            "values": list(self._values),
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    Instrument creation is guarded by a lock so a registry can be shared
    with background threads (e.g. a heartbeat thread gauging its lag);
    individual ``inc``/``set``/``record`` calls are simple attribute
    updates and are safe under CPython for the single-writer pattern the
    serving layer uses.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str, capacity: int = 512) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    capacity=capacity
                )
        return instrument

    # ------------------------------------------------------------ snapshots

    def snapshot(self) -> dict:
        """One JSON-serializable dict of every instrument's state."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.as_dict() for k, h in sorted(self._histograms.items())
            },
        }

    @staticmethod
    def merge_snapshots(snapshots: Iterable["dict | None"]) -> dict:
        """Combine snapshots from independent registries (fleet rollup).

        Counters sum, and so do gauges, except the :data:`LEVEL_GAUGES`,
        which take the largest reading (the newest epoch any worker
        reports). Histograms combine their streaming
        ``count``/``sum``/``min``/``max`` exactly; the merged reservoir is
        a deterministic count-weighted subsample of the parts, bounded by
        the largest part capacity, from which ``mean``/``p50``/``p95``
        are recomputed. ``None`` entries are skipped, so callers can pass
        per-worker snapshots straight from an optional health field.
        """
        merged: dict = {section: {} for section in _SECTIONS}
        hist_parts: dict[str, list[dict]] = {}
        for snap in snapshots:
            if not snap:
                continue
            for name, value in snap.get("counters", {}).items():
                merged["counters"][name] = (
                    merged["counters"].get(name, 0) + int(value)
                )
            gauges = merged["gauges"]
            for name, value in snap.get("gauges", {}).items():
                if name not in gauges:
                    gauges[name] = float(value)
                elif name in LEVEL_GAUGES:
                    gauges[name] = max(gauges[name], float(value))
                else:
                    gauges[name] += float(value)
            for name, part in snap.get("histograms", {}).items():
                hist_parts.setdefault(name, []).append(part)
        for name, parts in hist_parts.items():
            merged["histograms"][name] = _merge_histograms(parts)
        for section in _SECTIONS:
            merged[section] = dict(sorted(merged[section].items()))
        return merged


def _merge_histograms(parts: list[dict]) -> dict:
    """Pool histogram snapshots: exact aggregates, weighted reservoir."""
    count = sum(int(p["count"]) for p in parts)
    total = sum(float(p["sum"]) for p in parts)
    mins = [p["min"] for p in parts if p["min"] is not None]
    maxs = [p["max"] for p in parts if p["max"] is not None]
    capacity = max(int(p.get("capacity", 512)) for p in parts)
    values = _weighted_downsample(
        [(list(p.get("values", [])), int(p["count"])) for p in parts],
        capacity,
    )
    p50, p95 = _ranked(sorted(values), (0.50, 0.95))
    return {
        "count": count,
        "sum": total,
        "mean": total / count if count else 0.0,
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
        "p50": p50,
        "p95": p95,
        "capacity": capacity,
        "values": values,
    }


def _weighted_downsample(
    parts: list[tuple[list[float], int]], capacity: int
) -> list[float]:
    """Deterministically bound a merged reservoir to ``capacity`` values.

    Each part contributes a share of the merged reservoir proportional to
    its *stream* count (not its reservoir size), taken as evenly spaced
    order statistics of its sorted reservoir — so a worker that served
    10x the queries dominates the merged percentiles 10:1, and merging
    the same snapshots always yields the same result.
    """
    total = sum(count for _, count in parts if count > 0)
    if total == 0:
        return []
    kept: list[float] = []
    for values, count in parts:
        if not values or count <= 0:
            continue
        quota = max(1, round(capacity * count / total))
        kept.extend(_spaced_order_statistics(values, quota))
    if len(kept) > capacity:
        kept = _spaced_order_statistics(kept, capacity)
    return kept


def _spaced_order_statistics(values: list[float], quota: int) -> list[float]:
    """``quota`` evenly spaced elements of ``sorted(values)``."""
    ordered = sorted(values)
    if len(ordered) <= quota:
        return ordered
    if quota == 1:
        return [ordered[len(ordered) // 2]]
    step = (len(ordered) - 1) / (quota - 1)
    return [ordered[round(i * step)] for i in range(quota)]


def _ranked(ordered: list[float], fractions: Sequence[float]) -> list[float]:
    """Nearest-rank percentiles of an already sorted list (0.0 when empty)."""
    if not ordered:
        return [0.0 for _ in fractions]
    return [
        ordered[max(1, math.ceil(fraction * len(ordered))) - 1]
        for fraction in fractions
    ]
