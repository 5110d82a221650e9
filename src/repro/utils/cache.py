"""A generic bounded LRU cache — the one cache class the repo uses.

Every per-attribute memo in the codebase used to be a bare ``dict`` that
grew one weighted graph / hierarchy / LORE chain per distinct query
attribute forever — the same O(workload) memory-growth bug class the
bounded ``Histogram`` reservoir fixed for latency samples.
:class:`LRUCache` replaces them all with one auditable policy:

* **capacity bound** — at most ``capacity`` entries are resident; the
  least-recently-*used* entry is evicted first (reads refresh recency,
  :meth:`__contains__` peeks do not).
* **byte bound** — entries are charged an estimated size
  (``value.memory_bytes()`` when the value offers it, else
  ``sys.getsizeof``); inserts evict LRU entries until the estimate fits
  under ``max_bytes``. A single value larger than the whole budget is
  simply not cached (counted under ``oversized``).
* **counters** — hits, misses, evictions, oversized rejections, and
  invalidations are ``cache.<name>.*`` counters, next to
  ``cache.<name>.entries`` / ``.bytes`` gauges, in one
  :class:`~repro.obs.MetricsRegistry`: the caller's (so ``health()``
  and the fleet rollup see cache behaviour) or a private one.
  :meth:`LRUCache.stats` reads them back; there is no second copy.

Either bound may be ``None`` (unbounded on that axis), but not both. A
byte-only cache suits values whose sizes differ by orders of magnitude,
where an entry count would let many small entries evict a few large,
expensive ones.

The class is thread-safe (one lock around every operation) so a server
and its introspection endpoints can share an instance.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

from repro.obs.registry import MetricsRegistry

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


def default_sizeof(value: object) -> int:
    """Estimated resident bytes of a cached value.

    Values that know their own footprint (``memory_bytes()``, e.g.
    :class:`repro.influence.arena.RRArena`) are believed; everything else
    falls back to ``sys.getsizeof`` — a shallow estimate, which is fine:
    the byte bound is a guard rail, not an accountant.
    """
    probe = getattr(value, "memory_bytes", None)
    if callable(probe):
        try:
            return int(probe())
        except TypeError:
            pass
    return int(sys.getsizeof(value))


class LRUCache:
    """Bounded LRU mapping with hit/miss/eviction accounting.

    Parameters
    ----------
    capacity:
        Maximum resident entries (>= 1); ``None`` means unbounded on
        that axis, which requires ``max_bytes``.
    max_bytes:
        Optional cap on the summed size estimates of resident values;
        ``None`` means unbounded on that axis.
    sizeof:
        Size estimator for the byte bound; defaults to
        :func:`default_sizeof`.
    name:
        Label used in :meth:`stats` and metrics keys
        (``cache.<name>.*``).
    metrics:
        Registry holding the counters; ``None`` gives the cache a
        private one.
    """

    def __init__(
        self,
        capacity: "int | None",
        max_bytes: "int | None" = None,
        sizeof: "Callable[[object], int] | None" = None,
        name: str = "cache",
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if capacity is None and max_bytes is None:
            raise ValueError("capacity and max_bytes cannot both be None")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes!r}")
        self.capacity = None if capacity is None else int(capacity)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.name = str(name)
        self.metrics = metrics or MetricsRegistry()
        self._sizeof = sizeof or default_sizeof
        self._entries: "OrderedDict[Hashable, tuple[object, int]]" = OrderedDict()
        self._lock = threading.RLock()
        self.current_bytes = 0
        prefix = f"cache.{self.name}"
        self._hits = self.metrics.counter(f"{prefix}.hits")
        self._misses = self.metrics.counter(f"{prefix}.misses")
        self._evictions = self.metrics.counter(f"{prefix}.evictions")
        self._oversized = self.metrics.counter(f"{prefix}.oversized")
        self._invalidations = self.metrics.counter(f"{prefix}.invalidations")
        self._entries_gauge = self.metrics.gauge(f"{prefix}.entries")
        self._bytes_gauge = (
            self.metrics.gauge(f"{prefix}.bytes")
            if self.max_bytes is not None
            else None
        )

    # ------------------------------------------------------------- mapping

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Peek: membership without touching recency or counters."""
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, default: object = None) -> object:
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                self._misses.inc()
                return default
            self._entries.move_to_end(key)
            self._hits.inc()
            return entry[0]

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or replace) ``key``, evicting LRU entries as needed."""
        with self._lock:
            size = int(self._sizeof(value)) if self.max_bytes is not None else 0
            if self.max_bytes is not None and size > self.max_bytes:
                # Caching this value would evict everything and still not
                # fit; serve it uncached instead of thrashing the cache.
                stale = self._entries.pop(key, _MISSING)
                if stale is not _MISSING:
                    self.current_bytes -= stale[1]
                self._oversized.inc()
                self._set_gauges()
                return
            old = self._entries.pop(key, _MISSING)
            if old is not _MISSING:
                self.current_bytes -= old[1]
            self._entries[key] = (value, size)
            self.current_bytes += size
            while (
                self.capacity is not None and len(self._entries) > self.capacity
            ) or (self.max_bytes is not None and self.current_bytes > self.max_bytes):
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self.current_bytes -= evicted_size
                self._evictions.inc()
            self._set_gauges()

    def get_or_create(
        self,
        key: Hashable,
        factory: Callable[[], object],
        fresh: "Callable[[object], bool] | None" = None,
    ) -> object:
        """Return the cached value, building and caching it on a miss.

        The factory runs outside any special protection: if it raises,
        nothing is cached and the exception propagates (a failed build
        still counts as a miss). ``fresh``, when given, vets a cached
        value: one it rejects is dropped, counted as an invalidation and
        a miss, and replaced by the factory's.
        """
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is not _MISSING:
                if fresh is None or fresh(entry[0]):
                    self._entries.move_to_end(key)
                    self._hits.inc()
                    return entry[0]
                del self._entries[key]
                self.current_bytes -= entry[1]
                self._invalidations.inc()
                self._set_gauges()
            self._misses.inc()
        value = factory()
        self.put(key, value)
        return value

    def clear(self) -> int:
        """Drop every entry (counters preserved); returns how many dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.current_bytes = 0
            self._invalidations.inc(dropped)
            self._set_gauges()
            return dropped

    def invalidate(self, predicate: "Callable[[Hashable], bool]") -> int:
        """Drop every entry whose *key* matches ``predicate``.

        The epoch-scoped invalidation primitive: graph updates call this
        with a key predicate ("LORE entries for attribute 3") so entries
        untouched by an update keep serving. Returns the number dropped,
        counted in ``cache.<name>.invalidations``.
        """
        return self.rekey(lambda key, _value: None if predicate(key) else key)

    def rekey(self, rename: "Callable[[Hashable, object], Hashable | None]") -> int:
        """Move every entry to the key ``rename(key, value)`` returns, or
        drop it where that is ``None``; recency order is kept.

        Lets an update carry entries whose keys name something the update
        renumbered. ``rename`` must not send two entries to one key.
        Returns the number dropped, counted as :meth:`invalidate` counts.
        """
        with self._lock:
            kept: "OrderedDict[Hashable, tuple[object, int]]" = OrderedDict()
            for key, entry in self._entries.items():
                renamed = rename(key, entry[0])
                if renamed is not None:
                    kept[renamed] = entry
            dropped = len(self._entries) - len(kept)
            self._entries = kept
            self.current_bytes = sum(size for _, size in kept.values())
            self._invalidations.inc(dropped)
            self._set_gauges()
            return dropped

    # ------------------------------------------------------------ reporting

    def stats(self) -> dict:
        """Snapshot for ``health()`` reports and tests, read from the registry."""
        with self._lock:
            return {
                "name": self.name,
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self._hits.value,
                "misses": self._misses.value,
                "evictions": self._evictions.value,
                "oversized": self._oversized.value,
                "invalidations": self._invalidations.value,
                "current_bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
            }

    def _set_gauges(self) -> None:
        self._entries_gauge.set(len(self._entries))
        if self._bytes_gauge is not None:
            self._bytes_gauge.set(self.current_bytes)

    def __repr__(self) -> str:
        return (
            f"LRUCache(name={self.name!r}, entries={len(self)}/{self.capacity}, "
            f"hits={self._hits.value}, misses={self._misses.value}, "
            f"evictions={self._evictions.value})"
        )
