"""Profiling hooks: a trace-shaped adapter feeding a metrics registry.

:class:`StageProfiler` implements the same duck-typed ``span()`` protocol
as :class:`~repro.obs.trace.QueryTrace`, but instead of building a tree
it folds every closed span into a :class:`~repro.obs.registry.MetricsRegistry`:

* ``stage.<name>.seconds`` — histogram of the span's wall time;
* ``stage.<name>.calls`` — counter of span openings;
* selected numeric annotations become fleet-meaningful counters
  (``samples`` → ``rr.samples``, ``arena_nodes`` → ``arena.nodes``,
  ``arena_edges`` → ``arena.edges``). Retries are counted once, by the
  server's ``ladder.retries``.

This is how ``CODServer`` turns opt-in profiling on: it wraps each answer
in a profiler (tee'd with any caller-supplied trace) so the existing
trace instrumentation doubles as the stage-timer source — one set of
call sites, two consumers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.registry import MetricsRegistry

#: Span annotations folded into registry counters, by metric name.
COUNTER_NOTES = {
    "samples": "rr.samples",
    "arena_nodes": "arena.nodes",
    "arena_edges": "arena.edges",
}


class StageProfiler:
    """Duck-typed trace consumer that records spans into a registry."""

    def __init__(
        self,
        registry: MetricsRegistry,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.registry = registry
        self._clock = clock

    @contextmanager
    def span(self, name: str, **meta: object) -> Iterator["_ProfileSpan"]:
        handle = _ProfileSpan(dict(meta))
        started = self._clock()
        try:
            yield handle
        finally:
            elapsed = self._clock() - started
            self.registry.histogram(f"stage.{name}.seconds").record(elapsed)
            self.registry.counter(f"stage.{name}.calls").inc()
            for note_key, counter_name in COUNTER_NOTES.items():
                value = handle.meta.get(note_key)
                if isinstance(value, (int, float)) and value > 0:
                    self.registry.counter(counter_name).inc(int(value))


class _ProfileSpan:
    """Annotation sink for one profiled span."""

    __slots__ = ("meta",)

    def __init__(self, meta: dict) -> None:
        self.meta = meta

    def note(self, **meta: object) -> None:
        self.meta.update(meta)
