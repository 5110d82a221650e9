"""Workload generators and statistics shared by the serving benchmark.

Everything here is a pure function of its arguments (and a seed), so the
benchmark's inputs are reproducible and the helpers are unit-testable
without the serving stack running.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics

import numpy as np

from repro.core.problem import CODQuery
from repro.dynamic.log import UpdateBatch
from repro.dynamic.updates import AttrUpdate, EdgeUpdate, apply_updates

#: A tail percentile is reported only with at least this many samples
#: beyond it; below that it is one or two outliers, not a percentile.
MIN_BEYOND = 10
#: An edge batch deletes this many random edges and inserts this many
#: triangle-closing ones; an attribute batch grants and revokes this many
#: (node, attribute) pairs, half each.
EDGE_DELETES = 5
EDGE_INSERTS = 5
ATTR_UPDATES = 10


def tail_percentile(values, fraction: float) -> float:
    """Nearest-rank percentile, refused without ``MIN_BEYOND`` samples past it.

    ``fraction`` is in ``(0, 1)``; p99 needs at least 1000 values.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{fraction * 100:g} over {len(ordered)} samples has {beyond} "
            f"beyond it; at least {MIN_BEYOND} are needed"
        )
    return ordered[rank - 1]


#: Seconds the speed kernel takes at the reference host speed: about what
#: it takes on a 2-core Xeon VM while nothing else runs on its core.
REFERENCE_KERNEL_S = 0.0002
#: Speed samples on each side of a measured time that set its scale.
SPEED_WINDOW = 3
_KERNEL_KEYS = list(range(512))


def speed_kernel(clock) -> float:
    """Seconds a fixed pure-Python kernel (2048 dict updates) takes on ``clock``."""
    started = clock()
    counts: dict[int, int] = {}
    for _ in range(4):
        for key in _KERNEL_KEYS:
            counts[key & 127] = counts.get(key & 127, 0) + key
    return clock() - started


class SpeedTrack:
    """The host's speed along a run, from the speed kernel timed between operations.

    On a shared VM the same code runs at two speeds, up to 1.8x apart,
    that alternate every few seconds. The kernel slows with the program,
    so a time scaled by ``REFERENCE_KERNEL_S`` over the kernel's local
    time reads the same at either speed.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(speed_kernel(self.clock))

    def scale(self, first: int, last: int) -> float:
        """Factor to the reference speed for a time measured between
        samples ``first`` and ``last``: the kernel's median over those
        samples and ``SPEED_WINDOW - 1`` more on each side."""
        window = self.samples[max(0, first - SPEED_WINDOW + 1):last + SPEED_WINDOW]
        return REFERENCE_KERNEL_S / statistics.median(window)


def median(values, default: float = 0.0) -> float:
    """Median of ``values``; ``default`` for an empty sequence."""
    return statistics.median(values) if values else default


def block_rate(blocks) -> float:
    """Median over measurement blocks of each block's queries per second.

    ``blocks`` lists, for each block in order, the phase clock at its end
    and the number of queries answered by then. A host that slows down for
    part of a run moves the blocks it hits, not the median.
    """
    rates = []
    start_s, start_n = 0.0, 0
    for end_s, end_n in blocks:
        rates.append((end_n - start_n) / (end_s - start_s))
        start_s, start_n = end_s, end_n
    return statistics.median(rates)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def zipf_mix(
    n_items: int, count: int, exponent: float, clients: int, seed: int, popularity_seed: int
) -> np.ndarray:
    """``count`` item indices from ``clients`` interleaved Zipf streams.

    Each client ranks the items in its own popularity order, drawn from
    ``popularity_seed``, and reads i.i.d. with P(rank r) ∝ r^-exponent;
    ``seed`` draws the reads. Read ``i`` belongs to client ``i % clients``.
    """
    if n_items < 1 or count < 0 or clients < 1:
        raise ValueError(
            f"need n_items >= 1, count >= 0 and clients >= 1, got "
            f"{n_items}, {count}, {clients}"
        )
    popularity = np.random.default_rng(popularity_seed)
    orders = np.stack([popularity.permutation(n_items) for _ in range(clients)])
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** exponent
    ranks = np.random.default_rng(seed).choice(n_items, size=count, p=weights / weights.sum())
    return orders[np.arange(count) % clients, ranks]


def hot_queries(graph, n_attributes: int, per_attribute: int, k: int, seed: int) -> list:
    """A seeded hot set: ``per_attribute`` carrier nodes for each of
    ``n_attributes`` attributes, in a seeded order (rank 0 hottest)."""
    rng = np.random.default_rng(seed)
    universe = sorted(
        a for a in graph.attribute_universe
        if len(graph.nodes_with_attribute(a)) >= per_attribute
    )
    if len(universe) < n_attributes:
        raise ValueError(
            f"only {len(universe)} attributes have {per_attribute} carriers; "
            f"{n_attributes} are needed"
        )
    queries = []
    for attribute in rng.choice(universe, size=n_attributes, replace=False):
        carriers = graph.nodes_with_attribute(int(attribute))
        for node in rng.choice(carriers, size=per_attribute, replace=False):
            queries.append(CODQuery(int(node), int(attribute), k))
    return [queries[int(i)] for i in rng.permutation(len(queries))]


class UpdateStream:
    """Seeded, conflict-free update batches against an evolving graph.

    Batches alternate by the caller's request between *edge* batches
    (``EDGE_DELETES`` random existing edges removed plus ``EDGE_INSERTS``
    triangle-closing ones added) and *attribute* batches (``ATTR_UPDATES``
    grants and revokes, half each). The stream keeps its own copy of the graph,
    advanced through :func:`repro.dynamic.updates.apply_updates`, so batch
    ``i`` depends only on the seed and batches ``0..i-1``.

    ``protected`` holds ``(node, attribute)`` pairs that are never revoked
    (the query mix's own pairs), and no revoke leaves an attribute with
    fewer than two carriers, so every query stays valid at every epoch.
    """

    def __init__(self, graph, seed: int, protected=()) -> None:
        self.graph = graph
        self.protected = {(int(v), int(a)) for v, a in protected}
        self._rng = np.random.default_rng(seed)

    def next_batch(self, kind: str) -> UpdateBatch:
        """The next batch of ``kind`` (``"edge"`` or ``"attr"``)."""
        if kind == "edge":
            updates = self._edge_updates()
        elif kind == "attr":
            updates = self._attr_updates()
        else:
            raise ValueError(f"unknown batch kind {kind!r}")
        batch = UpdateBatch(updates=tuple(updates), label=kind)
        self.graph = apply_updates(self.graph, batch.updates)
        return batch

    def _edge_updates(self) -> list:
        """Random deletions; insertions close a triangle (friend of a friend),
        the way edges mostly arrive in a community graph."""
        graph, rng = self.graph, self._rng
        edges = list(graph.edges())
        picks = rng.choice(len(edges), size=EDGE_DELETES, replace=False)
        deleted = {edges[int(i)] for i in picks}
        updates = [EdgeUpdate(*edge, add=False) for edge in sorted(deleted)]
        added: set[tuple[int, int]] = set()
        while len(added) < EDGE_INSERTS:
            u = int(rng.integers(0, graph.n))
            if not len(graph.neighbors(u)):
                continue
            w = int(rng.choice(graph.neighbors(u)))
            v = int(rng.choice(graph.neighbors(w)))
            key = (min(u, v), max(u, v))
            if u != v and not graph.has_edge(u, v) and key not in added:
                added.add(key)
                updates.append(EdgeUpdate(*key, add=True))
        return updates

    def _attr_updates(self) -> list:
        graph, rng = self.graph, self._rng
        universe = sorted(graph.attribute_universe)
        carriers = {a: len(graph.nodes_with_attribute(a)) for a in universe}
        touched: set[tuple[int, int]] = set()
        updates: list = []
        grants = ATTR_UPDATES - ATTR_UPDATES // 2
        while len(updates) < ATTR_UPDATES:
            node = int(rng.integers(0, graph.n))
            attribute = universe[int(rng.integers(0, len(universe)))]
            key = (node, attribute)
            if key in touched:
                continue
            carries = graph.has_attribute(node, attribute)
            if len(updates) < grants:
                if carries:
                    continue
                updates.append(AttrUpdate(node, attribute, add=True))
            else:
                if not carries or key in self.protected or carriers[attribute] <= 2:
                    continue
                carriers[attribute] -= 1
                updates.append(AttrUpdate(node, attribute, add=False))
            touched.add(key)
        return updates


def signature(answer) -> tuple:
    """What must match bit for bit between an answer and its reference."""
    members = None if answer.members is None else tuple(int(v) for v in answer.members)
    return (answer.rung, members)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, plus its largest reaped child."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def machine() -> dict:
    """Machine provenance recorded with every result."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
