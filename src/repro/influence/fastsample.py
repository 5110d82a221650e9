"""Vectorized batch RR sampling — the explicitly stream-incompatible fast path.

:func:`repro.influence.arena.sample_arena` is *stream-compatible* with the
paper's naive per-dict sampler: it consumes the RNG one explored node at a
time so a seed reproduces the historical sample stream bit for bit. That contract
costs it the whole win of the flat arena — the arena engine's first
measurement put raw sampling at 0.91x of the dict sampler while pooled
evaluation ran 3.96x. This module drops the contract and generates whole
batches at once:

* **batched frontier expansion** — all in-flight samples of a chunk advance
  one BFS level per step; every per-level operation (neighbor gather,
  Bernoulli trials, activation dedup, CSR bookkeeping) is one numpy call
  over the concatenated frontier, never a per-node Python loop;
* **geometric-skip edge trials** — weighted-cascade probabilities are
  constant within a degree class, so the frontier is grouped by degree and
  successes are located by skipping ``Geometric(p)`` slots instead of
  drawing one uniform per incident edge (``O(hits)`` draws instead of
  ``O(vol)``);
* **CSR writes into preallocated arrays** — chunks land directly in an
  :class:`ArenaWriter` whose arrays double in capacity as needed, so memory
  stays bounded by the chunk working set plus the (exact) output size.

Because draw *order* and draw *count* both differ from the compatible
sampler, a seed does **not** reproduce the compatible stream. The correctness
story is statistical instead: every sampler here draws from exactly the
same RR-graph distribution as the compatible one (each directed edge
``v -> u`` fires independently with ``p(v)`` when ``v`` is explored; the
activation set is order-invariant percolation), and ``tests/oracle/``
pins fast-vs-compatible agreement with two-sample cross-checks plus
per-seed output digests. The compatible sampler remains the oracle.

:func:`sample_arena_seeded_fast` is the one per-sample-seeded sampler
(every pool built with ``per_sample_seeds=True`` draws with it). It cannot
share one RNG stream across samples (repair redraws arbitrary subsets), so
every Bernoulli trial is a *pure hash* of ``(base_seed, sample_index,
explored_node, trial_slot)`` (splitmix64 mixing). Sample ``i`` therefore
depends only on ``(base_seed, i)`` and the adjacency it actually explores —
the exact self-consistency :func:`repro.influence.arena.repair_arena`
needs — while trials still evaluate as one vectorized hash over the whole
frontier.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.graph.graph import AttributedGraph
from repro.influence.arena import RRArena, _EMPTY, _draw_sources, _graph_csr
from repro.utils.faults import maybe_fail
from repro.utils.rng import ensure_rng

#: Above this probability a geometric skip saves too few draws to matter.
_GEOM_MAX_P = 0.25

_U64 = np.uint64
_MIX_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_2 = _U64(0x94D049BB133111EB)
_GOLDEN = _U64(0x9E3779B97F4A7C15)
#: Domain tags keeping source draws and edge trials in disjoint hash input
#: spaces (a node id can never collide with the source sentinel).
_TAG_SOURCE = _U64(0xD1B54A32D192ED03)
_TAG_TRIAL = _U64(0x8BB84B93962EACC9)
_INV_2_53 = float(2.0 ** -53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (bijective on uint64)."""
    x = (x ^ (x >> _U64(30))) * _MIX_1
    x = (x ^ (x >> _U64(27))) * _MIX_2
    return x ^ (x >> _U64(31))


def _mix64_int(x: int) -> int:
    """Scalar splitmix64 finalizer on Python ints (no numpy scalar ops —
    numpy warns on scalar uint64 overflow where array ops wrap silently)."""
    mask = 0xFFFFFFFFFFFFFFFF
    x &= mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def _hash_u01(base: int, tag: np.uint64, a, b, c) -> np.ndarray:
    """Uniforms in ``[0, 1)`` as a pure function of ``(base, tag, a, b, c)``.

    Chained splitmix64 mixing: each input is folded in through a full
    finalizer round, so nearby counters decorrelate completely. Quality is
    far beyond what the statistical oracle can resolve; the point is not
    cryptography but *functional determinism* — the same inputs give the
    same trial no matter which batch, chunk, or repair pass asks.
    """
    seed0 = _U64(_mix64_int(base ^ int(tag)))
    h = _mix64(seed0 ^ (np.asarray(a, dtype=np.uint64) + _GOLDEN))
    h = _mix64(h ^ (np.asarray(b, dtype=np.uint64) + _GOLDEN))
    h = _mix64(h ^ (np.asarray(c, dtype=np.uint64) + _GOLDEN))
    return (h >> _U64(11)).astype(np.float64) * _INV_2_53


def _geometric_hits(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Indices of successes among ``total`` i.i.d. Bernoulli(``p``) trials.

    Walks the slots with geometric skips (``1 + floor(log(U) / log(1 - p))``),
    drawing ``O(successes)`` numbers instead of ``O(total)``. It samples the
    same product law as one uniform per slot; only the RNG consumption
    differs, which is the licence the fast path's stream-incompatibility
    buys. The one caller passes ``0 < p < _GEOM_MAX_P`` and spans of at least
    ``_GEOM_SPAN`` slots; denser or shorter spans draw one uniform per slot.
    """
    log1mp = math.log1p(-p)
    hits: list[np.ndarray] = []
    pos = 0  # first untried slot
    while pos < total:
        expect = (total - pos) * p
        batch = int(expect + 4.0 * math.sqrt(expect + 1.0)) + 8
        u = rng.random(batch)
        # log(0) -> -inf would overflow the int cast; clamp skips to "past
        # the end", which terminates the walk exactly like a miss tail.
        skips = np.minimum(
            np.floor(np.log(u) / log1mp), float(total) + 1.0
        ).astype(np.int64) + 1
        run = np.cumsum(skips) + (pos - 1)
        hits.append(run[run < total])
        last = int(run[-1])
        if last >= total:
            break
        pos = last + 1
    return np.concatenate(hits)


class ArenaWriter:
    """Preallocated arena arrays with capacity doubling.

    The chunked kernels reserve space per chunk and write CSR rows in
    place; arrays double (never shrink) so total allocation work is
    amortized ``O(output)``. ``finish`` trims to the exact size and wires
    an :class:`~repro.influence.arena.RRArena` without copying again.
    """

    __slots__ = (
        "n",
        "nodes",
        "edge_start",
        "edge_count",
        "edge_dst_entry",
        "n_entries",
        "n_edges",
        "grows",
    )

    def __init__(
        self, n: int, node_capacity: int = 1024, edge_capacity: int = 1024
    ) -> None:
        if node_capacity < 1 or edge_capacity < 1:
            raise InfluenceError("writer capacities must be positive")
        self.n = int(n)
        self.nodes = np.empty(int(node_capacity), dtype=np.int64)
        self.edge_start = np.empty(int(node_capacity), dtype=np.int64)
        self.edge_count = np.empty(int(node_capacity), dtype=np.int64)
        self.edge_dst_entry = np.empty(int(edge_capacity), dtype=np.int64)
        self.n_entries = 0
        self.n_edges = 0
        #: Capacity-doubling events, for growth-path tests and diagnostics.
        self.grows = 0

    @property
    def node_capacity(self) -> int:
        return len(self.nodes)

    @property
    def edge_capacity(self) -> int:
        return len(self.edge_dst_entry)

    @staticmethod
    def _grown(array: np.ndarray, needed: int) -> np.ndarray:
        capacity = len(array)
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=array.dtype)
        grown[: len(array)] = array
        return grown

    def reserve_entries(self, extra: int) -> int:
        """Make room for ``extra`` entries; return their base offset."""
        base = self.n_entries
        needed = base + int(extra)
        if needed > len(self.nodes):
            self.nodes = self._grown(self.nodes, needed)
            self.edge_start = self._grown(self.edge_start, needed)
            self.edge_count = self._grown(self.edge_count, needed)
            self.grows += 1
        self.n_entries = needed
        return base

    def reserve_edges(self, extra: int) -> int:
        """Make room for ``extra`` edges; return their base offset."""
        base = self.n_edges
        needed = base + int(extra)
        if needed > len(self.edge_dst_entry):
            self.edge_dst_entry = self._grown(self.edge_dst_entry, needed)
            self.grows += 1
        self.n_edges = needed
        return base

    def finish(self, sources: np.ndarray, node_offsets: np.ndarray) -> RRArena:
        """Trim to the written extent and assemble the arena."""
        return RRArena(
            n=self.n,
            sources=sources,
            node_offsets=node_offsets,
            nodes=self.nodes[: self.n_entries],
            edge_start=self.edge_start[: self.n_entries],
            edge_count=self.edge_count[: self.n_entries],
            edge_dst_entry=self.edge_dst_entry[: self.n_edges],
        )


#: Degree classes whose slot span is at least this long get the geometric
#: skip; shorter (or denser-than-``_GEOM_MAX_P``) spans are batched into
#: one per-slot draw — per-class call overhead beats the saved draws there.
_GEOM_SPAN = 4096


class _StreamTrials:
    """Edge trials drawn from one shared RNG stream (geometric skips)."""

    __slots__ = ("rng",)

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def reorder(self, deg: np.ndarray) -> "np.ndarray | None":
        # Group the frontier by degree so each class has one constant
        # probability and one contiguous slot span.
        if len(deg) > 1:
            return np.argsort(deg, kind="stable")
        return None

    def fired(
        self,
        sample_g: np.ndarray,
        frontier_v: np.ndarray,
        deg: np.ndarray,
        total: int,
    ) -> np.ndarray:
        # `deg` is sorted ascending (see reorder). Each equal-degree run is
        # a constant-probability slot span: long sparse spans take the
        # geometric skip, everything else accumulates into contiguous
        # dense segments drawn with one uniform block per segment.
        bounds = np.flatnonzero(np.diff(deg)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(deg)]))
        hits: list[np.ndarray] = []
        dense_p: list[float] = []
        dense_span: list[int] = []
        dense_start = 0
        base = 0

        def flush(upto: int) -> None:
            nonlocal dense_start
            if upto > dense_start:
                u = self.rng.random(upto - dense_start)
                thresh = np.repeat(dense_p, dense_span)
                h = np.flatnonzero(u < thresh)
                if len(h):
                    hits.append(h + dense_start)
            dense_p.clear()
            dense_span.clear()
            dense_start = upto

        for s, e in zip(starts, ends):
            d = int(deg[s])
            span = d * int(e - s)
            if span == 0:
                continue
            p = 1.0 / d
            if span >= _GEOM_SPAN and p < _GEOM_MAX_P:
                flush(base)
                h = _geometric_hits(self.rng, span, p)
                if len(h):
                    hits.append(h + base)
                dense_start = base + span
            else:
                dense_p.append(p)
                dense_span.append(span)
            base += span
        flush(base)
        if not hits:
            return _EMPTY
        out = np.concatenate(hits)
        out.sort()
        return out


class _HashedTrials:
    """Edge trials as pure hashes of ``(base, sample, node, slot)``."""

    __slots__ = ("base",)

    def __init__(self, base: int) -> None:
        self.base = int(base)

    def reorder(self, deg: np.ndarray) -> "np.ndarray | None":
        return None

    def fired(
        self,
        sample_g: np.ndarray,
        frontier_v: np.ndarray,
        deg: np.ndarray,
        total: int,
    ) -> np.ndarray:
        slot_sample = np.repeat(sample_g, deg)
        slot_node = np.repeat(frontier_v, deg)
        slot_j = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(deg) - deg, deg
        )
        u = _hash_u01(self.base, _TAG_TRIAL, slot_sample, slot_node, slot_j)
        thresh = np.repeat(1.0 / np.maximum(deg, 1), deg)
        return np.flatnonzero(u < thresh)


def _hashed_sources(base: int, index_arr: np.ndarray, n: int) -> np.ndarray:
    """Per-sample sources as pure hashes of ``(base, sample_index)``."""
    u = _hash_u01(base, _TAG_SOURCE, index_arr, 0, 0)
    return np.minimum((u * n).astype(np.int64), n - 1)


def _default_chunk(n: int, count: int) -> int:
    # Bound the (chunk, n) scratch matrix to ~64 MiB of int32 while keeping
    # enough samples in flight to amortize per-level numpy call overhead —
    # the scratch is calloc-backed, so untouched pages are never faulted in
    # and the budget is an upper bound, not a working-set size.
    if count <= 0:
        return 1
    return max(64, min(count, 16_777_216 // max(n, 1), 16_384))


def _run_chunk(
    writer: ArenaWriter,
    sample_g: np.ndarray,
    sources_chunk: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    degs: np.ndarray,
    trials,
    allowed_mask: "np.ndarray | None",
    entry_local: np.ndarray,
) -> np.ndarray:
    """Advance one chunk of samples to completion, writing into ``writer``.

    ``sample_g`` are the chunk's *global* sample ids (hashed trials key on
    them); ``entry_local`` is the reusable flat ``(chunk, n)`` scratch map
    from (sample-local, node) to the node's local entry id **plus one**
    (0 = unvisited — a calloc-backed zero fill is effectively free where a
    ``-1`` fill pays a full memset), kept at 0 outside this call (touched
    cells are reset before returning). Returns the chunk's per-sample
    entry counts.
    """
    n = writer.n
    m = len(sources_chunk)
    counts = np.ones(m, dtype=np.int64)  # the source is entry 0

    frontier_s = np.arange(m, dtype=np.int64)
    frontier_v = sources_chunk.astype(np.int64, copy=True)
    frontier_local = np.zeros(m, dtype=np.int64)
    entry_local[frontier_s * n + frontier_v] = 1

    ent_s = [frontier_s]
    ent_node = [frontier_v]
    ent_local = [frontier_local]
    expl_s: list[np.ndarray] = []
    expl_local: list[np.ndarray] = []
    expl_cnt: list[np.ndarray] = []
    edge_s: list[np.ndarray] = []
    edge_dst_local: list[np.ndarray] = []

    while len(frontier_s):
        deg = degs[frontier_v]
        perm = trials.reorder(deg)
        if perm is not None:
            frontier_s = frontier_s[perm]
            frontier_v = frontier_v[perm]
            frontier_local = frontier_local[perm]
            deg = deg[perm]
        total = int(deg.sum())
        if total:
            fired = trials.fired(sample_g[frontier_s], frontier_v, deg, total)
            # Map fired *slot* indices back to (frontier entry, neighbor)
            # without materializing the O(total) slot arrays: under
            # weighted cascade only ~1/deg of slots fire, so gathering
            # just the hits is the dominant saving of the fast path.
            cum = np.cumsum(deg)
            f_src = np.searchsorted(cum, fired, side="right")
            f_off = fired - (cum[f_src] - deg[f_src])
            f_dst = indices[indptr[frontier_v[f_src]] + f_off]
            if allowed_mask is not None and len(f_dst):
                keep = allowed_mask[f_dst]
                f_src = f_src[keep]
                f_dst = f_dst[keep]
        else:
            f_src = _EMPTY
            f_dst = _EMPTY

        # Exploration records: one per frontier entry, in frontier order —
        # the same order its fired-edge block lands in storage below.
        expl_s.append(frontier_s)
        expl_local.append(frontier_local)
        expl_cnt.append(np.bincount(f_src, minlength=len(frontier_v)))

        if not len(f_dst):
            break

        f_sample = frontier_s[f_src]
        key = f_sample * n + f_dst
        fresh = entry_local[key] == 0
        if fresh.any():
            # First-occurrence dedup of new (sample, node) activations,
            # then per-sample local ids in one grouped rank pass.
            uk = np.unique(key[fresh])
            ns = uk // n
            nv = uk - ns * n
            rank = np.arange(len(ns), dtype=np.int64) - np.searchsorted(
                ns, ns, side="left"
            )
            local_new = counts[ns] + rank
            counts += np.bincount(ns, minlength=m)
            entry_local[uk] = local_new + 1
            ent_s.append(ns)
            ent_node.append(nv)
            ent_local.append(local_new)
            frontier_s, frontier_v, frontier_local = ns, nv, local_new
        else:
            frontier_s = _EMPTY

        edge_s.append(f_sample)
        edge_dst_local.append(entry_local[key].astype(np.int64) - 1)

    # ------------------------------------------------ chunk CSR assembly
    node_off_local = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=node_off_local[1:])
    a_s = np.concatenate(ent_s)
    a_node = np.concatenate(ent_node)
    a_local = np.concatenate(ent_local)

    entry_base = writer.reserve_entries(int(node_off_local[-1]))
    writer.nodes[entry_base + node_off_local[a_s] + a_local] = a_node

    e_s = np.concatenate(expl_s)
    e_local = np.concatenate(expl_local)
    e_cnt = np.concatenate(expl_cnt)
    entry_idx = entry_base + node_off_local[e_s] + e_local
    writer.edge_count[entry_idx] = e_cnt

    if edge_s:
        g_s = np.concatenate(edge_s)
        g_dst = np.concatenate(edge_dst_local)
    else:
        g_s = _EMPTY
        g_dst = _EMPTY
    edge_base = writer.reserve_edges(len(g_s))
    if len(g_s):
        # Storage order: stable sort by sample keeps each sample's edges in
        # one contiguous block while preserving exploration order inside
        # it — the invariant RRArena.take/restrict lean on.
        eorder = np.argsort(g_s, kind="stable")
        writer.edge_dst_entry[edge_base: edge_base + len(g_s)] = (
            entry_base + node_off_local[g_s[eorder]] + g_dst[eorder]
        )
    # Exploration records sorted the same way give each entry's slice
    # start: the exclusive running total over (sample, exploration order)
    # is exactly its slice's storage position.
    xorder = np.argsort(e_s, kind="stable")
    run = np.cumsum(e_cnt[xorder]) - e_cnt[xorder]
    writer.edge_start[entry_idx[xorder]] = edge_base + run

    entry_local[a_s * n + a_node] = 0  # reset only touched scratch cells
    return counts


def sample_arena_fast(
    graph: AttributedGraph,
    count: int,
    rng: "int | np.random.Generator | None" = None,
    sources: "Sequence[int] | None" = None,
    allowed: "set[int] | None" = None,
    budget: "object | None" = None,
    trace: "object | None" = None,
    chunk_size: "int | None" = None,
) -> RRArena:
    """Draw ``count`` RR graphs with the vectorized batch kernel.

    Same signature, source draw and RR-graph *distribution* as
    :func:`repro.influence.arena.sample_arena`, but **not** the same RNG
    stream: trials run batched (geometric skips, level-synchronous
    frontier), so a given seed yields different — equally valid — samples.
    Use it wherever samples are consumed statistically (pools, serving,
    estimators); keep the compatible sampler where a pinned stream
    matters (golden digests, resume-equals-fresh replay).

    ``budget.tick(k)`` and the ``rr_sampling`` fault site fire once per
    *chunk* of ``k`` samples rather than once per sample — same total
    accounting, coarser checkpoints.
    """
    rng = ensure_rng(rng)
    source_arr, allowed_mask = _draw_sources(graph.n, count, rng, sources, allowed)
    return _sample_chunked(
        graph, source_arr,
        sample_g=np.arange(count, dtype=np.int64),
        trials=_StreamTrials(rng), allowed_mask=allowed_mask,
        budget=budget, trace=trace, chunk_size=chunk_size,
    )


def sample_arena_seeded_fast(
    graph: AttributedGraph,
    count: "int | None" = None,
    base_seed: int = 0,
    indices: "Sequence[int] | np.ndarray | None" = None,
    budget: "object | None" = None,
    trace: "object | None" = None,
    chunk_size: "int | None" = None,
) -> RRArena:
    """Draw RR graphs where sample ``i`` depends only on ``(base_seed, i)``.

    This is the one per-sample-seeded sampler: seeded pools, their
    repair, the fleet's sharded builder draw and HIMOR builds over a
    seeded pool all draw with it. Sample ``i``'s source and every one of
    its edge trials are pure hashes of ``(base_seed, i, ...)`` — no
    sequential stream at all — so:

    * drawing ``indices=[i, ...]`` is bit-identical to the corresponding
      slice of a full ``count=`` draw (any batch, any chunking);
    * a sample that never activates a node with changed adjacency is
      bit-identical across graph versions (trials key on the explored
      node and its slot; exploration consults adjacency only at activated
      nodes).

    Those are the two properties incremental repair
    (:func:`~repro.influence.arena.repair_arena`) needs; the repaired
    arena equals a from-scratch seeded draw on the new graph, bit for
    bit. The hash stream is distinct from :func:`sample_arena_fast`'s and
    from the compatible :func:`~repro.influence.arena.sample_arena`'s.

    ``count`` draws samples ``0..count-1``; ``indices`` draws exactly
    those sample ids (in the given order). The ``rr_sampling`` fault site
    and ``budget.tick(k)`` fire once per chunk of ``k`` samples.
    """
    if (count is None) == (indices is None):
        raise InfluenceError("pass exactly one of count= or indices=")
    if indices is None:
        if count < 0:
            raise InfluenceError(f"count must be non-negative, got {count}")
        index_arr = np.arange(count, dtype=np.int64)
    else:
        index_arr = np.asarray(indices, dtype=np.int64)
        if len(index_arr) and int(index_arr.min()) < 0:
            raise InfluenceError("sample indices must be non-negative")
    source_arr = _hashed_sources(int(base_seed), index_arr, graph.n)
    return _sample_chunked(
        graph, source_arr, sample_g=index_arr, trials=_HashedTrials(base_seed),
        allowed_mask=None, budget=budget, trace=trace, chunk_size=chunk_size,
    )


def _sample_chunked(
    graph: AttributedGraph,
    source_arr: np.ndarray,
    sample_g: np.ndarray,
    trials,
    allowed_mask: "np.ndarray | None",
    budget: "object | None",
    trace: "object | None",
    chunk_size: "int | None",
) -> RRArena:
    n = graph.n
    count = len(source_arr)
    indptr, indices = _graph_csr(graph)
    degs = graph.degrees

    chunk = int(chunk_size) if chunk_size else _default_chunk(n, count)
    if chunk < 1:
        raise InfluenceError(f"chunk_size must be positive, got {chunk}")
    chunk = min(chunk, max(count, 1))

    writer = ArenaWriter(n)
    # calloc-backed zero fill: pages materialize lazily on first touch, so
    # the scratch map costs its *touched* cells, not its full extent.
    entry_local = np.zeros(chunk * n, dtype=np.int32)
    node_offsets = np.empty(count + 1, dtype=np.int64)
    node_offsets[0] = 0

    span_cm = trace.span("sampling") if trace is not None else nullcontext()
    with span_cm as span:
        for lo in range(0, count, chunk):
            hi = min(lo + chunk, count)
            if budget is not None:
                budget.tick(hi - lo)
            maybe_fail("rr_sampling")
            counts = _run_chunk(
                writer,
                sample_g[lo:hi],
                source_arr[lo:hi],
                indptr,
                indices,
                degs,
                trials,
                allowed_mask,
                entry_local,
            )
            np.cumsum(counts, out=node_offsets[lo + 1: hi + 1])
            node_offsets[lo + 1: hi + 1] += node_offsets[lo]
        if span is not None:
            span.note(
                samples=count,
                arena_nodes=writer.n_entries,
                arena_edges=writer.n_edges,
                fast=True,
            )
    return writer.finish(source_arr.astype(np.int64), node_offsets)
