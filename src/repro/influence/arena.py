"""Flat CSR arena for batches of RR graphs — the sampling engine.

One COD evaluation touches thousands of RR graphs (Definitions 2-3);
storing each as a Python ``dict`` of lists makes the ``|R|``/``vol(R)``
hot paths of Section III allocation-bound. The :class:`RRArena` stores a
whole batch in shared CSR-style arrays instead:

* ``nodes`` — every activated node of every sample, concatenated in
  discovery order; ``node_offsets[i]:node_offsets[i+1]`` is sample ``i``'s
  RR set, and each position in ``nodes`` is an *entry* (a (sample, node)
  pair with a global integer id).
* ``edge_start``/``edge_count`` — per entry, the contiguous slice of its
  fired reverse edges inside ``edge_dst_entry``.
* ``edge_dst_entry`` — edge targets stored as *entry ids* (not node ids),
  so evaluation never needs a per-sample hash lookup.
* derived maps, each built on first use and never invalidated (arenas
  are immutable; a repaired pool is a new arena, and an attached
  read-only arena keeps its maps in private memory):
  ``entry_samples`` maps entries back to their sample — the
  node→samples index behind the batched evaluators;
  ``edge_src_entries`` gives every edge its source entry;
  ``source_samples`` groups samples by source node (an order array plus
  ``n + 1`` starts), so :meth:`RRArena.restrict` finds the samples a
  node set sources without scanning the pool; and
  ``sample_edge_starts`` holds each sample's edge-block start, so
  :meth:`RRArena.take` costs what it selects.

:func:`sample_arena` draws a batch directly into these arrays. Its RNG
stream is the paper's naive per-sample dict sampler's: for the same seed
it consumes the RNG in exactly the same order and therefore produces
bit-identical samples — the property the differential oracle suite
(``tests/oracle``) pins against a frozen reference sampler. Evaluation
(:meth:`RRArena.hfs_levels`, :meth:`RRArena.influence_counts`) is
vectorized over the flat arrays; the minimax level assignment of
Algorithm 1's HFS is computed for all samples at once by one
label-correcting frontier over every chain level (an entry is
re-expanded whenever a later edge lowers its level) instead of one
heap-Dijkstra per sample.

Design note: when a node ``v`` is explored, every incident reverse edge is
flipped exactly once, including edges toward already-active nodes.
Dropping those flips (as a naive RR-set sampler does) would leave the
induced graphs under-connected and bias community-level influence
estimates downward (Theorem 2); ``tests/influence/test_rr.py`` pins this
coupling on every arena sampler.

:class:`RRView` is a lazy, zero-copy window onto one sample exposing
``.source`` / ``.adjacency`` / ``.reachable_within``.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterator, Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.graph.graph import AttributedGraph
from repro.utils.faults import maybe_fail
from repro.utils.rng import ensure_rng


def _normalize_allowed(
    allowed: "set[int] | frozenset[int] | np.ndarray",
) -> "set[int] | frozenset[int]":
    """Normalize a community's node collection to one hashed set.

    Sets and frozensets pass through untouched (no per-call copy); arrays
    and other iterables are converted element-wise to Python ints exactly
    once. Probing an ``np.ndarray`` directly with ``in`` would be an O(n)
    scan per probe — and, for ``float`` or mixed dtypes, a silent
    wrong-answer hazard — so every membership test in
    :meth:`RRArena.reachable_within` goes through this helper first.
    """
    if isinstance(allowed, (set, frozenset)):
        return allowed
    return set(int(v) for v in allowed)


def _node_array(allowed: "set[int] | Sequence[int] | np.ndarray") -> np.ndarray:
    """A node collection as an int64 array (arrays are not copied when
    already int64; other iterables are converted element-wise)."""
    if isinstance(allowed, np.ndarray):
        return np.asarray(allowed, dtype=np.int64)
    return np.fromiter((int(v) for v in allowed), dtype=np.int64)


_EMPTY = np.empty(0, dtype=np.int64)
# The module-wide empty is aliased into many arenas (empty repairs, zero-edge
# restrictions); freezing it keeps the writeable flag story consistent with
# shared-memory attached arenas — nobody may mutate what others alias.
_EMPTY.setflags(write=False)

#: Array fields every arena stores, in segment order (see :meth:`RRArena.to_shared`).
_ARENA_FIELDS = (
    "sources",
    "node_offsets",
    "nodes",
    "edge_start",
    "edge_count",
    "edge_dst_entry",
)


def allowed_fingerprint(allowed: "set[int] | Sequence[int] | np.ndarray") -> str:
    """Canonical content hash of an ``allowed`` node set.

    Restricted-arena shards are published with this fingerprint stamped
    into the segment header; an attacher recomputes it from its own
    hierarchy-derived allowed set and refuses any shard whose hash
    differs, so a shard built for a different attribute's community (or
    against a stale hierarchy) can never be served as the restriction it
    is not. A function of the node *set*: the nodes are sorted and
    deduplicated before hashing, so a set, a sorted array and an
    unsorted array with repeats of the same nodes share one digest.
    """
    import hashlib

    nodes = np.unique(_node_array(allowed))
    return hashlib.sha256(nodes.tobytes()).hexdigest()[:16]


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``
    without a Python loop (the ragged-gather idiom of :meth:`RRArena.take`)."""
    total = int(counts.sum())
    if total == 0:
        return _EMPTY
    offsets = np.cumsum(counts)
    idx = np.arange(total, dtype=np.int64)
    idx += np.repeat(starts - offsets + counts, counts)
    return idx


class RRView:
    """A lazy, read-only view of one sample inside an :class:`RRArena`.

    The ``adjacency`` dict is materialized (and cached) only when asked
    for, so arena-native callers never pay for it.
    """

    __slots__ = ("_arena", "_index", "_adjacency")

    def __init__(self, arena: "RRArena", index: int) -> None:
        self._arena = arena
        self._index = index
        self._adjacency: "dict[int, list[int]] | None" = None

    @property
    def source(self) -> int:
        return int(self._arena.sources[self._index])

    @property
    def adjacency(self) -> dict[int, list[int]]:
        """The sample as a dict of fired-target lists, built on first access."""
        if self._adjacency is None:
            self._adjacency = self._arena._adjacency_of(self._index)
        return self._adjacency

    @property
    def nodes(self) -> list[int]:
        a, b = self._arena._bounds(self._index)
        return self._arena.nodes[a:b].tolist()

    @property
    def n_nodes(self) -> int:
        a, b = self._arena._bounds(self._index)
        return int(b - a)

    @property
    def n_edges(self) -> int:
        a, b = self._arena._bounds(self._index)
        return int(self._arena.edge_count[a:b].sum())

    def reachable_within(self, allowed: "set[int] | np.ndarray") -> set[int]:
        """Definition-3 induced reachability, computed on the flat arrays."""
        return self._arena.reachable_within(self._index, allowed)

    def __repr__(self) -> str:
        return (
            f"RRView(sample={self._index}, source={self.source}, "
            f"nodes={self.n_nodes}, edges={self.n_edges})"
        )


class RRArena:
    """A batch of RR graphs in shared flat arrays.

    Construct with :func:`sample_arena` (or :func:`concatenate_arenas`);
    the constructor only wires pre-built arrays together.

    Parameters
    ----------
    n:
        Node count of the sampled graph (``|V|``, the Theorem-1 scaling
        population for unrestricted samples).
    sources:
        ``sources[i]`` is sample ``i``'s root.
    node_offsets:
        CSR offsets of shape ``(n_samples + 1,)`` into ``nodes``.
    nodes:
        Activated nodes in discovery order (source first per sample).
    edge_start / edge_count:
        Per entry, the slice of its fired edges in ``edge_dst_entry``.
        Slices are contiguous and disjoint but stored in *exploration*
        order, which differs from entry order within a sample.
    edge_dst_entry:
        Edge targets as global entry ids.
    """

    __slots__ = (
        "n",
        "sources",
        "node_offsets",
        "nodes",
        "edge_start",
        "edge_count",
        "edge_dst_entry",
        "_edge_src_entry",
        "_entry_samples",
        "_source_samples",
        "_sample_edge_starts",
        "_shm",
    )

    def __init__(
        self,
        n: int,
        sources: np.ndarray,
        node_offsets: np.ndarray,
        nodes: np.ndarray,
        edge_start: np.ndarray,
        edge_count: np.ndarray,
        edge_dst_entry: np.ndarray,
    ) -> None:
        if len(node_offsets) != len(sources) + 1:
            raise InfluenceError(
                f"node_offsets has {len(node_offsets)} entries for "
                f"{len(sources)} samples"
            )
        if len(edge_start) != len(nodes) or len(edge_count) != len(nodes):
            raise InfluenceError("edge_start/edge_count must align with nodes")
        self.n = int(n)
        self.sources = sources
        self.node_offsets = node_offsets
        self.nodes = nodes
        self.edge_start = edge_start
        self.edge_count = edge_count
        self.edge_dst_entry = edge_dst_entry
        self._edge_src_entry: "np.ndarray | None" = None
        self._entry_samples: "np.ndarray | None" = None
        self._source_samples: "tuple[np.ndarray, np.ndarray] | None" = None
        self._sample_edge_starts: "np.ndarray | None" = None
        #: Shared-memory segment handle when this arena's arrays are views
        #: over a mapped segment (see :meth:`attach` / :meth:`from_segment`).
        self._shm = None

    # ------------------------------------------------------------------ size

    @property
    def n_samples(self) -> int:
        """Number of RR graphs in the arena."""
        return len(self.sources)

    @property
    def total_nodes(self) -> int:
        """``|R|``: activated (sample, node) entries across the batch."""
        return len(self.nodes)

    @property
    def total_edges(self) -> int:
        """``vol(R)``: activated edges across the batch."""
        return len(self.edge_dst_entry)

    def __len__(self) -> int:
        return self.n_samples

    def __repr__(self) -> str:
        return (
            f"RRArena(samples={self.n_samples}, nodes={self.total_nodes}, "
            f"edges={self.total_edges})"
        )

    def memory_bytes(self) -> int:
        """Footprint of the flat arrays, for Table-II style reporting."""
        return (
            self.sources.nbytes
            + self.node_offsets.nbytes
            + self.nodes.nbytes
            + self.edge_start.nbytes
            + self.edge_count.nbytes
            + self.edge_dst_entry.nbytes
        )

    # -------------------------------------------------------- shared memory

    @property
    def is_shared(self) -> bool:
        """Whether this arena's arrays are views over a shared segment."""
        return self._shm is not None

    @property
    def is_readonly(self) -> bool:
        """Whether the backing arrays refuse writes (attached arenas do)."""
        return not self.nodes.flags.writeable or not self.sources.flags.writeable

    def copy(self) -> "RRArena":
        """A private, writable deep copy (used to de-alias shared inputs)."""
        return RRArena(
            n=self.n,
            sources=self.sources.copy(),
            node_offsets=self.node_offsets.copy(),
            nodes=self.nodes.copy(),
            edge_start=self.edge_start.copy(),
            edge_count=self.edge_count.copy(),
            edge_dst_entry=self.edge_dst_entry.copy(),
        )

    def to_shared(
        self,
        name: "str | None" = None,
        extra: "dict | None" = None,
        kind: str = "rr-arena",
    ):
        """Publish this arena into a named shared-memory segment.

        Returns the owning :class:`~repro.utils.shm.SharedSegment`; the
        arena itself is untouched. Readers rebuild a zero-copy arena
        with :meth:`attach`; the owner can adopt the segment's read-only
        views via :meth:`from_segment` to drop its private copy.

        ``kind`` tags the segment header; the full pool arena uses the
        default ``"rr-arena"`` while per-attribute restricted shards are
        published as ``"rr-shard"`` so an attacher can never confuse the
        two (``attach_segment`` rejects kind mismatches).
        """
        from repro.utils.shm import create_segment

        meta = {"n": int(self.n)}
        meta.update(extra or {})
        return create_segment(
            {field: getattr(self, field) for field in _ARENA_FIELDS},
            kind=kind,
            extra=meta,
            name=name,
        )

    @classmethod
    def from_segment(cls, segment) -> "RRArena":
        """Wrap a mapped ``rr-arena`` segment's views as an arena.

        Zero-copy: the arrays are the segment's read-only views, and the
        arena holds the segment handle so the mapping outlives the
        caller's reference to it. Mutating any array raises.
        """
        missing = [f for f in _ARENA_FIELDS if f not in segment.arrays]
        if missing:
            raise InfluenceError(
                f"segment {segment.name!r} is not an arena: missing "
                f"arrays {missing}"
            )
        arrays = {}
        for field in _ARENA_FIELDS:
            array = segment.arrays[field]
            if array.dtype != np.int64:
                raise InfluenceError(
                    f"segment {segment.name!r} stores {field} as "
                    f"{array.dtype}, expected int64"
                )
            arrays[field] = array
        arena = cls(n=int(segment.extra["n"]), **arrays)
        arena._shm = segment
        return arena

    @classmethod
    def attach(cls, name: str, kind: str = "rr-arena") -> "RRArena":
        """Attach a published arena by segment name (read-only, zero-copy).

        ``kind`` must match what the publisher stamped (``"rr-arena"``
        for full pool arenas, ``"rr-shard"`` for per-attribute restricted
        shards); a mismatch raises instead of serving the wrong arrays.
        """
        from repro.utils.shm import attach_segment

        return cls.from_segment(attach_segment(name, kind=kind))

    def detach(self) -> None:
        """Drop this arena's segment handle (close the mapping)."""
        segment, self._shm = self._shm, None
        if segment is not None:
            segment.close()

    def same_samples(self, other: "RRArena") -> bool:
        """Whether ``other`` stores exactly these samples, array for array."""
        return self.n == other.n and all(
            np.array_equal(getattr(self, field), getattr(other, field))
            for field in _ARENA_FIELDS
        )

    # ----------------------------------------------------------- derived maps

    @property
    def entry_samples(self) -> np.ndarray:
        """Sample id of every entry (the node→samples inverted index)."""
        if self._entry_samples is None:
            self._entry_samples = np.repeat(
                np.arange(self.n_samples, dtype=np.int64),
                np.diff(self.node_offsets),
            )
        return self._entry_samples

    @property
    def edge_src_entries(self) -> np.ndarray:
        """Source entry of every edge, aligned with ``edge_dst_entry``.

        Edge slices are contiguous in storage order; sorting entries by
        ``edge_start`` recovers that order, so one ``repeat`` rebuilds the
        per-edge source column without touching Python loops.
        """
        if self._edge_src_entry is None:
            order = np.argsort(self.edge_start, kind="stable")
            self._edge_src_entry = np.repeat(order, self.edge_count[order])
        return self._edge_src_entry

    @property
    def source_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Samples grouped by source node, as ``(order, starts)``.

        ``order[starts[v]:starts[v + 1]]`` lists, in ascending order, the
        samples rooted at node ``v``; ``starts`` has shape ``(n + 1,)``.
        This is the index :meth:`restrict` uses to find the samples a
        node set sources without scanning the pool.
        """
        if self._source_samples is None:
            order = np.argsort(self.sources, kind="stable")
            starts = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.sources, minlength=self.n),
                      out=starts[1:])
            self._source_samples = (order, starts)
        return self._source_samples

    @property
    def sample_edge_starts(self) -> np.ndarray:
        """Start of every sample's edge block, shape ``(n_samples + 1,)``
        (the last element is ``total_edges``); see :meth:`take`.

        Raises :class:`InfluenceError` when an entry's edge slice lies
        outside its sample's block: :meth:`take` and :meth:`restrict`
        would silently splice the wrong edges from such an arena.
        """
        if self._sample_edge_starts is None:
            ecsum = np.zeros(self.total_nodes + 1, dtype=np.int64)
            np.cumsum(self.edge_count, out=ecsum[1:])
            starts = ecsum[self.node_offsets]
            sizes = np.diff(self.node_offsets)
            outside = (self.edge_start < np.repeat(starts[:-1], sizes)) | (
                self.edge_start + self.edge_count > np.repeat(starts[1:], sizes)
            )
            if (outside & (self.edge_count > 0)).any():
                raise InfluenceError(
                    "edge slices are not stored in per-sample blocks in "
                    "sample order"
                )
            self._sample_edge_starts = starts
        return self._sample_edge_starts

    # ---------------------------------------------------------------- views

    def _bounds(self, index: int) -> tuple[int, int]:
        if not (0 <= index < self.n_samples):
            raise InfluenceError(
                f"sample {index} out of range 0..{self.n_samples - 1}"
            )
        return int(self.node_offsets[index]), int(self.node_offsets[index + 1])

    def view(self, index: int) -> RRView:
        """A lazy :class:`RRView` of one sample."""
        self._bounds(index)
        return RRView(self, index)

    def __iter__(self) -> Iterator[RRView]:
        for i in range(self.n_samples):
            yield RRView(self, i)

    def _adjacency_of(self, index: int) -> dict[int, list[int]]:
        """Rebuild one sample's adjacency dict (discovery order)."""
        a, b = self._bounds(index)
        nodes = self.nodes
        adjacency: dict[int, list[int]] = {}
        for e in range(a, b):
            s = int(self.edge_start[e])
            c = int(self.edge_count[e])
            adjacency[int(nodes[e])] = nodes[
                self.edge_dst_entry[s: s + c]
            ].tolist()
        return adjacency

    def reachable_within(
        self, index: int, allowed: "set[int] | np.ndarray"
    ) -> set[int]:
        """Nodes of sample ``index`` reachable from its source inside
        ``allowed`` (Definition 3), walking the flat arrays directly."""
        a, b = self._bounds(index)
        allowed_set = _normalize_allowed(allowed)
        source = int(self.sources[index])
        if source not in allowed_set:
            return set()
        nodes = self.nodes
        seen_entries = {a}  # the source is always its sample's first entry
        stack = [a]
        seen = {source}
        while stack:
            e = stack.pop()
            s = int(self.edge_start[e])
            for de in self.edge_dst_entry[s: s + int(self.edge_count[e])]:
                de = int(de)
                if de in seen_entries:
                    continue
                u = int(nodes[de])
                if u not in allowed_set:
                    continue
                seen_entries.add(de)
                seen.add(u)
                stack.append(de)
        return seen

    def sourced_in(self, allowed: "set[int] | np.ndarray") -> "RRArena":
        """A new arena holding the samples sourced in ``allowed``, whole.

        The sample pick of :meth:`restrict`, without its BFS: samples
        keep their entries outside ``allowed``, in pool order. Cost
        follows the picked samples, not the pool: the
        :attr:`source_samples` index finds them and :meth:`take` copies
        them (so the result never aliases this arena, and :meth:`take`'s
        storage invariant applies). A local HIMOR index counts such a
        pick directly, masking entries outside its community
        (:func:`repro.core.himor.local_index`). ``allowed`` may be a set,
        a list, or an unsorted integer array with repeats.
        """
        allowed_arr = _node_array(allowed)
        if len(allowed_arr) and not (
            (allowed_arr >= 0) & (allowed_arr < self.n)
        ).all():
            raise InfluenceError("allowed contains nodes outside the graph")
        allowed_arr = np.unique(allowed_arr)
        order, starts = self.source_samples
        picked = order[_ragged_ranges(
            starts[allowed_arr], starts[allowed_arr + 1] - starts[allowed_arr]
        )]
        return self.take(np.sort(picked))

    def restrict(self, allowed: "set[int] | np.ndarray") -> "RRArena":
        """A new arena holding this batch induced on ``allowed`` nodes.

        Per sample, the restricted RR graph is the Definition-3 induced
        reachability: samples whose source lies outside ``allowed`` are
        dropped entirely; surviving samples keep exactly the entries
        :meth:`reachable_within` would return, with edges between kept
        entries preserved (storage order intact, entry ids renumbered).

        This is the deterministic pooled counterpart of drawing fresh
        restricted samples with ``sample_arena(..., allowed=...)``: it is
        a pure function of the arena and ``allowed`` — no RNG — which is
        what lets a pooled server answer CODL's restricted local fallback
        without consuming its random stream. The restricted sample count
        (``n_samples`` of the result) is whatever survives, not
        ``theta * |allowed|``; compressed evaluation only compares raw
        counts against thresholds from the same batch, so that is sound.

        Cost follows the samples sourced in ``allowed``, not the pool:
        :meth:`sourced_in` picks them out, and a batched BFS (one ragged
        out-edge gather per frontier) plus a vectorized CSR rebuild run
        over that pick only — no per-sample Python loops. ``allowed`` may
        be a set, a list, or an unsorted integer array with repeats.
        """
        allowed_arr = _node_array(allowed)
        sub = self.sourced_in(allowed_arr)
        mask = np.zeros(self.n, dtype=bool)
        mask[allowed_arr] = True

        # Every sample of ``sub`` is sourced in ``allowed``, and a source
        # is always its sample's first entry.
        reach = np.zeros(sub.total_nodes, dtype=bool)
        frontier = sub.node_offsets[:-1]
        reach[frontier] = True
        entry_ok = mask[sub.nodes]
        while len(frontier):
            counts = sub.edge_count[frontier]
            targets = sub.edge_dst_entry[
                _ragged_ranges(sub.edge_start[frontier], counts)
            ]
            fresh = entry_ok[targets] & ~reach[targets]
            frontier = np.unique(targets[fresh])
            reach[frontier] = True

        # ``reached[e]`` counts the kept entries stored before ``e``: the
        # renumbered id of a kept entry and, at sample bounds, the new
        # node offsets.
        reached = np.zeros(sub.total_nodes + 1, dtype=np.int64)
        np.cumsum(reach, out=reached[1:])
        node_offsets = reached[sub.node_offsets]

        # Edge slices are contiguous in storage order; sorting entries by
        # ``edge_start`` recovers it, giving each edge's source entry.
        storage = np.argsort(sub.edge_start, kind="stable")
        esrc = np.repeat(storage, sub.edge_count[storage])
        keep_edge = reach[esrc] & reach[sub.edge_dst_entry]
        edge_dst_entry = reached[sub.edge_dst_entry[keep_edge]]
        kept_counts = np.bincount(esrc[keep_edge], minlength=sub.total_nodes)
        # New edge slices stay contiguous in the old storage order: entry
        # e's slice starts after every kept edge of entries stored before
        # it, so one cumsum over storage order yields the new starts.
        starts_in_order = np.zeros(sub.total_nodes, dtype=np.int64)
        np.cumsum(kept_counts[storage][:-1], out=starts_in_order[1:])
        edge_start_all = np.empty(sub.total_nodes, dtype=np.int64)
        edge_start_all[storage] = starts_in_order

        return RRArena(
            n=self.n,
            sources=sub.sources,
            node_offsets=node_offsets,
            nodes=sub.nodes[reach],
            edge_start=edge_start_all[reach],
            edge_count=kept_counts[reach].astype(np.int64),
            edge_dst_entry=edge_dst_entry,
        )

    def take(self, indices: "Sequence[int] | np.ndarray") -> "RRArena":
        """A new arena holding samples ``indices`` in the given order.

        Relies on the storage invariant every constructor in this module
        maintains: each sample's entries *and* its edges occupy one
        contiguous block, and blocks appear in sample order (true of
        :func:`sample_arena` output and preserved by :meth:`restrict` and
        :func:`concatenate_arenas`). Under that invariant, sample ``i``'s
        edge block is ``[ecsum[node_offsets[i]], ecsum[node_offsets[i+1]])``
        where ``ecsum`` is the entry-order prefix sum of ``edge_count`` —
        per-sample sums are order-independent even though edges within a
        sample are stored in exploration, not entry, order. Those block
        starts are derived once per arena (:attr:`sample_edge_starts`),
        so a call costs what it selects, not the size of the arena.

        This is the splice primitive of incremental repair: keep the
        untouched samples of an old arena and swap in freshly redrawn
        versions of the touched ones, all without a Python-level loop.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) and not (
            (indices >= 0) & (indices < self.n_samples)
        ).all():
            raise InfluenceError("take indices out of sample range")

        sample_estart = self.sample_edge_starts
        old_nbase = self.node_offsets[:-1][indices]
        old_ebase = sample_estart[:-1][indices]
        sel_ncounts = self.node_offsets[1:][indices] - old_nbase
        sel_ecounts = sample_estart[1:][indices] - old_ebase

        node_offsets = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(sel_ncounts, out=node_offsets[1:])
        nidx = _ragged_ranges(old_nbase, sel_ncounts)
        new_estart = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(sel_ecounts, out=new_estart[1:])
        eidx = _ragged_ranges(old_ebase, sel_ecounts)

        # Entry ids inside edges shift by (new sample node base - old);
        # edge_start values shift by (new sample edge base - old).
        edge_dst = self.edge_dst_entry[eidx] + np.repeat(
            node_offsets[:-1] - old_nbase, sel_ecounts
        )
        edge_start = self.edge_start[nidx] + np.repeat(
            new_estart[:-1] - old_ebase, sel_ncounts
        )

        return RRArena(
            n=self.n,
            sources=self.sources[indices],
            node_offsets=node_offsets,
            nodes=self.nodes[nidx],
            edge_start=edge_start,
            edge_count=self.edge_count[nidx],
            edge_dst_entry=edge_dst,
        )

    # ------------------------------------------------------------ evaluation

    def node_counts(self) -> np.ndarray:
        """RR-occurrence count of every graph node, shape ``(n,)``."""
        return np.bincount(self.nodes, minlength=self.n)

    def influence_counts(self) -> dict[int, int]:
        """Occurrence counts as a dict (nodes with count 0 omitted)."""
        counts = self.node_counts()
        (present,) = np.nonzero(counts)
        return {int(v): int(counts[v]) for v in present}

    def hfs_levels(
        self,
        node_levels: np.ndarray,
        n_levels: int,
        budget: "object | None" = None,
    ) -> np.ndarray:
        """Per-entry HFS level assignment (Algorithm 1, stage 1) for every
        sample at once.

        ``node_levels`` maps each graph node to the index of the smallest
        chain community containing it (:attr:`CommunityChain.node_levels`;
        negative = outside every community). Returns, per entry, the
        minimax-over-paths level it is charged to, with ``n_levels``
        marking "unreachable inside the chain".

        The minimax assignment satisfies the Bellman fixpoint
        ``a[u] = min over in-edges (max(a[v], level(u)))`` with
        ``a[source] = level(source)``. One label-correcting frontier
        covers all levels at once: it starts at the in-chain sources, and
        each round gathers the frontier's out-edges, keeps the targets
        whose value ``max(a[src], level(dst))`` improves them (duplicates
        reduced by minimum), and makes those targets the next frontier.
        Every value is realized by a real path, so none is below the
        minimax level; at termination no edge improves, so by induction
        along an optimal path none is above it either. Each entry
        improves at most ``n_levels`` times, so the work is
        ``O(n_levels * vol(R))`` in the worst case, and the rounds number
        the most hops any entry's best path needs.

        ``budget`` (duck-typed :class:`~repro.serving.budget.ExecutionBudget`)
        is checked once per frontier expansion.
        """
        sentinel = int(n_levels)
        lvl = node_levels[self.nodes]
        lvl = np.where((lvl < 0) | (lvl >= sentinel), sentinel, lvl)
        assigned = np.full(self.total_nodes, sentinel, dtype=np.int64)
        if sentinel == 0 or self.total_nodes == 0:
            return assigned

        # A source outside the chain stays at the sentinel and never
        # propagates.
        roots = self.node_offsets[:-1]
        frontier = roots[lvl[roots] < sentinel]
        assigned[frontier] = lvl[frontier]
        pending = np.zeros(self.total_nodes, dtype=bool)
        while len(frontier):
            if budget is not None:
                budget.check()
            counts = self.edge_count[frontier]
            targets = self.edge_dst_entry[
                _ragged_ranges(self.edge_start[frontier], counts)
            ]
            value = np.maximum(np.repeat(assigned[frontier], counts), lvl[targets])
            improves = value < assigned[targets]
            targets = targets[improves]
            np.minimum.at(assigned, targets, value[improves])
            # Deduplicate through a mark array rather than a sort.
            pending[targets] = True
            frontier = np.flatnonzero(pending)
            pending[frontier] = False
        return assigned

    def level_bucket_counts(
        self,
        node_levels: np.ndarray,
        n_levels: int,
        budget: "object | None" = None,
    ) -> np.ndarray:
        """Stage-1 bucket totals: ``counts[h, v]`` = samples charging node
        ``v`` to chain level ``h``. One ``bincount`` over the flattened
        (level, node) keys replaces the per-sample dict buckets."""
        assigned = self.hfs_levels(node_levels, n_levels, budget=budget)
        mask = assigned < n_levels
        keys = assigned[mask] * self.n + self.nodes[mask]
        flat = np.bincount(keys, minlength=n_levels * self.n)
        return flat.reshape(n_levels, self.n)


def concatenate_arenas(arenas: Sequence[RRArena]) -> RRArena:
    """Merge arenas over the same graph into one batch (samples appended
    in order), e.g. the samples a HIMOR repair re-traverses."""
    if not arenas:
        raise InfluenceError("need at least one arena to concatenate")
    n = arenas[0].n
    for a in arenas[1:]:
        if a.n != n:
            raise InfluenceError(
                f"cannot concatenate arenas over different graphs "
                f"({a.n} vs {n} nodes)"
            )
    if len(arenas) == 1:
        # Never alias a read-only (shared-memory attached) arena into a
        # caller that asked for a merge and may assume ownership of the
        # result; hand it a private writable copy instead.
        return arenas[0].copy() if arenas[0].is_readonly else arenas[0]
    node_shift = np.cumsum([0] + [a.total_nodes for a in arenas])
    edge_shift = np.cumsum([0] + [a.total_edges for a in arenas])
    offsets = [arenas[0].node_offsets]
    for a, shift in zip(arenas[1:], node_shift[1:]):
        offsets.append(a.node_offsets[1:] + shift)
    return RRArena(
        n=n,
        sources=np.concatenate([a.sources for a in arenas]),
        node_offsets=np.concatenate(offsets),
        nodes=np.concatenate([a.nodes for a in arenas]),
        edge_start=np.concatenate(
            [a.edge_start + shift for a, shift in zip(arenas, edge_shift)]
        ),
        edge_count=np.concatenate([a.edge_count for a in arenas]),
        edge_dst_entry=np.concatenate(
            [a.edge_dst_entry + shift for a, shift in zip(arenas, node_shift)]
        ),
    )


def _graph_csr(graph: AttributedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Flat CSR of the graph adjacency: ``(indptr, indices)``."""
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(graph.degrees, out=indptr[1:])
    indices = (
        np.concatenate([graph.neighbors(v) for v in range(graph.n)])
        if graph.m > 0
        else _EMPTY
    )
    return indptr, indices


def _draw_sources(
    n: int,
    count: int,
    rng: np.random.Generator,
    sources: "Sequence[int] | None",
    allowed: "set[int] | None",
) -> "tuple[np.ndarray, np.ndarray | None]":
    """Validate a stream sampler's arguments and draw its sources.

    Returns ``(source_arr, allowed_mask)``. Sources are drawn in one
    vectorized call (uniform over ``allowed`` when given, else over all
    ``n`` nodes) before any edge trial, so both RNG-stream samplers share
    this draw.
    """
    if count < 0:
        raise InfluenceError(f"count must be non-negative, got {count}")
    allowed_mask: "np.ndarray | None" = None
    if allowed is not None:
        allowed_mask = np.zeros(n, dtype=bool)
        allowed_arr = np.asarray(sorted(allowed), dtype=np.int64)
        if len(allowed_arr) and not (
            0 <= int(allowed_arr[0]) and int(allowed_arr[-1]) < n
        ):
            raise InfluenceError("allowed contains nodes outside the graph")
        if count and not len(allowed_arr):
            raise InfluenceError(
                f"cannot draw {count} samples from an empty allowed node set"
            )
        allowed_mask[allowed_arr] = True

    if sources is None:
        if allowed is not None:
            picks = rng.integers(0, len(allowed_arr), size=count)
            return allowed_arr[picks], allowed_mask
        return rng.integers(0, n, size=count), allowed_mask
    if len(sources) != count:
        raise InfluenceError(f"got {len(sources)} sources for count={count}")
    source_arr = np.asarray(sources, dtype=np.int64)
    if count and not ((source_arr >= 0) & (source_arr < n)).all():
        bad = int(source_arr[(source_arr < 0) | (source_arr >= n)][0])
        raise InfluenceError(f"source {bad} is not a node of the graph")
    if allowed_mask is not None and count and not allowed_mask[source_arr].all():
        bad = int(source_arr[~allowed_mask[source_arr]][0])
        raise InfluenceError(f"source {bad} is outside the allowed node set")
    return source_arr, allowed_mask


def sample_arena(
    graph: AttributedGraph,
    count: int,
    rng: "int | np.random.Generator | None" = None,
    sources: "Sequence[int] | None" = None,
    allowed: "set[int] | None" = None,
    budget: "object | None" = None,
    trace: "object | None" = None,
) -> RRArena:
    """Draw ``count`` weighted-cascade RR graphs straight into a flat
    :class:`RRArena`.

    Stream-compatible with the paper's naive per-sample dict sampler:
    sources are pre-drawn in one vectorized call, and each sample explores
    nodes in LIFO order with one Bernoulli block (``p = 1 / deg(v)``) per
    explored node, so a given seed yields exactly the samples that sampler
    would produce (the oracle suite pins this seed for seed against
    ``tests/oracle/reference.py``). Draws run on a flattened CSR copy of
    the graph's adjacency.

    ``budget.tick()`` runs before each draw and the ``rr_sampling`` fault
    site fires once per sample.

    ``trace`` is an optional duck-typed span recorder (anything with a
    ``span(name, **meta)`` context manager, e.g.
    ``repro.obs.QueryTrace``): the draw loop runs inside a ``sampling``
    span annotated with the sample count and arena size. Tracing draws
    nothing from ``rng`` and never changes the samples.
    """
    rng = ensure_rng(rng)
    n = graph.n
    source_arr, allowed_mask = _draw_sources(n, count, rng, sources, allowed)
    indptr, indices = _graph_csr(graph)

    # Hot-loop state lives in plain Python lists: at RR-graph node degrees
    # the per-call overhead of small-array numpy ops costs more than
    # scalar list indexing, and the draws themselves stay vectorized.
    indptr_l: list[int] = indptr.tolist()
    allowed_ok: "list[bool] | None" = (
        allowed_mask.tolist() if allowed_mask is not None else None
    )
    visited = [-1] * n  # epoch stamp = sample index
    entry_of = [0] * n

    nodes_list: list[int] = []
    edge_start_list: list[int] = []
    edge_count_list: list[int] = []
    edge_entries: list[int] = []
    node_offsets = np.empty(count + 1, dtype=np.int64)
    node_offsets[0] = 0

    rand = rng.random
    span_cm = trace.span("sampling") if trace is not None else nullcontext()
    with span_cm as span:
        for i in range(count):
            if budget is not None:
                budget.tick()
            maybe_fail("rr_sampling")
            source = int(source_arr[i])
            visited[source] = i
            entry_of[source] = len(nodes_list)
            nodes_list.append(source)
            edge_start_list.append(0)
            edge_count_list.append(0)
            frontier = [source]
            while frontier:
                v = frontier.pop()
                e = entry_of[v]
                beg = indptr_l[v]
                deg = indptr_l[v + 1] - beg
                # One Bernoulli block per explored node, and nothing for an
                # isolated node: the reference sampler's RNG stream.
                if deg == 0:
                    fired: list[int] = []
                else:
                    nbrs = indices[beg: beg + deg]
                    fired = nbrs[rand(deg) < 1.0 / deg].tolist()
                if allowed_ok is not None and fired:
                    fired = [u for u in fired if allowed_ok[u]]
                edge_start_list[e] = len(edge_entries)
                edge_count_list[e] = len(fired)
                for u in fired:
                    if visited[u] != i:
                        visited[u] = i
                        entry_of[u] = len(nodes_list)
                        nodes_list.append(u)
                        edge_start_list.append(0)
                        edge_count_list.append(0)
                        frontier.append(u)
                    edge_entries.append(entry_of[u])
            node_offsets[i + 1] = len(nodes_list)

        if span is not None:
            span.note(
                samples=count,
                arena_nodes=len(nodes_list),
                arena_edges=len(edge_entries),
            )

    return RRArena(
        n=n,
        sources=source_arr,
        node_offsets=node_offsets,
        nodes=np.asarray(nodes_list, dtype=np.int64),
        edge_start=np.asarray(edge_start_list, dtype=np.int64),
        edge_count=np.asarray(edge_count_list, dtype=np.int64),
        edge_dst_entry=np.asarray(edge_entries, dtype=np.int64),
    )


class ArenaRepair:
    """Result of :func:`repair_arena`: the spliced arena plus the delta.

    ``removed``/``added`` are the old and new versions of the touched
    samples (in ``touched`` order) — exactly the per-sample delta an
    incremental HIMOR repair needs to subtract/add bucket charges.
    """

    __slots__ = ("arena", "touched", "removed", "added")

    def __init__(self, arena: RRArena, touched: np.ndarray,
                 removed: RRArena, added: RRArena) -> None:
        self.arena = arena
        self.touched = touched
        self.removed = removed
        self.added = added

    @property
    def n_repaired(self) -> int:
        """How many samples were invalidated and redrawn."""
        return len(self.touched)

    def __repr__(self) -> str:
        return (
            f"ArenaRepair(repaired={self.n_repaired}/"
            f"{self.arena.n_samples} samples)"
        )


def repair_arena(
    arena: RRArena,
    graph: AttributedGraph,
    touched_nodes: "set[int] | Sequence[int] | np.ndarray",
    base_seed: int,
    budget: "object | None" = None,
) -> ArenaRepair:
    """Incrementally repair a seeded arena after a topology update.

    ``arena`` must have been drawn by
    :func:`~repro.influence.fastsample.sample_arena_seeded_fast` — the
    one per-sample-seeded sampler — with the same ``base_seed``,
    and ``graph`` is the post-update graph. ``touched_nodes`` are the
    endpoints of the update's edge insertions/deletions.

    A sample needs redrawing iff one of its *activated* entries is a
    touched node: deletions can only change a sample that explored a
    touched endpoint, and an added edge ``(u, v)`` can only fire from an
    activation of ``u`` or ``v`` — a sample activating neither never ran
    a Bernoulli trial the new edge participates in. Untouched samples
    are bit-identical to a fresh draw on the new graph (per-sample
    streams), so splicing redrawn touched samples over them reproduces a
    full from-scratch seeded draw exactly.
    """
    if graph.n != arena.n:
        raise InfluenceError(
            f"repair graph has {graph.n} nodes but the arena was drawn "
            f"over {arena.n}"
        )
    mask = np.zeros(arena.n, dtype=bool)
    touched_arr = np.asarray(sorted(int(v) for v in touched_nodes), dtype=np.int64)
    if len(touched_arr) and not (
        (touched_arr >= 0) & (touched_arr < arena.n)
    ).all():
        raise InfluenceError("touched node outside the graph")
    mask[touched_arr] = True

    entry_touched = mask[arena.nodes] if arena.total_nodes else np.zeros(0, bool)
    touched_ids = np.unique(arena.entry_samples[entry_touched])
    empty = RRArena(
        n=arena.n,
        sources=_EMPTY,
        node_offsets=np.zeros(1, dtype=np.int64),
        nodes=_EMPTY,
        edge_start=_EMPTY,
        edge_count=_EMPTY,
        edge_dst_entry=_EMPTY,
    )
    if len(touched_ids) == 0:
        return ArenaRepair(arena, touched_ids, empty, empty)

    removed = arena.take(touched_ids)
    # Local import: fastsample imports this module.
    from repro.influence.fastsample import sample_arena_seeded_fast

    added = sample_arena_seeded_fast(
        graph,
        base_seed=base_seed,
        indices=touched_ids,
        budget=budget,
    )
    perm = np.arange(arena.n_samples, dtype=np.int64)
    perm[touched_ids] = arena.n_samples + np.arange(
        len(touched_ids), dtype=np.int64
    )
    repaired = concatenate_arenas([arena, added]).take(perm)
    return ArenaRepair(repaired, touched_ids, removed, added)


def __getattr__(name: str):
    # Lazy re-export of the vectorized fast path: `fastsample` imports from
    # this module, so a top-level import here would be circular. PEP 562
    # keeps `from repro.influence.arena import sample_arena_fast` working.
    if name in ("sample_arena_fast", "sample_arena_seeded_fast"):
        from repro.influence import fastsample

        return getattr(fastsample, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
