"""The HIMOR index (Section IV-B), the lookup of Algorithm 3.

LORE only changes the hierarchy *below* the reclustered community ``C_l``;
everything above it comes unchanged from the non-attributed hierarchy
``T``. HIMOR exploits that invariant: it precomputes, for every node ``v``
and every ancestor community ``C`` of ``v`` in ``T``, the influence rank
``rank_C(v)`` — so a query first walks the ranks of ``q`` over the
ancestors of ``C_l`` top-down (largest community first) and only falls back
to compressed evaluation *inside* ``C_l`` when no ancestor qualifies. The
query side of Algorithm 3 is the CODL rung of
:class:`~repro.serving.server.CODServer`.

Construction is the compressed tree variant of Algorithm 1: one pool of
``Theta = theta * |V|`` RR graphs is HFS-traversed over the whole tree ``T``
(each RR-graph node charged to the smallest community containing its path
from the source — ``lca`` along the path), then the buckets are summed
up each node's root path and every member's rank in every community is
read off one sort of all ``(community, member)`` pairs. Total work
matches Theorem 6, ``O(Theta * omega + |R| log |V| + sum_v dep(v))``, up
to the ``log`` of that one sort.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import CheckpointError, IndexError_, QueryError
from repro.graph.graph import AttributedGraph
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.influence.arena import RRArena, _ragged_ranges, sample_arena
from repro.influence.models import InfluenceModel, WeightedCascade
from repro.utils.faults import maybe_fail
from repro.utils.persist import (
    atomic_write_json,
    load_versioned_json,
    payload_checksum,
)
from repro.utils.rng import ensure_rng


class HimorIndex:
    """Precomputed influence ranks over a non-attributed hierarchy.

    ``ranks_of(v)`` returns the 1-based influence rank of ``v`` in each of
    its ancestor communities, deepest first — aligned with
    ``hierarchy.path_communities(v)``. Build with :meth:`build`.
    """

    def __init__(
        self,
        hierarchy: CommunityHierarchy,
        ranks: list[np.ndarray],
        theta: int,
        n_samples: int,
        buckets: "dict[int, dict[int, int]] | None" = None,
        graph_sha: "str | None" = None,
    ) -> None:
        if len(ranks) != hierarchy.n_leaves:
            raise IndexError_(
                f"rank table covers {len(ranks)} nodes but the hierarchy has "
                f"{hierarchy.n_leaves} leaves"
            )
        self.hierarchy = hierarchy
        self.theta = int(theta)
        self.n_samples = int(n_samples)
        #: Samples restored from a build checkpoint (0 = built fresh).
        self.resumed_from = 0
        #: Checksum of the edge set the index was built for (``None`` on
        #: legacy artifacts); lets a server reject a stale persisted index
        #: after the graph moved to a new epoch.
        self.graph_sha = graph_sha
        #: The sample stream the ranks were counted over (see
        #: :func:`build_fingerprint`), set by :meth:`build` and
        #: :meth:`load`; ``None`` when unknown, e.g. on artifacts saved
        #: before the stream was recorded. A server only serves (and later
        #: delta-repairs) an index drawn from its own stream.
        self.sample_mode: "str | None" = None
        #: Per-tag HFS own-charges, kept (when available) so
        #: :meth:`repair` can delta-update instead of re-traversing the
        #: whole pool.
        self._buckets = buckets
        self._ranks = ranks

    @property
    def has_buckets(self) -> bool:
        """Whether incremental :meth:`repair` is possible on this index."""
        return self._buckets is not None

    # ---------------------------------------------------------- construction

    @classmethod
    def build(
        cls,
        graph: AttributedGraph,
        hierarchy: CommunityHierarchy,
        theta: int = 10,
        model: InfluenceModel | None = None,
        rng: "int | np.random.Generator | None" = None,
        rr_graphs: "RRArena | None" = None,
        budget: "object | None" = None,
        checkpoint_path: "str | Path | None" = None,
        checkpoint_every: int = 256,
        resume: bool = True,
        trace: "object | None" = None,
        sample_mode: str = "stream",
    ) -> "HimorIndex":
        """Compressed HIMOR construction over ``hierarchy``.

        Samples are drawn into (or supplied as) a flat
        :class:`~repro.influence.arena.RRArena` over ``graph`` and
        traversed without materializing per-sample adjacency dicts.
        Anything else as ``rr_graphs``, or an arena over a different node
        count, raises :class:`~repro.errors.IndexError_`.

        ``budget`` is an optional cooperative execution budget (see
        :class:`repro.serving.budget.ExecutionBudget`) ticked per sample
        drawn and checked periodically during the HFS traversal.

        **Crash-safe builds.** With ``checkpoint_path`` set, per-tree-bucket
        progress is persisted atomically every ``checkpoint_every`` samples
        under the versioned/checksummed envelope, keyed by a fingerprint of
        the graph, hierarchy, ``theta``, sample count, and (integer) seed.
        A later call with ``resume=True`` validates the checkpoint against
        that fingerprint and continues the HFS traversal where it stopped;
        a stale, corrupt, or mismatched checkpoint is discarded and the
        build restarts from sample zero. Because the sample stream is
        re-derived from the seed, a resumed build produces bit-identical
        ranks to an uninterrupted one (asserted in ``tests/serving``). The
        checkpoint file is removed once the build completes. The index's
        :attr:`resumed_from` records how many samples the checkpoint
        contributed (0 for a fresh build).

        ``trace`` is an optional duck-typed span recorder (``span(name,
        **meta)`` context manager, e.g. ``repro.obs.QueryTrace``): the
        build runs inside a ``himor_build`` span annotated with the sample
        count, ``theta``, and resume progress. Tracing never changes the
        built ranks.
        """
        span_cm = (
            trace.span("himor_build") if trace is not None else nullcontext()
        )
        with span_cm as span:
            maybe_fail("himor_build")
            if hierarchy.n_leaves != graph.n:
                raise IndexError_(
                    f"hierarchy has {hierarchy.n_leaves} leaves but graph "
                    f"has {graph.n} nodes"
                )
            if checkpoint_path is not None and checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every!r}"
                )
            if rr_graphs is None:
                rr_graphs = sample_arena(
                    graph, theta * graph.n, model=model or WeightedCascade(),
                    rng=ensure_rng(rng), budget=budget, trace=trace,
                )
            elif not isinstance(rr_graphs, RRArena):
                raise IndexError_(
                    f"rr_graphs must be an RRArena or None, got "
                    f"{type(rr_graphs).__name__}"
                )
            elif rr_graphs.n != graph.n:
                raise IndexError_(
                    f"arena was sampled over {rr_graphs.n} nodes but the "
                    f"graph has {graph.n}"
                )
            seed = int(rng) if isinstance(rng, (int, np.integer)) else None
            n_samples = rr_graphs.n_samples
            resumed_from = 0
            start = 0
            initial_buckets: "dict[int, dict[int, int]] | None" = None
            on_checkpoint = None
            if checkpoint_path is not None:
                checkpoint_path = Path(checkpoint_path)
                fingerprint = build_fingerprint(
                    graph, hierarchy, theta=theta, n_samples=n_samples,
                    seed=seed, sample_mode=sample_mode,
                )
                if resume and checkpoint_path.exists():
                    try:
                        start, initial_buckets = _load_checkpoint(
                            checkpoint_path, fingerprint, n_samples
                        )
                        resumed_from = start
                    except CheckpointError:
                        start, initial_buckets = 0, None

                def on_checkpoint(next_sample: int, buckets: dict) -> None:
                    _save_checkpoint(
                        checkpoint_path, fingerprint, next_sample, n_samples, buckets
                    )

            buckets = _tree_hfs_arena(
                hierarchy,
                rr_graphs,
                budget=budget,
                start=start,
                buckets=initial_buckets,
                checkpoint_every=checkpoint_every if on_checkpoint else None,
                on_checkpoint=on_checkpoint,
            )
            if checkpoint_path is not None:
                checkpoint_path.unlink(missing_ok=True)
            ranks = _bottom_up_ranks(hierarchy, buckets)
            index = cls(
                hierarchy, ranks, theta=theta, n_samples=n_samples,
                buckets=buckets, graph_sha=graph_checksum(graph),
            )
            index.resumed_from = resumed_from
            index.sample_mode = sample_mode
            if span is not None:
                span.note(
                    n_samples=int(n_samples),
                    theta=int(theta),
                    resumed_from=int(resumed_from),
                )
            return index

    # ----------------------------------------------------------------- repair

    def repair(
        self,
        removed: RRArena,
        added: RRArena,
        graph_sha: "str | None" = None,
        budget: "object | None" = None,
    ) -> dict:
        """Incrementally repair the index after an arena repair.

        ``removed``/``added`` are the old and new versions of the redrawn
        samples (an :class:`~repro.influence.arena.ArenaRepair`'s delta);
        the hierarchy must be unchanged by the update (callers compare
        parent arrays via :func:`same_hierarchy` and rebuild otherwise).

        The per-sample HFS traversal — the dominant build cost — runs only
        over the removed and added samples: their charges are subtracted
        from / added to the retained buckets, which restores the buckets
        a from-scratch HFS over the repaired pool would produce exactly
        (per-sample charges are independent). Rank recombination then
        reruns over the stored buckets; only communities in the ancestor
        closure of changed buckets actually change ranks (reported as
        ``repaired_subtrees``), but recombination is pure counting — no
        sampling, no traversal.

        Returns ``{"changed_buckets", "repaired_subtrees"}``.
        """
        if self._buckets is None:
            raise IndexError_(
                "index carries no HFS buckets (legacy artifact); "
                "incremental repair needs a bucket-retaining build"
            )
        if removed.n_samples != added.n_samples:
            raise IndexError_(
                f"repair delta is lopsided: {removed.n_samples} removed vs "
                f"{added.n_samples} added samples"
            )
        changed: set[int] = set()
        for sign, delta_arena in ((-1, removed), (1, added)):
            delta = _tree_hfs_arena(self.hierarchy, delta_arena, budget=budget)
            for tag, bucket in delta.items():
                own = self._buckets.setdefault(tag, {})
                for node, count in bucket.items():
                    value = own.get(node, 0) + sign * count
                    if value < 0:
                        raise IndexError_(
                            "bucket charge went negative during repair: the "
                            "removed samples do not match this index's pool"
                        )
                    if value:
                        own[node] = value
                    else:
                        own.pop(node, None)
                if not own:
                    self._buckets.pop(tag, None)
                changed.add(tag)
        affected: set[int] = set()
        for tag in changed:
            vertex = tag
            while vertex not in affected:
                affected.add(vertex)
                parent = self.hierarchy.parent(vertex)
                if parent < 0:
                    break
                vertex = parent
        if changed:
            self._ranks = _bottom_up_ranks(self.hierarchy, self._buckets)
        if graph_sha is not None:
            self.graph_sha = graph_sha
        return {
            "changed_buckets": len(changed),
            "repaired_subtrees": len(affected),
        }

    # --------------------------------------------------------------- queries

    def ranks_of(self, node: int) -> np.ndarray:
        """Ranks of ``node`` along its ancestor path, deepest first."""
        if not (0 <= node < self.hierarchy.n_leaves):
            raise QueryError(f"node {node} is not in the indexed graph")
        return self._ranks[node]

    def rank_in(self, node: int, community_vertex: int) -> int:
        """Rank of ``node`` within a specific ancestor community."""
        path = self.hierarchy.path_communities(node)
        try:
            position = path.index(community_vertex)
        except ValueError:
            raise QueryError(
                f"community vertex {community_vertex} is not an ancestor of node {node}"
            ) from None
        return int(self._ranks[node][position])

    def largest_qualifying_ancestor(
        self, node: int, k: int, floor_vertex: int | None = None
    ) -> int | None:
        """Algorithm 3's index scan.

        Walks the ancestors of ``floor_vertex`` (default: all of
        ``H(node)``) top-down and returns the first — i.e. largest —
        community in which ``node`` has rank <= ``k``; ``None`` when no
        ancestor qualifies.
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        path = self.hierarchy.path_communities(node)
        ranks = self._ranks[node]
        start = 0
        if floor_vertex is not None:
            try:
                start = path.index(floor_vertex)
            except ValueError:
                raise QueryError(
                    f"floor vertex {floor_vertex} is not an ancestor of node {node}"
                ) from None
        for position in range(len(path) - 1, start - 1, -1):
            if ranks[position] <= k:
                return path[position]
        return None

    # ------------------------------------------------------------- overhead

    def memory_bytes(self) -> int:
        """Index footprint (rank arrays only), for Table II reporting."""
        return sum(r.nbytes for r in self._ranks)

    # ----------------------------------------------------------- persistence

    #: Envelope format name; see :mod:`repro.utils.persist`.
    FORMAT = "himor-index"

    def save(self, path: "str | Path") -> None:
        """Persist the index atomically with a format version and checksum.

        The document is written to a temp file and moved into place, so a
        crash mid-save never corrupts an existing index on disk.
        """
        maybe_fail("himor_save")
        payload = {
            "theta": self.theta,
            "n_samples": self.n_samples,
            "n_leaves": self.hierarchy.n_leaves,
            "parent": self.hierarchy.parents.tolist(),
            "ranks": [r.tolist() for r in self._ranks],
            "graph_sha": self.graph_sha,
            "sample_mode": self.sample_mode,
        }
        if self._buckets is not None:
            # Persisting the HFS buckets keeps a reloaded index repairable
            # (a respawned worker can keep delta-updating across epochs
            # instead of rebuilding on the first post-load update).
            payload["buckets"] = {
                str(tag): {str(node): int(count) for node, count in bucket.items()}
                for tag, bucket in self._buckets.items()
            }
        atomic_write_json(path, payload, kind=self.FORMAT)

    @classmethod
    def load(cls, path: "str | Path") -> "HimorIndex":
        """Load an index written by :meth:`save`.

        Verifies the envelope's format version and SHA-256 checksum and
        raises :class:`IndexError_` — never a raw ``json.JSONDecodeError``
        — on any corruption or mismatch.
        """
        maybe_fail("himor_load")
        payload = load_versioned_json(path, kind=cls.FORMAT, error_cls=IndexError_)
        try:
            hierarchy = CommunityHierarchy.from_parents(
                int(payload["n_leaves"]), [int(p) for p in payload["parent"]]
            )
            ranks = [np.asarray(r, dtype=np.int64) for r in payload["ranks"]]
            buckets = None
            if payload.get("buckets") is not None:
                buckets = {
                    int(tag): {int(node): int(count)
                               for node, count in bucket.items()}
                    for tag, bucket in payload["buckets"].items()
                }
            index = cls(
                hierarchy, ranks,
                theta=int(payload["theta"]),
                n_samples=int(payload["n_samples"]),
                buckets=buckets,
                graph_sha=payload.get("graph_sha"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexError_(f"malformed HIMOR index in {path}: {exc}") from exc
        index.sample_mode = payload.get("sample_mode")
        return index


# ------------------------------------------------------------- checkpoints


#: Envelope format name for mid-build checkpoints.
CHECKPOINT_FORMAT = "himor-checkpoint"


def graph_checksum(graph: AttributedGraph) -> str:
    """Checksum of a graph's edge set — the index's notion of identity.

    HIMOR is attribute-blind (the tree and the RR samples read topology
    only), so attribute-only epochs keep a persisted index loadable; any
    edge change yields a new checksum and forces repair or rebuild.

    It is :attr:`AttributedGraph.edge_checksum`: computed once per graph
    from its adjacency rows and cached, so the update path's several
    reads (WAL record, index repair, index build) cost one pass. The
    digest is the same as ever (SHA-256 of the sorted ``[[u,v],...]``
    edge list as compact JSON), so WAL records, snapshots and persisted
    indexes written before stay valid.
    """
    return graph.edge_checksum


def same_hierarchy(a: CommunityHierarchy, b: CommunityHierarchy) -> bool:
    """Structural equality of two hierarchies (same leaves, same parents).

    Agglomerative construction is deterministic, so equal parent arrays
    mean identical vertex layout — the precondition for repairing an
    index in place rather than rebuilding after a topology update.
    """
    if a.n_leaves != b.n_leaves or a.n_vertices != b.n_vertices:
        return False
    return bool(np.array_equal(a.parents, b.parents))


def build_fingerprint(
    graph: AttributedGraph,
    hierarchy: CommunityHierarchy,
    theta: int,
    n_samples: int,
    seed: "int | None",
    sample_mode: str = "stream",
) -> str:
    """Identity of one deterministic build: graph + tree + sampling plan.

    A checkpoint is only resumable into a build with the same fingerprint;
    anything else (edges changed, hierarchy re-clustered, different theta
    or seed) must be rejected rather than silently merged. ``seed`` is
    ``None`` when the caller sampled from an opaque generator — such
    builds still checkpoint, but the fingerprint then cannot distinguish
    two different sample streams, so pass an integer seed whenever
    resume-equals-fresh matters. ``sample_mode`` names the sample stream:
    the shared stream sampler (``"stream"``), or a per-sample-seeded pool
    drawing with SeedSequence children (``"per-sample"``) or the hashed
    fast stream (``"per-sample-fast"``). The three draw different arenas
    from the same seed, so their checkpoints must never cross-resume.
    """
    payload = {
        "n": graph.n,
        "m": graph.m,
        "edges_sha": graph_checksum(graph),
        "parent": hierarchy.parents.tolist(),
        "theta": int(theta),
        "n_samples": int(n_samples),
        "seed": seed,
        "sample_mode": str(sample_mode),
    }
    return payload_checksum(payload)


def _save_checkpoint(
    path: Path,
    fingerprint: str,
    next_sample: int,
    n_samples: int,
    buckets: dict[int, dict[int, int]],
) -> None:
    """Atomically persist per-tree-bucket progress through ``next_sample``."""
    maybe_fail("himor_checkpoint_save")
    payload = {
        "fingerprint": fingerprint,
        "next_sample": int(next_sample),
        "n_samples": int(n_samples),
        "buckets": {
            str(tag): {str(node): int(count) for node, count in bucket.items()}
            for tag, bucket in buckets.items()
        },
    }
    atomic_write_json(path, payload, kind=CHECKPOINT_FORMAT)


def _load_checkpoint(
    path: Path, fingerprint: str, n_samples: int
) -> "tuple[int, dict[int, dict[int, int]]]":
    """Load and validate a checkpoint; raise :class:`CheckpointError` if unusable."""
    payload = load_versioned_json(path, kind=CHECKPOINT_FORMAT, error_cls=CheckpointError)
    try:
        stored_fingerprint = payload["fingerprint"]
        next_sample = int(payload["next_sample"])
        stored_n_samples = int(payload["n_samples"])
        buckets = {
            int(tag): {int(node): int(count) for node, count in bucket.items()}
            for tag, bucket in payload["buckets"].items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"malformed HIMOR checkpoint in {path}: {exc}") from exc
    if stored_fingerprint != fingerprint:
        raise CheckpointError(
            f"checkpoint {path} was taken for a different build "
            f"(fingerprint {stored_fingerprint!r}, expected {fingerprint!r})"
        )
    if not 0 <= next_sample <= stored_n_samples or stored_n_samples != n_samples:
        raise CheckpointError(
            f"checkpoint {path} progress {next_sample}/{stored_n_samples} is "
            f"inconsistent with a {n_samples}-sample build"
        )
    return next_sample, buckets


# ---------------------------------------------------------------- internals


#: Most samples one vectorized tree-HFS chunk traverses at once; bounds
#: the per-chunk working arrays and the time between budget checks.
_HFS_CHUNK = 1024


def _tree_hfs_arena(
    hierarchy: CommunityHierarchy,
    arena: RRArena,
    budget: "object | None" = None,
    start: int = 0,
    buckets: "dict[int, dict[int, int]] | None" = None,
    checkpoint_every: "int | None" = None,
    on_checkpoint: "Callable[[int, dict], None] | None" = None,
) -> dict[int, dict[int, int]]:
    """HFS over the whole tree: charge each RR node to the smallest
    community containing its best path from the source.

    The tag of a node ``u`` reached from a node tagged ``C`` is
    ``lca(u, C)``, and the source's tag is its parent community. The
    traversal rests on a root-path invariant: every tag of a sample is an
    ancestor of that sample's source, because the first tag is
    ``parent(source)`` and ``lca`` only moves up. Two consequences make
    it vectorizable:

    * the tags of one sample are totally ordered by depth, so "deepest
      tag" is a plain integer maximum of the key ``depth * V + tag``
      (distinct vertices on one root path have distinct depths);
    * for a tag ``C`` on the source's root path, ``lca(u, C)`` is the
      shallower of ``C`` and ``lca(u, source)``, so each entry's cap —
      ``lca(u, source)``, or ``parent(source)`` for the source itself —
      is one :meth:`~CommunityHierarchy.lca_many` pass per chunk.

    A node's final tag is then the widest-path fixpoint
    ``key[u] = max over in-edges (min(key[v], cap[u]))`` seeded with the
    source's cap, which is exactly the tag a depth-keyed heap (deepest
    first) would pop it with. The fixpoint runs over up to
    :data:`_HFS_CHUNK` samples at once: each round gathers the out-edges
    of the entries whose key changed and applies ``np.maximum.at``.

    ``maybe_fail("himor_sample")`` runs once per sample before its chunk
    is charged, and ``budget.check()`` before every chunk.
    ``start``/``buckets`` resume a traversal from checkpointed progress
    (samples ``0..start-1`` already charged into ``buckets``); with
    ``checkpoint_every`` set, chunks end on every multiple of it and
    ``on_checkpoint(next_sample, buckets)`` fires there.
    """
    buckets = {} if buckets is None else buckets
    n_samples = arena.n_samples
    # Charges are kept as ``tag * n_leaves + node`` keys (one int64 per
    # reached entry) and folded into the bucket dicts only where a caller
    # reads them: one fold dedupes pairs that recur across chunks, which
    # costs far less than a dict update per chunk.
    charged: list[np.ndarray] = []
    i = start
    while i < n_samples:
        end = min(i + _HFS_CHUNK, n_samples)
        if checkpoint_every is not None:
            end = min(end, (i // checkpoint_every + 1) * checkpoint_every)
        if budget is not None:
            budget.check()
        for _ in range(i, end):
            maybe_fail("himor_sample")
        charged.append(_chunk_charges(hierarchy, arena, i, end))
        i = end
        if (
            checkpoint_every is not None
            and on_checkpoint is not None
            and end % checkpoint_every == 0
            and end < n_samples
        ):
            _fold_charges(charged, hierarchy.n_leaves, buckets)
            on_checkpoint(end, buckets)
    _fold_charges(charged, hierarchy.n_leaves, buckets)
    return buckets


def _fold_charges(
    charged: list[np.ndarray], n: int, buckets: dict[int, dict[int, int]]
) -> None:
    """Add the ``tag * n + node`` charge keys in ``charged`` to ``buckets``
    and empty the list."""
    if not charged:
        return
    pairs, counts = np.unique(np.concatenate(charged), return_counts=True)
    charged.clear()
    tags = pairs // n
    nodes = (pairs % n).tolist()
    counts = counts.tolist()
    cuts = (np.flatnonzero(np.diff(tags)) + 1).tolist()
    for s, e in zip([0, *cuts], [*cuts, len(nodes)]):
        tag = int(tags[s])
        bucket = buckets.get(tag)
        if bucket is None:
            # Built in one go, a new bucket is sized to its contents;
            # most tags are first seen here, so this keeps both the fold
            # and the index's resident buckets small.
            buckets[tag] = dict(zip(nodes[s:e], counts[s:e]))
            continue
        for node, count in zip(nodes[s:e], counts[s:e]):
            bucket[node] = bucket.get(node, 0) + count


def _chunk_charges(
    hierarchy: CommunityHierarchy, arena: RRArena, lo: int, hi: int
) -> np.ndarray:
    """Charge keys ``tag * n_leaves + node`` of samples ``lo..hi-1``, one
    per reached entry (see :func:`_tree_hfs_arena`)."""
    offsets = arena.node_offsets
    e0 = int(offsets[lo])
    e1 = int(offsets[hi])
    nodes = arena.nodes[e0:e1]
    n_vertices = hierarchy.n_vertices
    depths = hierarchy.depths
    sources = arena.sources[lo:hi]
    roots = offsets[lo:hi] - e0
    sizes = np.diff(offsets[lo:hi + 1])
    caps = hierarchy.lca_many(nodes, np.repeat(sources, sizes))
    caps[roots] = hierarchy.parents[sources]
    cap_key = depths[caps] * n_vertices + caps

    key = np.full(e1 - e0, -1, dtype=np.int64)
    key[roots] = cap_key[roots]
    edge_start = arena.edge_start
    edge_count = arena.edge_count
    edge_dst = arena.edge_dst_entry
    changed = np.zeros(e1 - e0, dtype=bool)
    frontier = roots
    while len(frontier):
        counts = edge_count[frontier + e0]
        idx = _ragged_ranges(edge_start[frontier + e0], counts)
        if not len(idx):
            break
        dst = edge_dst[idx] - e0
        value = np.minimum(np.repeat(key[frontier], counts), cap_key[dst])
        improves = value > key[dst]
        dst = dst[improves]
        np.maximum.at(key, dst, value[improves])
        changed[dst] = True
        frontier = np.flatnonzero(changed)
        changed[frontier] = False

    reached = key >= 0
    return (key[reached] % n_vertices) * hierarchy.n_leaves + nodes[reached]


def _bottom_up_ranks(
    hierarchy: CommunityHierarchy, buckets: dict[int, dict[int, int]]
) -> list[np.ndarray]:
    """Every member's rank in every community, from the HFS own-charges.

    A node's count in community ``C`` is the sum of its own charges over
    its root path, from its parent up to ``C``; its rank in ``C`` is
    ``1 + #{members of C with a strictly larger count}``, so members no
    sample reached (count 0) rank just below every scored node. All
    ``sum_v (dep(v) - 1)`` (community, member) pairs — Theorem 6's
    ``sum_v dep(v)`` term — are handled as flat arrays in two layouts:

    * *leaf-major*, each leaf's ancestors deepest first: the layout of
      the returned rank arrays (aligned with ``path_communities``). Each
      charge lands at its pair's slot, and one cumulative sum along each
      leaf's path turns own charges into counts.
    * *community-major*, each community's members being its leaf-order
      range (:func:`_ragged_ranges`). One sort by ``(community, -count)``
      puts every member after the larger counts of its community, so its
      rank is 1 + the offset of its count's first occurrence there.
    """
    n = hierarchy.n_leaves
    depths = hierarchy.depths
    path_lengths = depths[:n] - 1
    leaf_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(path_lengths, out=leaf_start[1:])

    def slots(tags: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Leaf-major slot of each ``(community, member)`` pair."""
        return leaf_start[nodes] + depths[nodes] - 1 - depths[tags]

    sizes = [len(bucket) for bucket in buckets.values()]
    tags = np.repeat(np.fromiter(buckets, dtype=np.int64, count=len(sizes)), sizes)
    nodes = np.fromiter(
        chain.from_iterable(buckets.values()), dtype=np.int64, count=len(tags)
    )
    charges = np.fromiter(
        chain.from_iterable(bucket.values() for bucket in buckets.values()),
        dtype=np.int64, count=len(tags),
    )
    _check_charges(hierarchy, tags, nodes)
    # Leaf-major: own charges, then a cumulative sum restarted per leaf.
    counts = np.zeros(int(leaf_start[-1]), dtype=np.int64)
    counts[slots(tags, nodes)] = charges
    np.cumsum(counts, out=counts)
    counts -= np.repeat(np.concatenate(([0], counts))[leaf_start[:-1]], path_lengths)

    # Community-major: sort each community's block by descending count;
    # equal keys share the rank of their first occurrence in the block.
    community_sizes = hierarchy.sizes[n:]
    members = hierarchy.leaf_order[
        _ragged_ranges(hierarchy.member_starts[n:], community_sizes)
    ]
    pair_community = np.repeat(
        np.arange(n, hierarchy.n_vertices, dtype=np.int64), community_sizes
    )
    pair_slot = slots(pair_community, members)
    pair_count = counts[pair_slot]
    key = pair_community * (int(pair_count.max(initial=0)) + 1) - pair_count
    order = np.argsort(key)
    key = key[order]
    fresh = np.ones(len(key), dtype=bool)
    fresh[1:] = key[1:] != key[:-1]
    first = np.maximum.accumulate(np.where(fresh, np.arange(len(key)), 0))
    block_start = np.repeat(np.cumsum(community_sizes) - community_sizes, community_sizes)
    ranks = np.empty(len(counts), dtype=np.int64)
    ranks[pair_slot[order]] = 1 + first - block_start
    return np.split(ranks, leaf_start[1:-1])


def _check_charges(
    hierarchy: CommunityHierarchy, tags: np.ndarray, nodes: np.ndarray
) -> None:
    """Raise :class:`IndexError_` unless every charge is to a member of an
    internal community, as every HFS charge is."""
    n = hierarchy.n_leaves
    valid = (tags >= n) & (tags < hierarchy.n_vertices) & (nodes >= 0) & (nodes < n)
    if valid.all():
        # A leaf's members start at its own leaf-order position.
        starts = hierarchy.member_starts
        offset = starts[nodes] - starts[tags]
        valid = (offset >= 0) & (offset < hierarchy.sizes[tags])
    if not valid.all():
        bad = int(np.flatnonzero(~valid)[0])
        raise IndexError_(
            f"bucket {int(tags[bad])} charges node {int(nodes[bad])}, which "
            "is not one of its members"
        )
