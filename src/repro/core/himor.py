"""The HIMOR index (Section IV-B), the lookup of Algorithm 3.

LORE only changes the hierarchy *below* the reclustered community ``C_l``;
everything above it comes unchanged from the non-attributed hierarchy
``T``. HIMOR exploits that invariant: it precomputes, for every node ``v``
and every ancestor community ``C`` of ``v`` in ``T``, the influence rank
``rank_C(v)`` — so a query first walks the ranks of ``q`` over the
ancestors of ``C_l`` top-down (largest community first) and only looks
*inside* ``C_l`` when no ancestor qualifies. There, a pooled server reads
a :func:`local_index` over LORE's reclustering of ``C_l``, built once per
``(attribute, C_l)``; without a pool it runs compressed evaluation. The
query side of Algorithm 3 is the CODL rung of
:class:`~repro.serving.server.CODServer`.

Construction is the compressed tree variant of Algorithm 1: one pool of
``Theta = theta * |V|`` RR graphs is HFS-traversed over the whole tree ``T``
(each RR-graph node charged to the smallest community containing its path
from the source — ``lca`` along the path). The charges are kept as one
*charge table*: sorted unique ``tag * n_leaves + node`` keys and their
positive counts (:func:`_sum_charges`). They are summed up each node's
root path and every member's rank in every community is read off one sort
of all ``(community, member)`` pairs. Total work
matches Theorem 6, ``O(Theta * omega + |R| log |V| + sum_v dep(v))``, up
to the ``log`` of that one sort.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import CheckpointError, HierarchyError, IndexError_, QueryError
from repro.graph.graph import AttributedGraph
from repro.hierarchy.dendrogram import ClusterMap, CommunityHierarchy, map_clusters
from repro.hierarchy.lca import LcaIndex
from repro.influence.arena import (
    ArenaRepair,
    RRArena,
    _ragged_ranges,
    concatenate_arenas,
    sample_arena,
)
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
        charges: "tuple[np.ndarray, np.ndarray] | None" = None,
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
        self._graph_sha = graph_sha
        #: The graph the index was last built or repaired over, from which
        #: :attr:`graph_sha` is read on first use.
        self._graph: "AttributedGraph | None" = None
        #: The sample stream the ranks were counted over (see
        #: :func:`build_fingerprint`), set by :meth:`build` and
        #: :meth:`load`; ``None`` when unknown, e.g. on artifacts saved
        #: before the stream was recorded. A server only serves (and later
        #: delta-repairs) an index drawn from its own stream.
        self.sample_mode: "str | None" = None
        #: The HFS charge table ``(keys, counts)``, kept (when available)
        #: so :meth:`repair` can delta-update instead of re-traversing the
        #: whole pool.
        self._charges = charges
        self._ranks = ranks

    @property
    def graph_sha(self) -> "str | None":
        """Checksum of the edge set the index was built for (``None`` on
        legacy artifacts); lets a server reject a stale persisted index
        after the graph moved to a new epoch. Read only where it is
        consumed (:meth:`save`, a server's stale check), so an index that
        is never persisted never hashes its graph."""
        if self._graph_sha is None and self._graph is not None:
            self._graph_sha = graph_checksum(self._graph)
        return self._graph_sha

    @property
    def has_buckets(self) -> bool:
        """Whether incremental :meth:`repair` is possible on this index
        (it keeps its HFS charge table)."""
        return self._charges is not None

    # ---------------------------------------------------------- construction

    @classmethod
    def build(
        cls,
        graph: AttributedGraph,
        hierarchy: CommunityHierarchy,
        theta: int = 10,
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

        **Crash-safe builds.** With ``checkpoint_path`` set, the charge
        table so far is persisted atomically every ``checkpoint_every`` samples
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
                    graph, theta * graph.n, rng=ensure_rng(rng), budget=budget,
                    trace=trace,
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
            initial: "tuple[np.ndarray, np.ndarray] | None" = None
            on_checkpoint = None
            if checkpoint_path is not None:
                checkpoint_path = Path(checkpoint_path)
                fingerprint = build_fingerprint(
                    graph, hierarchy, theta=theta, n_samples=n_samples,
                    seed=seed, sample_mode=sample_mode,
                )
                if resume and checkpoint_path.exists():
                    try:
                        start, initial = _load_checkpoint(
                            checkpoint_path, fingerprint, n_samples
                        )
                        resumed_from = start
                    except CheckpointError:
                        start, initial = 0, None

                def on_checkpoint(next_sample: int, charges: tuple) -> None:
                    _save_checkpoint(
                        checkpoint_path, fingerprint, next_sample, n_samples, charges
                    )

            charges = _tree_hfs_arena(
                hierarchy,
                rr_graphs,
                budget=budget,
                start=start,
                charges=initial,
                checkpoint_every=checkpoint_every if on_checkpoint else None,
                on_checkpoint=on_checkpoint,
            )
            if checkpoint_path is not None:
                checkpoint_path.unlink(missing_ok=True)
            keys, counts = charges
            n = hierarchy.n_leaves
            ranks = _ranks_from_charges(hierarchy, keys // n, keys % n, counts)
            index = cls(
                hierarchy, ranks, theta=theta, n_samples=n_samples, charges=charges
            )
            index._graph = graph
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
        rep: ArenaRepair,
        clusters: "ClusterMap | None" = None,
        graph: "AttributedGraph | None" = None,
        budget: "object | None" = None,
    ) -> dict:
        """Carry the index across a pool repair and a recluster.

        ``rep`` is the pool's :class:`~repro.influence.arena.ArenaRepair`:
        the old (``removed``) and new (``added``) versions of the redrawn
        samples and the repaired pool (``arena``). ``clusters`` maps this
        index's hierarchy onto the reclustered one
        (:func:`~repro.hierarchy.dendrogram.map_clusters`); ``None`` keeps
        the hierarchy. ``graph``, the updated graph, is what
        :attr:`graph_sha` then reads.

        Per-sample charges are independent, so only the re-traversed
        samples change the charge table: the redrawn ones, and every other
        sample with an entry in a changed cluster (``clusters.changed``).
        Their charges under the old hierarchy come off, every other
        charge moves to its tag's image under the map, and their charges
        under the new hierarchy go on. That leaves exactly the table
        :meth:`build` counts over the repaired pool and the new
        hierarchy, because an untouched sample's charges carry over by
        relabeling: a cap ``lca(u, source)`` (or ``parent(source)``) is
        the smallest cluster holding those nodes; on either side every
        cluster holding them is mapped, else the nodes would lie in a
        changed one, so the map sends the old smallest to the new
        smallest; and the map keeps
        containment, which is all the widest-path fixpoint compares among
        the caps on the source's root path. A charge left on an unmapped
        tag contradicts this and raises :class:`~repro.errors.IndexError_`.
        Past :data:`RECOUNT_SHARE` of the pool re-traversed, the whole
        pool is traversed once instead, as :meth:`build` does. Ranks are
        then recombined over the table: pure counting, no sampling.

        Returns ``{"retraversed_samples", "recounted"}``.
        """
        if self._charges is None:
            raise IndexError_(
                "index carries no HFS buckets (legacy artifact); "
                "incremental repair needs a bucket-retaining build"
            )
        if rep.removed.n_samples != rep.added.n_samples:
            raise IndexError_(
                f"repair delta is lopsided: {rep.removed.n_samples} removed vs "
                f"{rep.added.n_samples} added samples"
            )
        old = self.hierarchy
        if clusters is None:
            clusters = map_clusters(old, old)
        elif clusters.old is not old:
            raise IndexError_("cluster map does not start at this index's hierarchy")
        arena = rep.arena
        # Every sample holds at least its source, so no reduce range is empty.
        stale = np.logical_or.reduceat(
            clusters.changed[arena.nodes], arena.node_offsets[:-1]
        )
        stale[rep.touched] = False
        again = arena.take(np.flatnonzero(stale))
        retraversed = rep.n_repaired + again.n_samples
        recounted = retraversed > RECOUNT_SHARE * arena.n_samples
        if recounted:
            self._charges = _tree_hfs_arena(clusters.new, arena, budget=budget)
        else:
            self._charges = _move_charges(
                self._charges,
                clusters,
                _charge_keys(old, concatenate_arenas([rep.removed, again]), budget),
                _charge_keys(clusters.new, concatenate_arenas([rep.added, again]), budget),
            )
        self.hierarchy = clusters.new
        keys, counts = self._charges
        n = self.hierarchy.n_leaves
        self._ranks = _ranks_from_charges(self.hierarchy, keys // n, keys % n, counts)
        if graph is not None:
            self._graph, self._graph_sha = graph, None
        return {"retraversed_samples": retraversed, "recounted": recounted}

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
        self,
        node: int,
        k: int,
        floor_vertex: int | None = None,
        below_root: bool = False,
        path: "list[int] | None" = None,
    ) -> int | None:
        """Algorithm 3's index scan.

        Scans the ancestors of ``floor_vertex`` (default: all of
        ``H(node)``) top-down and returns the first — i.e. largest —
        community in which ``node`` has rank <= ``k``; ``None`` when no
        ancestor qualifies. ``below_root`` leaves the root out of the
        scan: in a :func:`local_index` over ``C_l`` the root is ``C_l``
        itself, which the global index answers. ``path`` is
        ``hierarchy.path_communities(node)`` when the caller already
        holds it (LORE walks it); it is walked here when not given.
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        if path is None:
            path = self.hierarchy.path_communities(node)
        ranks = self._ranks[node]
        if len(path) != len(ranks):
            raise QueryError(
                f"path of {len(path)} communities does not match node {node}'s "
                f"{len(ranks)} ranks"
            )
        start = 0
        if floor_vertex is not None:
            try:
                start = path.index(floor_vertex)
            except ValueError:
                raise QueryError(
                    f"floor vertex {floor_vertex} is not an ancestor of node {node}"
                ) from None
        qualifying = np.flatnonzero(ranks[start:len(path) - int(below_root)] <= k)
        return path[start + int(qualifying[-1])] if len(qualifying) else None

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
        if self._charges is not None:
            # Persisting the charge table keeps a reloaded index repairable
            # (a respawned worker can keep delta-updating across epochs
            # instead of rebuilding on the first post-load update).
            payload["charges"] = [part.tolist() for part in self._charges]
        atomic_write_json(path, payload, kind=self.FORMAT)

    @classmethod
    def load(cls, path: "str | Path") -> "HimorIndex":
        """Load an index written by :meth:`save`.

        Verifies the envelope's format version and SHA-256 checksum and
        raises :class:`IndexError_` — never a raw ``json.JSONDecodeError``
        — on any corruption or mismatch. An artifact without a charge table
        (saved before tables were kept) loads without one: it serves, but
        :attr:`has_buckets` is ``False`` and it cannot be repaired.
        """
        maybe_fail("himor_load")
        payload = load_versioned_json(path, kind=cls.FORMAT, error_cls=IndexError_)
        try:
            hierarchy = CommunityHierarchy.from_parents(
                int(payload["n_leaves"]), [int(p) for p in payload["parent"]]
            )
            ranks = [np.asarray(r, dtype=np.int64) for r in payload["ranks"]]
            charges = payload.get("charges")
            index = cls(
                hierarchy, ranks,
                theta=int(payload["theta"]),
                n_samples=int(payload["n_samples"]),
                charges=None if charges is None else _charge_table(charges),
                graph_sha=payload.get("graph_sha"),
            )
        except (KeyError, TypeError, ValueError, HierarchyError) as exc:
            raise IndexError_(f"malformed HIMOR index in {path}: {exc}") from exc
        index.sample_mode = payload.get("sample_mode")
        return index


def local_index(
    hierarchy: CommunityHierarchy,
    to_parent: np.ndarray,
    arena: RRArena,
    theta: int = 10,
    budget: "object | None" = None,
) -> HimorIndex:
    """A HIMOR index over a local hierarchy, from the samples sourced in it.

    ``hierarchy`` reclusters one community ``C`` whose member ids, sorted,
    are ``to_parent`` (LORE's local reclustering of ``C_l``), and every
    sample of ``arena`` is sourced in ``C``: the pool's pick
    (:meth:`RRArena.sourced_in`) or its restriction to ``C``
    (:meth:`RRArena.restrict`, e.g. a fleet shard). One ``searchsorted``
    relabels the arena to local ids. Entries outside ``C`` get no cap,
    so the traversal never reaches them nor crosses them: it counts
    exactly Definition 3's reachability induced on ``C``, and both inputs
    give the same index. The charges and ranks are then those of
    :meth:`HimorIndex.build`. A local rank <= k holds exactly when
    ``q``'s count is at least the k-th largest count, the test
    Algorithm 1 makes over the restricted arena, so the index answers
    CODL's fallback inside ``C`` for every member and every ``k``.

    Unlike :meth:`HimorIndex.build` it fires no fault site and keeps no
    charge table: a local index is rebuilt, never repaired. ``budget`` is
    checked before every chunk of samples. An arena holding a sample
    sourced outside ``C`` raises :class:`~repro.errors.IndexError_`.
    """
    n = hierarchy.n_leaves
    if len(to_parent) != n:
        raise IndexError_(
            f"id map covers {len(to_parent)} nodes but the hierarchy has "
            f"{n} leaves"
        )
    nodes = np.minimum(np.searchsorted(to_parent, arena.nodes), n - 1)
    inside = to_parent[nodes] == arena.nodes
    if not inside[arena.node_offsets[:-1]].all():
        raise IndexError_("arena holds samples sourced outside the indexed community")
    # A source is its sample's first entry, so relabeling the nodes
    # relabels the sources too; the edge arrays index entries and carry over.
    local = RRArena(
        n, nodes[arena.node_offsets[:-1]], arena.node_offsets, nodes,
        arena.edge_start, arena.edge_count, arena.edge_dst_entry,
    )
    # LORE's byte-bounded memo holds the hierarchy and does not charge an
    # LCA table, so this pass builds its own instead of caching one there.
    # Every charge counts one, so a plain unique is the table's sum.
    pairs, charges = np.unique(
        _charge_keys(
            hierarchy, local, budget, LcaIndex(hierarchy),
            None if inside.all() else inside,
        ),
        return_counts=True,
    )
    ranks = _ranks_from_charges(hierarchy, pairs // n, pairs % n, charges)
    return HimorIndex(hierarchy, ranks, theta=theta, n_samples=local.n_samples)


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
    the shared stream sampler (``"stream"``) or a per-sample-seeded pool's
    hashed stream (``"per-sample-fast"``). The two draw different arenas
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
    charges: "tuple[np.ndarray, np.ndarray]",
) -> None:
    """Atomically persist the charge table of samples ``0..next_sample-1``."""
    maybe_fail("himor_checkpoint_save")
    payload = {
        "fingerprint": fingerprint,
        "next_sample": int(next_sample),
        "n_samples": int(n_samples),
        "charges": [part.tolist() for part in charges],
    }
    atomic_write_json(path, payload, kind=CHECKPOINT_FORMAT)


def _load_checkpoint(
    path: Path, fingerprint: str, n_samples: int
) -> "tuple[int, tuple[np.ndarray, np.ndarray]]":
    """Load and validate a checkpoint; raise :class:`CheckpointError` if
    unusable, as one without a charge table (an older format) is."""
    payload = load_versioned_json(path, kind=CHECKPOINT_FORMAT, error_cls=CheckpointError)
    try:
        stored_fingerprint = payload["fingerprint"]
        next_sample = int(payload["next_sample"])
        stored_n_samples = int(payload["n_samples"])
        charges = _charge_table(payload["charges"])
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
    return next_sample, charges


def _charge_table(raw) -> "tuple[np.ndarray, np.ndarray]":
    """A charge table read back from its saved ``[keys, counts]`` lists;
    raises ``ValueError`` unless the keys strictly increase and every
    count is positive, as :func:`_sum_charges` leaves them."""
    keys, counts = (np.asarray(part, dtype=np.int64) for part in raw)
    if (
        keys.ndim != 1
        or keys.shape != counts.shape
        or (np.diff(keys) <= 0).any()
        or (counts <= 0).any()
    ):
        raise ValueError("charges are not sorted unique keys with positive counts")
    return keys, counts


# ---------------------------------------------------------------- internals


#: Share of the pool past which :meth:`HimorIndex.repair` traverses the
#: whole pool once rather than the re-traversed samples twice (under the
#: old and the new hierarchy). On ``amazon``-2.5 (25,000 samples, 2-core
#: VM) a delta over 3-9% of the pool took 21-45 ms against 56-87 ms for
#: a whole traversal and the two broke even at 22-30%.
RECOUNT_SHARE = 0.25

#: Most samples one vectorized tree-HFS chunk traverses at once; bounds
#: the per-chunk working arrays and the time between budget checks.
_HFS_CHUNK = 1024


def _tree_hfs_arena(
    hierarchy: CommunityHierarchy,
    arena: RRArena,
    budget: "object | None" = None,
    start: int = 0,
    charges: "tuple[np.ndarray, np.ndarray] | None" = None,
    checkpoint_every: "int | None" = None,
    on_checkpoint: "Callable[[int, tuple], None] | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """The charge table of samples ``start..`` of ``arena`` over the whole
    tree (see :func:`_chunk_charges`), added to ``charges``.

    ``maybe_fail("himor_sample")`` runs once per sample before its
    segment is charged, and ``budget.check()`` before every chunk
    (:func:`_charge_keys`). ``start``/``charges`` resume a traversal from
    checkpointed progress (samples ``0..start-1`` already charged into
    ``charges``); with ``checkpoint_every`` set, segments end on every
    multiple of it and ``on_checkpoint(next_sample, charges)`` fires there.
    """
    if charges is None:
        charges = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    keys, counts = charges
    n_samples = arena.n_samples
    i = start
    while i < n_samples:
        end = n_samples
        if checkpoint_every is not None:
            end = min(end, (i // checkpoint_every + 1) * checkpoint_every)
        for _ in range(i, end):
            maybe_fail("himor_sample")
        charged = _charge_keys(hierarchy, arena, budget, lo=i, hi=end)
        keys, counts = _sum_charges(
            np.concatenate((keys, charged)),
            np.concatenate((counts, np.ones(len(charged), dtype=np.int64))),
        )
        i = end
        if on_checkpoint is not None and end < n_samples:
            on_checkpoint(end, (keys, counts))
    return keys, counts


def _sum_charges(
    keys: np.ndarray, counts: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """The charge table of signed ``counts`` at ``tag * n_leaves + node``
    ``keys``, repeats allowed: the sorted unique keys and their exact
    int64 sums, with every zero sum dropped."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(counts[order], starts)
    kept = sums != 0
    return keys[starts][kept], sums[kept]


def _move_charges(
    charges: "tuple[np.ndarray, np.ndarray]",
    clusters: ClusterMap,
    gone: np.ndarray,
    came: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """The charge table with the ``gone`` charge keys (old hierarchy)
    taken off, every tag moved to its image under ``clusters``, and the
    ``came`` keys (new hierarchy) put on; see :meth:`HimorIndex.repair`.
    """
    n = clusters.old.n_leaves
    keys, counts = charges
    keys, counts = _sum_charges(
        np.concatenate((keys, gone)),
        np.concatenate((counts, np.full(len(gone), -1, dtype=np.int64))),
    )
    if (counts < 0).any():
        raise IndexError_(
            "bucket charge went negative during repair: the "
            "removed samples do not match this index's pool"
        )
    tags = clusters.to_new[keys // n]
    if (tags < 0).any():
        raise IndexError_(
            "a charge outlived its changed cluster: the removed samples do "
            "not match this index's pool"
        )
    return _sum_charges(
        np.concatenate((tags * n + keys % n, came)),
        np.concatenate((counts, np.ones(len(came), dtype=np.int64))),
    )


def _charge_keys(
    hierarchy: CommunityHierarchy,
    arena: RRArena,
    budget: "object | None" = None,
    lca: "LcaIndex | None" = None,
    inside: "np.ndarray | None" = None,
    lo: int = 0,
    hi: "int | None" = None,
) -> np.ndarray:
    """The charge keys of samples ``lo..hi-1`` of ``arena`` (default: all),
    one per reached entry (:func:`_chunk_charges`), with ``budget``
    checked before each chunk of :data:`_HFS_CHUNK` samples."""
    hi = arena.n_samples if hi is None else hi
    charged = [np.empty(0, dtype=np.int64)]
    for i in range(lo, hi, _HFS_CHUNK):
        if budget is not None:
            budget.check()
        charged.append(_chunk_charges(
            hierarchy, arena, i, min(i + _HFS_CHUNK, hi), lca, inside,
        ))
    return np.concatenate(charged)


def _chunk_charges(
    hierarchy: CommunityHierarchy,
    arena: RRArena,
    lo: int,
    hi: int,
    lca: "LcaIndex | None" = None,
    inside: "np.ndarray | None" = None,
) -> np.ndarray:
    """HFS over the whole tree: charge each RR node of samples
    ``lo..hi-1`` to the smallest community containing its best path from
    the source, as one key ``tag * n_leaves + node`` per reached entry.

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
    first) would pop it with. The fixpoint runs over the whole chunk at
    once: each round gathers the out-edges of the entries whose key
    changed and applies ``np.maximum.at``.

    ``lca`` answers the caps' LCA queries in place of the hierarchy's own
    cached index. ``inside`` masks the arena's entries (sources
    included): an entry outside it gets cap key ``-1``, so no value ever
    improves it and it never joins a frontier: Definition 3's induced
    reachability."""
    offsets = arena.node_offsets
    e0 = int(offsets[lo])
    e1 = int(offsets[hi])
    nodes = arena.nodes[e0:e1]
    n_vertices = hierarchy.n_vertices
    depths = hierarchy.depths
    sources = arena.sources[lo:hi]
    roots = offsets[lo:hi] - e0
    sizes = np.diff(offsets[lo:hi + 1])
    caps = (hierarchy if lca is None else lca).lca_many(
        nodes, np.repeat(sources, sizes)
    )
    caps[roots] = hierarchy.parents[sources]
    cap_key = depths[caps] * n_vertices + caps
    if inside is not None:
        cap_key[~inside[e0:e1]] = -1

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


def _ranks_from_charges(
    hierarchy: CommunityHierarchy,
    tags: np.ndarray,
    nodes: np.ndarray,
    charges: np.ndarray,
) -> list[np.ndarray]:
    """Every member's rank in every community, from own-charges given as
    distinct ``(tag, node)`` pairs and their ``charges``, in any order.

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
    bounds = leaf_start.tolist()
    return [ranks[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


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
