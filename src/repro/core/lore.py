"""LORE — LOcal hierarchical REclustering (Section IV-A, Algorithm 2).

Global reclustering (CODR) rebuilds the whole hierarchy on the
attribute-weighted graph ``g_l`` and tends to produce hub-dominated, skewed
hierarchies in which even the deepest community containing a query node is
too large for the node to be influential (Fig. 4). LORE instead:

1. scores every community ``C`` in the *non-attributed* ``H(q)`` with the
   reclustering score ``r(C)`` (Definition 4) — the depth-weighted count of
   query-attributed edges split inside ``C``, normalized by ``|C|``;
2. reclusters only ``C_l = argmax r(C)`` on the induced ``g_l`` subgraph;
3. splices the reclustered communities below ``C_l`` into the original
   hierarchy above it, yielding the attribute-aware chain ``H_l(q)``.

Score computation follows the Eq. 3 recursion: each query-attributed edge
``(u, v)`` whose LCA ``D = lca(u, v)`` is an ancestor of ``q`` contributes
``dep(D)`` to the numerator of every ``C ⊇ D`` in ``H(q)``. One vectorized
LCA pass counts the edges at every hierarchy vertex in O(|E|) (Theorem 5);
that count does not depend on ``q``, so with a memo it is paid once per
attribute and each query reads its ``|H(q)|`` path entries. The local
reclustering depends only on ``(attribute, C_l)`` and is memoized the
same way.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import QueryError
from repro.graph.graph import AttributedGraph
from repro.graph.weighting import AttributeWeighting, attribute_weighted_subgraph
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.utils.faults import maybe_fail


@dataclass
class LoreResult:
    """Output of LORE for one query.

    Attributes
    ----------
    chain:
        ``H_l(q)``: reclustered communities inside ``C_l`` (deepest first),
        then ``C_l`` itself and its original ancestors.
    c_ell_vertex:
        The reclustered community ``C_l`` as a vertex of the original
        hierarchy.
    c_ell_chain_level:
        Index of ``C_l`` within :attr:`chain`.
    scores:
        ``r(C)`` for every community of the non-attributed ``H(q)``
        (aligned with ``hierarchy.path_communities(q)``, deepest first).
    """

    chain: CommunityChain
    c_ell_vertex: int
    c_ell_chain_level: int
    scores: np.ndarray


def attribute_edge_lca_counts(
    graph: AttributedGraph,
    hierarchy: CommunityHierarchy,
    attribute: int,
) -> np.ndarray:
    """Query-attributed edges counted at their LCA vertex.

    ``counts[D]`` is the number of edges ``(u, v)`` with both endpoints
    carrying ``attribute`` and ``lca(u, v) == D``; the array has length
    ``hierarchy.n_vertices``. It does not depend on the query node, so one
    vectorized O(|E|) pass serves every query on ``attribute`` (Theorem 5).
    """
    u, v = graph.attribute_edge_arrays(attribute)
    lcas = hierarchy.lca_many(u, v)
    return np.bincount(lcas, minlength=hierarchy.n_vertices).astype(
        np.int64, copy=False
    )


def reclustering_scores(
    graph: AttributedGraph,
    hierarchy: CommunityHierarchy,
    q: int,
    attribute: int,
    depth_weighted: bool = True,
    edge_counts: "np.ndarray | None" = None,
    path: "list[int] | None" = None,
) -> np.ndarray:
    """``r(C)`` for every community of ``H(q)``, deepest first (Eq. 2/3).

    ``delta[level]``, the number of query-attributed edges whose LCA is
    exactly the level-th community of ``H(q)``, is read from
    ``edge_counts`` (:func:`attribute_edge_lca_counts`, computed here when
    not given); edges with LCAs off the path do not involve ``q``'s
    hierarchy and drop out. A prefix accumulation along ``H(q)`` then
    gives every score, O(|H(q)|) per query once the counts exist.

    ``depth_weighted=False`` replaces the Definition-4 depth weights with a
    plain edge count (every divided edge contributes 1) — the ablation
    variant that ignores proximity to the query node.

    ``path`` is ``hierarchy.path_communities(q)`` when the caller already
    holds it; it is read here when not given.
    """
    if path is None:
        path = hierarchy.path_communities(q)
    if not path:
        raise QueryError(f"query node {q} has no ancestor communities")
    if edge_counts is None:
        edge_counts = attribute_edge_lca_counts(graph, hierarchy, attribute)
    delta = edge_counts[path]
    if depth_weighted:
        weights = hierarchy.depths[path]
    else:
        weights = np.ones(len(path), dtype=np.int64)
    return np.cumsum(delta * weights) / hierarchy.sizes[path]


def select_reclustering_community(
    scores: np.ndarray, path: list[int]
) -> tuple[int, int]:
    """Pick ``C_l = argmax r(C)`` over ``H(q)`` excluding the deepest level.

    Algorithm 2 scans levels ``1..|H(q)|-1`` (reclustering the already
    deepest community cannot refine the hierarchy below it). Ties keep the
    deepest (most local) candidate. Returns ``(vertex, level)``. When
    ``H(q)`` has a single community (the root), that community is chosen.
    """
    if len(path) == 1:
        return path[0], 0
    start = 1
    best_level = start + int(np.argmax(scores[start:]))
    return path[best_level], best_level


def lore_chain(
    graph: AttributedGraph,
    hierarchy: CommunityHierarchy,
    q: int,
    attribute: int,
    weighting: AttributeWeighting | None = None,
    depth_weighted: bool = True,
    budget: "object | None" = None,
    trace: "object | None" = None,
    memo: "object | None" = None,
) -> LoreResult:
    """Run LORE end-to-end: score, select ``C_l``, recluster, splice.

    Parameters
    ----------
    depth_weighted:
        Reclustering-score variant; see :func:`reclustering_scores`.
    budget:
        Optional cooperative execution budget (duck-typed; see
        :class:`repro.serving.budget.ExecutionBudget`): the deadline is
        checked before scoring and again before the local reclustering,
        the two expensive phases.
    trace:
        Optional duck-typed span recorder (``span(name, **meta)`` context
        manager, e.g. ``repro.obs.QueryTrace``): the whole run nests in a
        ``lore`` span annotated with the chosen level, the chain length,
        whether the edge counts and the local hierarchy came from ``memo``,
        and ``weighted_edges``, the number of ``C_l``'s induced edges
        weighted by this run (0 when the local hierarchy came from
        ``memo``). Tracing never changes the result.
    memo:
        Optional duck-typed ``get_or_create(key, factory)`` store (e.g.
        :class:`repro.utils.cache.LRUCache`) for LORE's query-independent
        work: the edge counts under ``(attribute, "edges")`` and the local
        reclustering of ``C_l`` under ``(attribute, c_ell)``. Entries are
        pure functions of the graph, the hierarchy and the weighting, so
        the caller must drop them when any of those change — every key
        starts with the attribute, so an attribute-scoped change drops
        only that attribute's entries. A local reclustering reports
        its size through ``memory_bytes()`` (at most
        :func:`local_recluster_bytes` of ``|C_l|``), so a byte-bounded memo
        charges what it holds. The result is bit-identical with or without
        a memo.
    """
    span_cm = trace.span("lore") if trace is not None else nullcontext()
    with span_cm as span:
        maybe_fail("lore")
        if budget is not None:
            budget.check()
        edge_counts, edges_memo = _memoized(
            memo,
            (attribute, "edges"),
            lambda: attribute_edge_lca_counts(graph, hierarchy, attribute),
        )
        path = hierarchy.path_communities(q)
        scores = reclustering_scores(
            graph,
            hierarchy,
            q,
            attribute,
            depth_weighted=depth_weighted,
            edge_counts=edge_counts,
            path=path,
        )
        c_ell, c_ell_level = select_reclustering_community(scores, path)

        if budget is not None:
            budget.check()

        weighted_edges = 0

        def recluster() -> _LocalRecluster:
            # Recluster g_l induced on C_l, weighting only C_l's edges; the
            # local subgraph may be disconnected even when g is connected,
            # so components are stacked under the root.
            nonlocal weighted_edges
            view = attribute_weighted_subgraph(
                graph, hierarchy.members(c_ell), attribute, weighting
            )
            weighted_edges = view.graph.m
            local_hierarchy = agglomerative_hierarchy(view.graph)
            return _LocalRecluster(view.to_parent, local_hierarchy)

        local, local_memo = _memoized(memo, (attribute, c_ell), recluster)
        to_parent, local_hierarchy = local

        # H_l(q) as one level array: C_l and its original ancestors are
        # levels c_ell_chain_level.., painted first; the reclustered
        # communities strictly inside C_l containing q, deepest first, are
        # painted over them through to_parent. The local root equals C_l
        # and is dropped (C_l re-enters from the original hierarchy).
        # to_parent is sorted, so q's local id is its position there.
        outer = path[c_ell_level:]
        q_local = int(np.searchsorted(to_parent, q))
        inner = local_hierarchy.path_communities(q_local)[:-1]
        c_ell_chain_level = len(inner)
        node_levels = hierarchy.leaf_levels(outer)
        node_levels[node_levels >= 0] += c_ell_chain_level
        inner_levels = local_hierarchy.leaf_levels(inner)
        inside = inner_levels >= 0
        node_levels[to_parent[inside]] = inner_levels[inside]
        c_ell_depth = hierarchy.depth(c_ell)
        chain = CommunityChain(
            q,
            node_levels,
            np.concatenate([local_hierarchy.sizes[inner], hierarchy.sizes[outer]]),
            np.concatenate(
                [c_ell_depth + local_hierarchy.depths[inner] - 1, hierarchy.depths[outer]]
            ),
        )
        if span is not None:
            span.note(
                chain=len(chain),
                c_ell_level=int(c_ell_level),
                c_ell_size=hierarchy.size(c_ell),
                edge_counts="memo" if edges_memo else "built",
                local_hierarchy="memo" if local_memo else "built",
                weighted_edges=weighted_edges,
            )
        return LoreResult(
            chain=chain,
            c_ell_vertex=c_ell,
            c_ell_chain_level=c_ell_chain_level,
            scores=scores,
        )


class _LocalRecluster(NamedTuple):
    """The query-independent part of reclustering ``C_l``.

    Holds only the sorted local-to-parent id map and the local hierarchy,
    not the induced weighted subgraph, so a memo of these stays small.
    """

    to_parent: np.ndarray
    hierarchy: CommunityHierarchy

    def memory_bytes(self) -> int:
        """Resident size, charged by a byte-bounded memo."""
        return self.to_parent.nbytes + self.hierarchy.memory_bytes()


def local_recluster_bytes(n: int) -> int:
    """The most a local reclustering of an ``n``-node ``C_l`` holds.

    An upper bound on the ``memory_bytes()`` of a memoized reclustering
    (an int64 id map and an agglomerative hierarchy over ``n`` leaves);
    ``n = graph.n`` sizes the whole-graph reclustering, the largest one.
    """
    return 8 * n + CommunityHierarchy.binary_memory_bytes(n)


def _memoized(memo: "object | None", key: tuple, factory) -> tuple[object, bool]:
    """``(value, served_from_memo)`` for ``key``; no memo means build."""
    if memo is None:
        return factory(), False
    built = False

    def build() -> object:
        nonlocal built
        built = True
        return factory()

    return memo.get_or_create(key, build), not built
