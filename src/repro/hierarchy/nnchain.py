"""Nearest-neighbor-chain agglomerative hierarchical clustering.

This is the hierarchy construction named in Section V-A of the paper: the
nearest-neighbor chain algorithm ([54], [55]) with unweighted-average
linkage ([45]). The algorithm maintains a chain of clusters in which each
element is a nearest neighbor of its predecessor; when two consecutive
chain elements are mutual nearest neighbors they are merged. For reducible
linkages this produces exactly the greedy "merge the globally most similar
pair" dendrogram, in near-linear time on sparse graphs.

Clusters are only ever compared when an edge connects them (similarity 0
otherwise), so the working state is a quotient-graph adjacency map that
shrinks as merges proceed. An empty chain is seeded from a cursor that
walks cluster ids upward, so finding seeds costs O(n) over the whole run
rather than one scan of every live cluster per seed.
"""

from __future__ import annotations

from repro.errors import DisconnectedGraphError
from repro.graph.graph import AttributedGraph
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.hierarchy.linkage import Linkage, UnweightedAverageLinkage
from repro.utils.faults import maybe_fail


def agglomerative_hierarchy(
    graph: AttributedGraph,
    linkage: Linkage | None = None,
    on_disconnected: str = "merge",
) -> CommunityHierarchy:
    """Cluster ``graph`` into a binary community hierarchy.

    Parameters
    ----------
    graph:
        The graph to cluster; edge weights (if any) drive the linkage,
        which is how attribute-aware reclustering enters the pipeline.
    linkage:
        Cluster-similarity definition; defaults to the paper's
        unweighted-average linkage.
    on_disconnected:
        ``"merge"`` joins exhausted components at the top of the dendrogram
        (largest first, similarity conceptually 0); ``"error"`` raises
        :class:`DisconnectedGraphError` instead.

    Returns
    -------
    CommunityHierarchy
        A binary dendrogram whose leaves are the graph's nodes.
    """
    maybe_fail("clustering")
    if on_disconnected not in ("merge", "error"):
        raise ValueError(f"on_disconnected must be 'merge' or 'error', got {on_disconnected!r}")
    linkage = linkage or UnweightedAverageLinkage()
    n = graph.n
    if n == 1:
        # A single node is its own (degenerate) hierarchy: no communities.
        # Downstream code requires at least a root, so synthesize none here
        # and let callers handle n == 1; in practice datasets are larger.
        raise DisconnectedGraphError("cannot build a hierarchy over a single node")

    # Quotient-graph state. neighbor_weight[c] maps adjacent cluster -> the
    # linkage-aggregated connection weight.
    neighbor_weight: dict[int, dict[int, float]] = {}
    size: dict[int, int] = {}
    for v in range(n):
        row = graph.neighbors(v)
        wrow = graph.neighbor_weights(v)
        neighbor_weight[v] = {int(u): float(w) for u, w in zip(row, wrow)}
        size[v] = 1

    merges: list[tuple[int, int]] = []
    next_id = n
    chain: list[int] = []
    # Seed cursor: every id below it is merged away or has no neighbor
    # left, and neither ever becomes a seed again (ids only grow and an
    # isolated cluster never regains a neighbor), so the first live id at
    # or above it is the smallest cluster that still has a neighbor.
    cursor = 0

    def nearest(cluster: int) -> tuple[int, float] | None:
        best: tuple[float, int] | None = None
        ca = size[cluster]
        for other, weight in neighbor_weight[cluster].items():
            sim = linkage.similarity(weight, ca, size[other])
            # Deterministic tie-break: larger similarity, then smaller id.
            if best is None or sim > best[0] or (sim == best[0] and other < best[1]):
                best = (sim, other)
        if best is None:
            return None
        return best[1], best[0]

    while True:
        if not chain:
            # Seed the chain with the smallest cluster that still has a
            # neighbor; when none exists, every component is fully merged.
            while cursor < next_id and not neighbor_weight.get(cursor):
                cursor += 1
            if cursor == next_id:
                break
            chain.append(cursor)
        tail = chain[-1]
        found = nearest(tail)
        if found is None:
            # The tail's component collapsed to a single cluster.
            chain.pop()
            continue
        candidate, _sim = found
        if len(chain) >= 2 and candidate == chain[-2]:
            a = chain.pop()
            b = chain.pop()
            new_id = next_id
            next_id += 1
            _merge(neighbor_weight, size, linkage, a, b, new_id)
            merges.append((a, b))
        else:
            chain.append(candidate)

    # The quotient graph's keys are exactly the clusters still alive.
    remaining = sorted(neighbor_weight, key=lambda c: (-size[c], c))
    if len(remaining) > 1:
        if on_disconnected == "error":
            raise DisconnectedGraphError(
                f"graph has {len(remaining)} components; pass on_disconnected='merge' "
                "to stack them under a synthetic root"
            )
        # Chain the components under one root, largest first so the most
        # meaningful structure stays deepest.
        current = remaining[0]
        for other in remaining[1:]:
            merges.append((current, other))
            current = next_id
            next_id += 1

    return CommunityHierarchy.from_merges(n, merges)


def _merge(
    neighbor_weight: dict[int, dict[int, float]],
    size: dict[int, int],
    linkage: Linkage,
    a: int,
    b: int,
    new_id: int,
) -> None:
    """Collapse clusters ``a`` and ``b`` into ``new_id`` in the quotient graph."""
    wa = neighbor_weight.pop(a)
    wb = neighbor_weight.pop(b)
    wa.pop(b, None)
    wb.pop(a, None)
    if len(wa) < len(wb):
        wa, wb = wb, wa
    for other, weight in wb.items():
        if other in wa:
            wa[other] = linkage.combine(wa[other], weight)
        else:
            wa[other] = weight
    for other in wa:
        row = neighbor_weight[other]
        w_to_a = row.pop(a, None)
        w_to_b = row.pop(b, None)
        if w_to_a is not None and w_to_b is not None:
            row[new_id] = linkage.combine(w_to_a, w_to_b)
        elif w_to_a is not None:
            row[new_id] = w_to_a
        elif w_to_b is not None:
            row[new_id] = w_to_b
    neighbor_weight[new_id] = wa
    size[new_id] = size.pop(a) + size.pop(b)
