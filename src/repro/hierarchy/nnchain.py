"""Nearest-neighbor-chain agglomerative hierarchical clustering.

This is the hierarchy construction named in Section V-A of the paper: the
nearest-neighbor chain algorithm ([54], [55]) with unweighted-average
linkage ([45]): the similarity of clusters ``A`` and ``B`` is
``W(A, B) / (|A| * |B|)``, where ``W`` sums the weights of the edges
joining them. The algorithm maintains a chain of clusters in which each
element is a nearest neighbor of its predecessor; when two consecutive
chain elements are mutual nearest neighbors they are merged. The linkage
is *reducible* — merging two clusters never increases their similarity to
a third — so a mutual-nearest-neighbor pair stays one after any other
merge, and NN-chain produces exactly the greedy "merge the globally most
similar pair" dendrogram, in near-linear time on sparse graphs.

"Unweighted" refers to cluster sizes entering symmetrically (UPGMA
convention), not to edge weights: edge weights are honored, which is what
makes CODR/LORE reclustering attribute-aware.

Clusters are only ever compared when an edge connects them (similarity 0
otherwise), so the working state is a quotient graph that shrinks as
merges proceed: a list of dict rows (adjacent row -> total weight ``W``)
with one row per live cluster, beside a list of sizes. Rows are indexed
by *slot*, the leaf id a row started from. A merged cluster keeps the
larger side's row and slot and adds the smaller row into it, so a merge
walks only the smaller side's neighbours (union by size) and no
neighbour is ever relabelled. Every new weight is still
``W(a, x) + W(b, x)`` over the same two operands whichever side is
walked, and the tie-break reads cluster ids through the slot's current
cluster, so the merges are those of relabelling by cluster id. An empty
chain is seeded from a cursor that walks cluster ids upward, so finding
seeds costs O(n) over the whole run rather than one scan of every live
cluster per seed.
"""

from __future__ import annotations

from repro.errors import DisconnectedGraphError
from repro.graph.graph import AttributedGraph
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.utils.faults import maybe_fail


def agglomerative_hierarchy(graph: AttributedGraph) -> CommunityHierarchy:
    """Cluster ``graph`` into a binary community hierarchy.

    Parameters
    ----------
    graph:
        The graph to cluster; edge weights (if any) drive the linkage,
        which is how attribute-aware reclustering enters the pipeline.
        Exhausted components are joined at the top of the dendrogram
        (largest first, similarity conceptually 0).

    Returns
    -------
    CommunityHierarchy
        A binary dendrogram whose leaves are the graph's nodes.
    """
    maybe_fail("clustering")
    if graph.n == 1:
        # A single node is its own (degenerate) hierarchy: no communities.
        # A binary dendrogram needs at least one merge, so raise
        # DisconnectedGraphError; in practice datasets are larger.
        raise DisconnectedGraphError("cannot build a hierarchy over a single node")
    return CommunityHierarchy.from_merges(graph.n, _merges(graph))


def _merges(graph: AttributedGraph) -> list[tuple[int, int]]:
    """The NN-chain merge sequence of ``graph``: ``merges[t]`` combines
    ``(chain tail, predecessor)`` into cluster ``graph.n + t``."""
    n = graph.n
    # Quotient-graph state, indexed by slot: rows[s] maps each adjacent
    # slot to the total weight W of the edges joining them, or is None
    # once its cluster was merged into a larger row.
    if graph.is_weighted:
        rows: list = [
            dict(zip(graph.neighbors(v).tolist(), graph.neighbor_weights(v).tolist()))
            for v in range(n)
        ]
    else:
        rows = [dict.fromkeys(graph.neighbors(v).tolist(), 1.0) for v in range(n)]
    size = [1] * n
    cluster = list(range(n))  # slot -> the cluster id it holds now
    slot = list(range(n))  # cluster id -> its slot, one entry per cluster

    merges: list[tuple[int, int]] = []
    next_id = n
    chain: list[int] = []  # slots
    # Seed cursor: every cluster id below it is merged away or has no
    # neighbor left, and neither ever becomes a seed again (ids only grow
    # and an isolated cluster never regains a neighbor), so the first live
    # id at or above it is the smallest cluster that still has a neighbor.
    cursor = 0

    while True:
        if not chain:
            # Seed the chain with the smallest cluster that still has a
            # neighbor; when none exists, every component is fully merged.
            while cursor < next_id and not (
                cluster[slot[cursor]] == cursor and rows[slot[cursor]]
            ):
                cursor += 1
            if cursor == next_id:
                break
            chain.append(slot[cursor])
        tail = chain[-1]
        # Nearest neighbor of the tail. Deterministic tie-break: larger
        # similarity, then smaller cluster id, whatever the row's order.
        tail_size = size[tail]
        nearest = -1
        nearest_sim = 0.0
        for other, weight in rows[tail].items():
            sim = weight / (tail_size * size[other])
            if (
                sim > nearest_sim
                or (sim == nearest_sim and cluster[other] < cluster[nearest])
                or nearest < 0
            ):
                nearest_sim = sim
                nearest = other
        if nearest < 0:
            # The tail's component collapsed to a single cluster.
            chain.pop()
            continue
        if len(chain) < 2 or nearest != chain[-2]:
            chain.append(nearest)
            continue
        # Mutual nearest neighbors: collapse them into cluster next_id,
        # held by the slot of the larger row.
        a = chain.pop()
        b = chain.pop()
        merges.append((cluster[a], cluster[b]))
        big, small = (a, b) if len(rows[a]) >= len(rows[b]) else (b, a)
        big_row = rows[big]
        small_row = rows[small]
        del big_row[small], small_row[big]
        for other, weight in small_row.items():
            row = rows[other]
            other_weight = row.pop(small)
            if other in big_row:
                big_row[other] += weight
                row[big] += other_weight
            else:
                big_row[other] = weight
                row[big] = other_weight
        rows[small] = None
        size[big] += size[small]
        cluster[big] = next_id
        slot.append(big)
        next_id += 1

    # The rows still held are exactly the clusters alive.
    remaining = sorted(
        (cluster[s] for s in range(n) if rows[s] is not None),
        key=lambda c: (-size[slot[c]], c),
    )
    if len(remaining) > 1:
        # Chain the components under one root, largest first (ties to the
        # smaller cluster id) so the most meaningful structure stays deepest.
        current = remaining[0]
        for other in remaining[1:]:
            merges.append((current, other))
            current = next_id
            next_id += 1
    return merges
