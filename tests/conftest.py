"""Shared fixtures.

``paper_graph``/``paper_hierarchy`` encode the worked example of the
paper's Figs. 2 and 5: 10 nodes, 15 edges, the 7-community hierarchy
``C_0..C_6``, and DB attributes chosen so that Examples 5-6 hold exactly
(``delta(C_3) = 1``, ``delta(C_4) = 2``, ``r(C_3) = 1/2``, ``r(C_4) = 7/8``,
and LORE selects ``C_4``). The figure's exact edge set is not fully
specified in the text; this edge set is consistent with every stated fact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.graph import AttributedGraph
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.influence.arena import RRArena, sample_arena
from repro.influence.fastsample import sample_arena_fast, sample_arena_seeded_fast

#: Attribute ids for the worked example.
DB = 0
ML = 1

#: Community vertex ids in the paper hierarchy (leaves are 0..9).
C0, C1, C2, C5, C3, C4, C6 = 10, 11, 12, 13, 14, 15, 16

PAPER_EDGES = [
    # C0 = {v0, v1, v2, v3}; no DB-DB edge inside (v2-v3 absent).
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
    # C1 = {v4, v5}, C2 = {v6, v7}, C5 = {v8, v9}.
    (4, 5), (6, 7), (8, 9),
    # Split by C3 (lca = C3): the DB-DB edge (v3, v7) and a plain edge.
    (3, 7), (0, 6),
    # Split by C4 (lca = C4): the DB-DB edges of Example 5.
    (2, 4), (3, 5),
    # Split by the root C6.
    (6, 8), (7, 9), (5, 9),
]

#: DB carriers; chosen so the only DB-DB edges are (2,4), (3,5), (3,7).
PAPER_ATTRIBUTES = {
    0: [ML],
    1: [ML],
    2: [DB],
    3: [DB],
    4: [DB],
    5: [DB],
    6: [ML],
    7: [DB],
    8: [ML],
    9: [ML],
}


@pytest.fixture()
def paper_graph() -> AttributedGraph:
    """The 10-node, 15-edge attributed graph of Figs. 2/5."""
    attrs = [PAPER_ATTRIBUTES[v] for v in range(10)]
    return AttributedGraph(10, PAPER_EDGES, attributes=attrs)


@pytest.fixture()
def paper_hierarchy() -> CommunityHierarchy:
    """The community hierarchy T = {C_0..C_6} of Fig. 2.

    Non-binary (C_0 holds four leaves), exercising the general tree code
    paths. Depths match Example 2: dep(C_6)=1, dep(C_4)=2, dep(C_3)=3,
    dep(C_0)=4.
    """
    parent = [
        C0, C0, C0, C0,      # v0..v3
        C1, C1,              # v4, v5
        C2, C2,              # v6, v7
        C5, C5,              # v8, v9
        C3,                  # C0 -> C3
        C4,                  # C1 -> C4
        C3,                  # C2 -> C3
        C6,                  # C5 -> C6
        C4,                  # C3 -> C4
        C6,                  # C4 -> C6
        -1,                  # C6 root
    ]
    return CommunityHierarchy.from_parents(10, parent)


@pytest.fixture()
def triangle_graph() -> AttributedGraph:
    """K3 with one attribute on every node."""
    return AttributedGraph(3, [(0, 1), (1, 2), (0, 2)], attributes=[[0]] * 3)


@pytest.fixture()
def path_graph() -> AttributedGraph:
    """P5: 0-1-2-3-4."""
    return AttributedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture()
def star_graph() -> AttributedGraph:
    """A star with center 0 and 6 leaves."""
    return AttributedGraph(7, [(0, i) for i in range(1, 7)])


@pytest.fixture()
def two_cliques_graph() -> AttributedGraph:
    """Two K4s joined by one bridge, attributes split by clique."""
    edges = []
    for block in (range(4), range(4, 8)):
        block = list(block)
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                edges.append((u, v))
    edges.append((3, 4))
    attrs = [[0]] * 4 + [[1]] * 4
    return AttributedGraph(8, edges, attributes=attrs)


#: Every arena sampler as ``draw(graph, count, seed)``: the
#: stream-compatible, vectorized, and per-sample-seeded (hashed) engines
#: all promise the same RR-graph distribution (Definition 2).
ARENA_SAMPLERS = {
    "sample_arena": lambda g, count, seed: sample_arena(g, count, rng=seed),
    "sample_arena_fast": lambda g, count, seed: sample_arena_fast(
        g, count, rng=seed
    ),
    "sample_arena_seeded_fast": lambda g, count, seed: (
        sample_arena_seeded_fast(g, count, base_seed=seed)
    ),
}


def arena_from_dicts(
    n: int, samples: "list[tuple[int, dict[int, list[int]]]]"
) -> RRArena:
    """An arena holding hand-written ``(source, adjacency)`` samples.

    Each adjacency dict lists its sample's nodes in discovery order with
    the source first, and maps every node to its fired targets — the
    shape ``tests/oracle/reference.reference_rr_graphs`` returns.
    """
    sources, offsets, nodes = [], [0], []
    edge_start, edge_count, edge_dst = [], [], []
    for source, adjacency in samples:
        assert next(iter(adjacency)) == source, "source must come first"
        base = len(nodes)
        entry = {v: base + i for i, v in enumerate(adjacency)}
        for v, targets in adjacency.items():
            nodes.append(v)
            edge_start.append(len(edge_dst))
            edge_count.append(len(targets))
            edge_dst.extend(entry[u] for u in targets)
        sources.append(source)
        offsets.append(len(nodes))

    def ints(values: list) -> np.ndarray:
        return np.asarray(values, dtype=np.int64)

    return RRArena(
        n=n,
        sources=ints(sources),
        node_offsets=ints(offsets),
        nodes=ints(nodes),
        edge_start=ints(edge_start),
        edge_count=ints(edge_count),
        edge_dst_entry=ints(edge_dst),
    )
