"""Differential tests: Algorithm 1's HFS vs the frozen Dial reference.

:meth:`RRArena.hfs_levels` computes every sample's minimax chain level
with one label-correcting frontier that covers all levels at once: an
entry may be assigned a level, then improved later when a cheaper path
reaches it. :func:`reference_hfs_levels` is Dial's level-by-level
bucket queue, where an entry's first activation is final. The two must
agree array for array — so must :meth:`RRArena.level_bucket_counts` and
the entry-at-a-time tally — on sampled RR arenas over random graphs
with clustered and random hierarchies, on chains from several query
nodes and their prefixes, on restricted and shared-memory (read-only)
arenas, on zero- and one-level chains, on sources outside the chain,
and on hand-built samples whose edges point back at earlier entries.
"""

import numpy as np
import pytest

from repro.graph.graph import AttributedGraph
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.influence.arena import RRArena, sample_arena
from repro.utils.shm import close_all_segments

from tests.oracle.reference import (
    reference_hfs_levels,
    reference_level_bucket_counts,
)
from tests.oracle.test_index_build_differential import random_hierarchy

#: Sampled-arena cases: one random graph, hierarchy and arena per seed.
SAMPLED_SEEDS = range(120)
#: Hand-built arenas with arbitrary (back-pointing, cyclic) sample edges.
BUILT_SEEDS = range(120)


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    close_all_segments()


def assert_same_hfs(arena: RRArena, node_levels: np.ndarray, n_levels: int) -> None:
    want = reference_hfs_levels(arena, node_levels, n_levels)
    got = arena.hfs_levels(node_levels, n_levels)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        arena.level_bucket_counts(node_levels, n_levels),
        reference_level_bucket_counts(arena, node_levels, n_levels),
    )


def sampled_case(seed: int):
    """A random connected graph, a clustered or random tree, an arena."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 90))
    edges = {(i - 1, i) for i in range(1, n)}
    for _ in range(int(rng.integers(n, 3 * n))):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    graph = AttributedGraph(n, sorted(edges))
    if seed % 2:
        hierarchy = agglomerative_hierarchy(graph)
    else:
        hierarchy = random_hierarchy(n, rng)
    theta = int(rng.integers(1, 4))
    arena = sample_arena(graph, theta * n, rng=np.random.default_rng(seed + 500))
    return rng, graph, hierarchy, arena


def built_arena(seed: int) -> RRArena:
    """Samples with arbitrary edges between their entries.

    Edges may point at any entry of the same sample — earlier entries,
    the entry itself, or the source — so cycles and back edges are
    common. Edge slices are stored in a shuffled order, as exploration
    order differs from entry order in sampled arenas.
    """
    rng = np.random.default_rng(7000 + seed)
    n = int(rng.integers(4, 30))
    sources, offsets, nodes, slices = [], [0], [], []
    for _ in range(int(rng.integers(1, 25))):
        size = int(rng.integers(1, n + 1))
        members = rng.choice(n, size=size, replace=False)
        base = len(nodes)
        sources.append(int(members[0]))
        nodes.extend(int(v) for v in members)
        offsets.append(len(nodes))
        for _ in range(size):
            degree = int(rng.integers(0, 4))
            slices.append(base + rng.integers(0, size, size=degree))
    order = rng.permutation(len(slices))
    edge_start = np.zeros(len(slices), dtype=np.int64)
    edge_count = np.zeros(len(slices), dtype=np.int64)
    dst, cursor = [], 0
    for entry in order:
        edge_start[entry] = cursor
        edge_count[entry] = len(slices[entry])
        dst.extend(int(d) for d in slices[entry])
        cursor += len(slices[entry])
    return RRArena(
        n,
        np.asarray(sources, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
        np.asarray(nodes, dtype=np.int64),
        edge_start,
        edge_count,
        np.asarray(dst, dtype=np.int64),
    )


def has_back_edges(arena: RRArena) -> bool:
    return bool((arena.edge_dst_entry < arena.edge_src_entries).any())


@pytest.mark.parametrize("seed", SAMPLED_SEEDS)
def test_sampled_arena_matches_reference(seed):
    rng, graph, hierarchy, arena = sampled_case(seed)
    for q in rng.choice(graph.n, size=3, replace=False):
        chain = CommunityChain.from_hierarchy(hierarchy, int(q))
        assert_same_hfs(arena, chain.node_levels, len(chain))
        for length in sorted({1, int(rng.integers(1, len(chain) + 1))}):
            inner = chain.prefix(length)
            # The inner chain's levels leave most sources outside it.
            assert_same_hfs(arena, inner.node_levels, len(inner))
            if length < len(chain):
                # CODL's local fallback: the prefix inside C_l's members.
                restricted = arena.restrict(chain.members(length))
                assert_same_hfs(restricted, inner.node_levels, len(inner))
    if seed % 4 == 0:
        segment = arena.to_shared()
        attached = RRArena.attach(segment.name)
        try:
            assert not attached.edge_dst_entry.flags.writeable
            chain = CommunityChain.from_hierarchy(hierarchy, int(rng.integers(graph.n)))
            assert_same_hfs(attached, chain.node_levels, len(chain))
        finally:
            attached.detach()
            segment.close()


@pytest.mark.parametrize("seed", BUILT_SEEDS)
def test_built_arena_matches_reference(seed):
    arena = built_arena(seed)
    rng = np.random.default_rng(seed)
    for n_levels in (0, 1, int(rng.integers(2, 9))):
        # Arbitrary levels, not nested communities; negative values and
        # values >= n_levels both mean "outside the chain".
        node_levels = rng.integers(-2, n_levels + 2, size=arena.n)
        assert_same_hfs(arena, node_levels, n_levels)


def test_built_arenas_exercise_back_edges():
    assert sum(has_back_edges(built_arena(seed)) for seed in BUILT_SEEDS) >= 100


def test_sampled_arenas_exercise_back_edges():
    # Exploration flips edges toward already-active nodes too.
    assert all(has_back_edges(sampled_case(seed)[3]) for seed in range(10))


def test_late_improvement_is_corrected():
    """A path through a shallow level reaches ``b`` first at level 2;
    a longer path through level-0 entries later improves it to 0."""
    #        s(0) -> a(2) -> b(0)
    #        s(0) -> c(0) -> d(0) -> e(0) -> b
    nodes = np.arange(6, dtype=np.int64)  # s a b c d e
    slices = [[1, 3], [2], [], [4], [5], [2]]
    arena = RRArena(
        6,
        np.array([0], dtype=np.int64),
        np.array([0, 6], dtype=np.int64),
        nodes,
        np.cumsum([0] + [len(s) for s in slices[:-1]]).astype(np.int64),
        np.array([len(s) for s in slices], dtype=np.int64),
        np.array([d for s in slices for d in s], dtype=np.int64),
    )
    node_levels = np.array([0, 2, 0, 0, 0, 0], dtype=np.int64)
    assert arena.hfs_levels(node_levels, 3).tolist() == [0, 2, 0, 0, 0, 0]
    assert_same_hfs(arena, node_levels, 3)
