"""Property: CODL's restricted fallback equals a prefix-chain HFS on the
full pool.

Algorithm 3 evaluates the inner chain ``H_l(q)`` (the communities
strictly inside ``C_l``) over the pool induced on ``C_l``. HFS already
treats nodes outside the chain as impassable, and every inner community
lies inside ``C_l``, so the same bucket counts come out of the full
pool: ``level_bucket_counts`` of the inner chain over the pool equals
the same call over ``pool.restrict(C_l)``, and the restricted pool holds
exactly the pool samples sourced in ``C_l``. Checked over sampled,
attached (read-only shared-memory) and repaired pools, for zero- and
one-level inner chains, ``C_l`` = the root, and real LORE floors.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lore import lore_chain
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.influence.arena import RRArena, repair_arena
from repro.influence.fastsample import sample_arena_seeded_fast
from repro.utils.shm import close_all_segments

from tests.property.test_hierarchy_props import random_connected_graphs


def assert_fallback_invariant(pool, node_levels, n_levels, members) -> None:
    restricted = pool.restrict(members)
    np.testing.assert_array_equal(
        pool.level_bucket_counts(node_levels, n_levels),
        restricted.level_bucket_counts(node_levels, n_levels),
    )
    assert restricted.n_samples == int(np.isin(pool.sources, members).sum())


def pool_of(kind: str, graph, seed: int):
    """``(pool, graph it samples, segment to close or None)``."""
    pool = sample_arena_seeded_fast(graph, 3 * graph.n, base_seed=seed)
    if kind == "attached":
        segment = pool.to_shared()
        return RRArena.attach(segment.name), graph, segment
    if kind == "repaired":
        u = int(pool.sources[0])
        absent = [v for v in range(graph.n) if v != u and not graph.has_edge(u, v)]
        if absent:
            grown = graph.edited([(u, absent[0], True)], [])
            return repair_arena(pool, grown, [u, absent[0]], base_seed=seed).arena, grown, None
    return pool, graph, None


@given(
    graph=random_connected_graphs(),
    kind=st.sampled_from(["sampled", "attached", "repaired"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_restricted_fallback_equals_prefix_hfs(graph, kind, seed):
    pool, graph, segment = pool_of(kind, graph, seed)
    try:
        hierarchy = agglomerative_hierarchy(graph)
        root = hierarchy.members(hierarchy.root)
        for q in range(graph.n):
            chain = CommunityChain.from_hierarchy(hierarchy, q)
            assert_fallback_invariant(pool, chain.node_levels, 0, root)
            if len(chain) >= 2:
                assert_fallback_invariant(
                    pool, chain.prefix(1).node_levels, 1, chain.members(1)
                )
                inner = chain.prefix(len(chain) - 1)
                assert_fallback_invariant(pool, inner.node_levels, len(inner), root)
            for attribute in sorted(graph.attributes_of(q)):
                lore = lore_chain(graph, hierarchy, q, attribute)
                if lore.c_ell_chain_level > 0:
                    inner = lore.chain.prefix(lore.c_ell_chain_level)
                    assert_fallback_invariant(
                        pool,
                        inner.node_levels,
                        len(inner),
                        hierarchy.members(lore.c_ell_vertex),
                    )
    finally:
        if segment is not None:
            pool.detach()
            close_all_segments()
