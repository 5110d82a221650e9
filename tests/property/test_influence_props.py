"""Property-based tests on the influence machinery (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import AttributedGraph
from repro.influence.arena import sample_arena
from repro.influence.estimator import influence_ranks, rank_of

from tests.property.test_hierarchy_props import random_connected_graphs


class TestRRProperties:
    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_rr_graph_closed_and_reachable(self, g, seed):
        rng = np.random.default_rng(seed)
        rr = sample_arena(g, 1, rng=rng).view(0)
        members = set(rr.adjacency)
        # Closed under recorded edges, every edge exists in g, and every
        # member is reachable from the source.
        for v, targets in rr.adjacency.items():
            for u in targets:
                assert u in members
                assert g.has_edge(v, u)
        assert rr.reachable_within(members) == members

    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_induced_reachability_monotone(self, g, seed):
        """Reachability within a subset can only shrink as the subset
        shrinks — the monotonicity the bucket levels encode."""
        rng = np.random.default_rng(seed)
        rr = sample_arena(g, 1, rng=rng).view(0)
        members = sorted(rr.adjacency)
        full = rr.reachable_within(set(members))
        half = set(members[: max(1, len(members) // 2)])
        if rr.source not in half:
            return
        assert rr.reachable_within(half) <= full

    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_restricted_sampling_confined(self, g, seed):
        rng = np.random.default_rng(seed)
        size = max(1, g.n // 2)
        allowed = set(range(size))
        rr = sample_arena(g, 1, rng=rng, sources=[0], allowed=allowed).view(0)
        assert set(rr.adjacency) <= allowed

    @given(st.integers(1, 12), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_p1_rr_graph_covers_component(self, pairs, seed):
        # A random perfect matching: every node has degree 1, so each edge
        # fires with 1/deg = 1 and a sample covers its source's pair.
        rng = np.random.default_rng(seed)
        perm = rng.permutation(2 * pairs).tolist()
        g = AttributedGraph(2 * pairs, list(zip(perm[0::2], perm[1::2])))
        source = int(rng.integers(0, g.n))
        rr = sample_arena(g, 1, rng=rng, sources=[source]).view(0)
        component = {source, *(int(u) for u in g.neighbors(source))}
        assert sorted(rr.adjacency) == sorted(component)


class TestRankProperties:
    @given(st.dictionaries(st.integers(0, 50), st.integers(0, 100),
                           min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_ranks_consistent(self, counts):
        ranks = influence_ranks(counts)
        # 1-based, bounded, order-consistent with counts.
        values = sorted(counts.items(), key=lambda kv: -kv[1])
        for node, rank in ranks.items():
            assert 1 <= rank <= len(counts)
            assert rank == rank_of(counts, node)
        for (a, ca), (b, cb) in zip(values, values[1:]):
            assert ranks[a] <= ranks[b]
            if ca == cb:
                assert ranks[a] == ranks[b]

    @given(st.dictionaries(st.integers(0, 50), st.integers(1, 100), min_size=1))
    @settings(max_examples=50, deadline=None)
    def test_top_rank_is_one(self, counts):
        best = max(counts, key=lambda v: counts[v])
        assert rank_of(counts, best) == 1
