"""Property-based tests on the COD evaluators (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compressed import compressed_cod
from repro.core.lore import lore_chain, reclustering_scores
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.influence.arena import sample_arena

from tests.conftest import ARENA_SAMPLERS
from tests.property.test_hierarchy_props import random_connected_graphs


class TestRRInvariants:
    """Structural invariants every RR sample must satisfy (Defs. 2-3).

    Each property is checked on the views of every arena sampler — the
    compatible, vectorized, and per-sample-seeded engines must uphold the
    same contract, not just agree with each other in distribution.
    """

    @staticmethod
    def _all_samplers(g, count, seed):
        return [rr for draw in ARENA_SAMPLERS.values() for rr in draw(g, count, seed)]

    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_every_node_reachable_from_source(self, g, seed):
        """RR membership means reverse-reachability: every recorded node
        must be reachable from the source over the fired edges."""
        for rr in self._all_samplers(g, 3 * g.n, seed):
            everyone = set(rr.adjacency)
            reached = rr.reachable_within(everyone)
            assert reached == everyone

    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_fired_edges_exist_in_graph(self, g, seed):
        """Reverse diffusion only flips edges the graph actually has."""
        for rr in self._all_samplers(g, 3 * g.n, seed):
            for v, targets in rr.adjacency.items():
                for u in targets:
                    assert g.has_edge(int(v), int(u))

    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_induction_monotone_under_nesting(self, g, seed):
        """Theorem 2: inducing one sample onto nested communities yields
        nested reachable sets — the basis of cumulative COD counting."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(g.n)
        inner = set(int(v) for v in order[: max(1, g.n // 3)])
        outer = inner | set(int(v) for v in order[: max(1, 2 * g.n // 3)])
        for rr in self._all_samplers(g, 2 * g.n, seed):
            r_inner = rr.reachable_within(inner)
            r_outer = rr.reachable_within(outer)
            assert r_inner <= r_outer
            assert r_outer <= set(rr.adjacency) & outer


class TestCompressedProperties:
    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_incremental_topk_equals_bruteforce_recount(self, g, seed):
        """Theorem 3 soundness on the *same fixed samples*: the incremental
        pass must reproduce exactly the decision obtained by recomputing
        cumulative counts per level from the raw buckets."""
        h = agglomerative_hierarchy(g)
        rng = np.random.default_rng(seed)
        q = int(rng.integers(0, g.n))
        chain = CommunityChain.from_hierarchy(h, q)
        rrs = sample_arena(g, 30 * g.n, rng=rng)
        ks = [1, 2, 3]
        ev = compressed_cod(g, chain, k=ks, rr_graphs=rrs)

        # Brute force from the same samples: recompute reachability within
        # each community for each RR graph directly (Definition 3).
        for level in range(len(chain)):
            members = set(int(v) for v in chain.members(level))
            counts: dict[int, int] = {}
            for rr in rrs:
                for v in rr.reachable_within(members):
                    counts[v] = counts.get(v, 0) + 1
            ordered = sorted(counts.values(), reverse=True)
            q_count = counts.get(q, 0)
            assert q_count == ev.query_counts[level]
            for j, k in enumerate(ks):
                if len(members) <= k:
                    expected = True
                else:
                    kth = ordered[k - 1] if k <= len(ordered) else 0
                    expected = q_count >= kth
                assert ev.qualifies(level, k) == expected, (level, k)

    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_query_counts_cumulative(self, g, seed):
        h = agglomerative_hierarchy(g)
        rng = np.random.default_rng(seed)
        q = int(rng.integers(0, g.n))
        chain = CommunityChain.from_hierarchy(h, q)
        ev = compressed_cod(g, chain, k=2, theta=5, rng=rng)
        for i in range(1, len(ev.query_counts)):
            assert ev.query_counts[i] >= ev.query_counts[i - 1]

    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_root_count_equals_rr_membership(self, g, seed):
        """At the root the cumulative count must equal the plain number of
        RR sets containing q (no restriction active)."""
        h = agglomerative_hierarchy(g)
        rng = np.random.default_rng(seed)
        q = int(rng.integers(0, g.n))
        chain = CommunityChain.from_hierarchy(h, q)
        rrs = sample_arena(g, 10 * g.n, rng=rng)
        ev = compressed_cod(g, chain, k=1, rr_graphs=rrs)
        direct = sum(1 for rr in rrs if q in rr.adjacency)
        assert ev.query_counts[-1] == direct


class TestLoreProperties:
    @given(random_connected_graphs(), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_eq2_equals_eq3(self, g, attribute):
        """The O(|E|) recursion must equal direct Definition-4 evaluation
        for every node and attribute."""
        if attribute not in g.attribute_universe:
            return
        h = agglomerative_hierarchy(g)
        attr_edges = list(g.attribute_edges(attribute))
        for q in range(min(g.n, 8)):
            fast = reclustering_scores(g, h, q, attribute)
            path = h.path_communities(q)
            level_of = {vertex: i for i, vertex in enumerate(path)}
            slow = []
            for i, community in enumerate(path):
                total = 0
                for u, v in attr_edges:
                    lca = h.lca(u, v)
                    level = level_of.get(lca)
                    if level is not None and level <= i:
                        total += h.depth(lca)
                slow.append(total / h.size(community))
            assert np.allclose(fast, slow)

    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_lore_chain_always_valid(self, g, seed):
        rng = np.random.default_rng(seed)
        attribute = int(rng.integers(0, 3))
        if attribute not in g.attribute_universe:
            return
        h = agglomerative_hierarchy(g)
        q = int(rng.integers(0, g.n))
        result = lore_chain(g, h, q, attribute)
        result.chain.validate_nesting()
        # The chain always ends at the whole graph.
        assert int(result.chain.sizes[-1]) == g.n
        # C_l is on the chain at the declared level.
        c_ell_members = sorted(int(v) for v in h.members(result.c_ell_vertex))
        level_members = sorted(
            int(v) for v in result.chain.members(result.c_ell_chain_level)
        )
        assert c_ell_members == level_members

    @given(random_connected_graphs())
    @settings(max_examples=20, deadline=None)
    def test_scores_nonnegative(self, g):
        h = agglomerative_hierarchy(g)
        for attribute in sorted(g.attribute_universe):
            scores = reclustering_scores(g, h, 0, attribute)
            assert np.all(scores >= 0)
