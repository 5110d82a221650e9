"""Property-based tests for the extension modules (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compressed import compressed_cod
from repro.core.pool import SharedSamplePool
from repro.hierarchy.balance import rebalanced_hierarchy
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.nnchain import agglomerative_hierarchy

from tests.property.test_hierarchy_props import (
    random_connected_graphs,
    random_merge_trees,
)


class TestBalanceProperties:
    @given(random_merge_trees())
    @settings(max_examples=30, deadline=None)
    def test_leaves_preserved(self, h):
        b = rebalanced_hierarchy(h)
        assert b.n_leaves == h.n_leaves
        assert sorted(int(v) for v in b.members(b.root)) == list(
            range(h.n_leaves)
        )

    @given(random_merge_trees())
    @settings(max_examples=30, deadline=None)
    def test_result_is_binary_and_valid(self, h):
        b = rebalanced_hierarchy(h)
        if b.n_leaves == 1:
            return
        for vertex in b.internal_vertices():
            kids = b.children(vertex)
            assert len(kids) == 2
            assert b.size(vertex) == sum(b.size(c) for c in kids)

    @given(random_connected_graphs())
    @settings(max_examples=20, deadline=None)
    def test_chains_remain_usable(self, g):
        h = agglomerative_hierarchy(g)
        b = rebalanced_hierarchy(h)
        for q in range(min(g.n, 5)):
            chain = CommunityChain.from_hierarchy(b, q)
            chain.validate_nesting()

    @given(random_connected_graphs())
    @settings(max_examples=20, deadline=None)
    def test_total_depth_not_much_worse(self, g):
        h = agglomerative_hierarchy(g)
        b = rebalanced_hierarchy(h)
        # Huffman expansion of the collapsed vertices cannot exceed the
        # original chain cost by more than the re-binarization overhead of
        # a two-element expansion per vertex.
        assert b.total_leaf_depth() <= h.total_leaf_depth() + g.n


class TestPoolProperties:
    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_pool_evaluation_matches_counts(self, g, seed):
        """For every chain level, the pool evaluation's cumulative count
        equals brute-force induced reachability over the pooled samples."""
        pool = SharedSamplePool(g, theta=5, seed=seed)
        h = agglomerative_hierarchy(g)
        rng = np.random.default_rng(seed)
        q = int(rng.integers(0, g.n))
        chain = CommunityChain.from_hierarchy(h, q)
        evaluation = compressed_cod(g, chain, k=2, rr_graphs=pool.arena)
        for level in range(len(chain)):
            members = set(int(v) for v in chain.members(level))
            direct = sum(
                1 for rr in pool.arena if q in rr.reachable_within(members)
            )
            assert evaluation.query_counts[level] == direct
