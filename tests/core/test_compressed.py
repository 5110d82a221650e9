"""Unit tests for compressed COD evaluation (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.compressed import compressed_cod
from repro.errors import QueryError
from repro.hierarchy.chain import CommunityChain
from repro.influence.arena import sample_arena
from repro.influence.estimator import estimate_influences_in_community

from tests.conftest import arena_from_dicts


@pytest.fixture()
def paper_chain(paper_hierarchy):
    return CommunityChain.from_hierarchy(paper_hierarchy, 0)


def hfs_buckets(source, adjacency, chain):
    """One hand-written RR graph's HFS charges, one dict per chain level."""
    arena = arena_from_dicts(chain.n, [(source, adjacency)])
    counts = arena.level_bucket_counts(chain.node_levels, len(chain))
    return [{int(v): int(c) for v, c in enumerate(row) if c} for row in counts]


class TestBucketAssignment:
    """HFS charges each RR-graph node to the smallest chain community in
    which it is reachable from the source (the minimax path level)."""

    def test_simple_path(self, paper_chain):
        # Source 0 (level 0) -> 6 (level 1) -> 7 (level 1).
        buckets = hfs_buckets(0, {0: [6], 6: [7], 7: []}, paper_chain)
        assert buckets[0] == {0: 1}
        assert buckets[1] == {6: 1, 7: 1}

    def test_detour_through_higher_level(self, paper_chain):
        # 1 is level 0 but only reachable through 4 (level 2), so it is
        # charged at level 2, not 0.
        buckets = hfs_buckets(0, {0: [4], 4: [1], 1: []}, paper_chain)
        assert buckets[0] == {0: 1}
        assert buckets[2] == {4: 1, 1: 1}

    def test_minimax_prefers_low_path(self, paper_chain):
        # 3 reachable directly (level 0) and via 4 (level 2): charged at 0.
        buckets = hfs_buckets(0, {0: [3, 4], 4: [3], 3: []}, paper_chain)
        assert buckets[0] == {0: 1, 3: 1}
        assert buckets[2] == {4: 1}

    def test_source_at_higher_level(self, paper_chain):
        # Source 8 is level 3; everything it reaches is charged >= 3.
        buckets = hfs_buckets(8, {8: [6], 6: [0], 0: []}, paper_chain)
        assert buckets[3] == {8: 1, 6: 1, 0: 1}

    def test_outside_source_skipped(self, paper_chain):
        prefix = paper_chain.prefix(2)
        buckets = hfs_buckets(8, {8: [6], 6: []}, prefix)
        assert buckets[0] == {} and buckets[1] == {}

    def test_outside_nodes_not_traversed(self, paper_chain):
        # With the chain truncated at C3, node 4 is OUTSIDE and must not
        # act as a bridge: 0 -> 4 -> 3 contributes only node 0.
        prefix = paper_chain.prefix(2)
        buckets = hfs_buckets(0, {0: [4], 4: [3], 3: []}, prefix)
        assert buckets[0] == {0: 1}
        assert buckets[1] == {}

    def test_example3_rr_graph_2(self, paper_hierarchy):
        # Example 3: RR graph (2) from source v5 explores v4, v2, v0, v3,
        # v6 within C4 — all charged to B_4's level (level 2 for q = v0).
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        buckets = hfs_buckets(
            5, {5: [4], 4: [2], 2: [0, 3], 0: [], 3: [6], 6: []}, chain
        )
        assert buckets[2] == {5: 1, 4: 1, 2: 1, 0: 1, 3: 1, 6: 1}


class TestCompressedCod:
    def test_levels_and_shapes(self, paper_graph, paper_chain):
        ev = compressed_cod(paper_graph, paper_chain, k=2, theta=5, rng=0)
        assert len(ev.query_counts) == 4
        assert len(ev.thresholds) == 4
        assert ev.n_samples == 5 * paper_graph.n

    def test_query_counts_monotone(self, paper_graph, paper_chain):
        # Cumulative counts can only grow with the community.
        ev = compressed_cod(paper_graph, paper_chain, k=2, theta=5, rng=0)
        assert all(
            ev.query_counts[i] <= ev.query_counts[i + 1]
            for i in range(len(ev.query_counts) - 1)
        )

    def test_small_community_always_qualifies(self, paper_graph, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 4)
        # C1 = {4, 5} has size 2 <= k = 5.
        ev = compressed_cod(paper_graph, chain, k=5, theta=3, rng=0)
        assert ev.qualifies(0, 5)

    def test_k_equal_n_returns_root(self, paper_graph, paper_chain):
        ev = compressed_cod(paper_graph, paper_chain, k=10, theta=3, rng=0)
        assert ev.best_level(10) == 3
        assert sorted(ev.characteristic_community(10)) == list(range(10))

    def test_multi_k_consistent_with_single_k(self, paper_graph, paper_chain):
        rrs = sample_arena(paper_graph, 400, rng=1)
        multi = compressed_cod(paper_graph, paper_chain, k=[1, 3, 5],
                               rr_graphs=rrs)
        for k in (1, 3, 5):
            single = compressed_cod(paper_graph, paper_chain, k=k, rr_graphs=rrs)
            assert single.best_level(k) == multi.best_level(k)

    def test_larger_k_never_smaller_community(self, paper_graph, paper_chain):
        ev = compressed_cod(paper_graph, paper_chain, k=[1, 2, 3, 4, 5],
                            theta=10, rng=2)
        best = [ev.best_level(k) for k in (1, 2, 3, 4, 5)]
        levels = [b for b in best if b is not None]
        assert levels == sorted(levels)

    def test_unevaluated_k_rejected(self, paper_graph, paper_chain):
        ev = compressed_cod(paper_graph, paper_chain, k=2, theta=3, rng=0)
        with pytest.raises(QueryError):
            ev.qualifies(0, 3)

    def test_invalid_k_rejected(self, paper_graph, paper_chain):
        with pytest.raises(QueryError):
            compressed_cod(paper_graph, paper_chain, k=0)
        with pytest.raises(QueryError):
            compressed_cod(paper_graph, paper_chain, k=[])

    def test_query_influence_scaling(self, paper_graph, paper_chain):
        ev = compressed_cod(paper_graph, paper_chain, k=2, theta=20, rng=3)
        # sigma at the root equals the global influence of node 0,
        # which is at least 1 (itself).
        assert ev.query_influence(3) >= 0.9

    def test_rr_graphs_without_explicit_count(self, paper_graph, paper_chain):
        # A pre-drawn arena supplies its own sample count, whatever theta
        # says.
        rrs = sample_arena(paper_graph, 120, rng=7)
        ev = compressed_cod(paper_graph, paper_chain, k=2, theta=3, rr_graphs=rrs)
        assert ev.n_samples == 120

    def test_arena_over_other_graph_rejected(self, paper_graph, paper_chain,
                                             triangle_graph):
        arena = sample_arena(triangle_graph, 20, rng=0)
        with pytest.raises(QueryError, match="sampled over 3 nodes"):
            compressed_cod(paper_graph, paper_chain, k=2, rr_graphs=arena)

    def test_non_arena_rr_graphs_rejected(self, paper_graph, paper_chain):
        views = list(sample_arena(paper_graph, 20, rng=0))
        with pytest.raises(QueryError, match="RRArena"):
            compressed_cod(paper_graph, paper_chain, k=2, rr_graphs=views)

    def test_query_influence_requires_samples(self, paper_chain):
        from repro.core.compressed import CompressedEvaluation

        empty = CompressedEvaluation(
            chain=paper_chain, k_values=(1,), n_samples=0, population=10,
            query_counts=[0, 0, 0, 0], thresholds=[[0]] * 4,
        )
        with pytest.raises(QueryError):
            empty.query_influence(0)

    def test_deterministic_given_seed(self, paper_graph, paper_chain):
        a = compressed_cod(paper_graph, paper_chain, k=3, theta=5, rng=42)
        b = compressed_cod(paper_graph, paper_chain, k=3, theta=5, rng=42)
        assert a.query_counts == b.query_counts
        assert a.thresholds == b.thresholds


class TestAgainstBruteForce:
    """The incremental top-k decision must agree with recomputing
    ranks from high-sample per-community estimates (Theorem 3 soundness,
    up to sampling noise — hence generous sample counts and a clear-margin
    graph)."""

    def test_ranks_agree_with_per_community_oracle(self, paper_graph, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        ev = compressed_cod(paper_graph, chain, k=[1, 2, 3], theta=600, rng=5)
        for level in range(len(chain)):
            members = chain.members(level)
            oracle = estimate_influences_in_community(
                paper_graph, members, 400 * len(members), rng=6
            )
            oracle_rank = oracle.rank(0)
            for k in (1, 2, 3):
                # Skip boundary cases where the oracle rank sits exactly at
                # k (sampling noise can legitimately flip those).
                if oracle_rank == k or oracle_rank == k + 1:
                    continue
                assert ev.qualifies(level, k) == (oracle_rank <= k), (
                    f"level={level} k={k} oracle_rank={oracle_rank}"
                )
