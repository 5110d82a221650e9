"""Unit tests for LORE (Algorithm 2), anchored on the paper's Examples 5-6."""

import numpy as np
import pytest

from repro.core.lore import (
    attribute_edge_lca_counts,
    lore_chain,
    reclustering_scores,
    select_reclustering_community,
)
from repro.errors import QueryError
from repro.graph.weighting import AttributeWeighting

from repro.utils.cache import LRUCache

from tests.conftest import C0, C1, C3, C4, C6, DB


class TestReclusteringScores:
    def test_paper_example6_scores(self, paper_graph, paper_hierarchy):
        # H(v0) = [C0, C3, C4, C6]; Example 6: r(C3) = 1/2, r(C4) = 7/8.
        scores = reclustering_scores(paper_graph, paper_hierarchy, 0, DB)
        assert scores[0] == pytest.approx(0.0)          # r(C0): no DB edge inside
        assert scores[1] == pytest.approx(1 / 2)        # r(C3)
        assert scores[2] == pytest.approx(7 / 8)        # r(C4)
        assert scores[3] == pytest.approx(7 / 10)       # r(C6): no extra DB edges

    def test_off_path_lca_edges_ignored(self, paper_graph, paper_hierarchy):
        # (4, 5) is DB-DB with lca C1, not an ancestor of v0 — it must not
        # contribute. The exact Example-6 values above already prove this;
        # here check the same from v4's perspective, where it does count.
        scores_v4 = reclustering_scores(paper_graph, paper_hierarchy, 4, DB)
        # H(v4) = [C1, C4, C6]; (4,5) has lca C1, dep 3.
        # r(C1) = 3/2; r(C4) = (3 + 2*2)/8 = 7/8; r(C6) = 7/10.
        assert scores_v4[0] == pytest.approx(3 / 2)
        assert scores_v4[1] == pytest.approx(7 / 8)
        assert scores_v4[2] == pytest.approx(7 / 10)

    def test_count_variant_drops_depth_weighting(self, paper_graph, paper_hierarchy):
        scores = reclustering_scores(
            paper_graph, paper_hierarchy, 0, DB, depth_weighted=False
        )
        # Counts instead of depth sums: r(C3) = 1/6, r(C4) = 3/8, r(C6) = 3/10.
        assert scores[1] == pytest.approx(1 / 6)
        assert scores[2] == pytest.approx(3 / 8)
        assert scores[3] == pytest.approx(3 / 10)

    def test_attribute_without_edges_gives_zeros(self, paper_graph, paper_hierarchy):
        # ML nodes: 0, 1, 6, 8, 9. ML-ML edges: (0,1), (0,6), (6,8)...
        # use DB from v8's perspective: no DB edge has an lca on v8's path
        # except through the root.
        scores = reclustering_scores(paper_graph, paper_hierarchy, 8, DB)
        # H(v8) = [C5, C6]; DB-DB edges with lca C6: none (all inside C4).
        assert scores[0] == pytest.approx(0.0)
        assert scores[1] == pytest.approx(0.0)


class TestEdgeLcaCounts:
    def test_paper_example_counts(self, paper_graph, paper_hierarchy):
        # DB-DB edges: (2,4) and (3,5) meet at C4, (3,7) at C3, (4,5) at C1.
        counts = attribute_edge_lca_counts(paper_graph, paper_hierarchy, DB)
        assert counts.dtype == np.int64
        assert len(counts) == paper_hierarchy.n_vertices
        expected = np.zeros(paper_hierarchy.n_vertices, dtype=np.int64)
        expected[[C4, C3, C1]] = [2, 1, 1]
        assert np.array_equal(counts, expected)

    def test_scores_from_given_counts(self, paper_graph, paper_hierarchy):
        counts = attribute_edge_lca_counts(paper_graph, paper_hierarchy, DB)
        for q in range(paper_graph.n):
            for depth_weighted in (True, False):
                assert np.array_equal(
                    reclustering_scores(
                        paper_graph, paper_hierarchy, q, DB,
                        depth_weighted=depth_weighted, edge_counts=counts,
                    ),
                    reclustering_scores(
                        paper_graph, paper_hierarchy, q, DB,
                        depth_weighted=depth_weighted,
                    ),
                )

    def test_no_attributed_edges_gives_zero_counts(self):
        from repro.graph.graph import AttributedGraph
        from repro.hierarchy.nnchain import agglomerative_hierarchy

        g = AttributedGraph(4, [(0, 1), (1, 2), (2, 3)], attributes=[[5], [], [5], []])
        h = agglomerative_hierarchy(g)
        assert not attribute_edge_lca_counts(g, h, 5).any()


class TestSelection:
    def test_example6_selects_c4(self, paper_graph, paper_hierarchy):
        scores = reclustering_scores(paper_graph, paper_hierarchy, 0, DB)
        path = paper_hierarchy.path_communities(0)
        vertex, level = select_reclustering_community(scores, path)
        assert vertex == C4
        assert level == 2

    def test_deepest_level_excluded(self, paper_graph, paper_hierarchy):
        # Even if level 0 had the max score, selection starts at level 1.
        scores = np.array([99.0, 0.5, 0.2, 0.1])
        path = paper_hierarchy.path_communities(0)
        vertex, level = select_reclustering_community(scores, path)
        assert level == 1
        assert vertex == C3

    def test_single_community_path(self):
        vertex, level = select_reclustering_community(np.array([0.0]), [42])
        assert (vertex, level) == (42, 0)

    def test_tie_prefers_deepest(self, paper_hierarchy):
        scores = np.array([0.0, 0.5, 0.5, 0.5])
        path = paper_hierarchy.path_communities(0)
        _, level = select_reclustering_community(scores, path)
        assert level == 1


class TestLoreChain:
    def test_example6_structure(self, paper_graph, paper_hierarchy):
        result = lore_chain(paper_graph, paper_hierarchy, 0, DB)
        assert result.c_ell_vertex == C4
        chain = result.chain
        chain.validate_nesting()
        # The chain ends with C4 (size 8) then the root (size 10).
        assert list(chain.sizes[-2:]) == [8, 10]
        assert chain.q == 0
        # Reclustered communities strictly inside C4 precede it.
        assert all(s < 8 for s in chain.sizes[: result.c_ell_chain_level])
        assert result.c_ell_chain_level >= 1

    def test_scores_attached(self, paper_graph, paper_hierarchy):
        result = lore_chain(paper_graph, paper_hierarchy, 0, DB)
        assert result.scores[2] == pytest.approx(7 / 8)

    def test_reclustering_respects_attribute_weights(self, paper_graph, paper_hierarchy):
        # With a huge beta, the DB-DB edges (2,4), (3,5) dominate the local
        # clustering of C4, so some reclustered ancestor of v3 pairs it
        # with v5 before the ML nodes.
        strong = AttributeWeighting(beta=100.0, scheme="both_endpoints")
        result = lore_chain(paper_graph, paper_hierarchy, 3, DB, weighting=strong)
        deepest = set(int(v) for v in result.chain.members(0))
        assert deepest in ({3, 5}, {3, 7}, {3, 5, 7})

    def test_missing_attribute_raises(self, paper_graph, paper_hierarchy):
        with pytest.raises(Exception):
            lore_chain(paper_graph, paper_hierarchy, 0, 99)

    def test_all_nodes_produce_valid_chains(self, paper_graph, paper_hierarchy):
        for q in range(10):
            result = lore_chain(paper_graph, paper_hierarchy, q, DB)
            result.chain.validate_nesting()
            assert result.chain.sizes[-1] == 10


class TestMemo:
    def test_memo_keys_start_with_the_attribute(self, paper_graph, paper_hierarchy):
        memo = LRUCache(16, name="lore_local")
        result = lore_chain(paper_graph, paper_hierarchy, 0, DB, memo=memo)
        assert set(memo._entries) == {(DB, "edges"), (DB, result.c_ell_vertex)}

    def test_memo_hit_reuses_parts_and_matches(self, paper_graph, paper_hierarchy):
        memo = LRUCache(16, name="lore_local")
        for q in range(paper_graph.n):
            memoized = lore_chain(paper_graph, paper_hierarchy, q, DB, memo=memo)
            fresh = lore_chain(paper_graph, paper_hierarchy, q, DB)
            assert memoized.c_ell_vertex == fresh.c_ell_vertex
            assert np.array_equal(memoized.scores, fresh.scores)
            assert np.array_equal(
                memoized.chain.node_levels, fresh.chain.node_levels
            )
        # Counts built once; later queries sharing a C_l reuse its recluster.
        assert memo.stats()["misses"] == 1 + len(
            [key for key in memo._entries if key[1] != "edges"]
        )
        assert memo.stats()["hits"] >= paper_graph.n - 1

    def test_failed_build_caches_nothing(self, paper_graph, paper_hierarchy):
        memo = LRUCache(16, name="lore_local")
        with pytest.raises(Exception):
            lore_chain(paper_graph, paper_hierarchy, 0, 99, memo=memo)
        assert len(memo) == 0


class TestEq2VsEq3:
    """The O(|E|) recursion (Eq. 3) must equal the direct Definition-4
    evaluation (Eq. 2) computed from scratch."""

    def direct_scores(self, graph, hierarchy, q, attribute):
        path = hierarchy.path_communities(q)
        level_of = {vertex: i for i, vertex in enumerate(path)}
        scores = []
        for i, community in enumerate(path):
            total = 0
            for u, v in graph.attribute_edges(attribute):
                lca = hierarchy.lca(u, v)
                level = level_of.get(lca)
                if level is not None and level <= i:
                    total += hierarchy.depth(lca)
            scores.append(total / hierarchy.size(community))
        return scores

    def test_equivalence_on_paper_graph(self, paper_graph, paper_hierarchy):
        for q in range(10):
            fast = reclustering_scores(paper_graph, paper_hierarchy, q, DB)
            slow = self.direct_scores(paper_graph, paper_hierarchy, q, DB)
            assert np.allclose(fast, slow)
