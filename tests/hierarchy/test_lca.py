"""Unit tests for the Euler-tour sparse-table LCA index."""

import numpy as np
import pytest

from repro.errors import HierarchyError
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.hierarchy.lca import LcaIndex


def naive_lca(hierarchy: CommunityHierarchy, a: int, b: int) -> int:
    ancestors_a = [a, *hierarchy.ancestors(a)]
    ancestors_b = set([b, *hierarchy.ancestors(b)])
    for vertex in ancestors_a:
        if vertex in ancestors_b:
            return vertex
    raise AssertionError("no common ancestor")


class TestLcaIndex:
    def test_matches_naive_on_paper_tree(self, paper_hierarchy):
        index = LcaIndex(paper_hierarchy)
        for a in range(paper_hierarchy.n_vertices):
            for b in range(paper_hierarchy.n_vertices):
                assert index.lca(a, b) == naive_lca(paper_hierarchy, a, b)

    def test_matches_naive_on_random_binary_trees(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 40))
            # Random merge sequence over available clusters.
            available = list(range(n))
            merges = []
            next_id = n
            while len(available) > 1:
                i, j = rng.choice(len(available), size=2, replace=False)
                a, b = available[int(i)], available[int(j)]
                available = [c for c in available if c not in (a, b)]
                merges.append((a, b))
                available.append(next_id)
                next_id += 1
            h = CommunityHierarchy.from_merges(n, merges)
            index = LcaIndex(h)
            pairs = rng.integers(0, h.n_vertices, size=(60, 2))
            for a, b in pairs:
                assert index.lca(int(a), int(b)) == naive_lca(h, int(a), int(b))

    def test_symmetry(self, paper_hierarchy):
        index = LcaIndex(paper_hierarchy)
        for a, b in [(0, 9), (3, 5), (2, 7)]:
            assert index.lca(a, b) == index.lca(b, a)

    def test_lca_is_ancestor_of_both(self, paper_hierarchy):
        index = LcaIndex(paper_hierarchy)
        for a in range(10):
            for b in range(10):
                lca = index.lca(a, b)
                assert paper_hierarchy.contains(lca, a) or lca == a
                assert paper_hierarchy.contains(lca, b) or lca == b

    def test_out_of_range_rejected(self, paper_hierarchy):
        index = LcaIndex(paper_hierarchy)
        with pytest.raises(HierarchyError):
            index.lca(0, 99)

    def test_skewed_tree(self):
        n = 500
        merges = [(0, 1)]
        for leaf in range(2, n):
            merges.append((n + leaf - 2, leaf))
        h = CommunityHierarchy.from_merges(n, merges)
        index = LcaIndex(h)
        # Leaves 0 and 1 meet at the first merge vertex (the deepest).
        assert index.lca(0, 1) == n
        # Leaf k joined at merge vertex n + k - 1 for k >= 2.
        assert index.lca(0, 100) == n + 99
        assert index.lca(57, 400) == n + 399


class TestLcaMany:
    def test_every_pair_of_paper_tree(self, paper_hierarchy):
        index = LcaIndex(paper_hierarchy)
        total = paper_hierarchy.n_vertices
        a, b = (x.ravel() for x in np.meshgrid(np.arange(total), np.arange(total)))
        got = index.lca_many(a, b)
        assert got.dtype == np.int64
        assert got.tolist() == [index.lca(int(x), int(y)) for x, y in zip(a, b)]

    def test_hierarchy_method_builds_index_lazily(self, paper_hierarchy):
        got = paper_hierarchy.lca_many(np.array([0, 4, 3]), np.array([6, 5, 3]))
        assert got.tolist() == [
            paper_hierarchy.lca(0, 6), paper_hierarchy.lca(4, 5), 3
        ]

    def test_random_pairs_on_a_hub_heavy_graph(self):
        from repro.datasets import load_dataset
        from repro.hierarchy.nnchain import agglomerative_hierarchy

        graph = load_dataset("pubmed", scale=2.0, seed=7).graph
        h = agglomerative_hierarchy(graph)
        rng = np.random.default_rng(2)
        # Leaf/leaf, leaf/internal, internal/internal and a == b pairs.
        a = rng.integers(0, h.n_vertices, size=4000)
        b = rng.integers(0, h.n_vertices, size=4000)
        leaves = rng.integers(0, h.n_leaves, size=2000)
        a = np.concatenate([a, leaves, leaves, [h.root, 0]])
        b = np.concatenate([b, rng.integers(0, h.n_leaves, size=2000), leaves,
                            [h.root, h.root]])
        got = h.lca_many(a, b)
        assert got.tolist() == [h.lca(int(x), int(y)) for x, y in zip(a, b)]

    def test_empty_input(self, paper_hierarchy):
        got = paper_hierarchy.lca_many(np.array([], dtype=np.int64),
                                       np.array([], dtype=np.int64))
        assert got.dtype == np.int64 and len(got) == 0

    @pytest.mark.parametrize("a,b", [([0, 99], [1, 2]), ([0], [-1]), ([20], [0])])
    def test_out_of_range_rejected(self, paper_hierarchy, a, b):
        with pytest.raises(HierarchyError):
            paper_hierarchy.lca_many(np.array(a), np.array(b))

    def test_shape_mismatch_rejected(self, paper_hierarchy):
        with pytest.raises(HierarchyError):
            paper_hierarchy.lca_many(np.array([0, 1]), np.array([2]))
