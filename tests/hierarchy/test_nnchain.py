"""Unit tests for NN-chain agglomerative clustering."""

import numpy as np
import pytest

from repro.errors import DisconnectedGraphError
from repro.graph.graph import AttributedGraph
from repro.hierarchy.nnchain import agglomerative_hierarchy


class TestBasicShapes:
    def test_two_nodes(self):
        g = AttributedGraph(2, [(0, 1)])
        h = agglomerative_hierarchy(g)
        assert h.n_vertices == 3
        assert h.size(h.root) == 2

    def test_binary_dendrogram_vertex_count(self, paper_graph):
        h = agglomerative_hierarchy(paper_graph)
        assert h.n_vertices == 2 * paper_graph.n - 1

    def test_every_leaf_covered(self, paper_graph):
        h = agglomerative_hierarchy(paper_graph)
        assert sorted(int(v) for v in h.members(h.root)) == list(range(paper_graph.n))

    def test_strictly_growing_sizes_up_the_tree(self, paper_graph):
        h = agglomerative_hierarchy(paper_graph)
        for vertex in h.internal_vertices():
            for child in h.children(vertex):
                assert h.size(child) < h.size(vertex)

    def test_single_node_rejected(self):
        g = AttributedGraph(1, [])
        with pytest.raises(DisconnectedGraphError):
            agglomerative_hierarchy(g)


class TestMergeOrder:
    def test_two_cliques_merge_internally_first(self, two_cliques_graph):
        h = agglomerative_hierarchy(two_cliques_graph)
        # The two K4s should each form a community before the final merge:
        # the root's children partition the graph into the cliques.
        kids = h.children(h.root)
        kid_sets = sorted(sorted(int(v) for v in h.members(c)) for c in kids)
        assert kid_sets == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_weighted_edges_steer_merges(self):
        # Triangle 0-1-2 with a heavy edge (0, 2): that pair merges first.
        g = AttributedGraph(3, [(0, 1), (1, 2), (0, 2)],
                            edge_weights={(0, 2): 10.0})
        h = agglomerative_hierarchy(g)
        first = 3  # first merge vertex id
        assert sorted(int(v) for v in h.members(first)) == [0, 2]

    def test_star_center_absorbs_leaves_one_by_one(self, star_graph):
        h = agglomerative_hierarchy(star_graph)
        # No two leaves share an edge, so every merge involves the cluster
        # containing the center: the dendrogram is a caterpillar of depth
        # n - 1.
        assert h.depth(h.root) == 1
        max_leaf_depth = max(h.depth(v) for v in range(star_graph.n))
        assert max_leaf_depth == star_graph.n

    def test_deterministic(self, paper_graph):
        h1 = agglomerative_hierarchy(paper_graph)
        h2 = agglomerative_hierarchy(paper_graph)
        assert [h1.parent(v) for v in range(h1.n_vertices)] == [
            h2.parent(v) for v in range(h2.n_vertices)
        ]


class TestReducibleGreedyEquivalence:
    def test_matches_naive_greedy_average_linkage(self):
        # NN-chain must produce the same merge *heights* as the O(n^3)
        # greedy "always merge the globally most similar pair" algorithm
        # for a reducible linkage. We compare the multiset of merge
        # similarities, which is invariant to tie-order permutations.
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = 12
            edges = []
            weights = {}
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.45:
                        edges.append((u, v))
                        weights[(u, v)] = float(rng.integers(1, 100))
            g = AttributedGraph(n, edges, edge_weights=weights)
            if not g.is_connected():
                continue
            fast = agglomerative_hierarchy(g)
            fast_sims = _merge_similarities(g, fast)
            naive_sims = _naive_greedy_similarities(g)
            assert np.allclose(sorted(fast_sims), sorted(naive_sims))


def _merge_similarities(graph, hierarchy):
    """Average-linkage similarity of each merge in a dendrogram."""
    sims = []
    for vertex in hierarchy.internal_vertices():
        kids = hierarchy.children(vertex)
        assert len(kids) == 2
        a_members = set(int(v) for v in hierarchy.members(kids[0]))
        b_members = set(int(v) for v in hierarchy.members(kids[1]))
        w = 0.0
        for u in a_members:
            row = graph.neighbors(u)
            wrow = graph.neighbor_weights(u)
            for x, ew in zip(row, wrow):
                if int(x) in b_members:
                    w += float(ew)
        sims.append(w / (len(a_members) * len(b_members)))
    return sims


def _naive_greedy_similarities(graph):
    """O(n^3) reference: merge the globally best pair each step."""
    clusters = {v: {v} for v in range(graph.n)}
    sims = []

    def similarity(a, b):
        w = 0.0
        for u in clusters[a]:
            row = graph.neighbors(u)
            wrow = graph.neighbor_weights(u)
            for x, ew in zip(row, wrow):
                if int(x) in clusters[b]:
                    w += float(ew)
        return w / (len(clusters[a]) * len(clusters[b]))

    next_id = graph.n
    while len(clusters) > 1:
        ids = sorted(clusters)
        best = None
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                s = similarity(a, b)
                if best is None or s > best[0]:
                    best = (s, a, b)
        s, a, b = best
        sims.append(s)
        clusters[next_id] = clusters.pop(a) | clusters.pop(b)
        next_id += 1
    return sims


class TestDisconnected:
    def test_merge_mode_stacks_components(self):
        g = AttributedGraph(5, [(0, 1), (1, 2), (3, 4)])
        h = agglomerative_hierarchy(g)
        assert h.size(h.root) == 5

    def test_isolated_nodes(self):
        g = AttributedGraph(4, [(0, 1)])
        h = agglomerative_hierarchy(g)
        assert h.size(h.root) == 4

    def test_stacking_order_largest_first_then_smallest_id(self):
        # Pairs {0,1} and {2,3} become clusters 7 and 8, the triple
        # {4,5,6} becomes 10. Largest first puts 10 deepest; the tied
        # pairs follow by cluster id, so 7 joins it and 8 joins last.
        g = AttributedGraph(7, [(0, 1), (2, 3), (4, 5), (5, 6)])
        h = agglomerative_hierarchy(g)

        def child_sets(vertex):
            return {frozenset(h.members(c).tolist()): c for c in h.children(vertex)}

        under_root = child_sets(h.root)
        assert set(under_root) == {frozenset({0, 1, 4, 5, 6}), frozenset({2, 3})}
        deepest = child_sets(under_root[frozenset({0, 1, 4, 5, 6})])
        assert set(deepest) == {frozenset({0, 1}), frozenset({4, 5, 6})}
