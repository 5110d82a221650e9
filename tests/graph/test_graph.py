"""Unit tests for the AttributedGraph store."""

import numpy as np
import pytest

from repro.errors import AttributeNotFoundError, GraphError, NodeNotFoundError
from repro.graph.graph import AttributedGraph


class TestConstruction:
    def test_basic_counts(self, paper_graph):
        assert paper_graph.n == 10
        assert paper_graph.m == 15
        assert len(paper_graph) == 10

    def test_duplicate_edges_collapse(self):
        g = AttributedGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            AttributedGraph(3, [(1, 1)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(NodeNotFoundError):
            AttributedGraph(3, [(0, 3)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(NodeNotFoundError):
            AttributedGraph(3, [(-1, 0)])

    def test_zero_nodes_rejected(self):
        with pytest.raises(GraphError):
            AttributedGraph(0, [])

    def test_empty_graph_allowed(self):
        g = AttributedGraph(4, [])
        assert g.m == 0
        assert g.degree(0) == 0

    def test_too_many_attribute_sets_rejected(self):
        with pytest.raises(GraphError):
            AttributedGraph(2, [(0, 1)], attributes=[[0], [1], [2]])

    def test_missing_attribute_sets_default_empty(self):
        g = AttributedGraph(3, [(0, 1)], attributes=[[0]])
        assert g.attributes_of(0) == frozenset({0})
        assert g.attributes_of(2) == frozenset()

    def test_repr_mentions_sizes(self, paper_graph):
        assert "n=10" in repr(paper_graph)
        assert "m=15" in repr(paper_graph)


class TestStructure:
    def test_neighbors_sorted(self, paper_graph):
        nbrs = paper_graph.neighbors(3)
        assert list(nbrs) == sorted(int(v) for v in nbrs)

    def test_neighbors_symmetric(self, paper_graph):
        for u, v in paper_graph.edges():
            assert u in paper_graph.neighbors(v)
            assert v in paper_graph.neighbors(u)

    def test_degree_matches_neighbors(self, paper_graph):
        for v in range(paper_graph.n):
            assert paper_graph.degree(v) == len(paper_graph.neighbors(v))

    def test_degrees_array(self, paper_graph):
        assert int(paper_graph.degrees.sum()) == 2 * paper_graph.m

    def test_has_edge(self, paper_graph):
        assert paper_graph.has_edge(0, 1)
        assert paper_graph.has_edge(1, 0)
        assert not paper_graph.has_edge(2, 3)

    def test_edges_each_once_ordered(self, paper_graph):
        edges = list(paper_graph.edges())
        assert len(edges) == paper_graph.m
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_degree_bad_node(self, paper_graph):
        with pytest.raises(NodeNotFoundError):
            paper_graph.degree(10)

    def test_neighbors_bad_node(self, paper_graph):
        with pytest.raises(NodeNotFoundError):
            paper_graph.neighbors(-1)


class TestWeights:
    def test_unweighted_by_default(self, paper_graph):
        assert not paper_graph.is_weighted
        assert paper_graph.edge_weight(0, 1) == 1.0
        assert np.all(paper_graph.neighbor_weights(0) == 1.0)

    def test_with_edge_weights(self, paper_graph):
        g = paper_graph.with_edge_weights({(0, 1): 3.0})
        assert g.is_weighted
        assert g.edge_weight(0, 1) == 3.0
        assert g.edge_weight(1, 0) == 3.0
        assert g.edge_weight(0, 2) == 1.0

    def test_weights_preserve_attributes(self, paper_graph):
        g = paper_graph.with_edge_weights({(0, 1): 2.0})
        for v in range(g.n):
            assert g.attributes_of(v) == paper_graph.attributes_of(v)

    def test_nonpositive_weight_rejected(self, paper_graph):
        with pytest.raises(GraphError):
            paper_graph.with_edge_weights({(0, 1): 0.0})

    def test_weight_of_missing_edge_raises(self, paper_graph):
        with pytest.raises(GraphError):
            paper_graph.edge_weight(2, 3)

    def test_neighbor_weights_aligned(self, paper_graph):
        g = paper_graph.with_edge_weights({(0, 1): 5.0, (0, 6): 2.0})
        nbrs = list(g.neighbors(0))
        weights = list(g.neighbor_weights(0))
        lookup = dict(zip(nbrs, weights))
        assert lookup[1] == 5.0
        assert lookup[6] == 2.0
        assert lookup[2] == 1.0


class TestAttributes:
    def test_attributes_of(self, paper_graph):
        assert paper_graph.attributes_of(2) == frozenset({0})
        assert paper_graph.attributes_of(0) == frozenset({1})

    def test_has_attribute(self, paper_graph):
        assert paper_graph.has_attribute(3, 0)
        assert not paper_graph.has_attribute(3, 1)

    def test_nodes_with_attribute(self, paper_graph):
        db_nodes = paper_graph.nodes_with_attribute(0)
        assert list(db_nodes) == [2, 3, 4, 5, 7]

    def test_unknown_attribute_raises(self, paper_graph):
        with pytest.raises(AttributeNotFoundError):
            paper_graph.nodes_with_attribute(99)

    def test_attribute_universe(self, paper_graph):
        assert paper_graph.attribute_universe == frozenset({0, 1})

    def test_attribute_edges_paper_example(self, paper_graph):
        # Example 5's three divided DB-DB edges, plus (4, 5) whose LCA
        # (C1) is off v0's path and thus never enters delta(v0, .).
        assert sorted(paper_graph.attribute_edges(0)) == [
            (2, 4), (3, 5), (3, 7), (4, 5)
        ]

    def test_attribute_edges_requires_both_endpoints(self, paper_graph):
        # (3, 7) is DB-DB; (0, 3) is ML-DB and must be excluded.
        assert (0, 3) not in set(paper_graph.attribute_edges(0))

    def test_attribute_edges_order_unchanged(self, paper_graph):
        # By u, then v: the order the per-node loop used to yield.
        assert list(paper_graph.attribute_edges(0)) == [
            (2, 4), (3, 5), (3, 7), (4, 5)
        ]
        assert all(
            type(u) is int and type(v) is int
            for u, v in paper_graph.attribute_edges(1)
        )

    def test_attribute_edge_arrays_match_edges(self, paper_graph):
        for attribute in (0, 1):
            u, v = paper_graph.attribute_edge_arrays(attribute)
            assert u.dtype == np.int64 and v.dtype == np.int64
            assert list(zip(u.tolist(), v.tolist())) == list(
                paper_graph.attribute_edges(attribute)
            )

    def test_attribute_edge_arrays_on_random_graph(self):
        rng = np.random.default_rng(3)
        n = 60
        edges = {tuple(sorted(map(int, rng.choice(n, 2, replace=False))))
                 for _ in range(240)}
        attrs = [[int(a) for a in np.flatnonzero(rng.random(3) < 0.4)]
                 for _ in range(n)]
        g = AttributedGraph(n, sorted(edges), attributes=attrs)
        for attribute in sorted(g.attribute_universe):
            carriers = set(int(v) for v in g.nodes_with_attribute(attribute))
            expected = sorted(
                (u, v) for u, v in edges if u in carriers and v in carriers
            )
            assert list(g.attribute_edges(attribute)) == expected

    def test_attribute_edges_without_edges(self):
        g = AttributedGraph(3, [(0, 1)], attributes=[[5], [], [5]])
        u, v = g.attribute_edge_arrays(5)
        assert len(u) == len(v) == 0
        assert list(g.attribute_edges(5)) == []

    def test_attribute_edges_unknown_attribute_raises(self, paper_graph):
        with pytest.raises(AttributeNotFoundError):
            paper_graph.attribute_edge_arrays(99)
        with pytest.raises(AttributeNotFoundError):
            list(paper_graph.attribute_edges(99))

    def test_multi_attribute_nodes(self):
        g = AttributedGraph(2, [(0, 1)], attributes=[[0, 1, 2], [1]])
        assert g.attributes_of(0) == frozenset({0, 1, 2})
        assert list(g.nodes_with_attribute(1)) == [0, 1]


class TestConnectivity:
    def test_connected(self, paper_graph):
        assert paper_graph.is_connected()

    def test_components_partition(self):
        g = AttributedGraph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert sorted(len(c) for c in comps) == [1, 2, 2]
        all_nodes = sorted(int(v) for c in comps for v in c)
        assert all_nodes == list(range(5))

    def test_components_largest_first(self):
        g = AttributedGraph(6, [(0, 1), (1, 2), (3, 4)])
        comps = g.connected_components()
        assert len(comps[0]) == 3

    def test_single_node_connected(self):
        assert AttributedGraph(1, []).is_connected()


class TestMemory:
    def test_memory_bytes_positive(self, paper_graph):
        assert paper_graph.memory_bytes() > 0

    def test_weighted_graph_uses_more(self, paper_graph):
        weighted = paper_graph.with_edge_weights({(0, 1): 2.0})
        assert weighted.memory_bytes() > paper_graph.memory_bytes()
