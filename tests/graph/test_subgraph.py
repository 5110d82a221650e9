"""Unit tests for induced subgraph extraction."""

import pytest

from repro.errors import GraphError
from repro.graph.subgraph import induced_subgraph


class TestInducedSubgraph:
    def test_node_translation_roundtrip(self, paper_graph):
        view = induced_subgraph(paper_graph, [3, 7, 5, 9])
        assert list(view.to_parent) == [3, 5, 7, 9]
        assert view.to_sub == {3: 0, 5: 1, 7: 2, 9: 3}
        assert view.parent_ids([0, 2]) == [3, 7]

    def test_edges_restricted(self, paper_graph):
        view = induced_subgraph(paper_graph, [0, 1, 2, 3])
        # C0's internal edges: all pairs except (2, 3).
        expected = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
        assert set(view.graph.edges()) == expected

    def test_attributes_carried_over(self, paper_graph):
        view = induced_subgraph(paper_graph, [2, 6])
        assert view.graph.attributes_of(view.to_sub[2]) == frozenset({0})
        assert view.graph.attributes_of(view.to_sub[6]) == frozenset({1})

    def test_whole_graph(self, paper_graph):
        view = induced_subgraph(paper_graph, range(10))
        assert view.graph.n == paper_graph.n
        assert view.graph.m == paper_graph.m

    def test_single_node(self, paper_graph):
        view = induced_subgraph(paper_graph, [4])
        assert view.graph.n == 1
        assert view.graph.m == 0

    def test_duplicates_rejected(self, paper_graph):
        with pytest.raises(GraphError, match="duplicate"):
            induced_subgraph(paper_graph, [1, 1, 2])

    def test_empty_rejected(self, paper_graph):
        with pytest.raises(GraphError, match="empty"):
            induced_subgraph(paper_graph, [])

    def test_weights_dropped_by_default(self, paper_graph):
        weighted = paper_graph.with_edge_weights({(0, 1): 4.0})
        view = induced_subgraph(weighted, [0, 1, 2])
        assert not view.graph.is_weighted

    def test_degrees_never_exceed_parent(self, paper_graph):
        view = induced_subgraph(paper_graph, [0, 1, 2, 3, 6, 7])
        for sub_id in range(view.graph.n):
            parent_id = int(view.to_parent[sub_id])
            assert view.graph.degree(sub_id) <= paper_graph.degree(parent_id)
