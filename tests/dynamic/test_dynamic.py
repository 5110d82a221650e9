"""Unit tests for graph update batches."""

import pytest

from repro.dynamic import (
    AttrUpdate,
    EdgeUpdate,
    apply_updates,
    touched_attributes,
    touched_nodes,
)
from repro.errors import GraphError


class TestEdgeUpdates:
    def test_insert(self, paper_graph):
        updated = apply_updates(paper_graph, [EdgeUpdate(2, 3, add=True)])
        assert updated.has_edge(2, 3)
        assert updated.m == paper_graph.m + 1

    def test_delete(self, paper_graph):
        updated = apply_updates(paper_graph, [EdgeUpdate(0, 1, add=False)])
        assert not updated.has_edge(0, 1)
        assert updated.m == paper_graph.m - 1

    def test_attributes_survive(self, paper_graph):
        updated = apply_updates(paper_graph, [EdgeUpdate(2, 3)])
        for v in range(10):
            assert updated.attributes_of(v) == paper_graph.attributes_of(v)

    def test_double_insert_rejected(self, paper_graph):
        with pytest.raises(GraphError, match="already exists"):
            apply_updates(paper_graph, [EdgeUpdate(0, 1, add=True)])

    def test_phantom_delete_rejected(self, paper_graph):
        with pytest.raises(GraphError, match="does not exist"):
            apply_updates(paper_graph, [EdgeUpdate(2, 3, add=False)])

    def test_self_loop_rejected(self, paper_graph):
        with pytest.raises(GraphError, match="self-loop"):
            apply_updates(paper_graph, [EdgeUpdate(4, 4)])

    def test_out_of_range_rejected(self, paper_graph):
        with pytest.raises(GraphError):
            apply_updates(paper_graph, [EdgeUpdate(0, 99)])

    def test_conflicting_edge_ops_rejected(self, paper_graph):
        # Insert+delete of one edge in a single batch is order-sensitive;
        # batches are atomic and order-free, so the conflict is rejected
        # up front (split the sequence across two batches instead).
        with pytest.raises(GraphError, match="conflicting updates for edge"):
            apply_updates(
                paper_graph,
                [EdgeUpdate(2, 3, add=True), EdgeUpdate(2, 3, add=False)],
            )
        # The same conflict under swapped endpoints (normalized keys).
        with pytest.raises(GraphError, match="conflicting updates for edge"):
            apply_updates(
                paper_graph,
                [EdgeUpdate(2, 3, add=True), EdgeUpdate(3, 2, add=True)],
            )

    def test_split_batches_allow_the_sequence(self, paper_graph):
        # The rejected intra-batch sequence is fine across two batches.
        inserted = apply_updates(paper_graph, [EdgeUpdate(2, 3, add=True)])
        reverted = apply_updates(inserted, [EdgeUpdate(2, 3, add=False)])
        assert reverted.m == paper_graph.m
        assert not reverted.has_edge(2, 3)

    def test_key_normalized(self):
        assert EdgeUpdate(5, 2).key() == (2, 5)


class TestAttrUpdates:
    def test_add(self, paper_graph):
        updated = apply_updates(paper_graph, [AttrUpdate(0, 7, add=True)])
        assert 7 in updated.attributes_of(0)
        assert 7 not in paper_graph.attributes_of(0)

    def test_remove(self, paper_graph):
        carried = sorted(paper_graph.attributes_of(0))[0]
        updated = apply_updates(paper_graph, [AttrUpdate(0, carried, add=False)])
        assert carried not in updated.attributes_of(0)

    def test_topology_survives(self, paper_graph):
        updated = apply_updates(paper_graph, [AttrUpdate(3, 7, add=True)])
        assert sorted(updated.edges()) == sorted(paper_graph.edges())

    def test_double_add_rejected(self, paper_graph):
        carried = sorted(paper_graph.attributes_of(2))[0]
        with pytest.raises(GraphError, match="already carries"):
            apply_updates(paper_graph, [AttrUpdate(2, carried, add=True)])

    def test_phantom_remove_rejected(self, paper_graph):
        with pytest.raises(GraphError, match="does not carry"):
            apply_updates(paper_graph, [AttrUpdate(2, 99, add=False)])

    def test_node_out_of_range_rejected(self, paper_graph):
        with pytest.raises(GraphError, match="out of range"):
            apply_updates(paper_graph, [AttrUpdate(99, 0, add=True)])

    def test_negative_attribute_rejected(self, paper_graph):
        with pytest.raises(GraphError, match="negative attribute"):
            apply_updates(paper_graph, [AttrUpdate(0, -1, add=True)])

    def test_conflicting_attr_ops_rejected(self, paper_graph):
        with pytest.raises(GraphError, match="node-attribute pair"):
            apply_updates(
                paper_graph,
                [AttrUpdate(0, 7, add=True), AttrUpdate(0, 7, add=False)],
            )

    def test_unknown_update_type_rejected(self, paper_graph):
        with pytest.raises(GraphError, match="unknown update type"):
            apply_updates(paper_graph, ["not-an-update"])

    def test_atomic_failure_leaves_graph_untouched(self, paper_graph):
        # A batch whose *second* update is invalid must not leak the first.
        with pytest.raises(GraphError):
            apply_updates(
                paper_graph,
                [AttrUpdate(0, 7, add=True), EdgeUpdate(0, 1, add=True)],
            )
        assert 7 not in paper_graph.attributes_of(0)

    def test_touched_sets(self, paper_graph):
        batch = [EdgeUpdate(2, 3), AttrUpdate(5, 7, add=True)]
        assert touched_nodes(batch) == {2, 3}
        assert touched_attributes(batch) == {7}
