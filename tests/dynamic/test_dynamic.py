"""Unit and integration tests for the dynamic-graph session."""

import numpy as np
import pytest

from repro.core.problem import CODQuery
from repro.datasets.registry import load_dataset
from repro.dynamic import (
    AttrUpdate,
    DynamicCOD,
    EdgeUpdate,
    apply_updates,
    touched_attributes,
    touched_nodes,
)
from repro.errors import GraphError, QueryError
from repro.graph.graph import AttributedGraph


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


class TestDynamicSession:
    @pytest.fixture()
    def session(self, paper_graph):
        return DynamicCOD(
            paper_graph, theta=40, rebuild_budget=5,
            verify_samples_per_node=120, seed=0,
        )

    def test_fresh_query_certified(self, session):
        answer = session.query(CODQuery(0, 0, 10))
        assert answer.found
        assert answer.verified_rank <= 10
        assert answer.source in ("fresh", "repair")

    def test_updates_tracked(self, session, paper_graph):
        session.apply([EdgeUpdate(2, 3)])
        assert session.updates_since_build == 1
        assert session.graph.has_edge(2, 3)

    def test_rebuild_triggers_at_budget(self, session):
        edges_to_add = [(2, 3), (0, 4), (1, 5), (6, 9), (2, 8)]
        for u, v in edges_to_add:
            session.apply([EdgeUpdate(u, v)])
        assert session.rebuild_count == 1
        assert session.updates_since_build == 0

    def test_stale_answers_still_certified(self, session):
        # Apply updates below the budget so structures stay stale, then
        # query: every returned community must verify top-k on the LIVE
        # graph.
        session.apply([EdgeUpdate(2, 3), EdgeUpdate(0, 4)])
        assert session.updates_since_build == 2
        for q in (0, 3, 7):
            answer = session.query(CODQuery(q, 0, 5))
            if answer.found:
                assert answer.verified_rank <= 5
                assert q in set(int(v) for v in answer.members)

    def test_deletion_heavy_drift(self, paper_graph):
        session = DynamicCOD(paper_graph, theta=40, rebuild_budget=100,
                             verify_samples_per_node=100, seed=1)
        # Remove node 0's dominance: delete most of its edges.
        session.apply([EdgeUpdate(0, 1, add=False),
                       EdgeUpdate(0, 2, add=False)])
        answer = session.query(CODQuery(0, 0, 5))
        if answer.found:
            assert answer.verified_rank <= 5

    def test_repairs_on_one_graph_cluster_it_once(self, session, monkeypatch):
        import repro.serving.server as server_module

        clustered = []
        real = server_module.agglomerative_hierarchy

        def counting(graph, *args, **kwargs):
            clustered.append(graph)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(server_module, "agglomerative_hierarchy", counting)
        # Every verification fails, so every query repairs on the live graph.
        monkeypatch.setattr(
            session, "_verify_rank", lambda members, q, budget=None: 10**9
        )
        session.apply([EdgeUpdate(2, 3)])
        for q in (0, 3):
            session.query(CODQuery(q, 0, 5))
        assert session.repair_count == 2
        assert sum(g is session.graph for g in clustered) == 1
        # A new live graph gets its own repair server, clustered once.
        session.apply([EdgeUpdate(0, 4)])
        for q in (0, 3):
            session.query(CODQuery(q, 0, 5))
        assert session.repair_count == 4
        assert sum(g is session.graph for g in clustered) == 1

    def test_repair_after_rebuild_reuses_the_pipeline_clustering(
        self, paper_graph, monkeypatch
    ):
        import repro.serving.server as server_module

        clustered = []
        real = server_module.agglomerative_hierarchy

        def counting(graph, *args, **kwargs):
            clustered.append(graph)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(server_module, "agglomerative_hierarchy", counting)
        session = DynamicCOD(paper_graph, theta=40, rebuild_budget=1,
                             verify_samples_per_node=120, seed=0)
        monkeypatch.setattr(
            session, "_verify_rank", lambda members, q, budget=None: 10**9
        )
        session.apply([EdgeUpdate(2, 3)])  # hits the budget: rebuild
        assert session.rebuild_count == 1
        session.query(CODQuery(0, 0, 5))
        assert session.repair_count == 1
        # The rebuilt pipeline and the repair pass share one clustering.
        assert sum(g is session.graph for g in clustered) == 1

    def test_invalid_budget(self, paper_graph):
        with pytest.raises(QueryError):
            DynamicCOD(paper_graph, rebuild_budget=0)

    def test_invalid_query(self, session):
        with pytest.raises(QueryError):
            session.query(CODQuery(99, 0, 5))


class TestDynamicIntegration:
    def test_evolving_dataset_stream(self):
        data = load_dataset("cora", scale=0.2, seed=7)
        rng = np.random.default_rng(3)
        session = DynamicCOD(data.graph, theta=15, rebuild_budget=8,
                             verify_samples_per_node=60, seed=11)
        existing = set(data.graph.edges())
        n = data.graph.n
        certified = 0
        for step in range(12):
            # Random insert avoiding duplicates.
            while True:
                u, v = sorted(rng.integers(0, n, size=2).tolist())
                if u != v and (u, v) not in existing:
                    break
            existing.add((u, v))
            session.apply([EdgeUpdate(u, v)])
            if step % 4 == 3:
                q = int(rng.integers(0, n))
                attrs = sorted(session.graph.attributes_of(q))
                answer = session.query(CODQuery(q, attrs[0], 5))
                if answer.found:
                    certified += 1
                    assert answer.verified_rank <= 5
        assert session.rebuild_count >= 1


class TestServerBackedSession:
    """DynamicCOD over a pooled CODServer backend (cache coherence)."""

    @pytest.fixture()
    def server(self, paper_graph):
        from repro.core.pool import SharedSamplePool
        from repro.serving.server import CODServer

        pool = SharedSamplePool(
            paper_graph, theta=6, seed=11, per_sample_seeds=True
        )
        return CODServer(paper_graph, theta=6, seed=11, pool=pool)

    @pytest.fixture()
    def session(self, paper_graph, server):
        return DynamicCOD(
            paper_graph, theta=6, rebuild_budget=2,
            verify_samples_per_node=120, seed=0, server=server,
        )

    def test_queries_come_from_server(self, session, server):
        answer = session.query(CODQuery(0, 0, 10))
        assert answer.found
        assert answer.verified_rank <= 10
        assert sum(server.health()["answered_per_rung"].values()) >= 1

    def test_rebuild_replays_batches_through_server(self, session, server):
        session.apply([EdgeUpdate(2, 3)])
        # Below budget: the server has not seen the batch yet.
        assert server.epoch == 0
        assert not server.graph.has_edge(2, 3)
        session.apply([EdgeUpdate(0, 4)])
        # Budget hit: both pending batches replayed, one epoch each.
        assert session.rebuild_count == 1
        assert server.epoch == 2
        assert server.graph.has_edge(2, 3)
        assert server.graph.has_edge(0, 4)
        assert session._pending_batches == []

    def test_verification_runs_on_live_graph(self, session):
        # Between rebuilds the session graph is ahead of the server's;
        # answers must still certify top-k against the *live* graph.
        session.apply([EdgeUpdate(2, 3)])
        assert session.graph.has_edge(2, 3)
        answer = session.query(CODQuery(0, 0, 5))
        if answer.found:
            assert answer.verified_rank <= 5
            assert 0 in set(int(v) for v in answer.members)

    def test_restricted_arena_does_not_leak_across_rebuild(
        self, paper_graph, session, server
    ):
        # Populate the server's restricted-arena cache, then push a
        # structural rebuild through the session: the stale arenas (drawn
        # from the pre-update pool) must be dropped, and post-rebuild
        # answers must be bit-identical to a fresh pooled server built
        # directly on the post-update graph with the same seed.
        query = CODQuery(0, 0, 3)
        session.query(query)
        assert len(server._restricted_cache) + len(server._lore_cache) > 0

        session.apply([EdgeUpdate(2, 3), EdgeUpdate(5, 7)])
        assert session.rebuild_count == 1
        assert len(server._restricted_cache) == 0
        assert server._restricted_cache.stats()["invalidations"] >= 0

        from repro.core.pool import SharedSamplePool
        from repro.serving.server import CODServer

        fresh_pool = SharedSamplePool(
            session.graph, theta=6, seed=11, per_sample_seeds=True
        )
        oracle = CODServer(session.graph, theta=6, seed=11, pool=fresh_pool)
        for q in (0, 3, 7):
            probe = CODQuery(q, 0, 3)
            served = server.answer(probe)
            expected = oracle.answer(probe)
            if expected.members is None:
                assert served.members is None
            else:
                assert np.array_equal(served.members, expected.members)

    def test_node_count_mismatch_rejected(self, paper_graph):
        from repro.serving.server import CODServer

        other = AttributedGraph(3, [(0, 1), (1, 2)], attributes=[[0], [0], [0]])
        with pytest.raises(QueryError, match="3-node graph"):
            DynamicCOD(paper_graph, server=CODServer(other))
