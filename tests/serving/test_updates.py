"""Unit tests for live-graph updates in the serving layer.

Covers the single-process surface: ``CODServer.apply_updates`` (epoch
advance, incremental pool/index repair, scoped cache invalidation,
metrics) and ``ServingSupervisor.submit_updates`` under calm conditions.
The kill/wedge/corrupt drill lives in ``test_epoch_chaos.py``.
"""

import time

import numpy as np
import pytest

import repro.serving.server as server_module
from repro.hierarchy.dendrogram import same_hierarchy
from repro.core.lore import lore_chain
from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.datasets.registry import load_dataset
from repro.dynamic import AttrUpdate, EdgeUpdate, UpdateBatch
from repro.dynamic.updates import apply_updates as apply_graph_updates
from repro.errors import GraphError, QueryError
from repro.obs import MetricsRegistry
from repro.serving import BackoffPolicy, ServingSupervisor
from repro.serving.server import CODServer

THETA = 4
SEED = 11
DB = 0


def seeded_server(graph, metrics=None, **kwargs):
    pool = SharedSamplePool(graph, theta=THETA, seed=SEED,
                            per_sample_seeds=True)
    return CODServer(graph, theta=THETA, seed=SEED, pool=pool,
                     metrics=metrics, **kwargs)


def assert_matches_fresh_server(server, queries):
    """``server`` answers like a fresh seeded server on its live graph."""
    oracle = seeded_server(server.graph)
    for q, query in enumerate(queries):
        served = server.answer(query)
        expected = oracle.answer(query)
        if expected.members is None:
            assert served.members is None, q
        else:
            assert np.array_equal(served.members, expected.members), q


class TestServerApplyUpdates:
    def test_epoch_stamped_on_answers(self, paper_graph):
        server = seeded_server(paper_graph)
        assert server.answer(CODQuery(0, DB, 3)).epoch == 0
        report = server.apply_updates([EdgeUpdate(2, 3)])
        assert report["epoch"] == server.epoch == 1
        assert server.answer(CODQuery(0, DB, 3)).epoch == 1

    def test_structural_apply_matches_fresh_server(self, paper_graph):
        server = seeded_server(paper_graph)
        server.warm()
        report = server.apply_updates([EdgeUpdate(2, 3), EdgeUpdate(5, 7)])
        assert report["structural"]
        assert 0 < report["repaired_samples"] < server.pool.n_samples

        oracle = seeded_server(server.graph)
        for q in range(paper_graph.n):
            query = CODQuery(q, DB, 3)
            served = server.answer(query)
            expected = oracle.answer(query)
            if expected.members is None:
                assert served.members is None, q
            else:
                assert np.array_equal(served.members, expected.members), q

    def test_local_index_does_not_leak_across_edge_batch(self, paper_graph):
        # These queries fall back below the index to C_l, so answering
        # them caches local indexes built from the pre-update pool: the
        # edge batch must drop them, and later answers must equal a fresh
        # pooled server's on the post-update graph.
        queries = [CODQuery(5, DB, 2), CODQuery(7, DB, 1), CODQuery(6, 1, 2)]
        server = seeded_server(paper_graph)
        for query in queries:
            server.answer(query)
        assert len(server._restricted_cache) > 0

        server.apply_updates([EdgeUpdate(2, 3), EdgeUpdate(5, 7)])
        assert len(server._restricted_cache) == 0

        oracle = seeded_server(server.graph)
        for q, query in enumerate(queries):
            served = server.answer(query)
            expected = oracle.answer(query)
            if expected.members is None:
                assert served.members is None, q
            else:
                assert np.array_equal(served.members, expected.members), q

    @pytest.mark.parametrize("node, add", [(1, True), (2, False)])
    def test_attr_batch_keeps_local_indexes(self, paper_graph, node, add):
        # Granting or revoking an attribute inside C_l reclusters C_l
        # afresh, but leaves the pool and the floor vertices alone: every
        # local index stays cached (the other attribute's untouched), and
        # each one is vetted against the fresh reclustering on its next
        # lookup, so answers still equal a fresh server's.
        queries = [
            CODQuery(q, a, k)
            for q in range(paper_graph.n) for a in (DB, 1) for k in (1, 2, 3)
        ]
        server = seeded_server(paper_graph)
        for query in queries:
            server.answer(query)
        assert any(
            node in server._lore_cache.get((q, DB)).local.to_parent
            for q in range(paper_graph.n)
        )
        entries = dict(server._restricted_cache._entries)
        assert {key[0] for key in entries} == {DB, 1}

        report = server.apply_updates([AttrUpdate(node, DB, add=add)])
        assert report["cache_invalidated"] >= 1  # DB's finished chains
        kept = server._restricted_cache._entries
        assert kept.keys() == entries.keys()
        assert all(kept[key] is entry for key, entry in entries.items())
        assert_matches_fresh_server(server, queries)

    def test_attr_only_apply_is_sample_free(self, paper_graph):
        server = seeded_server(paper_graph)
        server.warm()
        arena_before = server.pool.arena
        report = server.apply_updates([AttrUpdate(0, 7, add=True)])
        assert not report["structural"]
        assert report["repaired_samples"] == 0
        assert report["index"] == "none"
        # Topology-derived state survives untouched.
        assert server.pool.arena is arena_before
        assert 7 in server.graph.attributes_of(0)
        assert server.epoch == 1

    def test_attr_only_invalidation_scoped_to_touched_attrs(self, paper_graph):
        server = seeded_server(paper_graph)
        # Seed LORE cache entries for both attribute values.
        server.answer(CODQuery(0, 0, 3))
        server.answer(CODQuery(4, 1, 3))
        assert len(server._lore_cache) >= 2
        before = len(server._lore_cache)
        server.apply_updates([AttrUpdate(9, 1, add=False)])
        # Only attribute-1 chains dropped; attribute-0 entries survive.
        survivors = list(server._lore_cache._entries)
        assert all(key[1] != 1 for key in survivors)
        assert len(survivors) < before

    def test_failed_apply_leaves_epoch_and_graph(self, paper_graph):
        server = seeded_server(paper_graph)
        with pytest.raises(GraphError):
            server.apply_updates([EdgeUpdate(0, 1, add=True)])  # exists
        assert server.epoch == 0
        assert server.graph is paper_graph
        with pytest.raises(GraphError, match="conflicting"):
            server.apply_updates(
                [EdgeUpdate(2, 3, add=True), EdgeUpdate(2, 3, add=False)]
            )
        assert server.epoch == 0

    def test_update_batch_object_accepted(self, paper_graph):
        server = seeded_server(paper_graph)
        report = server.apply_updates(
            UpdateBatch(updates=(EdgeUpdate(2, 3),), label="x")
        )
        assert report["updates"] == 1
        assert server.graph.has_edge(2, 3)

    def test_pinned_epoch(self, paper_graph):
        server = seeded_server(paper_graph)
        report = server.apply_updates([EdgeUpdate(2, 3)], epoch=7)
        assert report["epoch"] == server.epoch == 7

    def test_index_carried_across_structural_update(self, paper_graph,
                                                    tmp_path):
        path = tmp_path / "himor.json"
        server = seeded_server(paper_graph, index_path=path)
        server.warm()
        report = server.apply_updates([EdgeUpdate(2, 3)])
        # Pooled-seeded servers never drop the index: it is delta-repaired
        # or rebuilt from the repaired pool without fresh sampling.
        assert report["index"] in ("repaired", "rebuilt")
        assert server._index is not None
        # The persisted artifact was refreshed to the new epoch's graph.
        from repro.core.himor import HimorIndex, graph_checksum

        assert HimorIndex.load(path).graph_sha == graph_checksum(server.graph)

    def test_stale_persisted_index_rejected_on_load(self, paper_graph,
                                                    tmp_path):
        path = tmp_path / "himor.json"
        server = seeded_server(paper_graph, index_path=path)
        server.warm()
        stale_sha = server._index.graph_sha

        # A second server starts from the *updated* graph with the stale
        # artifact on disk: the graph_sha gate must force a rebuild.
        from repro.dynamic.updates import apply_updates as apply_graph

        new_graph = apply_graph(paper_graph, [EdgeUpdate(2, 3)])
        fresh = seeded_server(new_graph, index_path=path)
        fresh.warm()
        assert fresh._index.graph_sha != stale_sha
        assert fresh.health()["index_rebuilds"] >= 1

    def test_health_and_metrics_surface_updates(self, paper_graph):
        metrics = MetricsRegistry()
        server = seeded_server(paper_graph, metrics=metrics)
        server.warm()
        server.answer(CODQuery(0, DB, 3))  # populate the caches
        server.apply_updates([EdgeUpdate(2, 3)])
        server.apply_updates([AttrUpdate(0, 7)])

        health = server.health()
        assert health["epoch"] == 2
        updates = health["updates"]
        assert updates["batches_applied"] == 2
        assert updates["updates_applied"] == 2
        assert updates["repaired_samples"] >= 1
        assert updates["cache_invalidated"] >= 1

        snapshot = metrics.snapshot()
        assert snapshot["gauges"]["epoch"] == 2
        assert snapshot["counters"]["updates.batches"] == 2
        assert snapshot["counters"]["updates.applied"] == 2
        assert snapshot["counters"]["arena.repaired_samples"] >= 1
        assert snapshot["counters"]["cache.invalidated_entries"] >= 1

    def test_edge_deletions_match_fresh_server(self, paper_graph):
        # Strip most of node 0's edges: its community must be recomputed
        # on the thinned graph, not served from the pre-update pool.
        server = seeded_server(paper_graph)
        server.warm()
        server.answer(CODQuery(0, DB, 5))
        report = server.apply_updates(
            [EdgeUpdate(0, 1, add=False), EdgeUpdate(0, 2, add=False)]
        )
        assert report["structural"]
        assert not server.graph.has_edge(0, 1)
        assert_matches_fresh_server(
            server, [CODQuery(q, DB, 5) for q in range(paper_graph.n)]
        )

    def test_evolving_dataset_stream(self):
        # One inserted edge per batch, as a live graph grows: every epoch
        # is applied exactly, so periodic answers equal a fresh server's.
        graph = load_dataset("cora", scale=0.2, seed=7).graph
        rng = np.random.default_rng(3)
        server = seeded_server(graph)
        server.warm()
        existing = set(graph.edges())
        for step in range(12):
            while True:
                u, v = sorted(rng.integers(0, graph.n, size=2).tolist())
                if u != v and (u, v) not in existing:
                    break
            existing.add((u, v))
            server.apply_updates([EdgeUpdate(u, v)])
            if step % 4 == 3:
                q = int(rng.integers(0, graph.n))
                attribute = sorted(server.graph.attributes_of(q))[0]
                assert_matches_fresh_server(server, [CODQuery(q, attribute, 5)])
        assert server.epoch == 12
        assert server.graph.m == graph.m + 12

    def test_queries_validate_against_live_graph(self, paper_graph):
        server = seeded_server(paper_graph)
        assert 7 not in paper_graph.attributes_of(0)
        with pytest.raises(QueryError):
            server.answer(CODQuery(0, 7, 3))
        server.apply_updates([AttrUpdate(0, 7, add=True)])
        assert server.answer(CODQuery(0, 7, 3)).epoch == 1
        with pytest.raises(QueryError):
            server.answer(CODQuery(99, DB, 3))

    def test_out_of_range_node_rejected(self, paper_graph):
        server = seeded_server(paper_graph)
        with pytest.raises(GraphError, match="out of range"):
            server.apply_updates([EdgeUpdate(0, paper_graph.n)])
        with pytest.raises(GraphError, match="out of range"):
            server.apply_updates([AttrUpdate(paper_graph.n, DB, add=True)])
        assert server.epoch == 0
        assert server.graph is paper_graph

    def test_structural_batch_clusters_live_graph_once(
        self, paper_graph, monkeypatch
    ):
        clustered = []
        real = server_module.agglomerative_hierarchy

        def counting(graph, *args, **kwargs):
            clustered.append(graph)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(server_module, "agglomerative_hierarchy", counting)
        server = seeded_server(paper_graph)
        server.warm()
        for batch in ([EdgeUpdate(2, 3)], [EdgeUpdate(5, 7)]):
            server.apply_updates(batch)
            for q in (0, 3, 7):
                server.answer(CODQuery(q, DB, 3))
            # The apply reclusters the new graph; answers reuse it.
            assert sum(g is server.graph for g in clustered) == 1
        assert len(clustered) == 3


def local_restricts(server) -> int:
    return server.health()["shards"]["local_restricts"]


class TestLocalIndexAcrossAttrBatches:
    """A local index outlives an attribute batch exactly while ``C_l``
    reclusters as it did when the index was built."""

    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("cora", scale=0.2, seed=7).graph

    @staticmethod
    def case(graph, inside: bool, reclusters: bool):
        """A server, a query it answered from a fresh local index, and
        the first one-node flip of the query's attribute, inside or
        outside ``C_l``, that keeps ``C_l``'s vertex and changes (or
        keeps) its local reclustering."""
        server = seeded_server(graph)
        for attribute in sorted(graph.attribute_universe):
            carriers = len(graph.nodes_with_attribute(attribute))
            for q in range(graph.n):
                query = CODQuery(q, attribute, 4)
                before = len(server._restricted_cache)
                server.answer(query)
                if len(server._restricted_cache) == before:
                    continue  # no fresh local index behind this answer
                lore = server._lore_cache.get((q, attribute))
                members = set(lore.local.to_parent.tolist())
                for node in range(graph.n):
                    add = attribute not in graph.attributes_of(node)
                    if (node in members) != inside or (not add and carriers == 1):
                        continue
                    batch = [AttrUpdate(node, attribute, add=add)]
                    after = lore_chain(
                        apply_graph_updates(graph, batch), server.hierarchy,
                        q, attribute, weighting=server.weighting,
                    )
                    if after.c_ell_vertex != lore.c_ell_vertex:
                        continue
                    same = np.array_equal(
                        after.local.to_parent, lore.local.to_parent
                    ) and same_hierarchy(after.local.hierarchy, lore.local.hierarchy)
                    if same != reclusters:
                        key = (attribute, lore.c_ell_vertex)
                        return server, query, batch, key
        pytest.fail(f"no flip with inside={inside}, reclusters={reclusters}")

    @pytest.mark.parametrize("inside", [False, True])
    def test_unchanged_reclustering_reuses_index(self, graph, inside):
        server, query, batch, key = self.case(graph, inside, reclusters=False)
        index = server._restricted_cache.get(key)[1]
        restricts = local_restricts(server)
        server.apply_updates(batch)
        assert_matches_fresh_server(server, [query])
        assert local_restricts(server) == restricts
        assert server._restricted_cache.get(key)[1] is index

    def test_changed_reclustering_rebuilds_index(self, graph):
        server, query, batch, key = self.case(graph, inside=True, reclusters=True)
        index = server._restricted_cache.get(key)[1]
        restricts = local_restricts(server)
        server.apply_updates(batch)
        assert_matches_fresh_server(server, [query])
        assert local_restricts(server) == restricts + 1
        assert server._restricted_cache.get(key)[1] is not index

    def test_attr_batch_replay_matches_cold_server(self, graph):
        # Twelve random one-node attribute flips; at every epoch the
        # server that kept (and vetted) its local indexes answers like a
        # cold one.
        attributes = sorted(graph.attribute_universe)
        rng = np.random.default_rng(5)
        queries = [
            CODQuery(int(q), int(a), int(k))
            for q, a, k in zip(
                rng.integers(0, graph.n, size=10),
                rng.choice(attributes[:3], size=10),
                rng.choice([2, 4, 8], size=10),
            )
        ]
        server = seeded_server(graph)
        for step in range(12):
            node = int(rng.integers(0, graph.n))
            attribute = int(rng.choice(attributes[:3]))
            server.apply_updates([AttrUpdate(
                node, attribute,
                add=attribute not in server.graph.attributes_of(node),
            )])
            assert_matches_fresh_server(server, queries)
        assert len(server._restricted_cache) > 0


class TestSupervisorUpdates:
    def make_supervisor(self, graph, **kwargs):
        return ServingSupervisor(
            graph,
            n_workers=2,
            pool_seeded=True,
            task_timeout_s=30.0,
            heartbeat_timeout_s=30.0,
            start_timeout_s=120.0,
            restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0, cap_s=0.1,
                                          jitter=0.0),
            max_restarts=5,
            server_options={"theta": THETA, "seed": SEED},
            **kwargs,
        )

    def test_pool_seeded_requires_integer_seed(self, paper_graph):
        with pytest.raises(ValueError, match="integer"):
            ServingSupervisor(paper_graph, n_workers=1, pool_seeded=True,
                              server_options={"theta": THETA})

    def test_invalid_batch_rejected_without_state_change(self, paper_graph):
        supervisor = self.make_supervisor(paper_graph)
        with pytest.raises(GraphError):
            supervisor.submit_updates([EdgeUpdate(0, 1, add=True)])
        assert supervisor.epoch == 0
        assert supervisor.update_log.epoch == 0

    def test_fleet_wide_epoch_transition(self, paper_graph):
        supervisor = self.make_supervisor(paper_graph)
        queries = [CODQuery(i % 10, DB, 3) for i in range(6)]
        with supervisor:
            first = supervisor.serve(queries, drain_timeout_s=120.0)
            epoch = supervisor.submit_updates([EdgeUpdate(2, 3)],
                                              label="live")
            assert epoch == 1
            second = supervisor.serve(queries, drain_timeout_s=120.0)
            # A worker that answered none of ``second`` may not have acked
            # the directive yet when the drain ends: wait for both acks.
            deadline = time.monotonic() + 60.0
            while supervisor.health()["updates"]["acks"] < 2:
                assert time.monotonic() < deadline, "a worker never acked epoch 1"
                supervisor.poll(0.05)

        assert all(a.epoch == 0 for a in first)
        assert all(a.epoch == 1 for a in second)
        health = supervisor.health()
        assert health["epoch"] == 1
        assert health["updates"]["batches_submitted"] == 1
        assert health["updates"]["acks"] == 2  # both workers applied it
        report = health["updates"]["per_epoch"]["1"]
        assert report["workers_applied"] == 2
        assert report["updates"] == 1  # the batch's update count
        for info in health["workers"].values():
            assert info["epoch"] == 1

        # Post-update answers match a fresh pooled server on the new graph.
        oracle = seeded_server(supervisor.graph)
        for query, answer in zip(queries, second):
            expected = oracle.answer(query)
            if expected.members is None:
                assert answer.members is None
            else:
                assert np.array_equal(answer.members, expected.members)
