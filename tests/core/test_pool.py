"""Unit tests for SharedSamplePool."""

import pytest

from repro.core.compressed import compressed_cod
from repro.core.pool import SharedSamplePool
from repro.errors import InfluenceError, QueryError
from repro.hierarchy.chain import CommunityChain

from tests.oracle.montecarlo import simulate_influence


class TestPoolBasics:
    def test_lazy_materialization(self, paper_graph):
        pool = SharedSamplePool(paper_graph, theta=5, seed=0)
        assert "lazy" in repr(pool)
        _ = pool.arena
        assert "materialized" in repr(pool)

    def test_sample_count(self, paper_graph):
        pool = SharedSamplePool(paper_graph, theta=5, seed=0)
        assert pool.n_samples == 50
        assert pool.arena.n_samples == 50

    def test_eager(self, paper_graph):
        pool = SharedSamplePool(paper_graph, theta=2, seed=0, lazy=False)
        assert "materialized" in repr(pool)

    def test_invalid_theta(self, paper_graph):
        with pytest.raises(InfluenceError, match="theta must be positive"):
            SharedSamplePool(paper_graph, theta=0)
        with pytest.raises(InfluenceError, match="got -3"):
            SharedSamplePool(paper_graph, theta=-3)

    def test_materializes_exactly_once(self, paper_graph, monkeypatch):
        import repro.core.pool as pool_module

        calls = []
        real = pool_module.sample_arena

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pool_module, "sample_arena", counting)
        pool = SharedSamplePool(paper_graph, theta=2, seed=0)
        assert calls == []  # lazy: nothing drawn yet
        first = pool.arena
        second = pool.arena
        pool.total_nodes()
        pool.influence_counts()
        assert calls == [1]  # one sampling pass serves every consumer
        assert first is second

    def test_pool_graph_mismatch_rejected(self, paper_graph, triangle_graph):
        from repro.hierarchy.nnchain import agglomerative_hierarchy

        hierarchy = agglomerative_hierarchy(triangle_graph)
        chain = CommunityChain.from_hierarchy(hierarchy, 0)
        pool = SharedSamplePool(paper_graph, theta=2, seed=0)
        with pytest.raises(QueryError, match="chain covers 3 nodes"):
            compressed_cod(paper_graph, chain, k=1, rr_graphs=pool.arena)

    def test_cost_diagnostics(self, paper_graph):
        pool = SharedSamplePool(paper_graph, theta=3, seed=0)
        assert pool.total_nodes() >= pool.n_samples  # source always counted
        assert pool.total_edges() >= 0

    def test_deterministic(self, paper_graph):
        a = SharedSamplePool(paper_graph, theta=3, seed=5)
        b = SharedSamplePool(paper_graph, theta=3, seed=5)
        assert a.arena.sources.tolist() == b.arena.sources.tolist()


class TestPoolEvaluation:
    def test_shared_across_queries(self, paper_graph, paper_hierarchy):
        pool = SharedSamplePool(paper_graph, theta=20, seed=2)
        for q in range(10):
            chain = CommunityChain.from_hierarchy(paper_hierarchy, q)
            evaluation = compressed_cod(
                paper_graph, chain, k=5, rr_graphs=pool.arena
            )
            assert evaluation.n_samples == pool.n_samples

    def test_influence_counts_match_estimator(self, paper_graph):
        pool = SharedSamplePool(paper_graph, theta=10, seed=3)
        counts = pool.influence_counts()
        direct: dict[int, int] = {}
        for rr in pool.arena:
            for v in rr.adjacency:
                direct[v] = direct.get(v, 0) + 1
        assert counts == direct


class TestMonteCarloCrossCheck:
    """Pool estimates vs forward simulation (Theorems 1-2).

    The pool's arena-backed evaluator and the forward Monte-Carlo
    simulator share no code — one runs reverse diffusion over flat
    arrays, the other forward cascades over the adjacency — so agreement
    within sampling error is an end-to-end check of the whole estimation
    path (sampler, induction, cumulative counting, Theorem-1 scaling).
    """

    def test_pool_influence_matches_forward_simulation(self, paper_graph,
                                                       paper_hierarchy):
        pool = SharedSamplePool(paper_graph, theta=600, seed=11)
        for q in (0, 4, 6):
            chain = CommunityChain.from_hierarchy(paper_hierarchy, q)
            evaluation = compressed_cod(
                paper_graph, chain, k=1, rr_graphs=pool.arena
            )
            for level in (0, len(chain) - 1):
                members = [int(v) for v in chain.members(level)]
                simulated = simulate_influence(
                    paper_graph, q, trials=4000, rng=50 + q,
                    restrict_to=members,
                )
                estimated = evaluation.query_influence(level)
                assert estimated == pytest.approx(simulated, abs=0.35), (
                    f"q={q} level={level}: pool {estimated:.3f} "
                    f"vs monte-carlo {simulated:.3f}"
                )


class TestSeededPool:
    """Per-sample-seeded pools: the incrementally repairable mode."""

    def updated(self, paper_graph):
        from repro.dynamic.updates import EdgeUpdate, apply_updates

        return apply_updates(paper_graph, [EdgeUpdate(2, 3, add=True)])

    def test_requires_integer_seed(self, paper_graph):
        import numpy as np

        with pytest.raises(InfluenceError, match="integer seed"):
            SharedSamplePool(paper_graph, theta=2, per_sample_seeds=True)
        with pytest.raises(InfluenceError, match="integer seed"):
            SharedSamplePool(paper_graph, theta=2, per_sample_seeds=True,
                             seed=np.random.default_rng(0))

    def test_repair_bit_identical_to_fresh_pool(self, paper_graph):
        import numpy as np

        new_graph = self.updated(paper_graph)
        pool = SharedSamplePool(paper_graph, theta=4, seed=7,
                                per_sample_seeds=True)
        pool.materialize()
        rep = pool.repair(new_graph, {2, 3})
        assert rep is not None
        assert 0 < rep.n_repaired < pool.n_samples
        assert pool.repaired_samples_total == rep.n_repaired
        assert pool.graph is new_graph

        fresh = SharedSamplePool(new_graph, theta=4, seed=7,
                                 per_sample_seeds=True)
        assert np.array_equal(pool.arena.nodes, fresh.arena.nodes)
        assert np.array_equal(pool.arena.node_offsets,
                              fresh.arena.node_offsets)
        assert np.array_equal(pool.arena.edge_dst_entry,
                              fresh.arena.edge_dst_entry)

    def test_seeded_implies_fast(self, paper_graph):
        # One seeded stream: asking for the compatible sampler still
        # draws with the hashed kernel, so both pools hold one arena.
        from tests.oracle.reference import digest_samples

        slow = SharedSamplePool(paper_graph, theta=4, seed=7,
                                per_sample_seeds=True, fast=False)
        fast = SharedSamplePool(paper_graph, theta=4, seed=7,
                                per_sample_seeds=True, fast=True)
        assert slow.fast and fast.fast
        assert digest_samples(list(slow.arena)) == digest_samples(
            list(fast.arena)
        )
        segment = fast.to_shared()
        attached = SharedSamplePool.attach(
            paper_graph, segment.name, theta=4, seed=7,
            per_sample_seeds=True, fast=False,
        )
        assert attached.fast
        attached.arena.detach()
        segment.destroy()

    def test_repair_replaces_arena(self, paper_graph):
        pool = SharedSamplePool(paper_graph, theta=2, seed=7,
                                per_sample_seeds=True)
        before = pool.arena
        pool.repair(self.updated(paper_graph), {2, 3})
        assert pool.arena is not before

    def test_stream_pool_repair_drops_arena(self, paper_graph):
        pool = SharedSamplePool(paper_graph, theta=2, seed=7)
        pool.materialize()
        assert pool.repair(self.updated(paper_graph), {2, 3}) is None
        assert "lazy" in repr(pool)  # redrawn on next use, on the new graph
        assert pool.graph.has_edge(2, 3)
        assert pool.arena.n_samples == pool.n_samples

    def test_unmaterialized_pool_adopts_graph(self, paper_graph):
        pool = SharedSamplePool(paper_graph, theta=2, seed=7,
                                per_sample_seeds=True)
        assert pool.repair(self.updated(paper_graph), {2, 3}) is None
        assert pool.graph.has_edge(2, 3)

    def test_node_count_change_rejected(self, paper_graph, triangle_graph):
        pool = SharedSamplePool(paper_graph, theta=2, seed=7,
                                per_sample_seeds=True)
        with pytest.raises(InfluenceError, match="node count"):
            pool.repair(triangle_graph, {0})


class TestMaterializeReentrancy:
    def test_concurrent_materialize_draws_once(self, paper_graph, monkeypatch):
        import threading

        import repro.core.pool as pool_module

        calls = []
        real = pool_module.sample_arena

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pool_module, "sample_arena", counting)
        pool = SharedSamplePool(paper_graph, theta=3, seed=0)
        barrier = threading.Barrier(8)
        arenas = []

        def warm():
            barrier.wait()
            arenas.append(pool.materialize())

        threads = [threading.Thread(target=warm) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1  # one draw, not one per warm() racer
        assert all(arena is arenas[0] for arena in arenas)

    def test_concurrent_to_shared_publishes_once(self, paper_graph):
        import threading

        from repro.utils.shm import segment_exists

        pool = SharedSamplePool(paper_graph, theta=2, seed=3)
        barrier = threading.Barrier(6)
        segments = []

        def publish():
            barrier.wait()
            segments.append(pool.to_shared())

        threads = [threading.Thread(target=publish) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        names = {segment.name for segment in segments}
        assert len(names) == 1  # every racer got the same published segment
        assert segment_exists(segments[0].name)
        segments[0].destroy()


class TestSharedPublish:
    def test_to_shared_idempotent_until_repair(self, paper_graph):
        from repro.dynamic.updates import EdgeUpdate, apply_updates

        pool = SharedSamplePool(paper_graph, theta=2, seed=7,
                                per_sample_seeds=True)
        first = pool.to_shared()
        assert pool.to_shared() is first
        assert pool.is_attached  # publisher adopted the segment's views
        new_graph = apply_updates(paper_graph, [EdgeUpdate(2, 3, add=True)])
        pool.repair(new_graph, {2, 3})
        second = pool.to_shared()
        assert second is not first
        assert second.name != first.name
        first.destroy()
        second.destroy()

    def test_attach_rejects_wrong_graph(self, paper_graph, triangle_graph):
        pool = SharedSamplePool(paper_graph, theta=2, seed=7)
        segment = pool.to_shared()
        with pytest.raises(InfluenceError, match="nodes"):
            SharedSamplePool.attach(triangle_graph, segment.name,
                                    theta=2, seed=7)
        segment.destroy()

    def test_adopt_swaps_state_and_validates(self, paper_graph):
        from repro.dynamic.updates import EdgeUpdate, apply_updates
        from repro.influence.fastsample import sample_arena_seeded_fast

        new_graph = apply_updates(paper_graph, [EdgeUpdate(2, 3, add=True)])
        pool = SharedSamplePool(paper_graph, theta=2, seed=7,
                                per_sample_seeds=True)
        pool.materialize()
        arena = sample_arena_seeded_fast(new_graph, pool.n_samples, base_seed=7)
        pool.adopt(new_graph, arena)
        assert pool.graph is new_graph
        assert pool.arena is arena
        short = sample_arena_seeded_fast(new_graph, 1, base_seed=7)
        with pytest.raises(InfluenceError, match="samples"):
            pool.adopt(new_graph, short)
