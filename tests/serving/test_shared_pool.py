"""Shared-pool fleet tests: zero-copy attach, bit-identity, segment hygiene.

The supervisor materializes one arena, publishes graph + arena as shm
segments, and workers attach read-only. The three contracts under test:

* answers are bit-identical to a fleet of per-worker private pools (at
  boot and across update epochs),
* ``health()["shm"]`` accounts for segments, bytes, attaches, publishes
  and sweeps, and
* no segment outlives the supervisor (shutdown unlinks), while segments
  stranded by dead processes are reclaimed at start.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.problem import CODQuery
from repro.dynamic.updates import AttrUpdate, EdgeUpdate
from repro.serving import BackoffPolicy, ServingSupervisor
from repro.utils.shm import close_all_segments, list_segments, segment_exists

DB = 0
ML = 1
FAST = dict(
    task_timeout_s=5.0,
    heartbeat_timeout_s=10.0,
    start_timeout_s=60.0,
    restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0, cap_s=0.1,
                                  jitter=0.0),
)
OPTIONS = {"theta": 3, "seed": 11}


def make_queries(n: int) -> list[CODQuery]:
    return [CODQuery(i % 10, DB if i % 3 else None, 3) for i in range(n)]


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    close_all_segments()


def members(answers) -> list:
    return [
        None if a.members is None else [int(v) for v in a.members]
        for a in answers
    ]


def own_segments() -> list[str]:
    """Segments this process created that still exist.

    The supervisor creates every graph, arena and shard segment in the
    test process, so after shutdown this must be empty; segments of
    other processes sharing the shm directory are not ours to judge.
    """
    return [
        entry["name"]
        for entry in list_segments()
        if entry["owner_pid"] == os.getpid()
    ]


def run_fleet(graph, *, shared: bool, updates=None, n_workers=2):
    queries = make_queries(6)
    with ServingSupervisor(
        graph, n_workers=n_workers, shared_pool=shared, pool_seeded=True,
        warm_index=False, server_options=dict(OPTIONS), **FAST,
    ) as supervisor:
        first = members(supervisor.serve(queries, drain_timeout_s=60.0))
        second = None
        if updates is not None:
            supervisor.submit_updates(updates)
            second = members(supervisor.serve(queries, drain_timeout_s=60.0))
        health = supervisor.health()
    return first, second, health


class TestBitIdentity:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_matches_per_worker_pools_at_boot(self, paper_graph, n_workers):
        shared, _, health = run_fleet(
            paper_graph, shared=True, n_workers=n_workers
        )
        private, _, _ = run_fleet(
            paper_graph, shared=False, n_workers=n_workers
        )
        assert shared == private
        # Graph + arena per worker.
        assert health["shm"]["attaches"] >= 2 * n_workers
        # Both fleets are shut down: none of their segments survives.
        assert not own_segments()

    def test_matches_across_update_epochs(self, paper_graph):
        updates = [EdgeUpdate(0, 7, add=True), AttrUpdate(4, 1, add=True)]
        s1, s2, health = run_fleet(paper_graph, shared=True, updates=updates)
        p1, p2, _ = run_fleet(paper_graph, shared=False, updates=updates)
        assert s1 == p1
        assert s2 == p2
        # The rotation published a second pair of segments.
        assert health["shm"]["publishes"] == 2
        assert health["epoch"] == 1


class TestHealthBlock:
    def test_shm_block_accounts_segments(self, paper_graph):
        with ServingSupervisor(
            paper_graph, n_workers=2, shared_pool=True, pool_seeded=True,
            warm_index=False, server_options=dict(OPTIONS), **FAST,
        ) as supervisor:
            supervisor.serve(make_queries(2), drain_timeout_s=60.0)
            shm = supervisor.health()["shm"]
            assert shm["enabled"] is True
            assert set(shm["segments"]) == {"graph", "arena"}
            for block in shm["segments"].values():
                assert block["bytes"] > 0
                assert segment_exists(block["name"])
                assert block["attaches"] == 2
            assert shm["segment_bytes"] == sum(
                block["bytes"] for block in shm["segments"].values()
            )
            assert shm["publishes"] == 1
            assert shm["sweeps"] >= 1
            # Sharded materialization: one slice per worker, covering the
            # whole pool.
            assert shm["shard_offsets"][0] == 0
            assert shm["shard_offsets"][-1] == 3 * paper_graph.n
            # Fleet metrics mirror the gauge/counters.
            fleet = supervisor.health()["fleet_metrics"]
            assert fleet["gauges"]["shm.segment_bytes"] == shm["segment_bytes"]
            assert fleet["counters"]["shm.attaches"] == shm["attaches"]

    def test_worker_pool_reports_attached(self, paper_graph):
        with ServingSupervisor(
            paper_graph, n_workers=1, shared_pool=True, pool_seeded=True,
            warm_index=False, server_options=dict(OPTIONS), **FAST,
        ) as supervisor:
            supervisor.serve(make_queries(2), drain_timeout_s=60.0)
            worker_health = supervisor.health()["workers"]["0"]["health"]
            pool = worker_health["pool"]
            assert pool["attached"] is True
            assert pool["materialized"] is True
            assert pool["arena_bytes"] > 0


class TestSegmentHygiene:
    def test_shutdown_unlinks_everything(self, paper_graph):
        supervisor = ServingSupervisor(
            paper_graph, n_workers=2, shared_pool=True, pool_seeded=True,
            warm_index=False, server_options=dict(OPTIONS), **FAST,
        )
        supervisor.start()
        supervisor.serve(make_queries(3), drain_timeout_s=60.0)
        names = [
            block["name"]
            for block in supervisor.health()["shm"]["segments"].values()
        ]
        assert names and all(segment_exists(name) for name in names)
        supervisor.shutdown()
        assert not any(segment_exists(name) for name in names)

    def test_rotation_unlinks_previous_epoch(self, paper_graph):
        with ServingSupervisor(
            paper_graph, n_workers=2, shared_pool=True, pool_seeded=True,
            warm_index=False, server_options=dict(OPTIONS), **FAST,
        ) as supervisor:
            supervisor.serve(make_queries(2), drain_timeout_s=60.0)
            old = [
                block["name"]
                for block in supervisor.health()["shm"]["segments"].values()
            ]
            supervisor.submit_updates([EdgeUpdate(0, 7, add=True)])
            new = [
                block["name"]
                for block in supervisor.health()["shm"]["segments"].values()
            ]
            assert set(old).isdisjoint(new)
            assert not any(segment_exists(name) for name in old)
            assert all(segment_exists(name) for name in new)

    @staticmethod
    def _strand(name_queue) -> None:
        from repro.utils.shm import create_segment

        segment = create_segment(
            {"x": np.arange(8, dtype=np.int64)}, kind="stranded"
        )
        name_queue.put(segment.name)
        name_queue.close()
        name_queue.join_thread()
        os._exit(0)

    def test_start_sweeps_dead_owner_segments(self, paper_graph):
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        name_queue = ctx.Queue()
        child = ctx.Process(target=self._strand, args=(name_queue,))
        child.start()
        stranded = name_queue.get(timeout=30)
        child.join(timeout=30)
        assert segment_exists(stranded)
        with ServingSupervisor(
            paper_graph, n_workers=1, shared_pool=True, pool_seeded=True,
            warm_index=False, server_options=dict(OPTIONS), **FAST,
        ) as supervisor:
            supervisor.serve(make_queries(1), drain_timeout_s=60.0)
            shm = supervisor.health()["shm"]
        assert not segment_exists(stranded)
        assert shm["swept_segments"] >= 1


class TestShardDispatch:
    """Auto-sharding over the shared pool: publish, route, rotate, unlink."""

    def test_hot_attribute_publishes_shard_and_routes_hits(self, paper_graph):
        # make_queries(8): attribute 0 appears >= 4 times — over the
        # default hot threshold — so the supervisor publishes its shard
        # mid-workload and routes the rest of the attribute to one slot.
        supervisor = ServingSupervisor(
            paper_graph, n_workers=1, shared_pool=True, pool_seeded=True,
            warm_index=False, server_options=dict(OPTIONS), **FAST,
        )
        with supervisor:
            supervisor.serve(make_queries(8), drain_timeout_s=60.0)
            health = supervisor.health()
            shards = health["shm"]["shards"]
            assert shards["enabled"] is True
            assert shards["publishes"] >= 1
            assert "0" in shards["published"]
            entry = shards["published"]["0"]
            assert entry["epoch"] == 0
            assert entry["bytes"] > 0
            assert segment_exists(entry["name"])
            affinity = health["affinity"]
            assert affinity["shard_slots"]["0"] == 0
            assert affinity["shard_hits"] >= 1
            worker_shards = health["workers"]["0"]["health"]["shards"]
            assert worker_shards["manifest"] >= 1
            assert worker_shards["attaches"] >= 1
            assert worker_shards["rejects"] == 0
            names = [e["name"] for e in shards["published"].values()]
        # Shutdown unlinks shard segments along with graph/arena.
        assert not any(segment_exists(name) for name in names)

    def test_rotation_republishes_and_unlinks_old_shards(self, paper_graph):
        with ServingSupervisor(
            paper_graph, n_workers=1, shared_pool=True, pool_seeded=True,
            warm_index=False, server_options=dict(OPTIONS), **FAST,
        ) as supervisor:
            supervisor.serve(make_queries(8), drain_timeout_s=60.0)
            old = [
                e["name"]
                for e in supervisor.health()["shm"]["shards"][
                    "published"
                ].values()
            ]
            assert old
            supervisor.submit_updates([EdgeUpdate(0, 7, add=True)])
            shards = supervisor.health()["shm"]["shards"]
            assert shards["rotations"] >= 1
            assert not any(segment_exists(name) for name in old)
            for entry in shards["published"].values():
                assert entry["epoch"] == 1
                assert segment_exists(entry["name"])
                assert entry["name"] not in old

    def test_sharded_fleet_answers_like_unsharded(self, paper_graph):
        # A skewed workload: 12 draws from 4 distinct queries over two
        # attributes, so with threshold 2 both attributes turn hot.
        hot = [CODQuery(3, DB, 2), CODQuery(7, DB, 2), CODQuery(1, ML, 2),
               CODQuery(8, ML, 2)]
        picks = np.random.default_rng(10).integers(0, len(hot), size=12)
        queries = [hot[int(i)] for i in picks]

        def serve(shard_attributes):
            with ServingSupervisor(
                paper_graph, n_workers=2, shared_pool=True, pool_seeded=True,
                shard_attributes=shard_attributes, shard_hot_threshold=2,
                warm_index=False, server_options=dict(OPTIONS), **FAST,
            ) as supervisor:
                answers = supervisor.serve(queries, drain_timeout_s=60.0)
                shards = supervisor.health()["shm"]["shards"]
            answered = list(zip(members(answers), (a.rung for a in answers)))
            return answered, shards

        plain, _ = serve(None)
        sharded, shards = serve("auto")
        assert sharded == plain
        assert len(shards["published"]) >= 1
        assert not own_segments()

    def test_sharding_disabled_publishes_nothing(self, paper_graph):
        with ServingSupervisor(
            paper_graph, n_workers=1, shared_pool=True, pool_seeded=True,
            shard_attributes=None, warm_index=False,
            server_options=dict(OPTIONS), **FAST,
        ) as supervisor:
            supervisor.serve(make_queries(8), drain_timeout_s=60.0)
            shards = supervisor.health()["shm"]["shards"]
            assert shards["enabled"] is False
            assert shards["published"] == {}
            assert supervisor.health()["affinity"]["shard_hits"] == 0


class TestColdStart:
    def test_workers_skip_resampling(self, paper_graph):
        # Nothing observable distinguishes "sampled fast" from "attached"
        # except the worker's own pool health: attached=True proves the
        # worker never drew its own arena.
        with ServingSupervisor(
            paper_graph, n_workers=4, shared_pool=True, pool_seeded=True,
            warm_index=False, server_options=dict(OPTIONS), **FAST,
        ) as supervisor:
            supervisor.serve(make_queries(8), drain_timeout_s=60.0)
            health = supervisor.health()
            # Every worker attached both segments instead of resampling.
            assert health["shm"]["attaches"] == 8
            arena_bytes = health["shm"]["segments"]["arena"]["bytes"]
            worker_bytes = []
            for worker in health["workers"].values():
                pool = worker["health"]["pool"]
                assert pool["attached"] is True
                worker_bytes.append(pool["arena_bytes"])
        # Fleet arena memory is flat in worker count: the 4-worker fleet
        # holds one shared segment, within 1.25x of one worker's arena
        # (4 private pools would hold 4x).
        assert len(worker_bytes) == 4
        assert 0 < arena_bytes <= 1.25 * min(worker_bytes)
