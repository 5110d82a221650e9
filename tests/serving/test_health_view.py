"""``health()`` and ``stats()`` are views over one metrics registry.

Every serving object that counts owns exactly one
:class:`~repro.obs.MetricsRegistry` and builds its report by reading the
instruments back. These tests drive each reported counter to a non-zero
value and check that every number equals the instrument it reads, so a
second copy of any counter has nowhere to hide.
"""

import pytest

from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.dynamic.updates import AttrUpdate, EdgeUpdate
from repro.errors import HierarchyError, InfluenceError
from repro.serving import BackoffPolicy, ChaosSchedule, ServingSupervisor
from repro.serving.budget import ExecutionBudget
from repro.serving.server import HEALTH_COUNTERS, CODServer
from repro.serving.supervisor import FLEET_COUNTERS, _TaskRecord
from repro.serving.worker import MSG_RESULT
from repro.utils.cache import LRUCache
from repro.utils.faults import inject
from repro.utils.shm import close_all_segments
from tests.serving.test_shard import publish_shard, recluster

DB = 0
FAST = dict(
    task_timeout_s=5.0,
    heartbeat_timeout_s=10.0,
    start_timeout_s=60.0,
    restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0, cap_s=0.1,
                                  jitter=0.0),
)

#: Nested ``CODServer.health()`` counters, by the registry counter each reads.
NESTED_COUNTERS = {
    ("updates", "batches_applied"): "updates.batches",
    ("updates", "updates_applied"): "updates.applied",
    ("updates", "repaired_samples"): "arena.repaired_samples",
    ("updates", "cache_invalidated"): "cache.invalidated_entries",
    ("shards", "attaches"): "shm.shard.attaches",
    ("shards", "hits"): "shm.shard.hits",
    ("shards", "misses"): "shm.shard.misses",
    ("shards", "rejects"): "shm.shard.rejects",
    ("shards", "local_restricts"): "pool.restricts",
}

#: Counters no single-server script reaches cheaply: a sample-budget
#: refusal needs fresh draws (this server is pooled) and a resumed build
#: needs a crash mid-build (``test_himor_checkpoint.py`` covers both).
#: They are still checked against their instruments, at zero.
NOT_DRIVEN = {"budget_exhausted", "index_builds_resumed"}


@pytest.fixture(autouse=True)
def _clean_segments():
    close_all_segments()
    yield
    close_all_segments()


def _count(registry, name: str) -> int:
    return registry.snapshot()["counters"][name]


class TestServerHealthIsAView:
    def test_every_counter_reads_its_instrument(self, paper_graph, tmp_path):
        index_path = tmp_path / "index.json"
        index_path.write_text("not an index")  # first load fails
        pool = SharedSamplePool(paper_graph, theta=3, seed=11,
                                per_sample_seeds=True)
        server = CODServer(
            paper_graph, theta=3, seed=11, pool=pool, backoff_s=0.0,
            index_path=index_path, breaker_threshold=1,
            breaker_cooldown_s=3600.0,
        )
        # A retry: the armed fault sinks the index build's pool draw, then
        # CODL-'s first draw; CODL-'s retry succeeds.
        with inject(site="rr_sampling", rate=1.0, count=2, exc=InfluenceError):
            retried = server.answer(CODQuery(3, DB, 2))
        assert retried.retries == 1 and not retried.refused
        # A rebuild (after a second load failure), then a LORE failure
        # that opens the breaker, so CODL- short-circuits to CODU.
        with inject(site="lore", rate=1.0, exc=HierarchyError):
            degraded = server.answer(CODQuery(2, DB, 2))
        assert degraded.rung == "CODU"
        # A deadline refusal.
        assert server.answer(CODQuery(3, DB, 2), deadline_s=0.0).refused
        # An edge batch (repairs pool samples, drops LORE chains) and an
        # attribute batch.
        u, v = next(
            (a, b) for a in range(paper_graph.n)
            for b in range(a + 1, paper_graph.n)
            if not paper_graph.has_edge(a, b)
        )
        server.apply_updates([EdgeUpdate(u, v)])
        server.apply_updates([AttrUpdate(0, 5)])
        # A shard hit (with its attach), a miss and a reject.
        budget = ExecutionBudget()
        allowed = {0, 1, 2, 3}
        hit, hit_entry = publish_shard(server, 0, 5, allowed,
                                       epoch=server.epoch)
        bad, bad_entry = publish_shard(server, 1, 5, allowed,
                                       epoch=server.epoch, sha="wrong")
        try:
            server.adopt_shards({0: hit_entry, 1: bad_entry})
            local = recluster(server.graph, allowed)
            server._local_index(0, 5, local, budget)
            server._local_index(0, 6, local, budget)
            server._local_index(1, 5, local, budget)
        finally:
            hit.destroy()
            bad.destroy()

        health = server.health()
        registry = server.metrics
        for key, name in HEALTH_COUNTERS.items():
            assert health[key] == _count(registry, name), key
            assert (health[key] == 0) == (key in NOT_DRIVEN), key
        for (block, key), name in NESTED_COUNTERS.items():
            assert health[block][key] == _count(registry, name), (block, key)
            assert health[block][key] > 0, (block, key)
        rungs = {
            rung: count
            for rung in ("CODL", "CODL-", "CODU")
            if (count := _count(registry, f"rung.{rung}"))
        }
        assert health["answered_per_rung"] == rungs
        assert set(rungs) >= {"CODL-", "CODU"}
        assert health["refused"] == _count(registry, "rung.refused") == 1
        assert health["queries"] == sum(rungs.values()) + health["refused"]
        latency = registry.snapshot()["histograms"]["query.seconds"]
        assert latency["count"] == health["queries"]
        assert health["latency"]["max_s"] == latency["max"]
        assert health["epoch"] == registry.snapshot()["gauges"]["epoch"] == 2
        for name, stats in health["caches"].items():
            for event in ("hits", "misses", "evictions", "oversized",
                          "invalidations"):
                assert stats[event] == _count(registry, f"cache.{name}.{event}")
        assert health["caches"]["lore"]["invalidations"] > 0
        # Not profiled: the registry stays home, the payload does not grow.
        assert "metrics" not in health


class TestCacheStatsIsAView:
    def test_stats_read_the_registry(self):
        cache = LRUCache(2, max_bytes=100, sizeof=lambda v: 40 if v else 999,
                         name="view")
        cache.put("a", 1)
        cache.put("b", 1)
        cache.put("c", 1)            # evicts "a"
        cache.get("b")
        cache.get("a")               # miss
        cache.put("big", 0)          # oversized
        cache.invalidate(lambda key: key == "b")
        stats = cache.stats()
        snapshot = cache.metrics.snapshot()
        for event in ("hits", "misses", "evictions", "oversized",
                      "invalidations"):
            assert stats[event] == snapshot["counters"][f"cache.view.{event}"]
            assert stats[event] == 1, event
        assert stats["entries"] == snapshot["gauges"]["cache.view.entries"]
        assert stats["current_bytes"] == snapshot["gauges"]["cache.view.bytes"]


class TestFleetHealthIsAView:
    def test_supervisor_counters_read_its_registry(self, paper_graph):
        queries = [CODQuery(i % 10, DB, 3) for i in range(6)]
        with ServingSupervisor(
            paper_graph, n_workers=2, warm_index=False,
            chaos=ChaosSchedule({2: "kill"}),
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            answers = supervisor.serve(queries, drain_timeout_s=60.0)
            # A late result for an answered query (a worker the supervisor
            # gave up on) is dropped and counted, never delivered twice.
            supervisor._handle_event((MSG_RESULT, 0, -1, 0, None, None))
            # Route one attribute to both slots: a claim, then a hit on
            # the claiming slot and a miss on the other.
            record = _TaskRecord(seq=0, query=CODQuery(3, 7, 3), priority=1)
            for slot in (0, 0, 1):
                supervisor._account_affinity(record, supervisor._slots[slot])
            health = supervisor.health()
        assert not any(a.refused for a in answers)
        counters = supervisor.metrics.snapshot()["counters"]
        for key, name in FLEET_COUNTERS.items():
            assert health[key] == counters[name], key
        assert health["restarts"] >= 1
        assert health["duplicate_results"] == 1
        affinity = health["affinity"]
        for key in ("claims", "hits", "misses", "evictions", "shard_hits",
                    "shard_misses"):
            assert affinity[key] == counters[f"affinity.{key}"], key
        assert affinity["hits"] >= 1 and affinity["misses"] >= 1
        delivered = {
            rung: count for rung in ("CODL", "CODL-", "CODU")
            if (count := counters[f"supervisor.rung.{rung}"])
        }
        assert health["answered_per_rung"] == delivered
        assert health["queries"] == sum(delivered.values()) == 6
        latency = supervisor.metrics.snapshot()["histograms"]
        assert latency["supervisor.answer.seconds"]["count"] == 6
        # The supervisor never reuses a worker metric name.
        assert "queries" not in counters
        assert "query.seconds" not in latency

    def test_fleet_gauges_report_levels_not_sums(self, paper_graph):
        # Two workers at epoch 1 once rolled up to a fleet epoch of 2.0,
        # and the shard manifest size was summed the same way. Without
        # affinity both idle workers take work after the update.
        queries = [CODQuery(i % 10, DB, 3) for i in range(8)]
        with ServingSupervisor(
            paper_graph, n_workers=2, shared_pool=True, pool_seeded=True,
            shard_hot_threshold=1, affinity=False, profile=True,
            warm_index=False, server_options={"theta": 3, "seed": 11},
            **FAST,
        ) as supervisor:
            supervisor.serve(queries, drain_timeout_s=60.0)
            supervisor.submit_updates([EdgeUpdate(0, 7, add=True)])
            supervisor.serve(queries, drain_timeout_s=60.0)
            health = supervisor.health()
        assert health["epoch"] == 1
        reporting = [
            info["health"] for info in health["workers"].values()
            if info["health"] is not None
        ]
        assert len(reporting) == 2
        assert all(h["epoch"] == 1 for h in reporting)
        gauges = health["fleet_metrics"]["gauges"]
        assert gauges["epoch"] == 1.0
        published = health["shm"]["shards"]["published"]
        assert len(published) >= 1
        assert gauges["shm.shard.manifest"] == len(published)
        # Amount gauges still sum across the workers.
        assert gauges["cache.lore.entries"] == sum(
            h["caches"]["lore"]["entries"] for h in reporting
        )
