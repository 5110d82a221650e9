"""Restricted-shard publication, attach verification, and affinity bounds.

Covers the two correctness fixes that ride the shard-affinity PR plus
the shard attach path itself:

* CODL's local-index cache (``restricted``) is keyed by ``(attribute,
  floor_vertex)``, not the vertex alone — two attributes sharing a floor
  vertex get separate entries with separate provenance and separate
  invalidation (the forced-collision regression for the vertex-only-key
  bug);
* a published shard is the input of a local index build only when it is
  *provably* the right restriction (attribute, vertex, epoch, and
  ``allowed_sha`` all match); anything else falls back to a bit-identical
  local restrict;
* sticky affinity claims are LRU-bounded and dropped when their worker
  slot dies (the unbounded-claim-table bug).
"""

import hashlib

import numpy as np
import pytest

from repro.core.himor import local_index
from repro.core.lore import _LocalRecluster
from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.graph.weighting import attribute_weighted_subgraph
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.serving.budget import ExecutionBudget
from repro.serving.server import CODServer
from repro.serving.supervisor import W_DISABLED, ServingSupervisor, _TaskRecord
from repro.utils.shm import close_all_segments, default_segment_name

DB = 0


@pytest.fixture(autouse=True)
def _clean_registry():
    close_all_segments()
    yield
    close_all_segments()


@pytest.fixture()
def pooled_server(paper_graph) -> CODServer:
    pool = SharedSamplePool(paper_graph, theta=3, seed=11)
    return CODServer(paper_graph, theta=3, seed=11, pool=pool)


def recluster(graph, allowed) -> _LocalRecluster:
    """LORE's local reclustering of the node set ``allowed`` for DB."""
    view = attribute_weighted_subgraph(graph, sorted(allowed), DB)
    return _LocalRecluster(view.to_parent, agglomerative_hierarchy(view.graph))


def assert_same_index(index, local: _LocalRecluster, arena) -> None:
    """``index`` ranks every member as a local index over ``arena`` does."""
    want = local_index(local.hierarchy, local.to_parent, arena)
    for v in range(len(local.to_parent)):
        np.testing.assert_array_equal(index.ranks_of(v), want.ranks_of(v))


def publish_shard(server, attribute, vertex, allowed, epoch=0, sha=None):
    """Publish ``pool.restricted(allowed)`` the way the supervisor does."""
    from repro.influence.arena import allowed_fingerprint

    restricted = server.pool.restricted(set(allowed))
    sha = allowed_fingerprint(allowed) if sha is None else sha
    segment = restricted.to_shared(
        name=default_segment_name(f"shard-a{attribute}-e{epoch}"),
        extra={
            "attribute": int(attribute),
            "vertex": int(vertex),
            "epoch": int(epoch),
            "allowed_sha": sha,
        },
        kind="rr-shard",
    )
    entry = {
        "name": segment.name,
        "vertex": int(vertex),
        "epoch": int(epoch),
        "allowed_sha": sha,
        "samples": int(restricted.n_samples),
    }
    return segment, entry


class TestRestrictedCacheKeying:
    """Regression: the cache once keyed by ``int(floor_vertex)`` alone."""

    def test_colliding_floor_vertex_gets_per_attribute_entries(
        self, pooled_server
    ):
        budget = ExecutionBudget()
        local = recluster(pooled_server.graph, {0, 1, 2, 3})
        vertex = 5
        first = pooled_server._local_index(0, vertex, local, budget)
        second = pooled_server._local_index(1, vertex, local, budget)
        stats = pooled_server._restricted_cache.stats()
        # Vertex-only keying collapsed these to one entry (and returned
        # attribute 0's index for attribute 1's request as a cache hit).
        assert stats["entries"] == 2
        assert stats["misses"] == 2 and stats["hits"] == 0
        assert pooled_server._restricted_cache.get((0, vertex))[1] is first
        assert pooled_server._restricted_cache.get((1, vertex))[1] is second

    def test_shard_rotation_invalidates_only_its_attribute(
        self, pooled_server
    ):
        budget = ExecutionBudget()
        allowed = {0, 1, 2, 3}
        local = recluster(pooled_server.graph, allowed)
        vertex = 5
        segment, entry = publish_shard(pooled_server, 0, vertex, allowed)
        try:
            pooled_server.adopt_shards({0: entry})
            shard = pooled_server._local_index(0, vertex, local, budget)
            kept = pooled_server._local_index(1, vertex, local, budget)
            assert pooled_server.health()["shards"]["hits"] == 1
            assert pooled_server.health()["shards"]["local_restricts"] == 1
            # Attribute 0's shard rotates away; attribute 1's index over
            # a local restrict (same vertex!) must survive untouched.
            dropped = pooled_server.adopt_shards({})
            assert dropped == 1
            assert pooled_server._restricted_cache.get((0, vertex)) is None
            assert pooled_server._restricted_cache.get((1, vertex))[1] is kept
            # Re-request for attribute 0 now restricts locally and ranks
            # exactly as the index built over the shard it replaced.
            rebuilt = pooled_server._local_index(0, vertex, local, budget)
            assert rebuilt is not shard
            assert pooled_server.health()["shards"]["local_restricts"] == 2
            for v in range(len(local.to_parent)):
                np.testing.assert_array_equal(rebuilt.ranks_of(v), shard.ranks_of(v))
        finally:
            segment.destroy()

    def test_shard_attach_is_bit_identical_to_local_restrict(
        self, pooled_server
    ):
        budget = ExecutionBudget()
        allowed = {0, 1, 2, 3, 4}
        local = recluster(pooled_server.graph, allowed)
        vertex = 7
        oracle = pooled_server.pool.restricted(set(allowed))
        segment, entry = publish_shard(pooled_server, 0, vertex, allowed)
        try:
            pooled_server.adopt_shards({0: entry})
            index = pooled_server._local_index(0, vertex, local, budget)
            assert pooled_server.health()["shards"]["attaches"] == 1
            assert pooled_server.health()["shards"]["local_restricts"] == 0
            shard = pooled_server._shard_arenas[entry["name"]]
            assert shard.is_shared and shard.is_readonly
            assert shard.n_samples == oracle.n_samples
            assert (shard.sources == oracle.sources).all()
            assert (shard.nodes == oracle.nodes).all()
            assert (shard.edge_dst_entry == oracle.edge_dst_entry).all()
            assert_same_index(index, local, oracle)
        finally:
            segment.destroy()


class TestShardVerification:
    """A shard that cannot be proven right is never built from."""

    def test_wrong_allowed_sha_rejected_with_local_fallback(
        self, pooled_server
    ):
        budget = ExecutionBudget()
        allowed = {0, 1, 2, 3}
        local = recluster(pooled_server.graph, allowed)
        vertex = 5
        segment, entry = publish_shard(
            pooled_server, 0, vertex, allowed, sha="not-the-right-hash"
        )
        try:
            pooled_server.adopt_shards({0: entry})
            index = pooled_server._local_index(0, vertex, local, budget)
            assert pooled_server.health()["shards"]["rejects"] == 1
            assert pooled_server.health()["shards"]["hits"] == 0
            assert pooled_server.health()["shards"]["local_restricts"] == 1
            assert_same_index(
                index, local, pooled_server.pool.restricted(set(allowed))
            )
        finally:
            segment.destroy()

    def test_fingerprint_depends_only_on_the_node_set(
        self, pooled_server, paper_hierarchy
    ):
        from repro.influence.arena import allowed_fingerprint

        vertex = next(
            v for v in paper_hierarchy.internal_vertices()
            if 2 < paper_hierarchy.size(v) < paper_hierarchy.n_leaves
        )
        members = paper_hierarchy.members(vertex)
        unsorted = np.concatenate([members[::-1], members[:2]])
        digests = {
            allowed_fingerprint(set(members.tolist())),
            allowed_fingerprint(np.sort(members)),
            allowed_fingerprint(unsorted),
        }
        # Real member slices keep the digest of their sorted node ids.
        assert digests == {
            hashlib.sha256(np.sort(members).tobytes()).hexdigest()[:16]
        }
        # A shard published from the set attaches for the build, which
        # restricts to the reclustering's sorted id map.
        local = recluster(pooled_server.graph, unsorted[: len(members)])
        segment, entry = publish_shard(
            pooled_server, 0, vertex, set(members.tolist())
        )
        try:
            pooled_server.adopt_shards({0: entry})
            index = pooled_server._local_index(
                0, vertex, local, ExecutionBudget()
            )
            assert pooled_server.health()["shards"]["hits"] == 1
            assert pooled_server.health()["shards"]["local_restricts"] == 0
            assert_same_index(index, local, pooled_server.pool.restricted(members))
        finally:
            segment.destroy()

    def test_stale_epoch_rejected(self, pooled_server):
        budget = ExecutionBudget()
        allowed = {0, 1, 2, 3}
        segment, entry = publish_shard(pooled_server, 0, 5, allowed, epoch=3)
        try:
            pooled_server.adopt_shards({0: entry})
            pooled_server._local_index(
                0, 5, recluster(pooled_server.graph, allowed), budget
            )
            assert pooled_server.health()["shards"]["rejects"] == 1
            assert pooled_server.health()["shards"]["hits"] == 0
        finally:
            segment.destroy()

    def test_wrong_vertex_is_a_miss(self, pooled_server):
        budget = ExecutionBudget()
        allowed = {0, 1, 2, 3}
        segment, entry = publish_shard(pooled_server, 0, 5, allowed)
        try:
            pooled_server.adopt_shards({0: entry})
            pooled_server._local_index(
                0, 9, recluster(pooled_server.graph, allowed), budget
            )
            assert pooled_server.health()["shards"]["misses"] == 1
            assert pooled_server.health()["shards"]["local_restricts"] == 1
        finally:
            segment.destroy()

    def test_vanished_segment_rejected_with_local_fallback(
        self, pooled_server
    ):
        budget = ExecutionBudget()
        allowed = {0, 1, 2, 3}
        local = recluster(pooled_server.graph, allowed)
        segment, entry = publish_shard(pooled_server, 0, 5, allowed)
        segment.destroy()
        pooled_server.adopt_shards({0: entry})
        index = pooled_server._local_index(0, 5, local, budget)
        assert pooled_server.health()["shards"]["rejects"] == 1
        assert_same_index(
            index, local, pooled_server.pool.restricted(set(allowed))
        )

    def test_health_reports_shard_counters(self, pooled_server):
        budget = ExecutionBudget()
        allowed = {0, 1, 2}
        segment, entry = publish_shard(pooled_server, 0, 5, allowed)
        try:
            pooled_server.adopt_shards({0: entry})
            pooled_server._local_index(
                0, 5, recluster(pooled_server.graph, allowed), budget
            )
            shards = pooled_server.health()["shards"]
            assert shards["manifest"] == 1
            assert shards["attached"] == 1
            assert shards["hits"] == 1
            assert shards["local_restricts"] == 0
        finally:
            segment.destroy()


class TestAffinityClaims:
    """Regression: sticky claims once lived forever and survived deaths."""

    def _supervisor(self, paper_graph, **kwargs) -> ServingSupervisor:
        return ServingSupervisor(
            paper_graph,
            n_workers=2,
            server_options={"theta": 2, "seed": 11},
            warm_index=False,
            **kwargs,
        )

    def _dispatch(self, supervisor, attribute, slot_index):
        record = _TaskRecord(seq=0, query=CODQuery(3, attribute, 2), priority=1)
        supervisor._account_affinity(record, supervisor._slots[slot_index])

    def test_claim_table_is_lru_bounded(self, paper_graph):
        supervisor = self._supervisor(paper_graph, affinity_max_claims=2)
        for attribute in range(4):
            self._dispatch(supervisor, attribute, 0)
        assert len(supervisor._affinity_slots) == 2
        # The two most recently used claims survive.
        assert set(supervisor._affinity_slots) == {2, 3}
        affinity = supervisor.health()["affinity"]
        assert affinity["evictions"] == 2
        assert affinity["max_claims"] == 2

    def test_touch_refreshes_lru_order(self, paper_graph):
        supervisor = self._supervisor(paper_graph, affinity_max_claims=2)
        self._dispatch(supervisor, 0, 0)
        self._dispatch(supervisor, 1, 1)
        self._dispatch(supervisor, 0, 0)  # refresh attribute 0
        self._dispatch(supervisor, 2, 0)  # evicts attribute 1, not 0
        assert set(supervisor._affinity_slots) == {0, 2}

    def test_worker_death_drops_its_claims(self, paper_graph):
        supervisor = self._supervisor(paper_graph)
        self._dispatch(supervisor, 0, 0)
        self._dispatch(supervisor, 1, 0)
        self._dispatch(supervisor, 2, 1)
        supervisor._on_worker_death(supervisor._slots[0], "test kill")
        # Slot 0's claims are gone; slot 1's survives.
        assert set(supervisor._affinity_slots) == {2}
        assert supervisor.health()["affinity"]["evictions"] == 2

    def test_worker_death_reroutes_its_shards(self, paper_graph):
        supervisor = self._supervisor(paper_graph)
        supervisor._shard_slots = {0: 0, 1: 1}
        supervisor._on_worker_death(supervisor._slots[0], "test kill")
        assert supervisor._shard_slots[0] == 1
        assert supervisor._shard_slots[1] == 1

    def test_single_worker_death_keeps_routing(self, paper_graph):
        supervisor = ServingSupervisor(
            paper_graph,
            n_workers=1,
            server_options={"theta": 2, "seed": 11},
            warm_index=False,
        )
        supervisor._shard_slots = {0: 0}
        supervisor._on_worker_death(supervisor._slots[0], "test kill")
        assert supervisor._shard_slots == {0: 0}

    def test_disabled_slots_never_receive_shards(self, paper_graph):
        supervisor = self._supervisor(paper_graph)
        supervisor._slots[0].state = W_DISABLED
        supervisor._attr_hot[0] = {3: 5}
        assert supervisor._assign_shard_slot(0) == 1

    def test_bad_bounds_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            self._supervisor(paper_graph, affinity_max_claims=0)
        with pytest.raises(ValueError):
            self._supervisor(paper_graph, shard_hot_threshold=0)
