"""Unit tests for the HIMOR index and Algorithm 3."""

import numpy as np
import pytest

from repro.core import himor
from repro.core.himor import HimorIndex, local_index
from repro.core.pipeline import CODL
from repro.core.problem import CODQuery
from repro.errors import IndexError_, QueryError
from repro.influence.arena import ArenaRepair, sample_arena
from repro.influence.estimator import estimate_influences_in_community

from tests.conftest import C0, C1, C3, C4, C6, DB
from tests.oracle.reference import charge_buckets


def int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def rewrite_in_old_form(path) -> None:
    """Rewrite a saved index as artifacts were saved before charge
    tables: the charges as string-keyed ``{tag: {node: count}}`` buckets."""
    from repro.utils.persist import atomic_write_json, load_versioned_json

    payload = load_versioned_json(path, kind=HimorIndex.FORMAT,
                                  error_cls=IndexError_)
    keys, counts = payload.pop("charges")
    buckets = charge_buckets((int64(keys), int64(counts)), payload["n_leaves"])
    payload["buckets"] = {
        str(tag): {str(node): count for node, count in bucket.items()}
        for tag, bucket in buckets.items()
    }
    atomic_write_json(path, payload, kind=HimorIndex.FORMAT)


@pytest.fixture()
def paper_index(paper_graph, paper_hierarchy):
    return HimorIndex.build(paper_graph, paper_hierarchy, theta=400, rng=0)


class TestConstruction:
    def test_rank_arrays_aligned_with_paths(self, paper_index, paper_hierarchy):
        for v in range(10):
            ranks = paper_index.ranks_of(v)
            assert len(ranks) == len(paper_hierarchy.path_communities(v))
            assert all(1 <= r <= 10 for r in ranks)

    def test_rank_in_named_community(self, paper_index):
        # v4 in C1 = {4, 5}: rank must be 1 or 2.
        assert paper_index.rank_in(4, C1) in (1, 2)

    def test_rank_in_non_ancestor_rejected(self, paper_index):
        with pytest.raises(QueryError):
            paper_index.rank_in(8, C0)

    def test_mismatched_graph_rejected(self, paper_hierarchy, triangle_graph):
        with pytest.raises(IndexError_):
            HimorIndex.build(triangle_graph, paper_hierarchy)

    def test_arena_over_other_graph_rejected(self, paper_graph, paper_hierarchy,
                                             triangle_graph):
        # The 3-node arena's sources are all valid leaves of the 10-leaf
        # tree, so only the node-count check stops a silently wrong index.
        arena = sample_arena(triangle_graph, 30, rng=0)
        with pytest.raises(IndexError_, match="sampled over 3 nodes"):
            HimorIndex.build(paper_graph, paper_hierarchy, rr_graphs=arena)

    def test_non_arena_rr_graphs_rejected(self, paper_graph, paper_hierarchy):
        views = list(sample_arena(paper_graph, 30, rng=0))
        with pytest.raises(IndexError_, match="RRArena"):
            HimorIndex.build(paper_graph, paper_hierarchy, rr_graphs=views)

    def test_ranks_match_per_community_oracle(self, paper_graph, paper_hierarchy,
                                              paper_index):
        # Every (node, ancestor) rank must agree with a high-sample
        # restricted estimate, away from tie boundaries.
        rng = np.random.default_rng(1)
        for q in (0, 4, 8):
            path = paper_hierarchy.path_communities(q)
            for position, vertex in enumerate(path):
                members = paper_hierarchy.members(vertex)
                oracle = estimate_influences_in_community(
                    paper_graph, members, 500 * len(members), rng=rng
                )
                got = int(paper_index.ranks_of(q)[position])
                want = oracle.rank(q)
                assert abs(got - want) <= 1, (q, vertex, got, want)

    def test_memory_bytes(self, paper_index, paper_hierarchy):
        # One 8-byte entry per (leaf, ancestor) pair.
        expected_entries = sum(
            len(paper_hierarchy.path_communities(v)) for v in range(10)
        )
        assert paper_index.memory_bytes() == expected_entries * 8


class TestIndexScan:
    def test_largest_qualifying_ancestor_root_first(self, paper_index):
        # With k = 10 every community qualifies; the scan must return the
        # root (largest).
        assert paper_index.largest_qualifying_ancestor(0, 10) == C6

    def test_floor_restricts_scan(self, paper_index):
        # Restricting to ancestors of C4 can only return C4 or C6.
        result = paper_index.largest_qualifying_ancestor(0, 10, floor_vertex=C4)
        assert result == C6

    def test_k_one_returns_none_or_valid(self, paper_index, paper_hierarchy):
        result = paper_index.largest_qualifying_ancestor(9, 1)
        if result is not None:
            assert paper_hierarchy.contains(result, 9)
            assert paper_index.rank_in(9, result) <= 1

    def test_invalid_k(self, paper_index):
        with pytest.raises(QueryError):
            paper_index.largest_qualifying_ancestor(0, 0)

    def test_invalid_floor(self, paper_index):
        with pytest.raises(QueryError):
            paper_index.largest_qualifying_ancestor(8, 2, floor_vertex=C0)

    def test_below_root_skips_the_root(self, paper_index):
        # Every community qualifies at k = 10, so leaving the root out
        # returns the next largest ancestor of node 0, C4.
        assert paper_index.largest_qualifying_ancestor(0, 10, below_root=True) == C4
        assert paper_index.largest_qualifying_ancestor(
            0, 10, floor_vertex=C6, below_root=True
        ) is None

    def test_matches_a_top_down_loop(self, paper_index, paper_hierarchy):
        """The vectorised rank test returns what Algorithm 3's loop does,
        with the path walked or handed in."""
        for q in range(paper_hierarchy.n_leaves):
            path = paper_hierarchy.path_communities(q)
            ranks = paper_index.ranks_of(q)
            for start, floor in enumerate(path):
                for below_root in (False, True):
                    for k in range(1, 11):
                        want = next(
                            (
                                path[p]
                                for p in range(len(path) - 1 - below_root, start - 1, -1)
                                if ranks[p] <= k
                            ),
                            None,
                        )
                        for given in (None, list(path)):
                            assert paper_index.largest_qualifying_ancestor(
                                q, k, floor_vertex=floor, below_root=below_root,
                                path=given,
                            ) == want, (q, floor, below_root, k)

    def test_path_of_another_node_rejected(self, paper_index, paper_hierarchy):
        path = paper_hierarchy.path_communities(0)
        short = next(
            v for v in range(10) if len(paper_hierarchy.path_communities(v)) != len(path)
        )
        with pytest.raises(QueryError, match="does not match"):
            paper_index.largest_qualifying_ancestor(short, 3, path=path)


class TestLocalIndex:
    """``local_index`` over a community ``C`` of the paper tree, taken as
    its own hierarchy: C4 = {0..7} with C0..C3 below it."""

    @pytest.fixture()
    def community(self, paper_hierarchy):
        from repro.hierarchy.dendrogram import CommunityHierarchy

        members = np.sort(paper_hierarchy.members(C4))
        parents = paper_hierarchy.parents
        local = {int(v): i for i, v in enumerate(members)}
        inner = [
            v for v in range(paper_hierarchy.n_leaves, paper_hierarchy.n_vertices)
            if set(paper_hierarchy.members(v).tolist()) <= set(members.tolist())
        ]
        for offset, v in enumerate(inner):
            local[v] = len(members) + offset
        parent = [-1] * (len(members) + len(inner))
        for v, i in local.items():
            p = int(parents[v])
            parent[i] = local[p] if p in local else -1
        return members, CommunityHierarchy.from_parents(len(members), parent)

    def test_ranks_match_the_global_index_inside_c(
        self, paper_graph, paper_hierarchy, community
    ):
        members, hierarchy = community
        arena = sample_arena(paper_graph, 400 * paper_graph.n, rng=3)
        restricted = arena.restrict(members)
        got = local_index(hierarchy, members, restricted)
        assert got.n_samples == restricted.n_samples
        # The global index over the same restricted samples ranks every
        # member of C identically in each community inside C.
        want = HimorIndex.build(paper_graph, paper_hierarchy, rr_graphs=restricted)
        for i, v in enumerate(members.tolist()):
            depth = len(hierarchy.path_communities(i))
            np.testing.assert_array_equal(got.ranks_of(i), want.ranks_of(v)[:depth])

    def test_foreign_nodes_and_bad_maps_rejected(self, paper_graph, community):
        members, hierarchy = community
        arena = sample_arena(paper_graph, 40, rng=3)
        with pytest.raises(IndexError_, match="outside"):
            local_index(hierarchy, members, arena)
        with pytest.raises(IndexError_, match="leaves"):
            local_index(hierarchy, members[:-1], arena.restrict(members))


class TestPersistence:
    def test_save_load_roundtrip(self, paper_index, tmp_path):
        path = tmp_path / "index.json"
        paper_index.save(path)
        loaded = HimorIndex.load(path)
        assert loaded.theta == paper_index.theta
        assert loaded.n_samples == paper_index.n_samples
        for v in range(10):
            assert np.array_equal(loaded.ranks_of(v), paper_index.ranks_of(v))

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"theta": 1}')
        with pytest.raises(IndexError_):
            HimorIndex.load(path)

    @pytest.mark.parametrize("charges", [
        [[3, 2], [1, 1]],        # keys out of order
        [[2, 2], [1, 1]],        # a repeated key
        [[2, 3], [1, 0]],        # a zero count
        [[2, 3], [1, -1]],       # a negative count
        [[2, 3], [1]],           # lopsided lists
        {"2": {"3": 1}},         # not two lists
    ])
    def test_malformed_charges_rejected(self, paper_index, tmp_path, charges):
        from repro.utils.persist import atomic_write_json, load_versioned_json

        path = tmp_path / "index.json"
        paper_index.save(path)
        payload = load_versioned_json(path, kind=HimorIndex.FORMAT,
                                      error_cls=IndexError_)
        payload["charges"] = charges
        atomic_write_json(path, payload, kind=HimorIndex.FORMAT)
        with pytest.raises(IndexError_, match="malformed"):
            HimorIndex.load(path)

    def test_old_form_artifact_loads_charge_less(self, paper_index, tmp_path):
        path = tmp_path / "index.json"
        paper_index.save(path)
        rewrite_in_old_form(path)
        loaded = HimorIndex.load(path)
        assert not loaded.has_buckets
        assert loaded.sample_mode == paper_index.sample_mode
        for v in range(10):
            assert np.array_equal(loaded.ranks_of(v), paper_index.ranks_of(v))

    def test_old_form_artifact_serves_then_rebuilds(self, paper_graph, tmp_path):
        from repro.core.pool import SharedSamplePool
        from repro.dynamic.updates import EdgeUpdate
        from repro.serving.server import CODServer

        def pooled():
            pool = SharedSamplePool(paper_graph, theta=3, seed=11,
                                    per_sample_seeds=True)
            return CODServer(paper_graph, theta=3, seed=11, pool=pool,
                             index_path=path)

        path = tmp_path / "himor.json"
        built = pooled()
        built.warm()
        rewrite_in_old_form(path)
        server = pooled()
        server.warm()
        assert server.health()["index_rebuilds"] == 0
        assert not server.index.has_buckets
        for v in range(paper_graph.n):
            assert np.array_equal(server.index.ranks_of(v),
                                  built.index.ranks_of(v))
        for node in range(paper_graph.n):
            query = CODQuery(node, DB, 3)
            assert np.array_equal(server.answer(query).members,
                                  built.answer(query).members)
        report = server.apply_updates([EdgeUpdate(2, 3)])
        assert report["index"] == "rebuilt"
        assert server.index.has_buckets
        assert HimorIndex.load(path).has_buckets


class TestSumCharges:
    def test_empty(self):
        keys, counts = himor._sum_charges(int64([]), int64([]))
        assert keys.dtype == counts.dtype == np.int64
        assert len(keys) == len(counts) == 0

    def test_cancelling_input_leaves_nothing(self):
        keys, counts = himor._sum_charges(int64([5, 3, 5, 3, 9]),
                                          int64([1, 2, -1, -2, 0]))
        assert len(keys) == len(counts) == 0

    def test_sorted_exact_sums_with_negatives_kept(self):
        big = 2**53 + 1  # not exact in float64
        keys, counts = himor._sum_charges(int64([7, 2, 7, 4, 2]),
                                          int64([-3, big, 1, 0, big]))
        assert keys.tolist() == [2, 7]
        assert counts.tolist() == [2 * big, -2]


class TestHimorCod:
    """Algorithm 3 end to end, through :class:`CODL`."""

    def test_consistent_with_index(self, paper_graph):
        pipeline = CODL(paper_graph, theta=400, seed=0)
        index = pipeline.index
        state = pipeline.rng.bit_generator.state
        result = pipeline.discover(CODQuery(0, DB, 10))
        # k = 10: the root qualifies via the index, so no fallback sample
        # is drawn.
        assert pipeline.rng.bit_generator.state == state
        assert sorted(int(v) for v in result.members) == list(range(10))
        root = index.hierarchy.root
        assert index.largest_qualifying_ancestor(0, 10) == root

    def test_fallback_path(self, paper_graph):
        # Query v9 with k = 1: if no ancestor of C_l qualifies, the
        # fallback must run inside C_l (or return None when C_l has no
        # reclustered interior).
        result = CODL(paper_graph, theta=200, seed=3).discover(CODQuery(9, DB, 1))
        if result.found:
            assert 9 in set(int(v) for v in result.members)

    def test_answer_contains_query(self, paper_graph):
        pipeline = CODL(paper_graph, theta=100, seed=4)
        for q in range(10):
            result = pipeline.discover(CODQuery(q, DB, 3))
            if result.found:
                assert q in set(int(v) for v in result.members)


class TestIncrementalRepair:
    """Delta repair over an arena repair's removed/added samples."""

    THETA = 6
    SEED = 17

    @pytest.fixture(autouse=True)
    def delta_at_any_share(self, monkeypatch):
        # A third of this small pool is redrawn, past the share where a
        # repair recounts the whole pool; these tests exercise the delta.
        monkeypatch.setattr(himor, "RECOUNT_SHARE", 1.0)

    def build_pair(self, paper_graph, paper_hierarchy):
        from repro.dynamic.updates import EdgeUpdate, apply_updates
        from repro.influence.arena import repair_arena
        from repro.influence.fastsample import sample_arena_seeded_fast

        new_graph = apply_updates(paper_graph, [EdgeUpdate(2, 3, add=True)])
        arena = sample_arena_seeded_fast(
            paper_graph, count=self.THETA * paper_graph.n, base_seed=self.SEED
        )
        index = HimorIndex.build(
            paper_graph, paper_hierarchy, theta=self.THETA, rr_graphs=arena,
            sample_mode="per-sample-fast",
        )
        rep = repair_arena(arena, new_graph, {2, 3}, base_seed=self.SEED)
        return new_graph, index, rep

    def test_repair_matches_rebuild_on_repaired_pool(
        self, paper_graph, paper_hierarchy
    ):
        from repro.core.himor import graph_checksum

        new_graph, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        assert index.has_buckets
        report = index.repair(rep, graph=new_graph)
        assert report == {"retraversed_samples": rep.n_repaired, "recounted": False}
        assert rep.n_repaired > 0

        # Oracle: a from-scratch build over the *repaired* arena under the
        # same (unchanged) hierarchy must yield identical ranks.
        oracle = HimorIndex.build(
            new_graph, paper_hierarchy, theta=self.THETA, rr_graphs=rep.arena,
            sample_mode="per-sample-fast",
        )
        for v in range(paper_graph.n):
            assert np.array_equal(index.ranks_of(v), oracle.ranks_of(v)), v
        assert index.graph_sha == graph_checksum(new_graph)

    def test_recount_past_share_matches_rebuild(
        self, paper_graph, paper_hierarchy, monkeypatch
    ):
        monkeypatch.setattr(himor, "RECOUNT_SHARE", 0.0)
        new_graph, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        report = index.repair(rep, graph=new_graph)
        assert report == {"retraversed_samples": rep.n_repaired, "recounted": True}
        oracle = HimorIndex.build(
            new_graph, paper_hierarchy, theta=self.THETA, rr_graphs=rep.arena,
            sample_mode="per-sample-fast",
        )
        assert charge_buckets(index._charges, paper_graph.n) == charge_buckets(
            oracle._charges, paper_graph.n
        )
        for v in range(paper_graph.n):
            assert np.array_equal(index.ranks_of(v), oracle.ranks_of(v)), v

    def test_lopsided_delta_rejected(self, paper_graph, paper_hierarchy):
        _, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        with pytest.raises(IndexError_, match="lopsided"):
            index.repair(ArenaRepair(rep.arena, rep.touched, rep.removed,
                                     rep.added.take([0])))

    def test_foreign_removed_samples_rejected(self, paper_graph,
                                              paper_hierarchy):
        # Subtracting samples the index never charged must not silently
        # corrupt the buckets: if a charge would go negative, repair fails.
        from repro.influence.fastsample import sample_arena_seeded_fast

        _, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        foreign = sample_arena_seeded_fast(
            paper_graph, indices=range(1000, 1000 + rep.added.n_samples),
            base_seed=99,
        )
        with pytest.raises(IndexError_, match="negative"):
            index.repair(ArenaRepair(rep.arena, rep.touched, foreign, rep.added))

    def test_foreign_cluster_map_rejected(self, paper_graph, paper_hierarchy):
        from repro.hierarchy.dendrogram import CommunityHierarchy, map_clusters

        _, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        copy = CommunityHierarchy.from_parents(
            paper_hierarchy.n_leaves, paper_hierarchy.parents
        )
        with pytest.raises(IndexError_, match="does not start"):
            index.repair(rep, map_clusters(copy, copy))

    def test_graph_sha_read_on_first_use(self, paper_graph, paper_hierarchy):
        from repro.core.himor import graph_checksum

        new_graph, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        assert index._graph_sha is None
        assert index.graph_sha == graph_checksum(paper_graph)
        index.repair(rep, graph=new_graph)
        assert index._graph_sha is None
        assert index.graph_sha == graph_checksum(new_graph)

    def test_charge_outliving_its_changed_cluster_rejected(
        self, paper_graph, paper_hierarchy
    ):
        # A repair over a pool that is not this index's re-traverses
        # nothing, so charges stay on clusters the map cannot carry.
        from repro.hierarchy.dendrogram import CommunityHierarchy, map_clusters

        _, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        parents = paper_hierarchy.parents.tolist()
        parents[0], parents[9] = parents[9], parents[0]
        moved = CommunityHierarchy.from_parents(paper_hierarchy.n_leaves, parents)
        clusters = map_clusters(paper_hierarchy, moved)
        assert (clusters.to_new < 0).any()
        empty = rep.arena.take([])
        with pytest.raises(IndexError_, match="outlived"):
            index.repair(ArenaRepair(empty, int64([]), empty, empty), clusters)

    def test_bucketless_index_cannot_repair(self, paper_graph,
                                            paper_hierarchy, tmp_path):
        _, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        index._charges = None  # legacy artifact shape
        with pytest.raises(IndexError_, match="no HFS buckets"):
            index.repair(rep)

    def test_buckets_survive_save_load(self, paper_graph, paper_hierarchy,
                                       tmp_path):
        from repro.core.himor import graph_checksum

        new_graph, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        path = tmp_path / "himor.json"
        index.save(path)
        loaded = HimorIndex.load(path)
        assert loaded.has_buckets
        assert loaded.graph_sha == graph_checksum(paper_graph)
        loaded.repair(rep, graph=new_graph)
        index.repair(rep, graph=new_graph)
        for v in range(paper_graph.n):
            assert np.array_equal(loaded.ranks_of(v), index.ranks_of(v))


class TestGraphChecksum:
    def test_sensitive_to_edges_blind_to_attributes(self, paper_graph):
        from repro.core.himor import graph_checksum
        from repro.dynamic.updates import AttrUpdate, EdgeUpdate, apply_updates

        base = graph_checksum(paper_graph)
        assert base == graph_checksum(paper_graph)
        structural = apply_updates(paper_graph, [EdgeUpdate(2, 3)])
        assert graph_checksum(structural) != base
        attr_only = apply_updates(paper_graph, [AttrUpdate(0, 7)])
        assert graph_checksum(attr_only) == base
