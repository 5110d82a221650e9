"""Unit tests for the HIMOR index and Algorithm 3."""

import numpy as np
import pytest

from repro.core.himor import HimorIndex
from repro.core.pipeline import CODL
from repro.core.problem import CODQuery
from repro.errors import IndexError_, QueryError
from repro.influence.arena import sample_arena
from repro.influence.estimator import estimate_influences_in_community

from tests.conftest import C0, C1, C3, C4, C6, DB


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

    def build_pair(self, paper_graph, paper_hierarchy):
        from repro.dynamic.updates import EdgeUpdate, apply_updates
        from repro.influence.arena import repair_arena, sample_arena_seeded

        new_graph = apply_updates(paper_graph, [EdgeUpdate(2, 3, add=True)])
        arena = sample_arena_seeded(
            paper_graph, count=self.THETA * paper_graph.n, base_seed=self.SEED
        )
        index = HimorIndex.build(
            paper_graph, paper_hierarchy, theta=self.THETA, rr_graphs=arena,
            sample_mode="per-sample",
        )
        rep = repair_arena(arena, new_graph, {2, 3}, base_seed=self.SEED)
        return new_graph, index, rep

    def test_repair_matches_rebuild_on_repaired_pool(
        self, paper_graph, paper_hierarchy
    ):
        from repro.core.himor import graph_checksum

        new_graph, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        assert index.has_buckets
        report = index.repair(rep.removed, rep.added,
                              graph_sha=graph_checksum(new_graph))
        assert report["changed_buckets"] >= 1
        assert report["repaired_subtrees"] >= report["changed_buckets"] > 0

        # Oracle: a from-scratch build over the *repaired* arena under the
        # same (unchanged) hierarchy must yield identical ranks.
        oracle = HimorIndex.build(
            new_graph, paper_hierarchy, theta=self.THETA, rr_graphs=rep.arena,
            sample_mode="per-sample",
        )
        for v in range(paper_graph.n):
            assert np.array_equal(index.ranks_of(v), oracle.ranks_of(v)), v
        assert index.graph_sha == graph_checksum(new_graph)

    def test_lopsided_delta_rejected(self, paper_graph, paper_hierarchy):
        _, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        with pytest.raises(IndexError_, match="lopsided"):
            index.repair(rep.removed, rep.added.take([0]))

    def test_foreign_removed_samples_rejected(self, paper_graph,
                                              paper_hierarchy):
        # Subtracting samples the index never charged must not silently
        # corrupt the buckets: if a charge would go negative, repair fails.
        from repro.influence.arena import sample_arena_seeded

        _, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        foreign = sample_arena_seeded(
            paper_graph, indices=range(1000, 1000 + rep.added.n_samples),
            base_seed=99,
        )
        with pytest.raises(IndexError_, match="negative"):
            index.repair(foreign, rep.added)

    def test_bucketless_index_cannot_repair(self, paper_graph,
                                            paper_hierarchy, tmp_path):
        _, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        index._buckets = None  # legacy artifact shape
        with pytest.raises(IndexError_, match="no HFS buckets"):
            index.repair(rep.removed, rep.added)

    def test_buckets_survive_save_load(self, paper_graph, paper_hierarchy,
                                       tmp_path):
        from repro.core.himor import graph_checksum

        new_graph, index, rep = self.build_pair(paper_graph, paper_hierarchy)
        path = tmp_path / "himor.json"
        index.save(path)
        loaded = HimorIndex.load(path)
        assert loaded.has_buckets
        assert loaded.graph_sha == graph_checksum(paper_graph)
        loaded.repair(rep.removed, rep.added,
                      graph_sha=graph_checksum(new_graph))
        index.repair(rep.removed, rep.added,
                     graph_sha=graph_checksum(new_graph))
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
