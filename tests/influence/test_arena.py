"""Unit tests for the flat CSR RR arena (views, maps, evaluation, errors).

Seed-for-seed equivalence with the legacy sampler lives in
``tests/oracle``; these tests pin the arena's own surface: CSR layout
invariants, the lazy views, the derived inverted indexes, the bucketed
HFS semantics, concatenation, and input validation.
"""

import numpy as np
import pytest

from repro.errors import InfluenceError
from repro.graph.graph import AttributedGraph
from repro.influence.arena import (
    RRArena,
    RRView,
    concatenate_arenas,
    repair_arena,
    sample_arena,
)
from repro.influence.fastsample import sample_arena_seeded_fast


class TestLayout:
    def test_csr_invariants(self, paper_graph):
        arena = sample_arena(paper_graph, 40, rng=0)
        assert arena.n_samples == 40
        assert arena.node_offsets[0] == 0
        assert arena.node_offsets[-1] == arena.total_nodes
        assert np.all(np.diff(arena.node_offsets) >= 1)  # source always in
        assert len(arena.edge_start) == arena.total_nodes
        assert int(arena.edge_count.sum()) == arena.total_edges
        # Edge targets are entry ids, within bounds.
        if arena.total_edges:
            assert int(arena.edge_dst_entry.min()) >= 0
            assert int(arena.edge_dst_entry.max()) < arena.total_nodes

    def test_source_is_first_entry(self, paper_graph):
        arena = sample_arena(paper_graph, 25, rng=1)
        firsts = arena.nodes[arena.node_offsets[:-1]]
        assert np.array_equal(firsts, arena.sources)

    def test_edge_slices_are_disjoint(self, paper_graph):
        arena = sample_arena(paper_graph, 30, rng=2)
        nonempty = arena.edge_count > 0
        starts = arena.edge_start[nonempty]
        counts = arena.edge_count[nonempty]
        order = np.argsort(starts, kind="stable")
        ends = starts[order] + counts[order]
        assert np.all(starts[order][1:] >= ends[:-1])
        assert int(counts.sum()) == arena.total_edges

    def test_entry_samples_inverted_index(self, paper_graph):
        arena = sample_arena(paper_graph, 20, rng=3)
        es = arena.entry_samples
        assert len(es) == arena.total_nodes
        for i in (0, 7, 19):
            a, b = int(arena.node_offsets[i]), int(arena.node_offsets[i + 1])
            assert np.all(es[a:b] == i)

    def test_edge_src_entries_aligned(self, paper_graph):
        arena = sample_arena(paper_graph, 20, rng=4)
        src = arena.edge_src_entries
        assert len(src) == arena.total_edges
        # Edges never cross samples.
        assert np.array_equal(
            arena.entry_samples[src],
            arena.entry_samples[arena.edge_dst_entry],
        )

    def test_memory_and_repr(self, paper_graph):
        arena = sample_arena(paper_graph, 10, rng=5)
        assert arena.memory_bytes() > 0
        assert "RRArena(samples=10" in repr(arena)
        assert len(arena) == 10


class TestViews:
    def test_view_matches_slices(self, paper_graph):
        arena = sample_arena(paper_graph, 15, rng=6)
        view = arena.view(3)
        assert isinstance(view, RRView)
        assert view.source == int(arena.sources[3])
        assert view.n_nodes == int(np.diff(arena.node_offsets)[3])
        assert view.nodes[0] == view.source
        assert view.n_edges == sum(len(t) for t in view.adjacency.values())
        assert "RRView(sample=3" in repr(view)

    def test_adjacency_cached(self, paper_graph):
        view = sample_arena(paper_graph, 5, rng=7).view(0)
        assert view.adjacency is view.adjacency

    def test_iter_yields_every_sample(self, paper_graph):
        arena = sample_arena(paper_graph, 12, rng=8)
        views = list(arena)
        assert len(views) == 12
        assert [v.source for v in views] == arena.sources.tolist()

    def test_view_out_of_range(self, paper_graph):
        arena = sample_arena(paper_graph, 4, rng=9)
        with pytest.raises(InfluenceError, match="out of range"):
            arena.view(4)
        with pytest.raises(InfluenceError):
            arena.view(-1)

    def test_reachable_within_accepts_arrays(self, paper_graph):
        arena = sample_arena(paper_graph, 10, rng=10)
        allowed = {0, 1, 2, 3, 6, 7}
        arr = np.asarray(sorted(allowed))
        for i in range(10):
            assert arena.reachable_within(i, arr) == \
                arena.reachable_within(i, allowed)


class TestEvaluation:
    def test_node_counts_match_views(self, paper_graph):
        arena = sample_arena(paper_graph, 30, rng=11)
        counts = arena.node_counts()
        direct = np.zeros(paper_graph.n, dtype=np.int64)
        for view in arena:
            for v in view.adjacency:
                direct[v] += 1
        assert np.array_equal(counts, direct)
        assert arena.influence_counts() == {
            int(v): int(c) for v, c in enumerate(direct) if c
        }

    def test_level_buckets_cumulate_to_induced_reachability(self, paper_graph):
        """counts[:h+1].sum() must equal per-sample Definition-3 recounts
        against the growing communities — the Theorem-2/3 contract the
        compressed evaluator builds on."""
        arena = sample_arena(paper_graph, 60, rng=12)
        rng = np.random.default_rng(13)
        node_levels = rng.integers(0, 3, size=paper_graph.n)
        node_levels[rng.integers(0, paper_graph.n)] = -1  # outside the chain
        counts = arena.level_bucket_counts(node_levels, 3)
        assert counts.shape == (3, paper_graph.n)
        cumulative = np.cumsum(counts, axis=0)
        for h in range(3):
            members = {int(v) for v in np.flatnonzero(
                (node_levels >= 0) & (node_levels <= h)
            )}
            direct = np.zeros(paper_graph.n, dtype=np.int64)
            for i in range(arena.n_samples):
                for v in arena.reachable_within(i, members):
                    direct[v] += 1
            assert np.array_equal(cumulative[h], direct), h

    def test_hfs_levels_sentinel_for_unreachable(self, paper_graph):
        arena = sample_arena(paper_graph, 20, rng=14)
        node_levels = np.zeros(paper_graph.n, dtype=np.int64)
        node_levels[0] = -1  # node 0 outside every community
        assigned = arena.hfs_levels(node_levels, 1)
        outside = assigned[arena.nodes[: arena.total_nodes] == 0]
        assert np.all(outside == 1)

    def test_hfs_zero_levels(self, paper_graph):
        arena = sample_arena(paper_graph, 5, rng=15)
        assigned = arena.hfs_levels(np.zeros(paper_graph.n, dtype=np.int64), 0)
        assert np.all(assigned == 0)  # sentinel == n_levels == 0


class TestConcatenate:
    def test_round_trip(self, paper_graph):
        a = sample_arena(paper_graph, 8, rng=16)
        b = sample_arena(paper_graph, 5, rng=17)
        merged = concatenate_arenas([a, b])
        assert merged.n_samples == 13
        assert merged.total_edges == a.total_edges + b.total_edges
        originals = list(a) + list(b)
        for view, orig in zip(merged, originals):
            assert view.source == orig.source
            assert view.adjacency == orig.adjacency

    def test_single_is_identity(self, paper_graph):
        a = sample_arena(paper_graph, 3, rng=18)
        assert concatenate_arenas([a]) is a

    def test_empty_rejected(self):
        with pytest.raises(InfluenceError, match="at least one"):
            concatenate_arenas([])

    def test_mismatched_graphs_rejected(self, paper_graph, triangle_graph):
        a = sample_arena(paper_graph, 2, rng=19)
        b = sample_arena(triangle_graph, 2, rng=19)
        with pytest.raises(InfluenceError, match="different graphs"):
            concatenate_arenas([a, b])


class TestSamplingValidation:
    def test_negative_count(self, paper_graph):
        with pytest.raises(InfluenceError, match="non-negative"):
            sample_arena(paper_graph, -1)

    def test_zero_count(self, paper_graph):
        arena = sample_arena(paper_graph, 0, rng=20)
        assert arena.n_samples == 0
        assert arena.total_nodes == 0
        assert list(arena) == []

    def test_source_count_mismatch(self, paper_graph):
        with pytest.raises(InfluenceError, match="sources for count"):
            sample_arena(paper_graph, 3, sources=[0])

    def test_source_out_of_range(self, paper_graph):
        with pytest.raises(InfluenceError, match="not a node"):
            sample_arena(paper_graph, 1, sources=[99])

    def test_source_outside_allowed(self, paper_graph):
        with pytest.raises(InfluenceError, match="outside the allowed"):
            sample_arena(paper_graph, 1, sources=[9], allowed={0, 1})

    def test_allowed_out_of_range(self, paper_graph):
        with pytest.raises(InfluenceError, match="outside the graph"):
            sample_arena(paper_graph, 1, allowed={0, 99})

    def test_explicit_sources(self, paper_graph):
        arena = sample_arena(paper_graph, 3, rng=21, sources=[1, 1, 2])
        assert arena.sources.tolist() == [1, 1, 2]

    def test_p_one_reaches_component(self):
        # Degree-1 endpoints: the edge fires with 1/deg = 1 both ways.
        g = AttributedGraph(4, [(0, 1), (2, 3)])
        arena = sample_arena(g, 1, rng=22, sources=[2])
        assert sorted(arena.view(0).adjacency) == [2, 3]


def arenas_equal(a: RRArena, b: RRArena) -> bool:
    """Bit-for-bit structural equality of two arenas."""
    return (
        a.n == b.n
        and np.array_equal(a.sources, b.sources)
        and np.array_equal(a.node_offsets, b.node_offsets)
        and np.array_equal(a.nodes, b.nodes)
        and np.array_equal(a.edge_start, b.edge_start)
        and np.array_equal(a.edge_count, b.edge_count)
        and np.array_equal(a.edge_dst_entry, b.edge_dst_entry)
    )


class TestTake:
    def test_subset_matches_views(self, paper_graph):
        arena = sample_arena(paper_graph, 30, rng=31)
        picked = [4, 0, 17, 17, 29]
        sub = arena.take(picked)
        assert sub.n_samples == len(picked)
        for new_i, old_i in enumerate(picked):
            old = arena.view(old_i)
            new = sub.view(new_i)
            assert new.source == old.source
            assert new.nodes == old.nodes
            assert new.adjacency == old.adjacency

    def test_identity_permutation_round_trips(self, paper_graph):
        arena = sample_arena(paper_graph, 20, rng=32)
        assert arenas_equal(arena.take(np.arange(20)), arena)

    def test_empty_selection(self, paper_graph):
        arena = sample_arena(paper_graph, 5, rng=33)
        sub = arena.take([])
        assert sub.n_samples == 0
        assert sub.total_nodes == 0

    def test_out_of_range_rejected(self, paper_graph):
        arena = sample_arena(paper_graph, 5, rng=34)
        with pytest.raises(InfluenceError, match="out of sample range"):
            arena.take([0, 5])


class TestSameSamples:
    def test_equal_only_to_the_same_samples(self, paper_graph):
        arena = sample_arena(paper_graph, 20, rng=35)
        assert arena.same_samples(arena.take(np.arange(20)))
        assert not arena.same_samples(arena.take(np.arange(19)))
        assert not arena.same_samples(arena.take(np.arange(20)[::-1]))
        assert not arena.same_samples(sample_arena(paper_graph, 20, rng=36))


class TestSeededSampling:
    # Slice invariance, determinism and argument errors of the seeded
    # sampler are pinned in tests/influence/test_fastsample.py,
    # tests/property/test_fastsample_props.py and the seeded golden
    # digests of tests/oracle/test_seed_stability.py.
    def test_seed_changes_samples(self, paper_graph):
        a = sample_arena_seeded_fast(paper_graph, count=25, base_seed=4)
        b = sample_arena_seeded_fast(paper_graph, count=25, base_seed=5)
        assert not arenas_equal(a, b)

    def test_sample_independent_of_position(self, paper_graph):
        # Sample i depends only on (base_seed, i) — not on which other
        # samples were drawn alongside it or in what order.
        alone = sample_arena_seeded_fast(paper_graph, indices=[7], base_seed=2)
        shuffled = sample_arena_seeded_fast(paper_graph, indices=[19, 7, 3],
                                            base_seed=2)
        assert arenas_equal(alone, shuffled.take([1]))


class TestRepairArena:
    def updated(self, paper_graph):
        from repro.dynamic.updates import EdgeUpdate, apply_updates

        return apply_updates(
            paper_graph, [EdgeUpdate(2, 3, add=True), EdgeUpdate(0, 1, add=False)]
        )

    def test_only_touched_samples_redrawn(self, paper_graph):
        new_graph = self.updated(paper_graph)
        old = sample_arena_seeded_fast(paper_graph, count=60, base_seed=13)
        rep = repair_arena(old, new_graph, {0, 1, 2, 3}, base_seed=13)
        # Repair is incremental: the redraw set is exactly the samples
        # that activated a touched node, not the whole pool.
        mask = np.isin(old.nodes, [0, 1, 2, 3])
        expected = np.unique(old.entry_samples[mask])
        assert np.array_equal(rep.touched, expected)
        assert 0 < rep.n_repaired < old.n_samples
        # The delta pairs old and new versions of exactly those samples.
        assert arenas_equal(rep.removed, old.take(rep.touched))
        assert rep.added.n_samples == rep.n_repaired

    def test_no_touched_nodes_is_identity(self, paper_graph):
        old = sample_arena_seeded_fast(paper_graph, count=20, base_seed=3)
        rep = repair_arena(old, paper_graph, set(), base_seed=3)
        assert rep.n_repaired == 0
        assert rep.arena is old
        assert "0/20" in repr(rep)

    def test_touched_out_of_range_rejected(self, paper_graph):
        old = sample_arena_seeded_fast(paper_graph, count=5, base_seed=3)
        with pytest.raises(InfluenceError, match="outside the graph"):
            repair_arena(old, paper_graph, {99}, base_seed=3)

    def test_node_count_mismatch_rejected(self, paper_graph, triangle_graph):
        old = sample_arena_seeded_fast(paper_graph, count=5, base_seed=3)
        with pytest.raises(InfluenceError, match="repair graph"):
            repair_arena(old, triangle_graph, {0}, base_seed=3)
