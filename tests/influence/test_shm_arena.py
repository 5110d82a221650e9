"""Shared-memory round-trips for RR arenas and attributed graphs.

The serving fleet's zero-copy contract: ``to_shared()`` → ``attach()``
must reproduce every array bit-for-bit (including degenerate arenas),
attached state must be immutable, and every derived arena
(``restrict``/``take``/``concatenate_arenas``) must own writable private
copies rather than aliasing the read-only mapping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfluenceError, ShmError
from repro.graph.graph import AttributedGraph
from repro.influence.arena import (
    RRArena,
    concatenate_arenas,
    sample_arena,
)
from repro.influence.fastsample import sample_arena_seeded_fast
from repro.utils.shm import close_all_segments

ARENA_FIELDS = (
    "sources", "node_offsets", "nodes",
    "edge_start", "edge_count", "edge_dst_entry",
)


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    close_all_segments()


def assert_bit_identical(left: RRArena, right: RRArena) -> None:
    assert left.n == right.n
    for field in ARENA_FIELDS:
        got, want = getattr(left, field), getattr(right, field)
        assert got.dtype == want.dtype, field
        np.testing.assert_array_equal(got, want, err_msg=field)


class TestArenaRoundTrip:
    def test_attach_bit_identical(self, paper_graph):
        arena = sample_arena(paper_graph, 20, rng=3)
        segment = arena.to_shared()
        attached = RRArena.attach(segment.name)
        assert_bit_identical(attached, arena)
        assert attached.is_shared and attached.is_readonly
        assert not arena.is_readonly  # publishing never freezes the source
        attached.detach()
        segment.destroy()

    @settings(max_examples=15, deadline=None)
    @given(
        count=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_attach_bit_identical_property(self, count, seed):
        # Standalone graph (hypothesis forbids function-scoped fixtures).
        graph = AttributedGraph(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)],
            attributes=[{0}, {1}, {0, 1}, {0}, {1}, set()],
        )
        arena = (
            sample_arena_seeded_fast(graph, count, base_seed=seed)
            if count
            else RRArena(
                n=graph.n,
                sources=np.empty(0, dtype=np.int64),
                node_offsets=np.zeros(1, dtype=np.int64),
                nodes=np.empty(0, dtype=np.int64),
                edge_start=np.empty(0, dtype=np.int64),
                edge_count=np.empty(0, dtype=np.int64),
                edge_dst_entry=np.empty(0, dtype=np.int64),
            )
        )
        segment = arena.to_shared()
        try:
            attached = RRArena.attach(segment.name)
            assert_bit_identical(attached, arena)
            attached.detach()
        finally:
            segment.destroy()

    def test_zero_edge_samples_round_trip(self):
        # An edgeless graph draws single-node samples: node arrays are
        # populated, every edge array is empty.
        graph = AttributedGraph(4, [], attributes=[{0}] * 4)
        arena = sample_arena(graph, 6, rng=0)
        assert arena.total_edges == 0
        segment = arena.to_shared()
        attached = RRArena.attach(segment.name)
        assert_bit_identical(attached, arena)
        attached.detach()
        segment.destroy()

    def test_wrong_kind_rejected(self, paper_graph):
        segment = paper_graph.to_shared()
        with pytest.raises(ShmError, match="expected 'rr-arena'"):
            RRArena.attach(segment.name)
        segment.destroy()


class TestAttachedImmutability:
    def test_mutating_attached_arena_raises(self, paper_graph):
        arena = sample_arena(paper_graph, 10, rng=5)
        segment = arena.to_shared()
        attached = RRArena.attach(segment.name)
        for field in ARENA_FIELDS:
            array = getattr(attached, field)
            assert not array.flags.writeable, field
            with pytest.raises(ValueError):
                array[...] = 0
        attached.detach()
        segment.destroy()

    def test_restrict_copies_instead_of_aliasing(self, paper_graph):
        arena = sample_arena(paper_graph, 10, rng=5)
        segment = arena.to_shared()
        attached = RRArena.attach(segment.name)
        restricted = attached.restrict(set(range(paper_graph.n)))
        taken = attached.take(np.arange(attached.n_samples))
        for derived in (restricted, taken):
            for field in ARENA_FIELDS:
                array = getattr(derived, field)
                assert array.flags.writeable or array.size == 0, field
                # Writing into the derived arena must not reach the
                # shared mapping.
                if array.size:
                    array[0] = array[0]
        assert_bit_identical(taken, arena)
        attached.detach()
        segment.destroy()

    def test_concatenate_single_readonly_copies(self, paper_graph):
        arena = sample_arena(paper_graph, 4, rng=6)
        segment = arena.to_shared()
        attached = RRArena.attach(segment.name)
        merged = concatenate_arenas([attached])
        assert merged is not attached
        assert not merged.is_readonly
        assert_bit_identical(merged, arena)
        # Writable arenas keep the zero-copy identity fast path.
        assert concatenate_arenas([arena]) is arena
        attached.detach()
        segment.destroy()

    def test_concatenate_readonly_pair_is_writable(self, paper_graph):
        arena = sample_arena(paper_graph, 4, rng=7)
        segment = arena.to_shared()
        first = RRArena.attach(segment.name)
        second = RRArena.attach(segment.name)
        merged = concatenate_arenas([first, second])
        assert merged.n_samples == 8
        assert not merged.is_readonly
        first.detach()
        second.detach()
        segment.destroy()


class TestGraphRoundTrip:
    def test_attach_preserves_structure(self, paper_graph):
        segment = paper_graph.to_shared()
        attached = AttributedGraph.attach(segment.name)
        assert attached.n == paper_graph.n
        assert attached.m == paper_graph.m
        for v in range(paper_graph.n):
            assert sorted(attached.neighbors(v)) == sorted(
                paper_graph.neighbors(v)
            )
            assert attached.attributes_of(v) == paper_graph.attributes_of(v)
            assert attached.degree(v) == paper_graph.degree(v)
        for a in (0, 1):
            np.testing.assert_array_equal(
                np.sort(np.asarray(attached.nodes_with_attribute(a))),
                np.sort(np.asarray(paper_graph.nodes_with_attribute(a))),
            )
        assert attached.is_shared
        attached.detach_shared()
        segment.destroy()

    def test_weighted_graph_round_trip(self):
        graph = AttributedGraph(
            3, [(0, 1), (1, 2)],
            attributes=[{0}, {0}, {1}],
            edge_weights={(0, 1): 0.25, (1, 2): 0.75},
        )
        segment = graph.to_shared()
        attached = AttributedGraph.attach(segment.name)
        assert attached.is_weighted
        np.testing.assert_allclose(
            attached.neighbor_weights(1), graph.neighbor_weights(1)
        )
        np.testing.assert_array_equal(
            attached.neighbors(1), graph.neighbors(1)
        )
        attached.detach_shared()
        segment.destroy()

    def test_samples_on_attached_graph_bit_identical(self, paper_graph):
        segment = paper_graph.to_shared()
        attached = AttributedGraph.attach(segment.name)
        assert_bit_identical(
            sample_arena_seeded_fast(attached, 12, base_seed=9),
            sample_arena_seeded_fast(paper_graph, 12, base_seed=9),
        )
        attached.detach_shared()
        segment.destroy()

    def test_pool_attach_validates_geometry(self, paper_graph):
        from repro.core.pool import SharedSamplePool

        pool = SharedSamplePool(paper_graph, theta=2, seed=1)
        segment = pool.to_shared()
        with pytest.raises(InfluenceError, match="samples"):
            SharedSamplePool.attach(paper_graph, segment.name, theta=3, seed=1)
        attached = SharedSamplePool.attach(
            paper_graph, segment.name, theta=2, seed=1
        )
        assert attached.is_attached
        assert_bit_identical(attached.arena, pool.arena)
        segment.destroy()
