"""Property-based RR invariants on the vectorized fast sampler.

The fast kernels reorder and batch every Bernoulli trial, so none of the
bit-level oracles apply; what must survive any amount of vectorization
are the *structural* RR-graph invariants of Definition 2:

* the source is the sample's first entry and is always a member;
* every recorded edge is an edge of the graph, and both endpoints are
  sampled members of the same sample;
* the sample is closed under its recorded edges and every member is
  reachable from the source through them (an RR set *is* the reverse
  reachability closure of its source);
* entries within one sample are unique, and with ``allowed=`` every
  member stays inside the allowed set.

These hold sample by sample, independent of chunking, trial batching, or
degree-class reordering — which is exactly why they make good property
tests: hypothesis varies the topology while the invariants stay fixed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.influence.fastsample import (
    sample_arena_fast,
    sample_arena_seeded_fast,
)

from tests.property.test_hierarchy_props import random_connected_graphs

def _check_rr_invariants(graph, arena, allowed=None):
    assert arena.node_offsets[0] == 0
    assert arena.node_offsets[-1] == arena.total_nodes
    for i in range(arena.n_samples):
        lo = int(arena.node_offsets[i])
        hi = int(arena.node_offsets[i + 1])
        nodes = arena.nodes[lo:hi]
        # Root membership: the source leads its own entry block.
        assert int(nodes[0]) == int(arena.sources[i])
        members = set(int(v) for v in nodes)
        assert len(members) == hi - lo, "duplicate entry within a sample"
        if allowed is not None:
            assert members <= allowed
        # Edges: endpoints sampled, same sample, edge exists in the graph.
        reached = {lo}
        frontier = [lo]
        while frontier:
            e = frontier.pop()
            start = int(arena.edge_start[e])
            count = int(arena.edge_count[e])
            for dst in arena.edge_dst_entry[start : start + count]:
                dst = int(dst)
                assert lo <= dst < hi, "edge escapes its sample"
                assert graph.has_edge(
                    int(arena.nodes[e]), int(arena.nodes[dst])
                )
                if dst not in reached:
                    reached.add(dst)
                    frontier.append(dst)
        # Reachability closure: every member is reachable from the source
        # through recorded edges — no orphaned entries.
        assert reached == set(range(lo, hi))


class TestFastSamplerInvariants:
    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_rr_invariants(self, g, seed):
        arena = sample_arena_fast(g, 25, rng=seed)
        assert arena.n_samples == 25
        _check_rr_invariants(g, arena)

    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_seeded_rr_invariants(self, g, seed):
        arena = sample_arena_seeded_fast(g, count=25, base_seed=seed)
        assert arena.n_samples == 25
        _check_rr_invariants(g, arena)

    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_restricted_sampling_confined(self, g, seed):
        allowed = set(range(max(1, g.n // 2)))
        arena = sample_arena_fast(g, 20, rng=seed, allowed=allowed)
        _check_rr_invariants(g, arena, allowed=allowed)

    @given(random_connected_graphs(), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_seeded_chunking_never_changes_samples(self, g, seed):
        """For the *seeded* fast sampler, chunk_size is a pure memory
        knob: trials are hashes of (seed, sample, node, slot), so chunk
        boundaries cannot move them. (The RNG-stream fast sampler has no
        such property — a chunk boundary reorders RNG consumption.)"""
        whole = sample_arena_seeded_fast(g, count=17, base_seed=seed)
        tiny = sample_arena_seeded_fast(
            g, count=17, base_seed=seed, chunk_size=1
        )
        for name in (
            "sources",
            "node_offsets",
            "nodes",
            "edge_start",
            "edge_count",
            "edge_dst_entry",
        ):
            assert np.array_equal(getattr(whole, name), getattr(tiny, name))

    @given(
        random_connected_graphs(),
        st.integers(0, 2**31),
        st.lists(st.integers(0, 499), min_size=1, max_size=8, unique=True),
    )
    @settings(max_examples=15, deadline=None)
    def test_seeded_subset_equals_full_draw_slice(self, g, base, idx):
        """Per-sample determinism: drawing a subset of indices reproduces
        the corresponding slice of the full draw bit for bit — the
        property incremental repair is built on."""
        full = sample_arena_seeded_fast(g, count=500, base_seed=base)
        sub = sample_arena_seeded_fast(g, indices=sorted(idx), base_seed=base)
        taken = full.take(np.asarray(sorted(idx), dtype=np.int64))
        for name in (
            "sources",
            "node_offsets",
            "nodes",
            "edge_start",
            "edge_count",
            "edge_dst_entry",
        ):
            assert np.array_equal(getattr(sub, name), getattr(taken, name))
