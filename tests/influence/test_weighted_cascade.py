"""The weighted-cascade edge law that every arena sampler draws.

Under weighted cascade (the paper's IC setting, Section V-A) the edge
``u -> v`` is live with probability ``1 / deg(v)``: an RR sample that
explores ``v`` keeps each of ``v``'s incident edges with that
probability, independently of every other trial.
"""

from collections import Counter

import numpy as np
import pytest

from repro.graph.graph import AttributedGraph
from repro.influence.arena import sample_arena
from repro.influence.fastsample import sample_arena_fast

from tests.conftest import ARENA_SAMPLERS

#: The samplers that take explicit ``sources``.
STREAM_SAMPLERS = [sample_arena, sample_arena_fast]


class TestWeightedCascade:
    def test_edge_probability_is_inverse_degree(self, paper_graph):
        trials = 6000
        p = 1.0 / paper_graph.degree(3)
        for sample in STREAM_SAMPLERS:
            arena = sample(paper_graph, trials, rng=0, sources=[3] * trials)
            fired = Counter(u for rr in arena for u in rr.adjacency[3])
            for u in paper_graph.neighbors(3):
                assert fired[int(u)] / trials == pytest.approx(p, abs=0.03)

    def test_mean_fired_at_source_is_one(self, paper_graph):
        # deg(v) trials of probability 1/deg(v) each: one live edge per
        # explored node on average, whatever its degree.
        for draw in ARENA_SAMPLERS.values():
            counts = [len(rr.adjacency[rr.source]) for rr in draw(paper_graph, 4000, 1)]
            assert np.mean(counts) == pytest.approx(1.0, abs=0.1)

    def test_probability_uses_explored_node_degree(self, star_graph):
        # From leaf 1 (degree 1) the center always fires; the center
        # (degree 6) then keeps each other leaf with probability 1/6.
        trials = 6000
        for sample in STREAM_SAMPLERS:
            arena = sample(star_graph, trials, rng=2, sources=[1] * trials)
            assert all(rr.adjacency[1] == [0] for rr in arena)
            hits = sum(1 for rr in arena if 2 in rr.adjacency[0])
            assert hits / trials == pytest.approx(1 / 6, abs=0.03)

    def test_isolated_node_fires_nothing(self):
        g = AttributedGraph(2, [])
        for draw in ARENA_SAMPLERS.values():
            arena = draw(g, 20, 0)
            assert (np.diff(arena.node_offsets) == 1).all()
            assert arena.total_edges == 0
