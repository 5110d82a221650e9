"""Unit tests for the forward Monte-Carlo oracle."""

import pytest

from repro.errors import InfluenceError
from repro.graph.graph import AttributedGraph

from tests.oracle.montecarlo import simulate_influence
from tests.oracle.reference import enumerate_exact_spread

#: Triangle 0-1-2 with a tail 2-3-4: small enough to enumerate every world.
TAILED = AttributedGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
TRIALS = 8000


class TestSimulateInfluence:
    def test_seed_always_counts(self, paper_graph):
        value = simulate_influence(paper_graph, 0, trials=50, rng=0)
        assert value >= 1.0

    def test_bounded_by_n(self, paper_graph):
        value = simulate_influence(paper_graph, 0, trials=200, rng=0)
        assert value <= paper_graph.n

    def test_p_one_covers_component(self):
        # Every node has degree 1, so p(u, v) = 1/deg(v) = 1 on each edge.
        g = AttributedGraph(4, [(0, 1), (2, 3)])
        assert simulate_influence(g, 0, trials=20, rng=0) == 2.0

    def test_isolated_seed(self):
        g = AttributedGraph(3, [(1, 2)])
        assert simulate_influence(g, 0, trials=20, rng=0) == 1.0

    def test_restriction_reduces_spread(self, paper_graph):
        full = simulate_influence(paper_graph, 0, trials=2000, rng=1)
        restricted = simulate_influence(
            paper_graph, 0, trials=2000, rng=1, restrict_to=[0, 1, 2, 3]
        )
        assert restricted <= full
        assert restricted <= 4.0

    def test_restriction_requires_seed(self, paper_graph):
        with pytest.raises(InfluenceError):
            simulate_influence(paper_graph, 0, trials=10, restrict_to=[1, 2])

    def test_invalid_trials(self, paper_graph):
        with pytest.raises(InfluenceError):
            simulate_influence(paper_graph, 0, trials=0)

    def test_invalid_seed_node(self, paper_graph):
        with pytest.raises(InfluenceError):
            simulate_influence(paper_graph, 99, trials=10)

    def test_forward_probability_is_inverse_degree(self, star_graph):
        # Leaf 1 activates the center (degree 6) with probability 1/6; the
        # center then activates every other leaf (degree 1) for sure, so
        # the spread is 1 + 6/6 = 2 in expectation and always 7 from 0.
        assert simulate_influence(star_graph, 0, trials=50, rng=0) == 7.0
        leaf = simulate_influence(star_graph, 1, trials=6000, rng=4)
        assert leaf == pytest.approx(2.0, abs=0.2)

    def test_star_center_vs_leaf(self, star_graph):
        center = simulate_influence(star_graph, 0, trials=3000, rng=3)
        leaf = simulate_influence(star_graph, 1, trials=3000, rng=3)
        assert center > leaf

    # The two oracles are independent: forward cascades against the exact
    # expectation over every possible world. Tolerance is 4 standard errors
    # of a mean of TRIALS spreads bounded by the node count.
    def test_matches_enumeration(self):
        for q in range(TAILED.n):
            exact = enumerate_exact_spread(TAILED, q)
            forward = simulate_influence(TAILED, q, trials=TRIALS, rng=q)
            assert forward == pytest.approx(exact, abs=4 * TAILED.n / 2 / TRIALS**0.5)

    def test_restricted_matches_enumeration(self):
        members = {0, 1, 2, 3}
        for q in sorted(members):
            exact = enumerate_exact_spread(TAILED, q, restrict_to=members)
            forward = simulate_influence(
                TAILED, q, trials=TRIALS, rng=10 + q, restrict_to=members
            )
            assert forward <= len(members)
            assert forward == pytest.approx(exact, abs=4 * len(members) / 2 / TRIALS**0.5)
