"""Unit tests for RR-based influence estimation and ranking."""

import numpy as np
import pytest

from repro.errors import InfluenceError
from repro.graph.graph import AttributedGraph
from repro.influence.estimator import (
    InfluenceEstimate,
    estimate_influences,
    estimate_influences_in_community,
    influence_ranks,
    rank_of,
)

from tests.oracle.montecarlo import simulate_influence


class TestInfluenceEstimate:
    def test_influence_scaling(self):
        est = InfluenceEstimate(counts={3: 50}, n_samples=100, population=20)
        assert est.influence(3) == 10.0
        assert est.influence(99) == 0.0

    def test_zero_samples_rejected(self):
        est = InfluenceEstimate(counts={}, n_samples=0, population=5)
        with pytest.raises(InfluenceError):
            est.influence(0)

    def test_rank(self):
        est = InfluenceEstimate(counts={0: 5, 1: 3, 2: 3, 3: 1},
                                n_samples=10, population=4)
        assert est.rank(0) == 1
        assert est.rank(1) == 2
        assert est.rank(2) == 2
        assert est.rank(3) == 4
        assert est.rank(99) == 5  # zero count, below all scored nodes

    def test_top_k(self):
        est = InfluenceEstimate(counts={0: 5, 1: 3, 2: 3, 3: 1},
                                n_samples=10, population=4)
        assert est.top_k(1) == [0]
        assert est.top_k(2) == [0, 1, 2]  # ties at the boundary included
        assert est.top_k(10) == [0, 1, 2, 3]

    def test_top_k_invalid(self):
        est = InfluenceEstimate(counts={}, n_samples=1, population=1)
        with pytest.raises(InfluenceError):
            est.top_k(0)
        assert est.top_k(3) == []


class TestEstimateInfluences:
    def test_counts_bounded_by_samples(self, paper_graph):
        est = estimate_influences(paper_graph, 200, rng=0)
        assert all(0 < c <= 200 for c in est.counts.values())
        assert est.population == paper_graph.n

    def test_matches_forward_simulation(self, paper_graph):
        # Theorem 1: RR estimate must agree with forward Monte Carlo.
        est = estimate_influences(paper_graph, 8000, rng=1)
        for node in (0, 3, 9):
            forward = simulate_influence(paper_graph, node, trials=4000, rng=2)
            assert est.influence(node) == pytest.approx(forward, rel=0.15, abs=0.3)

    def test_invalid_sample_count(self, paper_graph):
        with pytest.raises(InfluenceError):
            estimate_influences(paper_graph, 0)


class TestEstimateInCommunity:
    def test_counts_confined(self, paper_graph):
        est = estimate_influences_in_community(paper_graph, [0, 1, 2, 3], 300, rng=0)
        assert set(est.counts) <= {0, 1, 2, 3}
        assert est.population == 4

    def test_matches_restricted_forward_simulation(self, paper_graph):
        members = [0, 1, 2, 3, 6, 7]
        est = estimate_influences_in_community(paper_graph, members, 12000, rng=3)
        for node in (0, 7):
            forward = simulate_influence(
                paper_graph, node, trials=4000, rng=4, restrict_to=members
            )
            assert est.influence(node) == pytest.approx(forward, rel=0.15, abs=0.3)

    def test_single_node_community(self, paper_graph):
        est = estimate_influences_in_community(paper_graph, [5], 10, rng=0)
        assert est.counts == {5: 10}
        assert est.influence(5) == 1.0


class TestRanks:
    def test_influence_ranks_all_nodes(self):
        ranks = influence_ranks({0: 9, 1: 5, 2: 5, 3: 2})
        assert ranks == {0: 1, 1: 2, 2: 2, 3: 4}

    def test_rank_of_missing_node(self):
        assert rank_of({0: 3, 1: 1}, 7) == 3

    def test_rank_of_tied_zero(self):
        assert rank_of({0: 0, 1: 0}, 0) == 1
