"""Differential tests: the arena engine vs the naive oracle.

Every test here is seed-for-seed: the arena sampler and the frozen
reference sampler in ``reference.py`` consume the same RNG stream, so
their outputs must be *identical*, not merely statistically close. 42
deterministic random graphs x 5 queries = 210 (graph, query) cases for
the COD comparison, plus per-graph sample-level and HIMOR rank
comparisons, all under the weighted cascade.
"""

import numpy as np
import pytest

from repro.core.compressed import compressed_cod
from repro.core.himor import HimorIndex
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.influence.arena import sample_arena

from tests.conftest import arena_from_dicts
from tests.oracle.reference import (
    brute_force_cod,
    brute_force_himor_ranks,
    influence_counts_of,
    random_case_graph,
    reference_rr_graphs,
)

GRAPH_SEEDS = list(range(42))
QUERIES_PER_GRAPH = 5


def _queries_for(graph, seed: int) -> list[int]:
    rng = np.random.default_rng(10_000 + seed)
    return sorted(int(q) for q in rng.choice(graph.n, size=QUERIES_PER_GRAPH,
                                             replace=False))


@pytest.mark.parametrize("seed", GRAPH_SEEDS)
class TestSampleEquivalence:
    """The arena sampler reproduces the reference stream exactly."""

    def test_arena_matches_reference(self, seed):
        graph = random_case_graph(seed)
        count = 3 * graph.n
        expected = reference_rr_graphs(graph, count, rng=seed)
        arena = sample_arena(graph, count, rng=seed)
        assert arena.n_samples == count
        for view, (ref_source, ref_adjacency) in zip(arena, expected):
            assert view.source == ref_source
            got = view.adjacency
            # Same discovery order, same keys, same fired-target lists.
            assert list(got) == list(ref_adjacency)
            assert got == ref_adjacency

    def test_restricted_sampling_matches_reference(self, seed):
        graph = random_case_graph(seed)
        rng = np.random.default_rng(20_000 + seed)
        allowed = set(
            int(v) for v in rng.choice(graph.n, size=max(2, graph.n // 2),
                                       replace=False)
        )
        count = 2 * graph.n
        expected = reference_rr_graphs(
            graph, count, rng=seed, allowed=allowed
        )
        arena = sample_arena(graph, count, rng=seed, allowed=allowed)
        for view, (ref_source, ref_adjacency) in zip(arena, expected):
            assert view.source == ref_source
            assert view.adjacency == ref_adjacency
            assert set(view.adjacency) <= allowed

    def test_influence_counts_match_reference(self, seed):
        graph = random_case_graph(seed)
        count = 4 * graph.n
        expected = influence_counts_of(
            reference_rr_graphs(graph, count, rng=seed)
        )
        arena = sample_arena(graph, count, rng=seed)
        assert arena.influence_counts() == expected


@pytest.mark.parametrize("seed", GRAPH_SEEDS)
def test_compressed_cod_three_way(seed):
    """Arena HFS on sampled samples == arena HFS on the reference samples
    == brute-force recount, per query.

    The second arm rebuilds the reference dicts into an arena in
    dictionary order, so it also pins that the evaluator reads sample
    content only, never the sampler's CSR storage order. 42 graphs x 5
    queries = 210 seeded (graph, query) cases, each checked on query
    counts, every top-k threshold, and the qualification verdict.
    """
    graph = random_case_graph(seed)
    hierarchy = agglomerative_hierarchy(graph)
    count = 4 * graph.n
    k_values = [1, 2, 5]

    samples = reference_rr_graphs(graph, count, rng=seed)
    arena = sample_arena(graph, count, rng=seed)
    rebuilt = arena_from_dicts(graph.n, samples)

    for q in _queries_for(graph, seed):
        chain = CommunityChain.from_hierarchy(hierarchy, q)
        via_arena = compressed_cod(graph, chain, k=k_values, rr_graphs=arena)
        via_rebuilt = compressed_cod(graph, chain, k=k_values, rr_graphs=rebuilt)
        member_sets = [set(int(v) for v in chain.members(h))
                       for h in range(len(chain))]
        brute_counts, brute_thresholds = brute_force_cod(
            graph.n, q, member_sets, samples, tuple(k_values)
        )

        assert via_arena.n_samples == via_rebuilt.n_samples == count
        assert via_arena.query_counts == via_rebuilt.query_counts == brute_counts
        assert via_arena.thresholds == via_rebuilt.thresholds == brute_thresholds
        for level in range(len(chain)):
            for k in k_values:
                assert via_arena.qualifies(level, k) == via_rebuilt.qualifies(level, k)


@pytest.mark.parametrize("seed", GRAPH_SEEDS[::6])
def test_himor_matches_brute_force(seed):
    """HIMOR ranks from the tree HFS equal a per-community recount."""
    graph = random_case_graph(seed)
    hierarchy = agglomerative_hierarchy(graph)
    count = 4 * graph.n

    samples = reference_rr_graphs(graph, count, rng=seed)
    arena = sample_arena(graph, count, rng=seed)
    index = HimorIndex.build(graph, hierarchy, rr_graphs=arena)
    expected = brute_force_himor_ranks(hierarchy, samples)

    for v in range(graph.n):
        assert index.ranks_of(v).tolist() == expected[v]
