"""Unit tests for RR graph sampling (Definitions 2-3) on every arena
sampler, including the Theorem-2 coupling property that compressed COD
evaluation rests on.

The arena's own layout, views and evaluators are pinned in
``tests/influence/test_arena.py``; these tests pin the RR-graph contract
each sampler must uphold.
"""

import numpy as np
import pytest

from repro.errors import InfluenceError
from repro.graph.graph import AttributedGraph
from repro.influence.arena import _normalize_allowed, sample_arena
from repro.influence.estimator import estimate_influences_in_community
from repro.influence.fastsample import sample_arena_fast

from tests.conftest import ARENA_SAMPLERS, arena_from_dicts


#: The samplers that take explicit ``sources`` and an ``allowed`` set
#: (the per-sample-seeded ones derive both from the seed).
STREAM_SAMPLERS = [sample_arena, sample_arena_fast]


class TestRRGraphStructure:
    def test_source_always_in_set(self, paper_graph):
        for draw in ARENA_SAMPLERS.values():
            for rr in draw(paper_graph, 50, 0):
                assert rr.source in rr.adjacency
                assert rr.nodes[0] == rr.source

    def test_adjacency_targets_are_members(self, paper_graph):
        for draw in ARENA_SAMPLERS.values():
            for rr in draw(paper_graph, 50, 1):
                for v, targets in rr.adjacency.items():
                    for u in targets:
                        assert u in rr.adjacency

    def test_all_members_reachable_from_source(self, paper_graph):
        for draw in ARENA_SAMPLERS.values():
            for rr in draw(paper_graph, 50, 2):
                reached = rr.reachable_within(set(rr.adjacency))
                assert reached == set(rr.adjacency)

    def test_edges_exist_in_graph(self, paper_graph):
        for draw in ARENA_SAMPLERS.values():
            for rr in draw(paper_graph, 50, 3):
                for v, targets in rr.adjacency.items():
                    for u in targets:
                        assert paper_graph.has_edge(v, u)

    def test_counts(self, paper_graph):
        for draw in ARENA_SAMPLERS.values():
            for rr in draw(paper_graph, 20, 0):
                assert rr.n_nodes == len(rr.adjacency)
                assert rr.n_edges == sum(len(t) for t in rr.adjacency.values())

    def test_fixed_source(self, paper_graph):
        for sample in STREAM_SAMPLERS:
            assert sample(paper_graph, 1, rng=0, sources=[7]).view(0).source == 7

    def test_bad_source_rejected(self, paper_graph):
        for sample in STREAM_SAMPLERS:
            with pytest.raises(InfluenceError):
                sample(paper_graph, 1, sources=[99])

    def test_p_one_reaches_component(self):
        # Every node has degree 1, so each edge fires with 1/deg = 1 and a
        # sample covers its source's whole component.
        g = AttributedGraph(6, [(0, 1), (2, 3), (4, 5)])
        for draw in ARENA_SAMPLERS.values():
            for rr in draw(g, 10, 0):
                assert sorted(rr.adjacency) == sorted({rr.source, rr.source ^ 1})


class TestRestrictedSampling:
    def test_members_confined(self, paper_graph):
        allowed = {0, 1, 2, 3}
        for sample in STREAM_SAMPLERS:
            for rr in sample(paper_graph, 50, rng=4, allowed=allowed):
                assert set(rr.adjacency) <= allowed
                assert rr.source in allowed

    def test_source_outside_rejected(self, paper_graph):
        for sample in STREAM_SAMPLERS:
            with pytest.raises(InfluenceError):
                sample(paper_graph, 1, sources=[9], allowed={0, 1})

    def test_empty_allowed_set_rejected(self, paper_graph):
        # Drawing sources from no nodes is an InfluenceError, not numpy's
        # raw ValueError; an empty draw over no nodes stays valid.
        for sample in STREAM_SAMPLERS:
            with pytest.raises(InfluenceError, match="empty allowed"):
                sample(paper_graph, 3, rng=0, allowed=set())
            assert sample(paper_graph, 0, rng=0, allowed=set()).n_samples == 0
        with pytest.raises(InfluenceError, match="empty allowed"):
            estimate_influences_in_community(paper_graph, [], 5, rng=0)

    def test_probabilities_from_original_graph(self, paper_graph):
        # Restricted to {4, 5}: edge (4 <- 5) must fire with 1/deg_g(5),
        # not 1/deg_sub(5) = 1. deg_g(5) = 3 (neighbors 3, 4, 9).
        trials = 6000
        for sample in STREAM_SAMPLERS:
            arena = sample(
                paper_graph, trials, rng=5, sources=[5] * trials, allowed={4, 5}
            )
            hits = sum(1 for rr in arena if 4 in rr.adjacency)
            assert hits / trials == pytest.approx(1 / 3, abs=0.03)


class TestSampleMany:
    def test_count(self, paper_graph):
        for draw in ARENA_SAMPLERS.values():
            assert draw(paper_graph, 25, 0).n_samples == 25

    def test_sources_uniform(self, paper_graph):
        for draw in ARENA_SAMPLERS.values():
            sources = draw(paper_graph, 5000, 1).sources
            values, counts = np.unique(sources, return_counts=True)
            assert len(values) == 10
            assert counts.min() > 0.6 * counts.max()

    def test_explicit_sources(self, paper_graph):
        for sample in STREAM_SAMPLERS:
            arena = sample(paper_graph, 3, rng=0, sources=[1, 1, 2])
            assert arena.sources.tolist() == [1, 1, 2]

    def test_source_count_mismatch_rejected(self, paper_graph):
        for sample in STREAM_SAMPLERS:
            with pytest.raises(InfluenceError):
                sample(paper_graph, 3, sources=[0])

    def test_negative_count_rejected(self, paper_graph):
        for draw in ARENA_SAMPLERS.values():
            with pytest.raises(InfluenceError):
                draw(paper_graph, -1, 0)


class TestTheorem2Coupling:
    """Induced RR-graph reachability must match direct restricted sampling
    in distribution (Theorem 2): for a community C, the probability that a
    node is reachable from a C-source within the induced RR graph equals
    the probability it appears in a restricted RR sample from a C-source.
    Both checks run on every arena sampler.

    Global samples draw uniform sources, so those rooted in C are uniform
    over C — the source law of restricted sampling."""

    def test_induced_matches_restricted_distribution(self, paper_graph):
        community = {0, 1, 2, 3, 6, 7}  # C3 of the worked example
        target = 7
        trials = 20000

        restricted = sample_arena(paper_graph, trials, rng=7, allowed=community)
        restricted_rate = sum(
            1 for rr in restricted if target in rr.adjacency
        ) / trials

        for name, draw in ARENA_SAMPLERS.items():
            induced = [
                rr for rr in draw(paper_graph, trials, 6)
                if rr.source in community
            ]
            induced_rate = sum(
                1 for rr in induced if target in rr.reachable_within(community)
            ) / len(induced)
            assert induced_rate == pytest.approx(restricted_rate, abs=0.02), name

    def test_flips_toward_active_nodes_are_recorded(self):
        # One edge between two degree-1 nodes fires with p = 1 both ways:
        # every sample activates both nodes and must record *both*
        # directed edges, including the flip back toward the already-active
        # source — dropping it would break induced reachability for
        # sub-communities.
        g = AttributedGraph(2, [(0, 1)])
        for name, draw in ARENA_SAMPLERS.items():
            arena = draw(g, 20, 0)
            assert [rr.n_edges for rr in arena] == [2] * 20, name


class TestReachableWithin:
    def test_source_outside_is_empty(self):
        arena = arena_from_dicts(2, [(0, {0: [1], 1: []})])
        assert arena.reachable_within(0, {1}) == set()

    def test_path_cut(self):
        arena = arena_from_dicts(3, [(0, {0: [1], 1: [2], 2: []})])
        assert arena.reachable_within(0, {0, 2}) == {0}
        assert arena.reachable_within(0, {0, 1, 2}) == {0, 1, 2}

    def test_alternative_path_via_extra_edge(self):
        # 0 -> 1 -> 2 and the direct shortcut 0 -> 2: cutting node 1 keeps
        # 2 reachable only through the recorded shortcut.
        arena = arena_from_dicts(3, [(0, {0: [1, 2], 1: [2], 2: []})])
        assert arena.reachable_within(0, {0, 2}) == {0, 2}

    @pytest.mark.parametrize(
        "dtype", [np.int64, np.int32, np.uint8, np.intp]
    )
    def test_ndarray_allowed_matches_set(self, dtype):
        # Regression: chain.members(level) hands reachable_within a numpy
        # array. Membership tests against raw arrays are O(n) *and* can
        # miss (python int vs np scalar hashing) — the array must be
        # normalized to a set of python ints first, for any integer dtype.
        arena = arena_from_dicts(
            4, [(0, {0: [1, 2], 1: [2], 2: [3], 3: []})]
        )
        for allowed in ({0, 2}, {0, 1, 2, 3}, {0, 3}, {1, 2, 3}):
            arr = np.asarray(sorted(allowed), dtype=dtype)
            assert arena.reachable_within(0, arr) == \
                arena.reachable_within(0, allowed)

    def test_generator_allowed_matches_set(self):
        arena = arena_from_dicts(3, [(0, {0: [1], 1: [2], 2: []})])
        assert arena.reachable_within(0, iter([0, 1])) == {0, 1}

    def test_set_input_passes_through_unconverted(self):
        allowed = {0, 1, 2}
        assert _normalize_allowed(allowed) is allowed
        frozen = frozenset(allowed)
        assert _normalize_allowed(frozen) is frozen
        converted = _normalize_allowed(np.asarray([0, 1, 2]))
        assert converted == allowed
        assert all(type(v) is int for v in converted)
