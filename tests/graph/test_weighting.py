"""Unit tests for the attribute-aware edge weighting (g_l).

The vectorized weighting (:meth:`AttributeWeighting.edge_weights`) and the
local ``g_l`` builder (:func:`attribute_weighted_subgraph`) are checked
bit for bit against the frozen per-edge oracle in
:mod:`tests.oracle.reference`: the whole ``g_l`` weighted one edge at a
time, then induced on the member set with its weights kept.
"""

import numpy as np
import pytest

from repro.core.lore import lore_chain
from repro.datasets import load_dataset
from repro.errors import GraphError, InfluenceError, NodeNotFoundError
from repro.graph.graph import AttributedGraph
from repro.graph.weighting import (
    SCHEMES,
    AttributeWeighting,
    attribute_weighted_graph,
    attribute_weighted_subgraph,
)
from repro.hierarchy.nnchain import agglomerative_hierarchy
from tests.oracle.reference import (
    reference_edge_weight,
    reference_induced_subgraph,
    reference_weighted_graph,
)

#: Every scheme with and without a bonus, plus a non-integral beta.
WEIGHTINGS = [
    AttributeWeighting(beta=beta, scheme=scheme)
    for scheme in SCHEMES
    for beta in (0.0, 4.0, 0.3)
]
WEIGHTING_IDS = [f"{w.scheme}-{w.beta:g}" for w in WEIGHTINGS]


def assert_same_view(got, expected) -> None:
    assert np.array_equal(got.to_parent, expected.to_parent)
    assert got.to_sub == expected.to_sub
    assert got.graph.n == expected.graph.n
    assert got.graph.m == expected.graph.m
    assert got.graph.is_weighted and expected.graph.is_weighted
    for v in range(expected.graph.n):
        assert np.array_equal(
            got.graph.neighbors(v), expected.graph.neighbors(v)
        ), v
        assert np.array_equal(
            got.graph.neighbor_weights(v), expected.graph.neighbor_weights(v)
        ), v
        assert got.graph.attributes_of(v) == expected.graph.attributes_of(v)
    assert got.graph.attribute_universe == expected.graph.attribute_universe
    for attribute in expected.graph.attribute_universe:
        assert np.array_equal(
            got.graph.nodes_with_attribute(attribute),
            expected.graph.nodes_with_attribute(attribute),
        )


def assert_matches_reference(graph, members, attribute, weighting) -> None:
    got = attribute_weighted_subgraph(graph, members, attribute, weighting)
    expected = reference_induced_subgraph(
        reference_weighted_graph(graph, attribute, weighting), members
    )
    assert_same_view(got, expected)


def random_graph(seed: int) -> AttributedGraph:
    """Random topology (possibly disconnected) with sparse attributes;
    some nodes carry none, so ``jaccard`` meets empty unions."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    edges = [
        (int(u), int(v))
        for u, v in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        if u != v
    ]
    attributes = [
        [int(a) for a in np.flatnonzero(rng.random(4) < 0.35)] for _ in range(n)
    ]
    return AttributedGraph(n, edges, attributes=attributes)


class TestAttributeWeighting:
    def test_defaults(self):
        w = AttributeWeighting()
        assert w.beta == 4.0
        assert w.scheme == "both_endpoints"

    def test_negative_beta_rejected(self):
        with pytest.raises(InfluenceError):
            AttributeWeighting(beta=-1.0)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(InfluenceError):
            AttributeWeighting(scheme="nope")

    def test_both_endpoints_bonus(self, paper_graph):
        w = AttributeWeighting(beta=2.0, scheme="both_endpoints")
        # (3, 7) is DB-DB.
        assert w.edge_weight(paper_graph, 3, 7, 0) == 3.0
        # (0, 3) is ML-DB: no bonus.
        assert w.edge_weight(paper_graph, 0, 3, 0) == 1.0

    def test_endpoint_average_partial_credit(self, paper_graph):
        w = AttributeWeighting(beta=2.0, scheme="endpoint_average")
        assert w.edge_weight(paper_graph, 3, 7, 0) == 3.0
        assert w.edge_weight(paper_graph, 0, 3, 0) == 2.0
        assert w.edge_weight(paper_graph, 0, 1, 0) == 1.0

    def test_jaccard(self, paper_graph):
        w = AttributeWeighting(beta=2.0, scheme="jaccard")
        # Both DB-only: jaccard 1.
        assert w.edge_weight(paper_graph, 3, 7, 0) == 3.0
        # DB vs ML: jaccard 0.
        assert w.edge_weight(paper_graph, 0, 3, 0) == 1.0

    def test_beta_zero_is_unweighted(self, paper_graph):
        w = AttributeWeighting(beta=0.0)
        for u, v in paper_graph.edges():
            assert w.edge_weight(paper_graph, u, v, 0) == 1.0


class TestAttributeWeightedGraph:
    def test_topology_unchanged(self, paper_graph):
        g = attribute_weighted_graph(paper_graph, 0)
        assert g.n == paper_graph.n
        assert set(g.edges()) == set(paper_graph.edges())

    def test_query_attributed_edges_boosted(self, paper_graph):
        g = attribute_weighted_graph(
            paper_graph, 0, AttributeWeighting(beta=2.0, scheme="both_endpoints")
        )
        assert g.edge_weight(2, 4) == 3.0
        assert g.edge_weight(3, 5) == 3.0
        assert g.edge_weight(3, 7) == 3.0
        assert g.edge_weight(0, 1) == 1.0

    def test_result_is_weighted(self, paper_graph):
        assert attribute_weighted_graph(paper_graph, 0).is_weighted

    def test_attributes_preserved(self, paper_graph):
        g = attribute_weighted_graph(paper_graph, 0)
        for v in range(g.n):
            assert g.attributes_of(v) == paper_graph.attributes_of(v)


class TestEdgeWeights:
    @pytest.mark.parametrize("weighting", WEIGHTINGS, ids=WEIGHTING_IDS)
    def test_every_edge_matches_scalar_formula(self, paper_graph, weighting):
        for seed, graph in [(None, paper_graph)] + [
            (seed, random_graph(seed)) for seed in range(20)
        ]:
            edges = list(graph.edges())
            u = np.asarray([e[0] for e in edges], dtype=np.int64)
            v = np.asarray([e[1] for e in edges], dtype=np.int64)
            for attribute in range(-1, 5):
                got = weighting.edge_weights(graph, u, v, attribute)
                expected = [
                    reference_edge_weight(graph, a, b, attribute, weighting)
                    for a, b in edges
                ]
                assert got.dtype == np.float64
                assert got.tolist() == expected, (seed, attribute)
                # Either orientation weighs the same.
                assert np.array_equal(
                    weighting.edge_weights(graph, v, u, attribute), got
                )
                for (a, b), w in zip(edges, expected):
                    assert weighting.edge_weight(graph, a, b, attribute) == w

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_attribute_without_carriers_gives_ones(self, paper_graph, scheme):
        weighting = AttributeWeighting(beta=4.0, scheme=scheme)
        edges = list(paper_graph.edges())
        u = np.asarray([e[0] for e in edges], dtype=np.int64)
        v = np.asarray([e[1] for e in edges], dtype=np.int64)
        weights = weighting.edge_weights(paper_graph, u, v, 99)
        if scheme != "jaccard":  # jaccard ignores the query attribute
            assert weights.tolist() == [1.0] * len(edges)
        view = attribute_weighted_subgraph(paper_graph, range(10), 99, weighting)
        assert view.graph.is_weighted
        if scheme != "jaccard":
            for node in range(view.graph.n):
                assert set(view.graph.neighbor_weights(node).tolist()) <= {1.0}

    def test_no_edges(self, paper_graph):
        empty = np.empty(0, dtype=np.int64)
        for scheme in SCHEMES:
            weights = AttributeWeighting(scheme=scheme).edge_weights(
                paper_graph, empty, empty, 0
            )
            assert weights.shape == (0,) and weights.dtype == np.float64

    def test_scalar_rejects_unknown_nodes(self, paper_graph):
        with pytest.raises(NodeNotFoundError):
            AttributeWeighting().edge_weight(paper_graph, 0, 10, 0)
        with pytest.raises(NodeNotFoundError):
            AttributeWeighting().edge_weight(paper_graph, -1, 0, 0)


class TestAttributeWeightedSubgraph:
    @pytest.mark.parametrize("weighting", WEIGHTINGS, ids=WEIGHTING_IDS)
    def test_paper_graph_member_sets(self, paper_graph, paper_hierarchy,
                                     weighting):
        member_sets = [range(10), [4], [3, 7, 5, 9], [0, 1, 2, 3], [0, 9]]
        member_sets += [
            paper_hierarchy.members(vertex)
            for vertex in range(paper_hierarchy.n_vertices)
        ]
        for members in member_sets:
            for attribute in (0, 1, 99):
                assert_matches_reference(paper_graph, members, attribute, weighting)

    @pytest.mark.parametrize("weighting", WEIGHTINGS, ids=WEIGHTING_IDS)
    def test_random_graphs_and_member_sets(self, weighting):
        for seed in range(40):
            graph = random_graph(seed)
            rng = np.random.default_rng(1000 + seed)
            member_sets = [
                [int(rng.integers(0, graph.n))],  # a single node
                list(range(graph.n)),
                # A random subset, usually disconnected in the subgraph.
                rng.permutation(graph.n)[: int(rng.integers(1, graph.n + 1))],
            ]
            for members in member_sets:
                for attribute in range(4):
                    assert_matches_reference(graph, members, attribute, weighting)

    def test_whole_graph_is_attribute_weighted_graph(self, paper_graph):
        for weighting in WEIGHTINGS:
            got = attribute_weighted_graph(paper_graph, 0, weighting)
            expected = reference_weighted_graph(paper_graph, 0, weighting)
            assert list(got.edges()) == list(expected.edges())
            for v in range(paper_graph.n):
                assert np.array_equal(
                    got.neighbor_weights(v), expected.neighbor_weights(v)
                )

    def test_unsorted_members_are_relabeled_in_id_order(self, paper_graph):
        view = attribute_weighted_subgraph(paper_graph, [7, 3, 5], 0)
        assert view.to_parent.tolist() == [3, 5, 7]
        assert view.to_sub == {3: 0, 5: 1, 7: 2}

    def test_bad_member_sets_rejected(self, paper_graph):
        with pytest.raises(GraphError, match="duplicate"):
            attribute_weighted_subgraph(paper_graph, [1, 1, 2], 0)
        with pytest.raises(GraphError, match="empty"):
            attribute_weighted_subgraph(paper_graph, [], 0)
        with pytest.raises(NodeNotFoundError):
            attribute_weighted_subgraph(paper_graph, [3, 10], 0)
        with pytest.raises(NodeNotFoundError):
            attribute_weighted_subgraph(paper_graph, [-1, 3], 0)


class TestAmazonCells:
    """The ``live-skewed`` graph: the ``C_l`` sets LORE actually reclusters."""

    @pytest.fixture(scope="class")
    def amazon(self):
        graph = load_dataset("amazon", scale=2.5, seed=7).graph
        hierarchy = agglomerative_hierarchy(graph)
        rng = np.random.default_rng(5)
        c_ells: dict[int, set[int]] = {}
        for attribute in sorted(graph.attribute_universe)[:4]:
            carriers = rng.permutation(graph.nodes_with_attribute(attribute))
            for q in carriers[:6].tolist():
                result = lore_chain(graph, hierarchy, q, attribute)
                c_ells.setdefault(attribute, set()).add(result.c_ell_vertex)
        return graph, hierarchy, c_ells

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_c_ell_subgraphs_match_reference(self, amazon, scheme):
        graph, hierarchy, c_ells = amazon
        weighting = AttributeWeighting(beta=4.0, scheme=scheme)
        for attribute, vertices in c_ells.items():
            expected_graph = reference_weighted_graph(graph, attribute, weighting)
            for vertex in sorted(vertices):
                members = hierarchy.members(vertex)
                got = attribute_weighted_subgraph(
                    graph, members, attribute, weighting
                )
                assert_same_view(
                    got, reference_induced_subgraph(expected_graph, members)
                )
