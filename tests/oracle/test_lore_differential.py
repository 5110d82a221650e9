"""Differential tests: memoized LORE vs the per-query reference.

``lore_chain(memo=...)`` computes an attribute's edge-LCA counts once and
reuses each ``(attribute, C_l)`` local reclustering across query nodes.
Sharing must never change an answer, so every test here runs many queries
through *one* memo (later queries hit what earlier ones built) and
requires the result to equal :func:`reference_lore_chain`, which starts
from scratch for every query: the same ``C_l`` vertex and chain level,
bit-identical scores, and the same members, node levels and depths at
every chain level. The reference weights the whole ``g_l`` edge by edge
and then induces it on ``C_l``; production weights only ``C_l``'s induced
edges, so the weighting tests run every scheme at ``beta`` 0 and 4.
"""

import numpy as np
import pytest

from repro.core.lore import local_recluster_bytes, lore_chain, reclustering_scores
from repro.datasets import load_dataset
from repro.graph.weighting import SCHEMES, AttributeWeighting
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.utils.cache import LRUCache

from tests.oracle.reference import (
    random_case_graph,
    reference_lore_chain,
    reference_reclustering_scores,
    reference_weighted_graph,
)

#: Carrier queries per attribute on the hub-heavy ``pubmed`` analogue.
PUBMED_QUERIES_PER_ATTRIBUTE = 150
#: Carrier queries per attribute under a tight byte budget.
PUBMED_TIGHT_QUERIES_PER_ATTRIBUTE = 50
#: Small registry graphs: (name, scale). Every attribute is queried.
SMALL_REGISTRY = [("cora", 0.1), ("citeseer", 0.1), ("amazon", 0.02), ("lfr", 0.1)]
SMALL_QUERIES_PER_ATTRIBUTE = 12
#: Every weighting scheme with and without an attribute bonus.
WEIGHTINGS = [
    AttributeWeighting(beta=beta, scheme=scheme)
    for scheme in SCHEMES
    for beta in (0.0, 4.0)
]
WEIGHTING_IDS = [f"{w.scheme}-{w.beta:g}" for w in WEIGHTINGS]


def assert_same_lore(got, expected, context) -> None:
    assert got.c_ell_vertex == expected.c_ell_vertex, context
    assert got.c_ell_chain_level == expected.c_ell_chain_level, context
    assert np.array_equal(got.scores, expected.scores), context
    assert len(got.chain) == len(expected.chain), context
    assert np.array_equal(got.chain.node_levels, expected.chain.node_levels), context
    for level in range(len(expected.chain)):
        assert np.array_equal(
            got.chain.members(level), expected.chain.members(level)
        ), (context, level)
        assert got.chain.depth(level) == expected.chain.depth(level), (context, level)


def run_differential(graph, hierarchy, queries, memo, **kwargs):
    """Memoized chains for ``queries`` against the reference, in order."""
    weighted = {}
    for q, attribute in queries:
        if attribute not in weighted:
            weighted[attribute] = reference_weighted_graph(
                graph, attribute, kwargs.get("weighting")
            )
        got = lore_chain(graph, hierarchy, q, attribute, memo=memo, **kwargs)
        expected = reference_lore_chain(
            graph, hierarchy, q, attribute,
            weighted_graph=weighted[attribute], **kwargs,
        )
        assert_same_lore(got, expected, (q, attribute))
        got.chain.validate_nesting()


def carrier_queries(graph, per_attribute, seed):
    rng = np.random.default_rng(seed)
    queries = []
    for attribute in sorted(graph.attribute_universe):
        carriers = rng.permutation(graph.nodes_with_attribute(attribute))
        queries.extend((int(q), attribute) for q in carriers[:per_attribute])
    # Interleave attributes so consecutive queries alternate memo keys.
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


class TestPaperGraph:
    @pytest.mark.parametrize("depth_weighted", [True, False])
    def test_every_node_and_attribute(self, paper_graph, paper_hierarchy,
                                      depth_weighted):
        memo = LRUCache(64, name="lore_local")
        queries = [
            (q, attribute)
            for attribute in sorted(paper_graph.attribute_universe)
            for q in range(paper_graph.n)
        ]
        run_differential(
            paper_graph, paper_hierarchy, queries, memo,
            depth_weighted=depth_weighted,
        )
        assert memo.stats()["hits"] > 0

    def test_tiny_memo_evicts_and_still_matches(self, paper_graph,
                                                paper_hierarchy):
        memo = LRUCache(1, name="lore_local")
        queries = [(q, a) for q in range(paper_graph.n) for a in (0, 1)]
        run_differential(paper_graph, paper_hierarchy, queries, memo)
        assert memo.stats()["evictions"] > 0


@pytest.mark.parametrize("seed", range(42))
def test_random_case_graphs(seed):
    graph = random_case_graph(seed)
    hierarchy = agglomerative_hierarchy(graph)
    memo = LRUCache(64, name="lore_local")
    queries = [
        (q, attribute)
        for q in range(graph.n)
        for attribute in sorted(graph.attribute_universe)
    ]
    run_differential(graph, hierarchy, queries, memo)


@pytest.mark.parametrize("name,scale", SMALL_REGISTRY)
def test_small_registry_graphs(name, scale):
    graph = load_dataset(name, scale=scale, seed=7).graph
    hierarchy = agglomerative_hierarchy(graph)
    memo = LRUCache(64, name="lore_local")
    queries = carrier_queries(graph, SMALL_QUERIES_PER_ATTRIBUTE, seed=3)
    run_differential(graph, hierarchy, queries, memo)
    assert memo.stats()["hits"] > 0


class TestPubmedHubs:
    """The ``cold-hubs`` graph: hub-heavy, with one large recurring ``C_l``."""

    @pytest.fixture(scope="class")
    def pubmed(self):
        graph = load_dataset("pubmed", scale=2.0, seed=7).graph
        return graph, agglomerative_hierarchy(graph)

    def test_carrier_queries(self, pubmed):
        graph, hierarchy = pubmed
        memo = LRUCache(64, name="lore_local")
        queries = carrier_queries(graph, PUBMED_QUERIES_PER_ATTRIBUTE, seed=7)
        run_differential(graph, hierarchy, queries, memo)
        # Counts are built once per attribute; the rest are memo hits.
        assert memo.stats()["hits"] >= len(queries) - len(graph.attribute_universe)

    @pytest.mark.parametrize(
        "whole_graphs,counter", [(1.5, "evictions"), (0.5, "oversized")]
    )
    def test_tight_byte_budget(self, pubmed, whole_graphs, counter):
        # Room for less than two whole-graph reclusterings: large entries
        # evict each other (1.5) or are served uncached (0.5).
        graph, hierarchy = pubmed
        memo = LRUCache(
            None,
            max_bytes=int(whole_graphs * local_recluster_bytes(graph.n)),
            name="lore_local",
        )
        queries = carrier_queries(graph, PUBMED_TIGHT_QUERIES_PER_ATTRIBUTE, seed=5)
        run_differential(graph, hierarchy, queries, memo)
        assert memo.stats()[counter] > 0

    def test_scores_match_per_edge_loop(self, pubmed):
        graph, hierarchy = pubmed
        rng = np.random.default_rng(11)
        for q in rng.choice(graph.n, size=30, replace=False):
            for attribute in sorted(graph.attribute_universe):
                assert np.array_equal(
                    reclustering_scores(graph, hierarchy, int(q), attribute),
                    reference_reclustering_scores(
                        graph, hierarchy, int(q), attribute
                    ),
                )


class TestWeightingSchemes:
    """Every scheme and ``beta``: local weighting == whole-graph-then-cut."""

    @pytest.mark.parametrize("weighting", WEIGHTINGS, ids=WEIGHTING_IDS)
    def test_paper_graph(self, paper_graph, paper_hierarchy, weighting):
        memo = LRUCache(64, name="lore_local")
        queries = [
            (q, attribute)
            for attribute in sorted(paper_graph.attribute_universe)
            for q in range(paper_graph.n)
        ]
        run_differential(
            paper_graph, paper_hierarchy, queries, memo, weighting=weighting
        )

    @pytest.mark.parametrize("weighting", WEIGHTINGS, ids=WEIGHTING_IDS)
    def test_random_case_graphs(self, weighting):
        for seed in range(42):
            graph = random_case_graph(seed)
            hierarchy = agglomerative_hierarchy(graph)
            memo = LRUCache(64, name="lore_local")
            queries = [
                (q, attribute)
                for q in range(graph.n)
                for attribute in sorted(graph.attribute_universe)
            ]
            run_differential(graph, hierarchy, queries, memo, weighting=weighting)

    @pytest.mark.parametrize("weighting", WEIGHTINGS, ids=WEIGHTING_IDS)
    @pytest.mark.parametrize("name,scale", SMALL_REGISTRY)
    def test_small_registry_graphs(self, name, scale, weighting):
        graph = load_dataset(name, scale=scale, seed=7).graph
        hierarchy = agglomerative_hierarchy(graph)
        memo = LRUCache(64, name="lore_local")
        queries = carrier_queries(graph, SMALL_QUERIES_PER_ATTRIBUTE, seed=3)
        run_differential(graph, hierarchy, queries, memo, weighting=weighting)
