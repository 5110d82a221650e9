"""Differential tests: level-array chains vs the frozen member-list chain.

``CommunityChain`` stores only a node -> level array, the per-level sizes
and the per-level depths; every constructor paints the levels from
leaf-order slices (:meth:`CommunityHierarchy.leaf_levels`) and
``members(level)`` is derived on demand. :class:`ReferenceChain` keeps
the old form: one sorted member array per level, built with
``np.unique`` from explicit member lists or with one scalar
``lca(u, q)`` per node. Every chain here must give the reference's node
levels, sizes, depths and length, and its members at every level. The
contract of ``members`` is ascending node ids; the reference's
``from_hierarchy`` keeps the hierarchy's DFS order, so those members are
compared after sorting. Every truncation through ``prefix`` must agree
the same way.
"""

import numpy as np
import pytest

from repro.core.lore import lore_chain
from repro.datasets import load_dataset
from repro.errors import HierarchyError
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.utils.cache import LRUCache

from tests.oracle.reference import ReferenceChain, random_case_graph
from tests.oracle.test_index_build_differential import random_hierarchy
from tests.oracle.test_lore_differential import carrier_queries

#: Carrier queries per attribute on the hub-heavy ``pubmed`` analogue.
PUBMED_QUERIES_PER_ATTRIBUTE = 150
RANDOM_SEEDS = range(42)


def assert_same_chain(got, expected, context, sort_expected=False) -> None:
    assert len(got) == len(expected), context
    assert np.array_equal(got.node_levels, expected.node_levels), context
    assert np.array_equal(got.sizes, expected.sizes), context
    for level in range(len(expected)):
        assert got.depth(level) == expected.depth(level), (context, level)
        want = expected.members(level)
        if sort_expected:
            want = np.sort(want)
        assert np.array_equal(got.members(level), want), (context, level)
    got.validate_nesting()


def assert_same_prefixes(got, expected, context, sort_expected=False) -> None:
    for length in range(1, len(expected) + 1):
        assert_same_chain(
            got.prefix(length), expected.prefix(length), (context, length),
            sort_expected=sort_expected,
        )


# ----------------------------------------------------------------- LORE


def stitched_reference(hierarchy, q, lore, memo, attribute) -> ReferenceChain:
    """``H_l(q)`` assembled from explicit member lists.

    Reads the memoized local reclustering of ``C_l`` that produced
    ``lore``, so only the chain assembly differs from production.
    """
    to_parent, local = memo.get((attribute, lore.c_ell_vertex))
    to_sub = {int(v): i for i, v in enumerate(to_parent)}
    c_ell = lore.c_ell_vertex
    c_ell_size = hierarchy.size(c_ell)
    member_lists, depths = [], []
    for vertex in local.path_communities(to_sub[q]):
        if local.size(vertex) >= c_ell_size:
            continue
        member_lists.append(to_parent[local.members(vertex)])
        depths.append(hierarchy.depth(c_ell) + local.depth(vertex) - 1)
    for vertex in [c_ell, *hierarchy.ancestors(c_ell)]:
        member_lists.append(hierarchy.members(vertex))
        depths.append(hierarchy.depth(vertex))
    return ReferenceChain.from_member_lists(hierarchy.n_leaves, q, member_lists, depths)


def run_lore(graph, hierarchy, queries, memo) -> None:
    for q, attribute in queries:
        lore = lore_chain(graph, hierarchy, q, attribute, memo=memo)
        expected = stitched_reference(hierarchy, q, lore, memo, attribute)
        assert_same_chain(lore.chain, expected, (q, attribute))
        assert_same_prefixes(lore.chain, expected, (q, attribute))
        assert lore.chain.sizes[lore.c_ell_chain_level] == hierarchy.size(
            lore.c_ell_vertex
        )


def test_lore_paper_graph(paper_graph, paper_hierarchy):
    memo = LRUCache(64, name="lore_local")
    queries = [
        (q, attribute)
        for attribute in sorted(paper_graph.attribute_universe)
        for q in range(paper_graph.n)
    ]
    run_lore(paper_graph, paper_hierarchy, queries, memo)
    assert memo.stats()["hits"] > 0


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_lore_random_case_graphs(seed):
    graph = random_case_graph(seed)
    hierarchy = agglomerative_hierarchy(graph)
    memo = LRUCache(64, name="lore_local")
    queries = [
        (q, attribute)
        for q in range(graph.n)
        for attribute in sorted(graph.attribute_universe)
    ]
    run_lore(graph, hierarchy, queries, memo)


class TestPubmedHubs:
    """The ``cold-hubs`` graph: hub-heavy, with one large recurring ``C_l``."""

    @pytest.fixture(scope="class")
    def pubmed(self):
        graph = load_dataset("pubmed", scale=2.0, seed=7).graph
        return graph, agglomerative_hierarchy(graph)

    def test_lore_carrier_queries(self, pubmed):
        graph, hierarchy = pubmed
        memo = LRUCache(64, name="lore_local")
        queries = carrier_queries(graph, PUBMED_QUERIES_PER_ATTRIBUTE, seed=7)
        assert len(queries) == 450
        run_lore(graph, hierarchy, queries, memo)
        assert memo.stats()["hits"] >= len(queries) - len(graph.attribute_universe)

    def test_from_hierarchy_sampled_queries(self, pubmed):
        graph, hierarchy = pubmed
        rng = np.random.default_rng(5)
        for q in rng.choice(graph.n, size=40, replace=False).tolist():
            assert_same_chain(
                CommunityChain.from_hierarchy(hierarchy, q),
                ReferenceChain.from_hierarchy(hierarchy, q),
                q, sort_expected=True,
            )


# --------------------------------------------------------- from_hierarchy


def run_from_hierarchy(hierarchy: CommunityHierarchy) -> None:
    rebuilt = CommunityHierarchy.from_parents(hierarchy.n_leaves, hierarchy.parents)
    for h in (hierarchy, rebuilt):
        for q in range(h.n_leaves):
            got = CommunityChain.from_hierarchy(h, q)
            expected = ReferenceChain.from_hierarchy(h, q)
            assert_same_chain(got, expected, q, sort_expected=True)
            assert_same_prefixes(got, expected, q, sort_expected=True)


def test_from_hierarchy_paper(paper_hierarchy):
    run_from_hierarchy(paper_hierarchy)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_from_hierarchy_clustered(seed):
    run_from_hierarchy(agglomerative_hierarchy(random_case_graph(seed)))


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_from_hierarchy_random_trees(seed):
    rng = np.random.default_rng(seed)
    run_from_hierarchy(random_hierarchy(int(rng.integers(2, 90)), rng))


@pytest.mark.parametrize("n", [2, 3, 40])
def test_from_hierarchy_caterpillar(n):
    # The most skewed tree: every merge adds one leaf, so H(0) has n - 1
    # levels and each ring holds a single node.
    merges = [[0, 1]] + [[n + t, t + 2] for t in range(n - 2)]
    run_from_hierarchy(CommunityHierarchy.from_merges(n, merges))


def test_single_leaf_hierarchy_rejected():
    hierarchy = CommunityHierarchy.from_parents(1, [-1])
    for build in (CommunityChain.from_hierarchy, ReferenceChain.from_hierarchy):
        with pytest.raises(HierarchyError, match="no ancestor"):
            build(hierarchy, 0)
