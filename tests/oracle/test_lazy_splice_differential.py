"""Differential tests: LORE's lazily spliced chain vs the eager reference.

:func:`~repro.core.lore.lore_chain` returns before it splices ``H_l(q)``;
:attr:`LoreResult.chain` splices it on first read from what LORE holds:
the hierarchy, ``H(q)``, ``q``'s path in the local reclustering and
``C_l``. That chain must be the one :func:`reference_lore_chain` builds
eagerly from member lists: level array, sizes and depths array-equal,
and :attr:`LoreResult.chain_length` its length before it is built.
Cases cover random graphs and ``amazon``/``pubmed`` at scale 0.2, every
attribute, both ``depth_weighted`` settings, ``C_l`` forced to the root,
and a pickle round trip of an unbuilt result. A guard checks that a
pooled CODL answer never builds the chain and that CODL- does.
"""

import pickle

import numpy as np
import pytest

import repro.core.lore as lore_module
from repro.core.lore import lore_chain
from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.datasets import load_dataset
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.serving.server import CODServer
from repro.utils.cache import LRUCache

import tests.oracle.reference as reference_module
from tests.oracle.reference import (
    random_case_graph,
    reference_lore_chain,
    reference_weighted_graph,
)

#: Carrier queries per attribute on the benchmark graphs.
QUERIES_PER_ATTRIBUTE = 12


def assert_same_splice(got, expected, context) -> None:
    """``got`` (lazy) spliced to ``expected``'s (eager) chain."""
    assert got.c_ell_vertex == expected.c_ell_vertex, context
    assert got.c_ell_chain_level == expected.c_ell_chain_level, context
    assert got.chain_length == len(expected.chain), context
    assert got._chain is None, context
    chain = got.chain
    assert got.chain is chain, context
    want = expected.chain
    np.testing.assert_array_equal(chain.node_levels, want.node_levels, err_msg=str(context))
    np.testing.assert_array_equal(chain.sizes, want.sizes, err_msg=str(context))
    np.testing.assert_array_equal(
        [chain.depth(level) for level in range(len(chain))],
        [want.depth(level) for level in range(len(want))],
        err_msg=str(context),
    )
    chain.validate_nesting()


def run_splices(graph, hierarchy, queries, depth_weighted) -> None:
    """Lazy chains for ``queries`` through one memo against the reference."""
    memo = LRUCache(64, name="lore_local")
    weighted = {}
    for q, attribute in queries:
        if attribute not in weighted:
            weighted[attribute] = reference_weighted_graph(graph, attribute)
        got = lore_chain(
            graph, hierarchy, q, attribute,
            depth_weighted=depth_weighted, memo=memo,
        )
        expected = reference_lore_chain(
            graph, hierarchy, q, attribute,
            weighted_graph=weighted[attribute], depth_weighted=depth_weighted,
        )
        assert_same_splice(got, expected, (q, attribute, depth_weighted))


@pytest.fixture
def root_floor(monkeypatch):
    """Make LORE, production and reference alike, pick the root as ``C_l``."""

    def select(scores, path):
        return path[-1], len(path) - 1

    monkeypatch.setattr(lore_module, "select_reclustering_community", select)
    monkeypatch.setattr(reference_module, "select_reclustering_community", select)


@pytest.mark.parametrize("depth_weighted", [True, False])
@pytest.mark.parametrize("seed", range(16))
def test_random_graphs(seed, depth_weighted):
    graph = random_case_graph(seed)
    hierarchy = agglomerative_hierarchy(graph)
    queries = [
        (q, attribute)
        for q in range(graph.n)
        for attribute in sorted(graph.attribute_universe)
    ]
    run_splices(graph, hierarchy, queries, depth_weighted)


@pytest.mark.parametrize("seed", range(8))
def test_root_floor(seed, root_floor):
    graph = random_case_graph(seed)
    hierarchy = agglomerative_hierarchy(graph)
    queries = [
        (q, attribute)
        for q in range(graph.n)
        for attribute in sorted(graph.attribute_universe)
    ]
    run_splices(graph, hierarchy, queries, True)
    lore = lore_chain(graph, hierarchy, 0, queries[0][1])
    assert lore.c_ell_vertex == hierarchy.root
    assert len(lore.local.to_parent) == graph.n


@pytest.mark.parametrize("depth_weighted", [True, False])
@pytest.mark.parametrize("name", ["amazon", "pubmed"])
def test_benchmark_graphs(name, depth_weighted):
    graph = load_dataset(name, scale=0.2, seed=7).graph
    hierarchy = agglomerative_hierarchy(graph)
    rng = np.random.default_rng(3)
    queries = []
    for attribute in sorted(graph.attribute_universe):
        carriers = rng.permutation(graph.nodes_with_attribute(attribute))
        queries.extend((int(q), attribute) for q in carriers[:QUERIES_PER_ATTRIBUTE])
    run_splices(graph, hierarchy, queries, depth_weighted)


def test_unbuilt_result_pickles(paper_graph, paper_hierarchy):
    lore = lore_chain(paper_graph, paper_hierarchy, 0, 0)
    copy = pickle.loads(pickle.dumps(lore))
    assert copy._chain is None
    np.testing.assert_array_equal(copy.chain.node_levels, lore.chain.node_levels)
    np.testing.assert_array_equal(copy.chain.sizes, lore.chain.sizes)
    assert copy.chain_length == len(lore.chain)


def test_pooled_codl_answer_leaves_the_chain_unbuilt():
    """CODL over a pool reads ``C_l``, its level and the reclustering only;
    CODL- evaluates the whole chain and splices it."""
    graph = load_dataset("pubmed", scale=0.2, seed=7).graph
    pool = SharedSamplePool(graph, theta=2, seed=5, per_sample_seeds=True)
    server = CODServer(graph, theta=2, seed=5, pool=pool)
    rng = np.random.default_rng(1)
    local_scans = 0
    for attribute in sorted(graph.attribute_universe):
        for q in rng.permutation(graph.nodes_with_attribute(attribute))[:6].tolist():
            answer = server.answer(CODQuery(q, attribute, 5))
            assert answer.rung == "CODL"
            lore = server._lore_cache.get((q, attribute))
            assert lore._chain is None, (q, attribute)
            local_scans += lore.c_ell_chain_level > 0
            assert answer.chain_length == lore.chain_length
            server.run_rung("CODL-", q, attribute, [5])
            assert lore._chain is not None
            assert len(lore.chain) == lore.chain_length
    assert local_scans > 0
    assert server.health()["caches"]["restricted"]["misses"] > 0
