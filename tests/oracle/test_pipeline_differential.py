"""Differential tests: the pipelines vs their frozen evaluating versions.

``CODU``, ``CODLMinus`` and ``CODL`` are adapters over a
:class:`~repro.serving.server.CODServer` without a sample pool: each
answers through the server rung of its name. Before, every pipeline
sampled, evaluated, scanned the HIMOR index and drew its restricted
fallback itself. Those versions are frozen in ``tests/oracle/reference.py``
(:class:`ReferenceCODU`, :class:`ReferenceCODLMinus`,
:class:`ReferenceCODL`). Given the same seed and the same call sequence,
adapter and reference must return equal member arrays (or both ``None``)
and equal chain lengths, on the paper graph, a graph whose query node
hangs directly off the root, and three registry graphs at scale 0.5.
"""

import numpy as np
import pytest

from repro.core.lore import lore_chain
from repro.core.pipeline import CODL, CODU, CODLMinus
from repro.core.problem import CODQuery
from repro.datasets.queries import generate_queries
from repro.datasets.registry import load_dataset
from repro.errors import QueryError
from repro.graph.graph import AttributedGraph

from tests.conftest import PAPER_ATTRIBUTES, PAPER_EDGES
from tests.oracle.reference import (
    ReferenceCODL,
    ReferenceCODLMinus,
    ReferenceCODU,
    reference_himor_cod,
)

SEED = 11
KS = [1, 2, 3, 4, 5]
PAIRS = {
    "CODU": (CODU, ReferenceCODU),
    "CODL-": (CODLMinus, ReferenceCODLMinus),
    "CODL": (CODL, ReferenceCODL),
}


def _paper_graph() -> AttributedGraph:
    attrs = [PAPER_ATTRIBUTES[v] for v in range(10)]
    return AttributedGraph(10, PAPER_EDGES, attributes=attrs)


def _pendant_graph() -> AttributedGraph:
    # A 3-node path: node 2 joins {0, 1} only at the root, so LORE picks
    # C_l = root and nothing reclustered lies strictly inside it below q.
    return AttributedGraph(3, [(0, 1), (1, 2)], attributes=[[0], [0], [0]])


def _registry(name: str):
    return lambda: load_dataset(name, scale=0.5, seed=7).graph


#: name -> (graph factory, theta)
GRAPHS = {
    "paper": (_paper_graph, 40),
    "pendant": (_pendant_graph, 40),
    "cora": (_registry("cora"), 4),
    "pubmed": (_registry("pubmed"), 4),
    "amazon": (_registry("amazon"), 4),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def case(request):
    graph_of, theta = GRAPHS[request.param]
    graph = graph_of()
    if graph.n <= 10:
        queries = [
            CODQuery(v, min(graph.attributes_of(v)), 3)
            for v in range(graph.n)
            if graph.attributes_of(v)
        ]
    else:
        queries = generate_queries(graph, count=4, k=3, rng=3)
    return request.param, graph, theta, queries


def _pair(method: str, graph: AttributedGraph, theta: int):
    adapter, reference = PAIRS[method]
    return adapter(graph, theta=theta, seed=SEED), reference(
        graph, theta=theta, seed=SEED
    )


def assert_same_result(actual, expected) -> None:
    assert actual.method == expected.method
    assert actual.query == expected.query
    assert actual.chain_length == expected.chain_length
    if expected.members is None:
        assert actual.members is None, actual.query
    else:
        assert actual.members is not None, actual.query
        assert np.array_equal(actual.members, expected.members), actual.query


def assert_same_multi(actual: dict, expected: dict) -> None:
    assert list(actual) == list(expected)
    for k in expected:
        assert_same_result(actual[k], expected[k])


def _scan(pipeline: CODL, node: int, attribute: int):
    """``(lore, resolved per k in KS)`` of Algorithm 3's index scan."""
    lore = lore_chain(
        pipeline.graph, pipeline.hierarchy, node, attribute,
        weighting=pipeline.weighting,
    )
    resolved = [
        pipeline.index.largest_qualifying_ancestor(
            node, k, floor_vertex=lore.c_ell_vertex
        )
        is not None
        for k in KS
    ]
    return lore, resolved


def _find(graph: AttributedGraph, theta: int, wanted, limit: int = 60):
    """The first ``(node, attribute)`` whose scan satisfies ``wanted``."""
    probe = CODL(graph, theta=theta, seed=SEED)
    for node in range(min(graph.n, limit)):
        for attribute in sorted(graph.attributes_of(node)):
            lore, resolved = _scan(probe, node, attribute)
            if wanted(lore, resolved):
                return node, attribute
    return None


@pytest.mark.parametrize("method", sorted(PAIRS))
def test_discover(case, method):
    _, graph, theta, queries = case
    adapter, reference = _pair(method, graph, theta)
    for query in queries:
        assert_same_result(adapter.discover(query), reference.discover(query))


@pytest.mark.parametrize("method", sorted(PAIRS))
def test_discover_multi(case, method):
    _, graph, theta, queries = case
    adapter, reference = _pair(method, graph, theta)
    for query in queries:
        assert_same_multi(
            adapter.discover_multi(query.node, query.attribute, KS),
            reference.discover_multi(query.node, query.attribute, KS),
        )


def test_codu_attribute_free(case):
    _, graph, theta, queries = case
    adapter, reference = _pair("CODU", graph, theta)
    for query in queries:
        free = CODQuery(query.node, None, query.k)
        assert_same_result(adapter.discover(free), reference.discover(free))
        assert_same_multi(
            adapter.discover_multi(query.node, None, KS),
            reference.discover_multi(query.node, None, KS),
        )


@pytest.mark.parametrize("method", sorted(PAIRS))
def test_discover_batch(case, method):
    # CODU pools one RR draw over the batch; the others loop discover().
    _, graph, theta, queries = case
    adapter, reference = _pair(method, graph, theta)
    if method == "CODU":
        queries = [*queries, *(CODQuery(q.node, None, 1) for q in queries)]
        reference_batch = reference.discover_batch(queries)
    else:
        reference_batch = [reference.discover(query) for query in queries]
    batch = adapter.discover_batch(queries)
    assert len(batch) == len(reference_batch)
    for actual, expected in zip(batch, reference_batch):
        assert_same_result(actual, expected)
    # After the batch the adapter samples per query again, like the
    # reference.
    query = queries[0]
    assert_same_result(adapter.discover(query), reference.discover(query))


@pytest.mark.parametrize("name", ["paper", "cora", "pubmed", "amazon"])
def test_resolved_next_to_fallback(name):
    # One discover_multi where the index scan resolves some k and the
    # shared restricted fallback answers the rest.
    graph_of, theta = GRAPHS[name]
    graph = graph_of()
    found = _find(graph, theta, lambda lore, resolved: any(resolved)
                  and not all(resolved) and lore.c_ell_chain_level > 0)
    assert found is not None, f"{name}: no mixed-resolution query"
    node, attribute = found
    adapter, reference = _pair("CODL", graph, theta)
    assert_same_multi(
        adapter.discover_multi(node, attribute, KS),
        reference.discover_multi(node, attribute, KS),
    )


def test_fallback_with_nothing_inside_c_ell():
    # c_ell_chain_level == 0: an unresolved k has no reclustered community
    # strictly inside C_l to evaluate, so the answer is None, unsampled.
    graph_of, theta = GRAPHS["pendant"]
    graph = graph_of()
    found = _find(graph, theta, lambda lore, resolved: not all(resolved)
                  and lore.c_ell_chain_level == 0)
    assert found is not None
    node, attribute = found
    adapter, reference = _pair("CODL", graph, theta)
    actual = adapter.discover_multi(node, attribute, KS)
    expected = reference.discover_multi(node, attribute, KS)
    assert_same_multi(actual, expected)
    assert any(result.members is None for result in actual.values())


def test_reference_himor_cod_agrees_with_codl(case):
    # The frozen single-k Algorithm 3 and the CODL adapter, on one stream.
    _, graph, theta, queries = case
    adapter = CODL(graph, theta=theta, seed=SEED)
    reference = ReferenceCODL(graph, theta=theta, seed=SEED)
    index = reference.index
    adapter.index
    for query in queries:
        lore = lore_chain(graph, reference.hierarchy, query.node, query.attribute)
        members, _ = reference_himor_cod(
            graph, index, lore, query.k, theta=theta, rng=reference.rng
        )
        actual = adapter.discover(query)
        if members is None:
            assert actual.members is None
        else:
            assert np.array_equal(actual.members, members)


@pytest.mark.parametrize("method", sorted(PAIRS))
@pytest.mark.parametrize(
    "node,attribute,ks",
    [(0, 0, [0, 3]), (0, 0, [3, -1]), (0, 0, []), (99, 0, [3]), (0, 9, [3])],
)
def test_caller_errors_raise_before_any_work(method, node, attribute, ks):
    graph = _paper_graph()
    adapter, reference = _pair(method, graph, 40)
    state = adapter.rng.bit_generator.state
    with pytest.raises(QueryError):
        reference.discover_multi(node, attribute, ks)
    with pytest.raises(QueryError):
        adapter.discover_multi(node, attribute, ks)
    health = adapter.server.health()
    assert health["caches"]["lore"]["misses"] == 0
    assert health["index_rebuilds"] == 0
    assert adapter.rng.bit_generator.state == state


@pytest.mark.parametrize("method", ["CODL-", "CODL"])
def test_attribute_required(method):
    adapter, reference = _pair(method, _paper_graph(), 40)
    for pipeline in (reference, adapter):
        with pytest.raises(QueryError, match="requires a query attribute"):
            pipeline.discover(CODQuery(0, None, 3))
    assert adapter.server.health()["index_rebuilds"] == 0
