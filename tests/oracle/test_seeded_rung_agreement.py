"""Differential tests: the rungs of a seeded pooled server agree.

A server whose pool is per-sample-seeded builds its HIMOR index over the
pool's own samples, so every rung reads one sample set. A community
inside ``C_l`` counts only the samples sourced in it (Definition 3), so
the local index over the pool's pick ranks exactly as Algorithm 1 does
over the whole pool. Hence, for every ``k``:

* ``run_rung("CODL")`` answers with the same community as
  ``run_rung("CODL-")``;
* ``run_rung("CODU")`` answers with the community of the global index
  scan without a floor, ``index.largest_qualifying_ancestor(q, k)``.

This holds only when the HIMOR index counts the pool's own samples. A
server that adopts an unseeded pool (``pooled_server`` in
``test_local_index_differential.py``) builds its index from a separate
draw, and there the rungs often disagree.
"""

import numpy as np
import pytest

from repro.core.pool import SharedSamplePool
from repro.datasets.queries import generate_queries
from repro.datasets.registry import load_dataset
from repro.serving.server import CODServer

from tests.oracle.test_local_index_differential import random_graph

KS = [1, 2, 3, 5, 8, 13]
THETA = 3


def same_members(a, b) -> bool:
    """Whether two answers name the same community (or both none); the
    index lists members in leaf order, the evaluators in node order."""
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(np.sort(a), np.sort(b))


def assert_rungs_agree(graph, queries, seed: int) -> None:
    pool = SharedSamplePool(graph, theta=THETA, seed=seed, per_sample_seeds=True)
    server = CODServer(graph, theta=THETA, seed=seed, pool=pool)
    index = server.index
    for q, attribute in queries:
        codl, _ = server.run_rung("CODL", q, attribute, KS)
        codl_minus, _ = server.run_rung("CODL-", q, attribute, KS)
        codu, _ = server.run_rung("CODU", q, None, KS)
        for k in KS:
            ancestor = index.largest_qualifying_ancestor(q, k)
            scan = None if ancestor is None else index.hierarchy.members(ancestor)
            context = (q, attribute, k)
            assert same_members(codl[k], codl_minus[k]), context
            assert same_members(codu[k], scan), context


@pytest.mark.parametrize("seed", range(12))
def test_random_graphs(seed):
    graph = random_graph(seed)
    rng = np.random.default_rng(seed)
    nodes = rng.choice(graph.n, size=6, replace=False)
    queries = [
        (int(v), int(rng.choice(sorted(graph.attributes_of(int(v))))))
        for v in nodes
        if graph.attributes_of(int(v))
    ]
    assert_rungs_agree(graph, queries, seed)


@pytest.mark.parametrize("name", ["amazon", "pubmed", "cora"])
def test_benchmark_graphs(name):
    graph = load_dataset(name, scale=0.3, seed=7).graph
    queries = [
        (query.node, query.attribute)
        for query in generate_queries(graph, count=20, rng=1)
    ]
    assert_rungs_agree(graph, queries, seed=3)
