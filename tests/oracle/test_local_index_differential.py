"""Differential tests: CODL's local index vs Algorithm 1 inside ``C_l``.

A pooled server answers the ``k``s the global HIMOR scan leaves open from
a local index over LORE's reclustering of ``C_l``
(:func:`repro.core.himor.local_index`), scanning ``q``'s local path
without the local root. That answer must be array-equal, for every
``k``, to the one Algorithm 1 gives over the same samples:
``compressed_cod(graph, lore.chain.prefix(c_ell_chain_level), ks,
pool.restricted(C_l))``. Cases cover pools drawn by every sampler of
``ARENA_SAMPLERS`` and pools that are attached, repaired after edge
batches and concatenated; random and benchmark graphs; ``k`` up to 13
with tied counts; ``C_l`` forced to the root and to ``q``'s smallest
community (``|C_l| <= k``); and ``c_ell_chain_level == 0``, where the
local path holds no community below the root and nothing is answered.

The server builds a local index straight from the pool's pick of the
samples sourced in ``C_l`` (:meth:`RRArena.sourced_in`), masking entries
outside ``C_l`` instead of restricting the pick first. Every case also
requires that index to equal, rank for rank and in ``n_samples``, the
one built over ``pool.restricted(C_l)``.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import repro.core.lore as lore_module
from repro.core.compressed import compressed_cod
from repro.core.himor import local_index
from repro.core.lore import lore_chain
from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.datasets.registry import load_dataset
from repro.graph.graph import AttributedGraph
from repro.influence.arena import RRArena, concatenate_arenas, repair_arena
from repro.influence.fastsample import sample_arena_seeded_fast
from repro.serving.budget import ExecutionBudget
from repro.serving.server import CODServer
from repro.utils.shm import close_all_segments

from tests.conftest import ARENA_SAMPLERS

KS = (1, 2, 3, 5, 8, 13)
THETA = 3
SEEDS = range(12)
DERIVED = ("attached", "repaired", "concatenated")


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    close_all_segments()


def random_graph(seed: int) -> AttributedGraph:
    """A random connected graph with two attributes, some nodes carrying
    neither."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(14, 60))
    edges = {(i - 1, i) for i in range(1, n)}
    for _ in range(int(rng.integers(n // 2, 2 * n))):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    attributes = [
        [a for a in (0, 1) if rng.random() < 0.6] for _ in range(n)
    ]
    attributes[0] = [0, 1]
    return AttributedGraph(n, sorted(edges), attributes=attributes)


def pooled_server(graph: AttributedGraph, arena: RRArena) -> CODServer:
    """A pooled server whose pool holds exactly ``arena``."""
    theta, rest = divmod(arena.n_samples, graph.n)
    assert rest == 0 and theta > 0
    pool = SharedSamplePool(graph, theta=theta, seed=5)
    pool.adopt(graph, arena)
    return CODServer(graph, theta=theta, seed=5, pool=pool)


@contextmanager
def forced_level(level: "int | None"):
    """Make LORE pick ``C_l`` at ``level`` of ``H(q)`` (``-1``: the root)
    instead of the best-scoring one; ``None`` leaves the choice alone."""
    if level is None:
        yield
        return
    original = lore_module.select_reclustering_community

    def select(scores, path):
        chosen = level % len(path)
        return path[chosen], chosen

    lore_module.select_reclustering_community = select
    try:
        yield
    finally:
        lore_module.select_reclustering_community = original


def assert_same(got, want, context) -> None:
    if want is None:
        assert got is None, context
    else:
        assert got is not None, context
        assert got.dtype == want.dtype, context
        np.testing.assert_array_equal(got, want, err_msg=str(context))


def assert_pick_equals_restrict(server: CODServer, lore) -> None:
    """The local index over the pool's pick equals the one over its
    restriction to ``C_l``."""
    members = lore.local.to_parent
    picked = server.pool.arena.sourced_in(members)
    restricted = server.pool.restricted(members)
    assert picked.n_samples == restricted.n_samples
    from_pick, from_restrict = (
        local_index(lore.local.hierarchy, members, samples, theta=THETA)
        for samples in (picked, restricted)
    )
    assert from_pick.n_samples == from_restrict.n_samples
    for v in range(len(members)):
        np.testing.assert_array_equal(
            from_pick.ranks_of(v), from_restrict.ranks_of(v), err_msg=str(v)
        )


def check_query(server: CODServer, q: int, attribute: int, level) -> str:
    """Compare the local scan and the CODL rung with Algorithm 1 for one
    query; returns which case it was (for coverage assertions)."""
    budget = ExecutionBudget()
    with forced_level(level):
        lore = lore_chain(server.graph, server.hierarchy, q, attribute)
    query = CODQuery(q, attribute, max(KS))
    got = server._local_scan(query, lore, list(KS), budget, None)
    assert_pick_equals_restrict(server, lore)
    if lore.c_ell_chain_level == 0:
        assert all(members is None for members in got.values())
        return "level0"
    samples = server.pool.restricted(lore.local.to_parent)
    evaluation = compressed_cod(
        server.graph, lore.chain.prefix(lore.c_ell_chain_level), KS,
        rr_graphs=samples,
    )
    for k in KS:
        assert_same(got[k], evaluation.characteristic_community(k), (q, attribute, level, k))
    if level is None:
        # The whole rung: the global scan down to C_l, then the local scan
        # (now a cache hit) for the ks it left open.
        answers, _ = server.run_rung("CODL", q, attribute, list(KS))
        index = server.index
        for k in KS:
            ancestor = index.largest_qualifying_ancestor(
                q, k, floor_vertex=lore.c_ell_vertex
            )
            want = (
                evaluation.characteristic_community(k) if ancestor is None
                else index.hierarchy.members(ancestor)
            )
            assert_same(answers[k], want, (q, attribute, "rung", k))
    if len(lore.local.to_parent) == server.graph.n:
        return "root"
    if len(lore.local.to_parent) <= max(KS):
        return "small"
    return "inner"


def check_server(server: CODServer, rng: np.random.Generator, n_queries: int) -> set:
    graph = server.graph
    cases = set()
    nodes = rng.choice(graph.n, size=min(n_queries, graph.n), replace=False)
    for q in nodes.tolist():
        for attribute in sorted(graph.attribute_universe):
            for level in (None, 0, 1, -1):
                cases.add(check_query(server, q, attribute, level))
    return cases


@pytest.mark.parametrize("sampler", sorted(ARENA_SAMPLERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_pools_match_algorithm_1(seed, sampler):
    graph = random_graph(seed)
    arena = ARENA_SAMPLERS[sampler](graph, THETA * graph.n, seed + 100)
    server = pooled_server(graph, arena)
    cases = check_server(server, np.random.default_rng(seed), 6)
    assert {"root", "small"} <= cases


def derived_pool(kind: str, seed: int, graph: AttributedGraph):
    """``(graph, arena)`` of a pool ``kind``: attached read-only from shared
    memory, repaired after two edge batches, or concatenated from three
    draws."""
    if kind == "attached":
        arena = ARENA_SAMPLERS["sample_arena_fast"](graph, THETA * graph.n, seed)
        return graph, RRArena.attach(arena.to_shared().name)
    if kind == "concatenated":
        parts = [
            ARENA_SAMPLERS[name](graph, graph.n, seed + i)
            for i, name in enumerate(sorted(ARENA_SAMPLERS))
        ]
        return graph, concatenate_arenas(parts)
    rng = np.random.default_rng(seed + 1)
    arena = sample_arena_seeded_fast(graph, THETA * graph.n, base_seed=seed)
    edges = set(graph.edges())
    for _ in range(2):
        u = int(arena.sources[int(rng.integers(arena.n_samples))])
        v = next(
            w for w in rng.permutation(graph.n).tolist()
            if w != u and (min(u, w), max(u, w)) not in edges
        )
        edges.add((min(u, v), max(u, v)))
        graph = AttributedGraph(
            graph.n, sorted(edges),
            attributes=[graph.attributes_of(x) for x in range(graph.n)],
        )
        repair = repair_arena(arena, graph, [u, v], base_seed=seed)
        assert repair.n_repaired >= 1
        arena = repair.arena
    return graph, arena


@pytest.mark.parametrize("kind", DERIVED)
@pytest.mark.parametrize("seed", SEEDS[:6])
def test_derived_pools_match_algorithm_1(seed, kind):
    graph, arena = derived_pool(kind, seed, random_graph(seed))
    try:
        if kind == "attached":
            assert arena.is_readonly
        server = pooled_server(graph, arena)
        check_server(server, np.random.default_rng(seed), 4)
    finally:
        arena.detach()


@pytest.mark.parametrize("name", ["amazon", "pubmed"])
def test_benchmark_graphs_match_algorithm_1(name):
    graph = load_dataset(name, scale=0.2).graph
    arena = ARENA_SAMPLERS["sample_arena_seeded_fast"](graph, 2 * graph.n, 3)
    server = pooled_server(graph, arena)
    rng = np.random.default_rng(3)
    cases = set()
    for q in rng.choice(graph.n, size=10, replace=False).tolist():
        for attribute in sorted(graph.attributes_of(q))[:2]:
            cases.add(check_query(server, q, attribute, None))
    assert "inner" in cases


def test_level_zero_leaves_the_open_ks_unanswered():
    """A two-node ``C_l`` splits into two leaves under the local root, so
    ``q``'s local path holds nothing below it: the rung answers what the
    global scan found, and builds no local index."""
    graph = AttributedGraph(
        4, [(0, 1), (1, 2), (2, 3)], attributes=[[0], [0], [0], [0]]
    )
    arena = ARENA_SAMPLERS["sample_arena_fast"](graph, THETA * graph.n, 1)
    server = pooled_server(graph, arena)
    with forced_level(0):
        lore = lore_chain(graph, server.hierarchy, 0, 0)
        answers, _ = server.run_rung("CODL", 0, 0, list(KS))
    assert lore.c_ell_chain_level == 0
    assert len(server._restricted_cache) == 0
    index = server.index
    for k in KS:
        ancestor = index.largest_qualifying_ancestor(
            0, k, floor_vertex=lore.c_ell_vertex
        )
        want = None if ancestor is None else index.hierarchy.members(ancestor)
        assert_same(answers[k], want, k)
    assert check_query(server, 0, 0, 0) == "level0"
