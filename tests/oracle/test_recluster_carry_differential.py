"""Differential tests: state carried across a recluster vs fresh builds.

An edge batch reclusters the live graph. The server maps the old
hierarchy onto the new one by member set
(:func:`repro.hierarchy.dendrogram.map_clusters`) and carries three kinds
of derived state through that map: the HIMOR index
(:meth:`HimorIndex.repair` re-traverses only the redrawn samples and those
touching a changed cluster), LORE's local reclusterings and CODL's local
indexes. After every batch of a chain, each must equal what a fresh build
gives on the live graph:

* the index's buckets and ranks, those of :meth:`HimorIndex.build` over
  the repaired pool and the new hierarchy;
* every memoized reclustering of ``(attribute, C_l)``, a fresh
  ``agglomerative_hierarchy`` over ``g_l`` induced on ``C_l``;
* every cached local index, the ranks of a fresh
  :func:`~repro.core.himor.local_index` over ``pool.restricted(C_l)``;
* every answer, a cold server's.

Chains run on random graphs and on ``amazon``/``pubmed`` at scale 0.2 and
mix random batches with built ones: a batch that leaves the hierarchy
unchanged (the identity map), one that changes a cluster near the root,
one that deletes an edge inside a hot query's floor ``C_l``, and (on the
benchmark graphs) deletions that move a leaf they do not touch under a
new parent, which only the new side of the map marks as changed. The map
itself is checked against one built from member sets. The repair's whole-pool recount is switched off
(``RECOUNT_SHARE = 1``), so every batch takes the mapped delta, except in
the chains that check the recount.
"""

import numpy as np
import pytest

from repro.core import himor
from repro.core.himor import HimorIndex, local_index
from repro.core.lore import attribute_edge_lca_counts
from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.datasets.registry import load_dataset
from repro.dynamic.updates import EdgeUpdate, apply_updates
from repro.graph.graph import AttributedGraph
from repro.graph.weighting import attribute_weighted_subgraph
from repro.hierarchy.dendrogram import map_clusters, same_hierarchy
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.serving.server import CODServer

from tests.oracle.reference import charge_buckets

THETA = 3
SEED = 11
KS = (1, 2, 3, 5)
RANDOM_SEEDS = range(6)


def random_graph(seed: int) -> AttributedGraph:
    """A random connected graph with two attributes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 70))
    edges = {(i - 1, i) for i in range(1, n)}
    for _ in range(int(rng.integers(n, 3 * n))):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    attributes = [[a for a in (0, 1) if rng.random() < 0.6] for _ in range(n)]
    attributes[0] = [0, 1]
    return AttributedGraph(n, sorted(edges), attributes=attributes)


def seeded_server(graph: AttributedGraph) -> CODServer:
    pool = SharedSamplePool(graph, theta=THETA, seed=SEED, per_sample_seeds=True)
    return CODServer(graph, theta=THETA, seed=SEED, pool=pool)


def queries_for(graph: AttributedGraph, rng, count: int = 10) -> list:
    carriers = [v for v in range(graph.n) if graph.attributes_of(v)]
    nodes = rng.choice(carriers, size=min(count, len(carriers)), replace=False)
    out = []
    for node in nodes.tolist():
        attribute = sorted(graph.attributes_of(node))[0]
        out.extend(CODQuery(node, attribute, k) for k in KS)
    return out


def random_batch(graph: AttributedGraph, rng, deletes: int = 3, inserts: int = 3) -> list:
    """Random deletions and triangle-closing insertions."""
    edges = list(graph.edges())
    batch = [
        EdgeUpdate(*edges[int(i)], add=False)
        for i in rng.choice(len(edges), size=min(deletes, len(edges) - 1), replace=False)
    ]
    deleted = {update.key() for update in batch}
    added: set = set()
    for _ in range(50 * inserts):
        if len(added) == inserts:
            break
        u = int(rng.integers(0, graph.n))
        if not len(graph.neighbors(u)):
            continue
        w = int(rng.choice(graph.neighbors(u)))
        v = int(rng.choice(graph.neighbors(w)))
        key = (min(u, v), max(u, v))
        if u != v and not graph.has_edge(u, v) and key not in added | deleted:
            added.add(key)
    return batch + [EdgeUpdate(*key) for key in sorted(added)]


def identity_batch(server: CODServer, rng) -> list:
    """One edge update that leaves the hierarchy exactly as it is, found
    by trying random ones."""
    graph, hierarchy = server.graph, server.hierarchy
    for _ in range(200):
        u, v = (int(x) for x in rng.integers(0, graph.n, size=2))
        if u == v:
            continue
        batch = [EdgeUpdate(u, v, add=not graph.has_edge(u, v))]
        new = agglomerative_hierarchy(apply_updates(graph, batch))
        if same_hierarchy(hierarchy, new):
            return batch
    pytest.fail("no edge update leaves the hierarchy unchanged")


def near_root_batch(server: CODServer, rng) -> list:
    """Edges across the root's two largest children, as many as it takes
    to change a cluster at depth 3 or less."""
    graph, hierarchy = server.graph, server.hierarchy
    kids = sorted(hierarchy.children(hierarchy.root), key=hierarchy.size)[-2:]
    left, right = (hierarchy.members(kid) for kid in kids)
    for count in (2, 4, 8, 16, 32):
        pairs = {
            (int(min(u, v)), int(max(u, v)))
            for u, v in zip(rng.choice(left, count), rng.choice(right, count))
            if not graph.has_edge(int(u), int(v))
        }
        batch = [EdgeUpdate(*pair) for pair in sorted(pairs)]
        clusters = map_clusters(hierarchy, agglomerative_hierarchy(apply_updates(graph, batch)))
        lost = np.flatnonzero(clusters.to_old < 0)
        if len(lost) and clusters.new.depths[lost].min() <= 3:
            return batch
    pytest.fail("no batch changed a near-root cluster")


def rotation_batch(server: CODServer, rng) -> list:
    """Delete one edge so that a leaf the batch does not touch, outside
    every changed cluster of the old hierarchy, gets a new parent that
    the old hierarchy lacks: only the new side of the map marks it."""
    graph, hierarchy = server.graph, server.hierarchy
    edges = list(graph.edges())
    for _ in range(300):
        edge = edges[int(rng.integers(0, len(edges)))]
        batch = [EdgeUpdate(*edge, add=False)]
        clusters = map_clusters(hierarchy, agglomerative_hierarchy(apply_updates(graph, batch)))
        old_changed = np.zeros(graph.n, dtype=bool)
        for vertex in np.flatnonzero(clusters.to_new < 0):
            old_changed[hierarchy.members(vertex)] = True
        moved = clusters.to_old[clusters.new.parents[: graph.n]] < 0
        moved[list(edge)] = False
        if (moved & ~old_changed).any():
            return batch
    pytest.fail("no edge deletion moved an untouched leaf")


def floor_batch(server: CODServer, rng) -> "tuple[list, tuple]":
    """Delete one edge inside a memoized floor ``C_l``; returns the batch
    and the floor's memo key."""
    graph, hierarchy = server.graph, server.hierarchy
    floors = [key for key in server._lore_local._entries if key[1] != "edges"]
    for key in sorted(floors, key=lambda key: -hierarchy.size(key[1])):
        inside = np.zeros(graph.n, dtype=bool)
        inside[hierarchy.members(key[1])] = True
        edges = [edge for edge in graph.edges() if inside[edge[0]] and inside[edge[1]]]
        if edges:
            edge = edges[int(rng.integers(0, len(edges)))]
            return [EdgeUpdate(*edge, add=False)], key
    pytest.fail("no memoized floor holds an edge")


def check_carried_state(server: CODServer) -> None:
    """Every structure the server holds equals a fresh build's."""
    graph, hierarchy, pool = server.graph, server.hierarchy, server.pool
    index = server._index
    assert index.hierarchy is hierarchy
    assert same_hierarchy(hierarchy, agglomerative_hierarchy(graph))
    fresh = HimorIndex.build(
        graph, hierarchy, theta=THETA, rr_graphs=pool.arena,
        sample_mode=server._index_sample_mode(),
    )
    assert charge_buckets(index._charges, graph.n) == charge_buckets(
        fresh._charges, graph.n
    )
    for v in range(graph.n):
        np.testing.assert_array_equal(index.ranks_of(v), fresh.ranks_of(v))
    assert index.graph_sha == fresh.graph_sha

    for (attribute, vertex), (value, _) in server._lore_local._entries.items():
        if vertex == "edges":
            np.testing.assert_array_equal(
                value, attribute_edge_lca_counts(graph, hierarchy, attribute)
            )
            continue
        view = attribute_weighted_subgraph(
            graph, hierarchy.members(vertex), attribute, server.weighting
        )
        np.testing.assert_array_equal(value.to_parent, view.to_parent)
        assert same_hierarchy(value.hierarchy, agglomerative_hierarchy(view.graph))

    for (attribute, vertex), ((built_from, local), _) in (
        server._restricted_cache._entries.items()
    ):
        view = attribute_weighted_subgraph(
            graph, hierarchy.members(vertex), attribute, server.weighting
        )
        np.testing.assert_array_equal(built_from.to_parent, view.to_parent)
        assert same_hierarchy(built_from.hierarchy, agglomerative_hierarchy(view.graph))
        expected = local_index(
            built_from.hierarchy, built_from.to_parent,
            pool.restricted(built_from.to_parent), theta=THETA,
        )
        for v in range(len(built_from.to_parent)):
            np.testing.assert_array_equal(local.ranks_of(v), expected.ranks_of(v))


def check_answers(server: CODServer, queries: list) -> None:
    cold = seeded_server(server.graph)
    for query in queries:
        served, expected = server.answer(query), cold.answer(query)
        assert served.rung == expected.rung == "CODL", query
        if expected.members is None:
            assert served.members is None, query
        else:
            np.testing.assert_array_equal(served.members, expected.members, err_msg=str(query))


def held(server: CODServer) -> "dict[int, object]":
    """The memoized reclusterings and the local indexes with the
    reclusterings they were built from, by object identity."""
    values = [value for value, _ in server._lore_local._entries.values()]
    values += [part for entry, _ in server._restricted_cache._entries.values() for part in entry]
    return {id(value): value for value in values}


def run_chain(graph: AttributedGraph, rng, steps: list) -> dict:
    """Serve, apply the chain batch by batch and check after each one;
    returns how many batches each outcome had and how much was carried."""
    server = seeded_server(graph)
    server.warm()
    queries = queries_for(graph, rng)
    tally = {"repaired": 0, "rebuilt": 0, "carried": 0}
    for step in steps:
        for query in queries:
            server.answer(query)
        before = held(server)
        floor = None
        if step == "identity":
            batch = identity_batch(server, rng)
        elif step == "floor":
            batch, floor = floor_batch(server, rng)
            stale = server._lore_local._entries[floor][0]
        elif step == "near-root":
            batch = near_root_batch(server, rng)
        elif step == "rotation":
            batch = rotation_batch(server, rng)
        else:
            batch = random_batch(server.graph, rng)
        old_hierarchy = server.hierarchy
        report = server.apply_updates(batch)
        tally[report["index"]] += 1
        if step == "identity":
            assert not map_clusters(old_hierarchy, server.hierarchy).changed.any()
        if floor is not None:
            # The deleted edge lay inside the floor: its reclustering and
            # every local index built from it must go.
            assert id(stale) not in held(server)
        tally["carried"] += len(before.keys() & held(server).keys())
        check_carried_state(server)
        check_answers(server, queries)
    return tally


@pytest.fixture
def delta_always(monkeypatch):
    monkeypatch.setattr(himor, "RECOUNT_SHARE", 1.0)


BUILT = ["identity", "floor", "near-root"]


@pytest.mark.usefixtures("delta_always")
@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_graph_chain(seed):
    tally = run_chain(
        random_graph(seed), np.random.default_rng(seed), BUILT + ["random"] * 3
    )
    assert tally["repaired"] == 6 and tally["rebuilt"] == 0


@pytest.mark.usefixtures("delta_always")
@pytest.mark.parametrize("dataset", ["amazon", "pubmed"])
def test_benchmark_graph_chain(dataset):
    graph = load_dataset(dataset, scale=0.2, seed=7).graph
    steps = BUILT + ["rotation", "random", "rotation", "random", "random"]
    tally = run_chain(graph, np.random.default_rng(3), steps)
    assert tally["repaired"] == len(steps) and tally["rebuilt"] == 0
    # Carrying is exercised, not only dropping.
    assert tally["carried"] > 0


@pytest.mark.parametrize("seed", RANDOM_SEEDS[:2])
def test_recount_past_share(seed, monkeypatch):
    monkeypatch.setattr(himor, "RECOUNT_SHARE", 0.0)
    steps = BUILT + ["random"]
    tally = run_chain(random_graph(seed), np.random.default_rng(seed), steps)
    assert tally["rebuilt"] == len(steps) and tally["repaired"] == 0


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_cluster_map_matches_member_sets(seed):
    """The map against one built from member sets, and ``changed`` against
    the members of every unmapped vertex on either side."""
    graph = load_dataset("amazon", scale=0.2, seed=7).graph
    rng = np.random.default_rng(seed)
    old = agglomerative_hierarchy(graph)
    for _ in range(3):
        graph = apply_updates(graph, random_batch(graph, rng))
        new = agglomerative_hierarchy(graph)
        clusters = map_clusters(old, new)
        n = graph.n
        by_members = {frozenset(old.members(v).tolist()): v for v in range(n, old.n_vertices)}
        changed = np.zeros(n, dtype=bool)
        for v in range(n, new.n_vertices):
            image = by_members.get(frozenset(new.members(v).tolist()), -1)
            assert clusters.to_old[v] == image
            if image < 0:
                changed[new.members(v)] = True
            else:
                assert clusters.to_new[image] == v
        for v in np.flatnonzero(clusters.to_new < 0):
            changed[old.members(v)] = True
        np.testing.assert_array_equal(clusters.changed, changed)
        old = new
