"""Invalidation of the server's LORE memo (``CODServer._lore_local``).

The memo holds LORE's query-independent parts: per-attribute edge-LCA
counts under ``(attribute, "edges")`` and local reclusterings under
``(attribute, C_l)``. They are pure functions of the graph, the hierarchy
and the weighting, so every event that changes one of those must drop
them along with the finished-chain cache, except that a structural batch
keeps, re-keyed to the new hierarchy, the reclusterings it provably
leaves unchanged — and answers afterwards must equal a cold server's on
the same graph. LORE weights only ``C_l``'s
induced edges, so serving never builds a whole-graph ``g_l``. The memo is
bounded by bytes, so a flood of small reclusterings cannot evict a
whole-graph one that fits.
"""

import sys

import numpy as np
import pytest

from repro.core.himor import HimorIndex
from repro.core.lore import (
    local_recluster_bytes,
    lore_chain,
    reclustering_scores,
    select_reclustering_community,
)
from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.datasets import load_dataset
from repro.dynamic import AttrUpdate, EdgeUpdate
from repro.dynamic.updates import apply_updates as apply_graph
from repro.graph import weighting as weighting_module
from repro.graph.subgraph import induced_subgraph
from repro.graph.weighting import AttributeWeighting, attribute_weighted_subgraph
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.obs import QueryTrace
from repro.serving.server import LORE_LOCAL_RECLUSTERINGS, CODServer
from repro.utils.faults import inject

THETA = 4
SEED = 11
K = 3


def seeded_server(graph, **kwargs):
    pool = SharedSamplePool(graph, theta=THETA, seed=SEED, per_sample_seeds=True)
    return CODServer(graph, theta=THETA, seed=SEED, pool=pool, **kwargs)


def memo_keys(server) -> set:
    return set(server._lore_local._entries)


def fill(server, attributes=(0, 1)) -> None:
    for attribute in attributes:
        for q in range(server.graph.n):
            server.answer(CODQuery(q, attribute, K))


def assert_matches_cold(server, **kwargs) -> None:
    cold = seeded_server(server.graph, **kwargs)
    for attribute in (0, 1):
        for q in range(server.graph.n):
            query = CODQuery(q, attribute, K)
            served, expected = server.answer(query), cold.answer(query)
            assert served.rung == expected.rung, query
            if expected.members is None:
                assert served.members is None, query
            else:
                assert np.array_equal(served.members, expected.members), query


class TestInvalidation:
    def test_memo_fills_with_both_key_kinds(self, paper_graph):
        server = seeded_server(paper_graph)
        fill(server)
        keys = memo_keys(server)
        assert {(0, "edges"), (1, "edges")} <= keys
        assert any(isinstance(key[1], int) for key in keys)
        assert server.health()["caches"]["lore_local"]["entries"] == len(keys)

    def test_attribute_batch_drops_only_that_attribute(self, paper_graph):
        server = seeded_server(paper_graph)
        fill(server)
        kept = {key for key in memo_keys(server) if key[0] == 0}
        assert kept and any(key[0] == 1 for key in memo_keys(server))
        server.apply_updates([AttrUpdate(9, 1, add=False)])
        assert memo_keys(server) == kept
        assert_matches_cold(server)

    def test_jaccard_attribute_batch_clears_everything(self, paper_graph):
        weighting = AttributeWeighting(scheme="jaccard")
        server = seeded_server(paper_graph, weighting=weighting)
        fill(server)
        assert memo_keys(server)
        server.apply_updates([AttrUpdate(9, 1, add=False)])
        assert memo_keys(server) == set()
        assert_matches_cold(server, weighting=weighting)

    def test_structural_batch_keeps_only_unchanged_reclusterings(
        self, paper_graph
    ):
        server = seeded_server(paper_graph)
        fill(server)
        server.apply_updates([EdgeUpdate(2, 3), EdgeUpdate(5, 7)])
        hierarchy = server.hierarchy
        # Edge counts read the global hierarchy and always go; a kept
        # reclustering is keyed by its C_l in the new hierarchy and equals
        # a fresh one.
        assert all(vertex != "edges" for _, vertex in memo_keys(server))
        for (attribute, vertex), (kept, _) in server._lore_local._entries.items():
            view = attribute_weighted_subgraph(
                server.graph, hierarchy.members(vertex), attribute
            )
            np.testing.assert_array_equal(kept.to_parent, view.to_parent)
            fresh = agglomerative_hierarchy(view.graph)
            assert np.array_equal(kept.hierarchy.parents, fresh.parents)
        assert_matches_cold(server)

    def test_adopt_shared_clears_everything(self, paper_graph):
        server = seeded_server(paper_graph)
        fill(server)
        new_graph = apply_graph(paper_graph, [EdgeUpdate(2, 3)])
        builder = SharedSamplePool(
            new_graph, theta=THETA, seed=SEED, per_sample_seeds=True
        )
        builder.materialize()
        server.adopt_shared(new_graph, builder.arena, epoch=1)
        assert memo_keys(server) == set()
        assert_matches_cold(server)

    def test_index_load_hierarchy_swap_clears_everything(self, paper_graph,
                                                         tmp_path):
        path = tmp_path / "himor.json"
        server = seeded_server(paper_graph, index_path=path)
        # With the index build failing, CODL- answers from LORE over the
        # server's own hierarchy and fills the memo.
        with inject(site="himor_build", rate=1.0):
            server.answer(CODQuery(0, 0, K))
        assert memo_keys(server)
        assert server._index is None
        # Another server persists an index; loading it swaps in its
        # hierarchy object, which must drop every hierarchy-keyed entry.
        seeded_server(paper_graph, index_path=path).warm()
        before = server._lore_local.stats()["invalidations"]
        server.answer(CODQuery(0, 0, K))
        assert server._hierarchy is server._index.hierarchy
        assert isinstance(server._index, HimorIndex)
        assert server._lore_local.stats()["invalidations"] > before
        assert_matches_cold(server)


class TestTraceNotes:
    def test_lore_span_says_where_parts_came_from(self, paper_graph):
        server = seeded_server(paper_graph)
        first = QueryTrace()
        server.answer(CODQuery(0, 0, K), trace=first)
        meta = first.find("lore").meta
        assert meta["edge_counts"] == "built"
        assert meta["local_hierarchy"] == "built"
        # The miss weighted exactly C_l's induced edges.
        hierarchy = server._hierarchy
        c_ell = server._lore_cache.get((0, 0)).c_ell_vertex
        induced = induced_subgraph(paper_graph, hierarchy.members(c_ell))
        assert induced.graph.m > 0
        assert meta["weighted_edges"] == induced.graph.m

        # Same attribute and the same C_l, another query node: both parts
        # come from the memo while the finished-chain cache misses.
        other = next(
            q for q in hierarchy.members(c_ell).tolist()
            if q != 0
            and lore_chain(paper_graph, hierarchy, q, 0).c_ell_vertex == c_ell
        )
        second = QueryTrace()
        server.answer(CODQuery(other, 0, K), trace=second)
        meta = second.find("lore").meta
        assert meta["edge_counts"] == "memo"
        assert meta["local_hierarchy"] == "memo"
        assert meta["weighted_edges"] == 0

        # A repeated query is served by the finished-chain cache: no
        # ``lore`` span at all.
        third = QueryTrace()
        server.answer(CODQuery(0, 0, K), trace=third)
        assert third.find("lore") is None

    @pytest.mark.parametrize("attribute", [0, 1])
    def test_memo_does_not_change_answers(self, paper_graph, attribute):
        warm = seeded_server(paper_graph)
        fill(warm)
        for q in range(paper_graph.n):
            cold = seeded_server(paper_graph)
            query = CODQuery(q, attribute, K)
            served, expected = warm.answer(query), cold.answer(query)
            if expected.members is None:
                assert served.members is None
            else:
                assert np.array_equal(served.members, expected.members)


class TestNoWholeGraphWeighting:
    """Serving weights ``C_l``'s induced edges only, on every path."""

    @pytest.fixture
    def forbid_whole_graph(self, monkeypatch):
        real = weighting_module.attribute_weighted_graph

        def forbidden(*args, **kwargs):
            raise AssertionError("a whole-graph g_l was built while serving")

        # Every module that bound the name (the defining module, the
        # ``repro.graph`` re-export, the pipelines, ...) gets the trap.
        for module in list(sys.modules.values()):
            if vars(module).get("attribute_weighted_graph") is real:
                monkeypatch.setattr(module, "attribute_weighted_graph", forbidden)

    def test_answers_updates_and_adopt_never_weight_the_whole_graph(
        self, forbid_whole_graph
    ):
        graph = load_dataset("cora", scale=0.1, seed=7).graph
        attributes = sorted(graph.attribute_universe)
        assert len(attributes) >= 3
        rng = np.random.default_rng(3)
        nodes = sorted(rng.choice(graph.n, size=12, replace=False).tolist())
        queries = [CODQuery(q, a, K) for a in attributes for q in nodes]

        def check(server) -> None:
            cold = seeded_server(server.graph)
            for query in queries:
                served, expected = server.answer(query), cold.answer(query)
                # A trap that fired would degrade LORE to a lower rung on
                # both servers alike, so require the full method too.
                assert served.rung == expected.rung == "CODL", query
                assert not served.notes and not expected.notes, query
                if expected.members is None:
                    assert served.members is None, query
                else:
                    assert np.array_equal(served.members, expected.members), query

        server = seeded_server(graph)
        check(server)
        assert memo_keys(server)

        u = nodes[0]
        v = next(w for w in nodes[1:] if not graph.has_edge(u, w))
        server.apply_updates([EdgeUpdate(u, v)])
        check(server)

        node = int(graph.nodes_with_attribute(attributes[0])[0])
        server.apply_updates([AttrUpdate(node, attributes[0], add=False)])
        check(server)

        new_graph = apply_graph(server.graph, [EdgeUpdate(u, v, add=False)])
        builder = SharedSamplePool(
            new_graph, theta=THETA, seed=SEED, per_sample_seeds=True
        )
        builder.materialize()
        server.adopt_shared(new_graph, builder.arena, epoch=server.epoch + 1)
        check(server)
        assert "weighted" not in server.health()["caches"]


# ------------------------------------------------------------ byte budget


@pytest.fixture(scope="module")
def pubmed():
    """The ``cold-hubs`` graph: some carriers' ``C_l`` is the whole graph."""
    return load_dataset("pubmed", scale=2.0, seed=7).graph


def pubmed_server(graph) -> CODServer:
    pool = SharedSamplePool(
        graph, theta=1, seed=SEED, per_sample_seeds=True, fast=True
    )
    server = CODServer(graph, theta=1, seed=SEED, pool=pool)
    server.warm()
    return server


def c_ell_of(graph, hierarchy, q, attribute) -> int:
    path = hierarchy.path_communities(q)
    scores = reclustering_scores(graph, hierarchy, q, attribute, path=path)
    return select_reclustering_community(scores, path)[0]


def carrier_c_ells(graph, hierarchy):
    """``(q, attribute, C_l)`` for every carrier, attribute by attribute."""
    for attribute in sorted(graph.attribute_universe):
        for q in graph.nodes_with_attribute(attribute).tolist():
            yield q, attribute, c_ell_of(graph, hierarchy, q, attribute)


class TestByteBudget:
    def test_budget_is_sixteen_whole_graph_reclusterings(self, paper_graph):
        server = seeded_server(paper_graph, cache_capacity=2)
        stats = server.health()["caches"]
        assert stats["lore_local"]["capacity"] is None
        assert stats["lore_local"]["max_bytes"] == (
            LORE_LOCAL_RECLUSTERINGS * local_recluster_bytes(paper_graph.n)
        )
        assert stats["lore"]["capacity"] == stats["restricted"]["capacity"] == 2

    def test_whole_graph_entry_survives_a_flood_of_small_ones(self, pubmed):
        server = pubmed_server(pubmed)
        hierarchy = server._hierarchy
        whole, flood, small_keys = [], [], set()
        for q, attribute, c_ell in carrier_c_ells(pubmed, hierarchy):
            if c_ell == hierarchy.root:
                whole.append((q, attribute))
            elif hierarchy.size(c_ell) <= 8 and (attribute, c_ell) not in small_keys:
                small_keys.add((attribute, c_ell))
                flood.append((q, attribute))
        (q0, attribute), (q1, _) = [
            pair for pair in whole if pair[1] == whole[0][1]
        ][:2]
        # More distinct small reclusterings than the old 64-entry bound.
        assert len(flood) >= 100
        flood = flood[:100]

        first = QueryTrace()
        server.answer(CODQuery(q0, attribute, K), trace=first)
        assert first.find("lore").meta["local_hierarchy"] == "built"
        for q, a in flood:
            server.answer(CODQuery(q, a, K))
        # Another node with the same whole-graph C_l: the finished-chain
        # cache misses, the local reclustering is still resident.
        repeat = QueryTrace()
        server.answer(CODQuery(q1, attribute, K), trace=repeat)
        meta = repeat.find("lore").meta
        assert meta["c_ell_size"] == pubmed.n
        assert meta["local_hierarchy"] == "memo"
        assert server._lore_local.stats()["evictions"] == 0

    @pytest.mark.parametrize("which", ["paper", "pubmed"])
    def test_whole_graph_entry_is_never_oversized(self, which, request):
        if which == "paper":
            graph = request.getfixturevalue("paper_graph")
            server = seeded_server(graph)
            server.warm()
        else:
            graph = request.getfixturevalue("pubmed")
            server = pubmed_server(graph)
        hierarchy = server._hierarchy
        q, attribute = next(
            (q, attribute)
            for q, attribute, c_ell in carrier_c_ells(graph, hierarchy)
            if c_ell == hierarchy.root
        )
        server.answer(CODQuery(q, attribute, K))
        local = server._lore_local.get((attribute, hierarchy.root))
        assert local is not None
        assert local.memory_bytes() <= local_recluster_bytes(graph.n)
        stats = server._lore_local.stats()
        assert stats["oversized"] == 0
        assert stats["current_bytes"] <= stats["max_bytes"]
