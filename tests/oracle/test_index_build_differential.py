"""Differential tests: index builds vs their frozen references.

Clustering seeds an empty NN chain from a cursor over cluster ids instead
of rescanning every live cluster, and HIMOR's tree HFS charges chunks of
samples in one vectorized frontier fixpoint instead of popping one heap
per sample. Neither may change a result: clustering must make the same
merges (so the same vertex ids and parent arrays) as
:func:`reference_agglomerative_hierarchy`, and the HFS must produce
``==`` buckets — hence bit-identical ranks — to :func:`reference_tree_hfs`,
including its checkpoint, resume, fault and budget contracts. The LCA
index and the bottom-up rank pass read the hierarchy's arrays directly;
their tables and vertex order must equal the per-vertex construction.
"""

import copy

import numpy as np
import pytest

from repro.core import himor
from repro.core.himor import HimorIndex, _bottom_up_ranks, _tree_hfs_arena
from repro.datasets import load_dataset
from repro.errors import DeadlineExceededError
from repro.graph.graph import AttributedGraph
from repro.graph.weighting import AttributeWeighting, attribute_weighted_graph
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.hierarchy.lca import LcaIndex
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.influence.arena import sample_arena
from repro.serving.budget import ExecutionBudget
from repro.utils.faults import inject

from tests.oracle.reference import (
    reference_agglomerative_hierarchy,
    reference_lca_tables,
    reference_tree_hfs,
)

#: Random clustering cases; every third one is disconnected.
CLUSTER_SEEDS = range(42)
#: Small registry graphs whose attribute-weighted ``g_l`` gets clustered.
SMALL_REGISTRY = [("cora", 0.1), ("citeseer", 0.1), ("amazon", 0.02), ("lfr", 0.1)]


def random_graph(seed: int) -> AttributedGraph:
    """A random weighted graph; ``seed % 3 == 0`` splits it into components.

    Integer weights make equal similarities common, so the tie-breaks are
    exercised as well as the merge order. Disconnected cases get 2-4
    components and sometimes isolated nodes, which clustering stacks under
    one root.
    """
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(6, 60))
    if seed % 3 == 0:
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, 4)), replace=False))
        parts = np.split(np.arange(n), cuts)
    else:
        parts = [np.arange(n)]
    edges: dict[tuple[int, int], float] = {}
    for part in parts:
        if len(part) == 1 or (seed % 6 == 0 and len(part) == 2):
            continue  # an isolated node (or pair left unconnected)
        order = rng.permutation(part)
        for a, b in zip(order[:-1], order[1:]):
            edges[(min(a, b), max(a, b))] = 1.0
        for _ in range(int(rng.integers(0, 2 * len(part)))):
            a, b = rng.choice(part, size=2)
            if a != b:
                edges[(int(min(a, b)), int(max(a, b)))] = 1.0
    weights = {e: float(rng.integers(1, 4)) for e in edges}
    return AttributedGraph(
        n, sorted((int(u), int(v)) for u, v in edges), edge_weights=weights
    )


def random_hierarchy(n: int, rng: np.random.Generator) -> CommunityHierarchy:
    """A random non-binary tree: repeatedly merge 2-4 random clusters."""
    clusters = list(range(n))
    merges = []
    next_id = n
    while len(clusters) > 1:
        k = int(rng.integers(2, min(4, len(clusters)) + 1))
        picked = rng.choice(len(clusters), size=k, replace=False)
        merges.append([clusters[i] for i in picked])
        clusters = [c for i, c in enumerate(clusters) if i not in set(picked)]
        clusters.append(next_id)
        next_id += 1
    return CommunityHierarchy.from_merges(n, merges)


def hfs_case(seed: int, theta: int, n_lo: int = 20, n_hi: int = 160):
    """A random connected graph, a random or clustered tree, an arena."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi))
    edges = {(i - 1, i) for i in range(1, n)}
    for _ in range(int(rng.integers(n, 4 * n))):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    graph = AttributedGraph(n, sorted(edges))
    if seed % 2:
        hierarchy = agglomerative_hierarchy(graph)
    else:
        hierarchy = random_hierarchy(n, rng)
    arena = sample_arena(graph, theta * n, rng=np.random.default_rng(seed + 99))
    return graph, hierarchy, arena


def clustering_outcome(cluster, graph):
    """The parent array as a list, or the class of the exception raised."""
    try:
        return cluster(graph).parents.tolist()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


def assert_same_parents(graph) -> None:
    got = clustering_outcome(agglomerative_hierarchy, graph)
    expected = clustering_outcome(reference_agglomerative_hierarchy, graph)
    assert got == expected


# ------------------------------------------------------------- clustering


class TestClusteringMatchesRescan:
    def test_paper_graph(self, paper_graph):
        assert_same_parents(paper_graph)

    @pytest.mark.parametrize("seed", CLUSTER_SEEDS)
    def test_random_graphs_every_linkage(self, seed):
        assert_same_parents(random_graph(seed))

    def test_random_cases_include_disconnected(self):
        disconnected = sum(
            len(random_graph(seed).connected_components()) > 1
            for seed in CLUSTER_SEEDS
        )
        assert disconnected >= len(CLUSTER_SEEDS) // 3

    @pytest.mark.parametrize("name,scale", SMALL_REGISTRY)
    def test_attribute_weighted_registry_graphs(self, name, scale):
        graph = load_dataset(name, scale=scale, seed=7).graph
        weighting = AttributeWeighting(beta=4.0)
        for attribute in sorted(graph.attribute_universe)[:3]:
            g_l = attribute_weighted_graph(graph, attribute, weighting)
            assert_same_parents(g_l)


# ------------------------------------------------------- hierarchy arrays


def assert_same_lca_tables(hierarchy) -> None:
    index = LcaIndex(hierarchy)
    first, tour, table, log = reference_lca_tables(hierarchy)
    assert np.array_equal(index._first, first)
    assert np.array_equal(index._tour, tour)
    assert np.array_equal(index._table, table)
    assert np.array_equal(index._log, log)


def recorded_rank_order(monkeypatch, hierarchy) -> list[int]:
    """The order in which ``_bottom_up_ranks`` visits internal vertices."""
    seen: list[int] = []
    children = CommunityHierarchy.children

    def spy(self, vertex):
        seen.append(vertex)
        return children(self, vertex)

    monkeypatch.setattr(CommunityHierarchy, "children", spy)
    _bottom_up_ranks(hierarchy, {})
    monkeypatch.undo()
    return seen


class TestHierarchyArrays:
    def test_lca_tables_paper_tree(self, paper_hierarchy):
        assert_same_lca_tables(paper_hierarchy)

    @pytest.mark.parametrize("seed", range(12))
    def test_lca_tables_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        assert_same_lca_tables(random_hierarchy(int(rng.integers(2, 300)), rng))

    def test_rank_order_paper_tree(self, monkeypatch, paper_hierarchy):
        expected = sorted(
            paper_hierarchy.internal_vertices(),
            key=paper_hierarchy.depth, reverse=True,
        )
        assert recorded_rank_order(monkeypatch, paper_hierarchy) == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_rank_order_random_trees(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        hierarchy = random_hierarchy(int(rng.integers(2, 300)), rng)
        expected = sorted(
            hierarchy.internal_vertices(), key=hierarchy.depth, reverse=True
        )
        assert recorded_rank_order(monkeypatch, hierarchy) == expected


# --------------------------------------------------------------- tree HFS


class TestTreeHfsMatchesHeap:
    @pytest.mark.parametrize("theta", [5, 10])
    @pytest.mark.parametrize("seed", range(8))
    def test_buckets_and_ranks(self, seed, theta):
        graph, hierarchy, arena = hfs_case(seed, theta)
        expected = reference_tree_hfs(hierarchy, arena)
        assert _tree_hfs_arena(hierarchy, arena) == expected
        index = HimorIndex.build(graph, hierarchy, theta=theta, rr_graphs=arena)
        reference_ranks = _bottom_up_ranks(hierarchy, expected)
        for v in range(graph.n):
            assert np.array_equal(index.ranks_of(v), reference_ranks[v])

    def test_paper_tree(self, paper_graph, paper_hierarchy):
        arena = sample_arena(paper_graph, 10 * paper_graph.n, rng=3)
        assert _tree_hfs_arena(paper_hierarchy, arena) == reference_tree_hfs(
            paper_hierarchy, arena
        )

    @pytest.mark.parametrize("theta", [5, 10])
    def test_registry_graph_spans_several_chunks(self, theta):
        graph = load_dataset("cora", scale=0.5, seed=7).graph
        hierarchy = agglomerative_hierarchy(graph)
        arena = sample_arena(graph, theta * graph.n, rng=5)
        assert arena.n_samples > himor._HFS_CHUNK
        assert _tree_hfs_arena(hierarchy, arena) == reference_tree_hfs(
            hierarchy, arena
        )


# ----------------------------------------------------------- HFS contracts


def checkpoints_of(hfs, hierarchy, arena, every, start=0, buckets=None):
    """``[(next_sample, buckets snapshot)]`` a traversal reports."""
    seen: list = []
    hfs(
        hierarchy, arena, start=start, buckets=copy.deepcopy(buckets),
        checkpoint_every=every,
        on_checkpoint=lambda i, b: seen.append((i, copy.deepcopy(b))),
    )
    return seen


@pytest.fixture(scope="module")
def long_case():
    """~3,000 samples: every checkpoint interval up to 1,500 fires."""
    graph, hierarchy, arena = hfs_case(3, 10, n_lo=300, n_hi=320)
    assert arena.n_samples > 3000
    return graph, hierarchy, arena


class TestHfsContracts:
    @pytest.mark.parametrize("start", [1, 37, 1023, 1024, 1500, "all"])
    def test_resume_equals_uninterrupted(self, long_case, start):
        _, hierarchy, arena = long_case
        start = arena.n_samples if start == "all" else start
        partial = _tree_hfs_arena(hierarchy, arena.take(np.arange(start)))
        assert partial == reference_tree_hfs(hierarchy, arena.take(np.arange(start)))
        resumed = _tree_hfs_arena(hierarchy, arena, start=start, buckets=partial)
        assert resumed == reference_tree_hfs(hierarchy, arena)

    @pytest.mark.parametrize("every", [4, 64, 1500])
    def test_checkpoints_match_reference(self, long_case, every):
        _, hierarchy, arena = long_case
        got = checkpoints_of(_tree_hfs_arena, hierarchy, arena, every)
        expected = checkpoints_of(reference_tree_hfs, hierarchy, arena, every)
        assert [i for i, _ in got] == [i for i, _ in expected]
        assert got == expected

    def test_checkpoint_every_sample(self):
        _, hierarchy, arena = hfs_case(5, 5, n_lo=30, n_hi=40)
        got = checkpoints_of(_tree_hfs_arena, hierarchy, arena, 1)
        expected = checkpoints_of(reference_tree_hfs, hierarchy, arena, 1)
        assert [i for i, _ in got] == list(range(1, arena.n_samples))
        assert got == expected

    def test_checkpoints_after_unaligned_resume(self, long_case):
        _, hierarchy, arena = long_case
        partial = reference_tree_hfs(hierarchy, arena.take(np.arange(13)))
        got = checkpoints_of(
            _tree_hfs_arena, hierarchy, arena, 64, start=13, buckets=partial
        )
        expected = checkpoints_of(
            reference_tree_hfs, hierarchy, arena, 64, start=13, buckets=partial
        )
        assert got == expected

    @pytest.mark.parametrize("k", [0, 5, 63, 64, 1023, 1030, 2999])
    def test_sample_fault_fires_at_same_sample(self, long_case, k):
        _, hierarchy, arena = long_case
        seen: list = []
        with inject(site="himor_sample", after=k, exc=RuntimeError) as plan:
            with pytest.raises(RuntimeError):
                _tree_hfs_arena(
                    hierarchy, arena, checkpoint_every=64,
                    on_checkpoint=lambda i, b: seen.append((i, copy.deepcopy(b))),
                )
        # The (k + 1)-th sample's hook raised: samples 0..k-1 got through.
        assert plan.calls == k + 1
        expected = [
            (i, b)
            for i, b in checkpoints_of(reference_tree_hfs, hierarchy, arena, 64)
            if i <= k
        ]
        assert seen == expected

    def test_budget_expiring_mid_build_raises(self, long_case):
        _, hierarchy, arena = long_case
        now = [0.0]

        def clock():
            now[0] += 1.0  # every budget look costs one "second"
            return now[0]

        budget = ExecutionBudget(deadline_s=2.5, clock=clock)
        with pytest.raises(DeadlineExceededError):
            _tree_hfs_arena(hierarchy, arena, budget=budget)
        # Construction, then one look per chunk: the third chunk's look
        # is the first past the deadline.
        assert now[0] == 4.0

    def test_budget_checked_before_every_chunk(self, long_case):
        _, hierarchy, arena = long_case
        looks = []

        class Recorder:
            def check(self):
                looks.append(None)

        _tree_hfs_arena(hierarchy, arena, budget=Recorder())
        chunks = -(-arena.n_samples // himor._HFS_CHUNK)
        assert len(looks) == chunks
