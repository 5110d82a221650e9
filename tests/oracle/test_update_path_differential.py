"""Differential tests: the update path vs its frozen references.

An update batch edits only the rows it touches
(:meth:`AttributedGraph.edited`), the edge-set checksum is read off the
adjacency rows once per graph, and HIMOR's rank recombination is one
array pass with one sort. None of the three may change a result: the
edited graph must equal :func:`reference_apply_updates`' whole rebuild,
every invalid batch must raise the same :class:`GraphError` message, the
digest must equal :func:`reference_graph_checksum` (WAL records,
snapshots and persisted indexes store it), and the ranks of a charge
table must equal :func:`reference_bottom_up_ranks` over its buckets
(:func:`charge_buckets`) array for array.
"""

import numpy as np
import pytest

from repro.core.himor import _ranks_from_charges, _tree_hfs_arena, graph_checksum
from repro.dynamic.updates import AttrUpdate, EdgeUpdate, apply_updates
from repro.errors import GraphError, IndexError_
from repro.graph.graph import AttributedGraph
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.influence.arena import sample_arena
from repro.utils import shm
from repro.utils.shm import close_all_segments, segment_exists

from tests.oracle.reference import (
    charge_buckets,
    reference_apply_updates,
    reference_bottom_up_ranks,
    reference_graph_checksum,
)

GRAPH_SEEDS = range(24)
KINDS = ["edges", "attributes", "mixed"]


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    close_all_segments()


def random_graph(seed: int) -> AttributedGraph:
    """A random attributed graph; ``seed % 6 == 0`` has no edges at all."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    edges = set()
    if seed % 6:
        for _ in range(int(rng.integers(0, 3 * n))):
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u != v:
                edges.add((min(u, v), max(u, v)))
    attributes = [
        rng.choice(6, size=int(rng.integers(0, 4)), replace=False).tolist()
        for _ in range(n)
    ]
    return AttributedGraph(n, sorted(edges), attributes=attributes)


def random_batch(graph: AttributedGraph, kind: str, rng) -> list:
    """A valid, conflict-free batch of edge and/or attribute updates.

    Attribute batches may add attribute 6 (new to the universe) and may
    strip a node of attributes, so carriers vanish as well as appear.
    """
    batch: list = []
    if kind in ("edges", "mixed"):
        edges = list(graph.edges())
        for i in rng.permutation(len(edges))[: int(rng.integers(0, 5))]:
            batch.append(EdgeUpdate(*edges[i], add=False))
        for _ in range(int(rng.integers(1, 6))):
            u, v = (int(x) for x in rng.integers(0, graph.n, size=2))
            key = (min(u, v), max(u, v))
            if u != v and not graph.has_edge(u, v) and all(
                not isinstance(b, EdgeUpdate) or b.key() != key for b in batch
            ):
                batch.append(EdgeUpdate(v, u, add=True))
    if kind in ("attributes", "mixed"):
        seen = set()
        for node in rng.integers(0, graph.n, size=int(rng.integers(1, 8))).tolist():
            carried = sorted(graph.attributes_of(node))
            if carried and rng.random() < 0.5:
                attribute, add = carried[int(rng.integers(len(carried)))], False
            else:
                attribute, add = int(rng.integers(0, 7)), True
                if attribute in carried:
                    continue
            if (node, attribute) not in seen:
                seen.add((node, attribute))
                batch.append(AttrUpdate(node, attribute, add=add))
    rng.shuffle(batch)
    return batch


def assert_same_graph(got: AttributedGraph, expected: AttributedGraph) -> None:
    assert got.n == expected.n
    assert got.m == expected.m
    assert np.array_equal(got.degrees, expected.degrees)
    for v in range(expected.n):
        assert got.neighbors(v).dtype == expected.neighbors(v).dtype
        assert np.array_equal(got.neighbors(v), expected.neighbors(v))
        assert got.attributes_of(v) == expected.attributes_of(v)
    assert got.attribute_universe == expected.attribute_universe
    for attribute in expected.attribute_universe:
        carriers = got.nodes_with_attribute(attribute)
        assert carriers.dtype == np.int64
        assert np.array_equal(carriers, expected.nodes_with_attribute(attribute))
    assert list(got.edges()) == list(expected.edges())


def outcome(apply, graph, batch):
    """The applied graph, or ``(error type, message)``."""
    try:
        return apply(graph, batch)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


# ------------------------------------------------------------- graph edits


class TestApplyMatchesRebuild:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    def test_batches_chain(self, seed, kind):
        """Three successive batches, each applied to the edited graph."""
        rng = np.random.default_rng(100 + seed)
        graph = expected = random_graph(seed)
        for _ in range(3):
            batch = random_batch(graph, kind, rng)
            graph = apply_updates(graph, batch)
            expected = reference_apply_updates(expected, batch)
            assert_same_graph(graph, expected)
            assert graph_checksum(graph) == reference_graph_checksum(expected)

    def test_last_carrier_dropped_and_new_attribute_appears(self):
        graph = AttributedGraph(3, [(0, 1)], attributes=[[1], [1, 2], []])
        batch = [AttrUpdate(0, 1, add=False), AttrUpdate(1, 1, add=False),
                 AttrUpdate(2, 9, add=True)]
        got = apply_updates(graph, batch)
        assert got.attribute_universe == {2, 9}
        assert_same_graph(got, reference_apply_updates(graph, batch))

    def test_last_edge_removed_and_first_edge_added(self):
        graph = AttributedGraph(3, [(0, 1)])
        empty = apply_updates(graph, [EdgeUpdate(1, 0, add=False)])
        assert empty.m == 0
        assert_same_graph(empty, reference_apply_updates(graph, [EdgeUpdate(1, 0, add=False)]))
        again = apply_updates(empty, [EdgeUpdate(2, 0)])
        assert_same_graph(again, reference_apply_updates(empty, [EdgeUpdate(2, 0)]))

    def test_empty_batch(self, paper_graph):
        assert_same_graph(apply_updates(paper_graph, []), paper_graph)

    def test_input_graph_untouched(self, paper_graph):
        before = reference_apply_updates(paper_graph, [])
        apply_updates(paper_graph, [EdgeUpdate(2, 3), EdgeUpdate(0, 1, add=False),
                                    AttrUpdate(0, 7)])
        assert_same_graph(paper_graph, before)


INVALID = {
    "self-loop": [EdgeUpdate(3, 3)],
    "endpoint below range": [EdgeUpdate(-1, 2)],
    "endpoint above range": [EdgeUpdate(2, 99)],
    "duplicate insert": [EdgeUpdate(2, 3), EdgeUpdate(1, 0)],
    "phantom delete": [EdgeUpdate(2, 3), EdgeUpdate(2, 9, add=False)],
    "node out of range": [AttrUpdate(99, 1)],
    "negative node": [AttrUpdate(-2, 1)],
    "negative attribute": [AttrUpdate(0, -1)],
    "attribute re-added": [AttrUpdate(0, 7), AttrUpdate(0, 1)],
    "absent attribute removed": [AttrUpdate(0, 3, add=False)],
    "edge conflict": [EdgeUpdate(2, 3), EdgeUpdate(3, 2, add=False)],
    "attribute conflict": [AttrUpdate(0, 7), AttrUpdate(0, 7, add=False)],
    "unknown update type": [EdgeUpdate(2, 3), ("not", "an update")],
    "conflict checked before validity": [EdgeUpdate(0, 1), EdgeUpdate(0, 1)],
    "first invalid update wins": [AttrUpdate(0, 3, add=False), EdgeUpdate(4, 4)],
}


class TestInvalidBatchesMatch:
    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_same_error(self, paper_graph, case):
        got = outcome(apply_updates, paper_graph, INVALID[case])
        expected = outcome(reference_apply_updates, paper_graph, INVALID[case])
        assert isinstance(expected, tuple) and expected[0] is GraphError
        assert got == expected

    def test_weighted_graph_rejected(self):
        weighted = AttributedGraph(3, [(0, 1), (1, 2)], edge_weights={(0, 1): 2.0})
        with pytest.raises(GraphError, match="weighted"):
            apply_updates(weighted, [EdgeUpdate(0, 2)])
        with pytest.raises(GraphError, match="weighted"):
            apply_updates(weighted, [AttrUpdate(0, 1)])


# ------------------------------------------------------------ shared memory


def test_edit_of_attached_graph_outlives_the_segment(paper_graph):
    """An edit of a shared-memory graph keeps no view into the segment."""
    batch = [EdgeUpdate(2, 3), EdgeUpdate(0, 1, add=False), AttrUpdate(0, 7)]
    expected = reference_apply_updates(paper_graph, batch)
    segment = paper_graph.to_shared()
    name = segment.name
    attached = AttributedGraph.attach(name)
    derived = apply_updates(attached, batch)
    attached.detach_shared()
    segment.close()
    del attached, segment
    close_all_segments()
    assert not segment_exists(name)
    # A mapping whose buffer still has live numpy views is parked, not
    # closed: none may be left once the source graph is gone.
    assert not shm._registry() and not shm._zombies
    assert_same_graph(derived, expected)
    assert graph_checksum(derived) == reference_graph_checksum(expected)


# ------------------------------------------------------------------ ranks


def random_hierarchy(n: int, rng) -> CommunityHierarchy:
    """A random non-binary tree: repeatedly merge 2-4 random clusters."""
    clusters = list(range(n))
    merges = []
    while len(clusters) > 1:
        k = int(rng.integers(2, min(4, len(clusters)) + 1))
        picked = set(rng.choice(len(clusters), size=k, replace=False).tolist())
        merges.append([clusters[i] for i in sorted(picked)])
        clusters = [c for i, c in enumerate(clusters) if i not in picked]
        clusters.append(n + len(merges) - 1)
    return CommunityHierarchy.from_merges(n, merges)


def caterpillar(n: int) -> CommunityHierarchy:
    """The deepest tree: each merge adds one leaf to the previous cluster."""
    merges = [[0, 1]] + [[n + t - 1, t + 1] for t in range(1, n - 1)]
    return CommunityHierarchy.from_merges(n, merges)


def random_charges(hierarchy: CommunityHierarchy, rng) -> tuple:
    """A charge table on members of random communities: some communities
    uncharged, counts from a small range so ties are common."""
    n = hierarchy.n_leaves
    keys: list[int] = []
    for vertex in range(n, hierarchy.n_vertices):
        if rng.random() < 0.3:
            continue
        members = hierarchy.members(vertex)
        picked = rng.choice(members, size=int(rng.integers(1, len(members) + 1)),
                            replace=False)
        keys.extend(vertex * n + int(v) for v in picked)
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    return keys, rng.integers(1, 4, size=len(keys)).astype(np.int64)


def no_charges() -> tuple:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def assert_same_ranks(hierarchy, charges) -> None:
    keys, counts = charges
    n = hierarchy.n_leaves
    got = _ranks_from_charges(hierarchy, keys // n, keys % n, counts)
    expected = reference_bottom_up_ranks(hierarchy, charge_buckets(charges, n))
    assert len(got) == len(expected) == hierarchy.n_leaves
    for v, (ours, theirs) in enumerate(zip(got, expected)):
        assert ours.dtype == theirs.dtype, v
        assert np.array_equal(ours, theirs), v


class TestRanksMatchDictMerge:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        hierarchy = random_hierarchy(int(rng.integers(2, 300)), rng)
        assert_same_ranks(hierarchy, random_charges(hierarchy, rng))

    @pytest.mark.parametrize("n", [2, 3, 17, 120])
    def test_caterpillars(self, n):
        hierarchy = caterpillar(n)
        assert_same_ranks(hierarchy, random_charges(hierarchy, np.random.default_rng(n)))

    def test_no_charges(self, paper_hierarchy):
        assert_same_ranks(paper_hierarchy, no_charges())

    def test_single_leaf(self):
        hierarchy = CommunityHierarchy.from_parents(1, [-1])
        assert_same_ranks(hierarchy, no_charges())

    def test_all_tied(self, paper_hierarchy):
        root = paper_hierarchy.root
        members = np.sort(paper_hierarchy.members(root)).astype(np.int64)
        keys = root * paper_hierarchy.n_leaves + members
        assert_same_ranks(paper_hierarchy, (keys, np.full(len(keys), 2, dtype=np.int64)))

    @pytest.mark.parametrize("seed", range(4))
    def test_hfs_buckets(self, seed):
        graph = random_graph(seed * 6 + 1)
        hierarchy = agglomerative_hierarchy(graph)
        arena = sample_arena(graph, 10 * graph.n, rng=seed)
        assert_same_ranks(hierarchy, _tree_hfs_arena(hierarchy, arena))

    @pytest.mark.parametrize("tag_of", [
        lambda h: 0,                    # a leaf is no community
        lambda h: h.n_vertices,         # no such vertex
        lambda h: h.n_leaves,           # a community the node is not in
    ])
    def test_charge_outside_its_community_rejected(self, tag_of):
        hierarchy = caterpillar(6)  # n_leaves is the {0, 1} community
        with pytest.raises(IndexError_, match="not one of its members"):
            _ranks_from_charges(hierarchy, np.array([tag_of(hierarchy)]),
                                np.array([5]), np.array([1]))
