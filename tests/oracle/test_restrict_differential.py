"""Differential tests: by-source ``restrict``/``take`` vs the frozen
whole-arena reference.

:meth:`RRArena.restrict` picks the samples sourced in ``allowed``
through the by-source index, copies them out with :meth:`RRArena.take`,
and runs the induced BFS and CSR rebuild on that sub-arena only.
:func:`reference_restrict` masks, searches and rebuilds over every
entry of the pool. The two must give array-equal arenas — every field,
its dtype and the sample count — on arenas drawn by every sampler, on
attached (read-only shared-memory), repaired, concatenated and taken
arenas, for empty, one-node, unsourced-node, whole-graph, hierarchy
vertex and random ``allowed`` sets, each passed as a set, a list and an
unsorted array with repeats. :meth:`RRArena.take`, which now reads
cached edge-block starts, must match :func:`reference_take`, and the
sample pick :meth:`RRArena.sourced_in` must equal :func:`reference_take`
of the samples sourced in ``allowed``, in pool order.
"""

import numpy as np
import pytest

from repro.errors import InfluenceError
from repro.graph.graph import AttributedGraph
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.influence.arena import (
    RRArena,
    concatenate_arenas,
    repair_arena,
    sample_arena,
)
from repro.influence.fastsample import sample_arena_fast, sample_arena_seeded_fast
from repro.utils.shm import close_all_segments

from tests.oracle.reference import reference_restrict, reference_take

FIELDS = (
    "sources",
    "node_offsets",
    "nodes",
    "edge_start",
    "edge_count",
    "edge_dst_entry",
)
SEEDS = range(40)
SAMPLERS = ("compatible", "fast", "seeded")
DERIVED = ("attached", "repaired", "concatenated", "taken")


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    close_all_segments()


def assert_same_arena(got: RRArena, want: RRArena) -> None:
    assert got.n == want.n
    assert got.n_samples == want.n_samples
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        np.testing.assert_array_equal(a, b, err_msg=field)


def random_graph(rng: np.random.Generator):
    """Node count and edge set of a random connected graph."""
    n = int(rng.integers(12, 70))
    edges = {(i - 1, i) for i in range(1, n)}
    for _ in range(int(rng.integers(n, 3 * n))):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, edges


def base_case(seed: int, sampler: str):
    """Graph, hierarchy, and an arena of fewer samples than nodes (so some
    node always sources none) drawn by ``sampler``."""
    rng = np.random.default_rng(seed)
    n, edges = random_graph(rng)
    graph = AttributedGraph(n, sorted(edges))
    count = int(rng.integers(n // 2, n))
    if sampler == "compatible":
        arena = sample_arena(graph, count, rng=seed + 100)
    elif sampler == "fast":
        arena = sample_arena_fast(graph, count, rng=seed + 100)
    else:
        arena = sample_arena_seeded_fast(graph, count, base_seed=seed + 100)
    return rng, graph, edges, arena


def allowed_cases(rng, graph, arena, hierarchy):
    """``(label, nodes)`` pairs covering every shape of ``C_l``."""
    n = graph.n
    unsourced = np.setdiff1d(np.arange(n), arena.sources)
    internal = list(hierarchy.internal_vertices())
    vertex = internal[int(rng.integers(len(internal)))]
    cases = [
        ("empty", np.empty(0, dtype=np.int64)),
        ("one", np.array([int(arena.sources[0])])),
        ("all", np.arange(n)),
        ("vertex", hierarchy.members(vertex)),
        ("random", rng.choice(n, size=int(rng.integers(1, n)), replace=False)),
    ]
    if len(unsourced):
        cases.append(("unsourced", unsourced[:1]))
    return cases


def spellings(rng, nodes: np.ndarray):
    """The same node set as a set, a list and an unsorted array with repeats."""
    nodes = np.asarray(nodes, dtype=np.int64)
    repeated = np.concatenate([nodes, nodes[: max(1, len(nodes) // 2)]])
    yield "set", set(int(v) for v in nodes)
    yield "list", [int(v) for v in nodes]
    yield "array", rng.permutation(repeated)


def check_restrict(rng, graph, arena, hierarchy) -> None:
    before = {field: getattr(arena, field).copy() for field in FIELDS}
    for label, nodes in allowed_cases(rng, graph, arena, hierarchy):
        want = reference_restrict(arena, set(int(v) for v in nodes))
        want_pick = reference_take(arena, np.flatnonzero(np.isin(arena.sources, nodes)))
        for spelling, allowed in spellings(rng, nodes):
            assert_same_arena(arena.sourced_in(allowed), want_pick)
            got = arena.restrict(allowed)
            assert_same_arena(got, want)
            for field in FIELDS:
                array = getattr(got, field)
                assert array.flags.writeable or array.size == 0, (label, spelling, field)
                assert not np.shares_memory(array, getattr(arena, field))
    for field in FIELDS:
        np.testing.assert_array_equal(getattr(arena, field), before[field])


def derived_arena(kind: str, seed: int, graph, edges, arena):
    """An arena of ``kind`` built from ``arena`` after ``arena``'s own
    derived maps are warm, so none of them may leak into the result."""
    rng = np.random.default_rng(seed + 7)
    arena.restrict(rng.choice(graph.n, size=graph.n // 2, replace=False))
    arena.take(np.arange(arena.n_samples))
    if kind == "attached":
        segment = arena.to_shared()
        return RRArena.attach(segment.name), graph
    if kind == "repaired":
        seeded = sample_arena_seeded_fast(graph, arena.n_samples, base_seed=seed)
        seeded.restrict(np.arange(graph.n))
        # An edge at sample 0's source, so at least that sample is redrawn.
        u = int(seeded.sources[0])
        v = next(
            w for w in range(graph.n)
            if w != u and (min(u, w), max(u, w)) not in edges
        )
        grown = AttributedGraph(graph.n, sorted(edges | {(min(u, v), max(u, v))}))
        repair = repair_arena(seeded, grown, [u, v], base_seed=seed)
        assert repair.n_repaired >= 1
        return repair.arena, grown
    if kind == "concatenated":
        other = sample_arena_fast(graph, graph.n // 2, rng=seed + 300)
        return concatenate_arenas([arena, other, arena]), graph
    picks = rng.integers(0, arena.n_samples, size=arena.n_samples + 5)
    return arena.take(picks), graph


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_restrict_matches_reference(seed, sampler):
    rng, graph, _, arena = base_case(seed, sampler)
    check_restrict(rng, graph, arena, agglomerative_hierarchy(graph))


@pytest.mark.parametrize("kind", DERIVED)
@pytest.mark.parametrize("seed", SEEDS[:15])
def test_derived_restrict_matches_reference(seed, kind):
    rng, graph, edges, arena = base_case(seed, SAMPLERS[seed % 3])
    derived, derived_graph = derived_arena(kind, seed, graph, edges, arena)
    try:
        if kind == "attached":
            assert derived.is_readonly
        check_restrict(rng, derived_graph, derived, agglomerative_hierarchy(derived_graph))
    finally:
        derived.detach()


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("seed", SEEDS[:20])
def test_take_matches_reference(seed, sampler):
    rng, _, _, arena = base_case(seed, sampler)
    before = {field: getattr(arena, field).copy() for field in FIELDS}
    picks = [
        np.empty(0, dtype=np.int64),
        np.arange(arena.n_samples),
        rng.integers(0, arena.n_samples, size=int(rng.integers(1, 3 * arena.n_samples))),
        rng.permutation(arena.n_samples)[: arena.n_samples // 2].tolist(),
    ]
    for indices in picks:
        assert_same_arena(arena.take(indices), reference_take(arena, indices))
    for field in FIELDS:
        np.testing.assert_array_equal(getattr(arena, field), before[field])


@pytest.mark.parametrize("spelling", ["list", "set", "array"])
def test_out_of_range_raises_like_reference(spelling):
    _, graph, _, arena = base_case(0, "fast")
    for nodes in ([-1], [0, graph.n], [3, -2, 3], [graph.n + 5, 0]):
        bad = {"list": list, "set": set, "array": np.array}[spelling](nodes)
        with pytest.raises(InfluenceError) as want:
            reference_restrict(arena, bad)
        for method in (arena.restrict, arena.sourced_in):
            with pytest.raises(InfluenceError) as got:
                method(bad)
            assert str(got.value) == str(want.value)




def test_scattered_edge_blocks_are_rejected():
    """``take`` (and so ``restrict``) splices per-sample edge blocks; an
    arena storing sample 1's edges before sample 0's must raise, not
    yield a wrong splice."""
    # Sample 0: 0 -> 1; sample 1: 2 -> 3. Edge 0 belongs to sample 1.
    arena = RRArena(
        4,
        sources=np.array([0, 2]),
        node_offsets=np.array([0, 2, 4]),
        nodes=np.array([0, 1, 2, 3]),
        edge_start=np.array([1, 2, 0, 2]),
        edge_count=np.array([1, 0, 1, 0]),
        edge_dst_entry=np.array([3, 1]),
    )
    np.testing.assert_array_equal(
        reference_restrict(arena, [2, 3]).nodes, [2, 3]
    )
    with pytest.raises(InfluenceError, match="per-sample blocks"):
        arena.take([1])
    with pytest.raises(InfluenceError, match="per-sample blocks"):
        arena.restrict([2, 3])
