"""The differential-testing oracle: a deliberately naive RR stack.

Everything here is written for obviousness, not speed, and is *frozen* —
it must not be "optimized" or rewired to share code with
``repro.influence``. The production arena engine is tested by comparing
it, seed for seed, against these implementations:

* :func:`reference_rr_graphs` — the dict-based sampler exactly as the
  paper describes it, consuming the RNG one explored node at a time in
  LIFO order. Any production sampler claiming stream compatibility must
  reproduce its output bit for bit.
* :func:`brute_reachable` — Definition-3 induced reachability recomputed
  from scratch with a plain BFS.
* :func:`brute_force_cod` — Algorithm 1's *specification*: for every
  chain level, recount which samples reach each node inside that
  community and take top-k thresholds by sorting. No HFS, no buckets, no
  incremental pass.
* :func:`brute_force_himor_ranks` — HIMOR's *specification*: every node's
  rank in every ancestor community, by recounting induced reachability
  per community. No tree HFS, no buckets, no bottom-up merge.
* :func:`enumerate_exact_spread` — closed-form ``sigma_g(q)`` on tiny
  graphs by summing over every possible world (Theorem 1's left side).
* :func:`reference_weighted_graph` — ``g_l`` as a per-edge loop over
  the scalar weighting formulas, and :func:`reference_induced_subgraph`,
  the edge-by-edge induced subgraph that keeps those weights. Together
  they are the whole-graph-then-cut path that production's
  ``attribute_weighted_subgraph`` must reproduce bit for bit.
* :func:`reference_lore_chain` — LORE (Algorithm 2) run per query from
  scratch: one scalar LCA per query-attributed edge for the scores
  (:func:`reference_reclustering_scores`), a fresh local reclustering of
  ``C_l`` on the reference weighted subgraph, and the chain assembled
  from boxed-int member sets. Memoized production chains must match it
  bit for bit.
* :class:`ReferenceChain` — ``CommunityChain`` in member-list form:
  sorted member arrays stored per level, built by
  :meth:`ReferenceChain.from_member_lists` (``np.unique`` per level,
  painted largest first) or :meth:`ReferenceChain.from_hierarchy` (one
  scalar ``lca(u, q)`` per node). Production chains must give equal
  node levels, sizes, depths and members.
* :func:`reference_merges` — NN-chain clustering over dict-of-dict rows
  that relabels both merged clusters' neighbours and seeds every empty
  chain by rescanning all live clusters for the smallest one with a
  neighbor (:func:`reference_agglomerative_hierarchy` is its hierarchy).
  Production's cursor-seeded, slot-indexed clustering must reproduce its
  merge list (and so its vertex ids) exactly.
* :func:`reference_layout` — the hierarchy's DFS layout (depths, sizes,
  leaf ranges, leaf order and positions) written one numpy scalar per
  vertex. Production's list-built layout must give equal arrays.
* :func:`reference_lca_tables` — the Euler tour, sparse table and log
  table of :class:`~repro.hierarchy.lca.LcaIndex` built one validated
  ``depth``/``children`` call per tour step and one ``log`` entry per
  Python iteration.
* :func:`reference_tree_hfs` — HIMOR's tree HFS with one depth-keyed
  heap per sample and a scalar ``lca``/``depth`` call per pushed edge.
  Production's vectorized frontier fixpoint must produce a charge table
  whose :func:`charge_buckets` form is ``==`` its buckets.
* :func:`reference_hfs_levels` — Algorithm 1's HFS as Dial's algorithm:
  one bucket per chain level, entries activated in ascending level order
  so an entry's first activation is final.
  :func:`reference_level_bucket_counts` tallies its assignment one entry
  at a time. Production's one-frontier label-correcting relaxation must
  produce ``==`` arrays.
* :func:`reference_apply_updates` — an update batch applied by copying
  the whole edge set and every node's attribute set into Python sets,
  editing them, and rebuilding the graph through the constructor.
  Production's row-editing path must give an equal graph and raise the
  same :class:`~repro.errors.GraphError` messages.
* :func:`reference_graph_checksum` — the edge-set digest over Python
  tuples sorted and serialized by ``json``. Production's cached digest
  must be the same string.
* :func:`reference_bottom_up_ranks` — HIMOR's rank recombination as
  smaller-into-larger dict merges, deepest vertex first, with one
  ``bisect`` per member. Production's one-sort array pass must give
  ``==`` rank arrays.
* :func:`reference_restrict` and :func:`reference_take` — the pool
  induced on ``C_l`` and the sample splice as they ran over the whole
  arena: a keep-sample mask, a BFS seeded at every kept source, and an
  ``argsort`` plus ``bincount`` over every entry; ``take`` recomputing
  each sample's edge-block start with a ``cumsum`` over every entry.
  Production's by-source sub-arena path must give array-equal arenas.
* :class:`ReferenceCODU`, :class:`ReferenceCODLMinus`,
  :class:`ReferenceCODL` and :func:`reference_himor_cod` — the COD
  pipelines as they evaluated before they became adapters over the
  server's rungs: each one samples, evaluates, scans the HIMOR index and
  draws its restricted fallback itself. The adapters must return equal
  member arrays and chain lengths at the same seed.
"""

from __future__ import annotations

import hashlib
import heapq
import time
from bisect import bisect_left
from itertools import product

import numpy as np

from repro.core.compressed import CompressedEvaluation, compressed_cod
from repro.core.himor import HimorIndex
from repro.core.lore import (
    LoreResult,
    _LocalRecluster,
    lore_chain,
    select_reclustering_community,
)
from repro.core.pipeline import CODResult
from repro.core.problem import CODQuery
from repro.dynamic.updates import AttrUpdate, EdgeUpdate
from repro.errors import GraphError, HierarchyError, InfluenceError, QueryError
from repro.graph.graph import AttributedGraph
from repro.graph.subgraph import SubgraphView
from repro.graph.weighting import AttributeWeighting
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.influence.arena import RRArena, sample_arena
from repro.utils.persist import payload_checksum
from repro.utils.rng import ensure_rng


def reference_rr_graph(
    graph: AttributedGraph,
    rng: np.random.Generator,
    source: int,
    allowed: "set[int] | None" = None,
) -> dict[int, list[int]]:
    """One RR graph as a dict, naive transcription of Definition 2.

    Exploring ``v`` flips every incident reverse edge with the weighted
    cascade's ``p = 1 / deg(v)`` in one Bernoulli block, and draws nothing
    for an isolated ``v``.
    """
    adjacency: dict[int, list[int]] = {source: []}
    frontier = [source]
    while frontier:
        v = frontier.pop()
        neighbors = graph.neighbors(v)
        if len(neighbors):
            fired = neighbors[rng.random(len(neighbors)) < 1.0 / len(neighbors)]
        else:
            fired = neighbors
        targets: list[int] = []
        for u in fired:
            u = int(u)
            if allowed is not None and u not in allowed:
                continue
            targets.append(u)
            if u not in adjacency:
                adjacency[u] = []
                frontier.append(u)
        adjacency[v] = targets
    return adjacency


def reference_rr_graphs(
    graph: AttributedGraph,
    count: int,
    rng: "int | np.random.Generator | None" = None,
    allowed: "set[int] | None" = None,
) -> list[tuple[int, dict[int, list[int]]]]:
    """``count`` samples as ``(source, adjacency)`` pairs.

    Sources are pre-drawn in one vectorized call — the stream contract
    every production sampler must honour.
    """
    rng = ensure_rng(rng)
    if allowed is not None:
        pool = np.asarray(sorted(allowed), dtype=np.int64)
        sources = pool[rng.integers(0, len(pool), size=count)]
    else:
        sources = rng.integers(0, graph.n, size=count)
    return [
        (int(s), reference_rr_graph(graph, rng, int(s), allowed=allowed))
        for s in sources
    ]


def brute_reachable(
    adjacency: dict[int, list[int]], source: int, allowed: "set[int]"
) -> set[int]:
    """Definition 3 by plain BFS, no shortcuts."""
    if source not in allowed:
        return set()
    seen = {source}
    queue = [source]
    while queue:
        v = queue.pop(0)
        for u in adjacency.get(v, []):
            if u in allowed and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def brute_force_cod(
    n: int,
    q: int,
    member_sets: list[set[int]],
    samples: list[tuple[int, dict[int, list[int]]]],
    k_values: tuple[int, ...],
) -> tuple[list[int], list[list[int]]]:
    """Algorithm 1's answer recomputed per level from first principles.

    For each chain level: count, for every node, the samples in which it
    is reachable inside that community (``brute_reachable``), then read
    the query's count and the k-th largest counts. Returns
    ``(query_counts, thresholds)`` shaped like ``CompressedEvaluation``.
    """
    query_counts: list[int] = []
    thresholds: list[list[int]] = []
    for members in member_sets:
        counts: dict[int, int] = {}
        for source, adjacency in samples:
            for v in brute_reachable(adjacency, source, members):
                counts[v] = counts.get(v, 0) + 1
        ordered = sorted(counts.values(), reverse=True)
        query_counts.append(counts.get(q, 0))
        thresholds.append(
            [ordered[kv - 1] if kv <= len(ordered) else 0 for kv in k_values]
        )
    return query_counts, thresholds


def brute_force_himor_ranks(
    hierarchy, samples: list[tuple[int, dict[int, list[int]]]]
) -> list[list[int]]:
    """HIMOR's rank table recomputed per community from first principles.

    For every ancestor community ``C`` of a node ``v`` (deepest first, as
    ``hierarchy.path_communities(v)`` lists them), ``count_C(u)`` is the
    number of samples in which ``brute_reachable`` reaches ``u`` inside
    ``C``, and ``rank_C(v) = 1 + #{u in C : count_C(u) > count_C(v)}``.
    Returns one rank list per node, shaped like ``HimorIndex.ranks_of``.
    """
    counts_in: dict[int, dict[int, int]] = {}
    ranks: list[list[int]] = []
    for v in range(hierarchy.n_leaves):
        row: list[int] = []
        for community in hierarchy.path_communities(v):
            community = int(community)
            if community not in counts_in:
                members = set(int(u) for u in hierarchy.members(community))
                counts = {u: 0 for u in members}
                for source, adjacency in samples:
                    for u in brute_reachable(adjacency, source, members):
                        counts[u] += 1
                counts_in[community] = counts
            counts = counts_in[community]
            row.append(1 + sum(1 for c in counts.values() if c > counts[v]))
        ranks.append(row)
    return ranks


def influence_counts_of(
    samples: list[tuple[int, dict[int, list[int]]]],
) -> dict[int, int]:
    """Plain RR-membership counts over reference samples."""
    counts: dict[int, int] = {}
    for _, adjacency in samples:
        for v in adjacency:
            counts[v] = counts.get(v, 0) + 1
    return counts


def enumerate_exact_spread(
    graph: AttributedGraph,
    seed_node: int,
    restrict_to: "set[int] | None" = None,
) -> float:
    """Exact ``sigma_C(q)`` by enumerating every possible world.

    Each *directed* edge ``(u -> v)`` lives with the weighted cascade's
    probability ``1 / deg(v)`` independently; the spread
    is the expectation of the forward-reachable set size. Exponential in
    the directed edge count — keep graphs tiny (``2m <= ~16``).
    """
    arcs = []
    for u, v in graph.edges():
        arcs.append((u, v, 1.0 / graph.degree(v)))
        arcs.append((v, u, 1.0 / graph.degree(u)))
    if len(arcs) > 22:
        raise ValueError(f"{len(arcs)} arcs is too many to enumerate")
    allowed = restrict_to if restrict_to is not None else set(range(graph.n))
    total = 0.0
    for pattern in product((False, True), repeat=len(arcs)):
        prob = 1.0
        live: dict[int, list[int]] = {}
        for present, (u, v, p) in zip(pattern, arcs):
            prob *= p if present else 1.0 - p
            if present:
                live.setdefault(u, []).append(v)
        if prob == 0.0:
            continue
        seen = {seed_node} if seed_node in allowed else set()
        queue = list(seen)
        while queue:
            x = queue.pop()
            for y in live.get(x, []):
                if y in allowed and y not in seen:
                    seen.add(y)
                    queue.append(y)
        total += prob * len(seen)
    return total


def digest_samples(samples: "list") -> str:
    """Canonical SHA-256 digest of a batch of RR graphs.

    Accepts reference ``(source, adjacency)`` pairs or any object with
    ``.source``/``.adjacency`` (``RRView``); the digest
    covers sources, RR-set insertion order, and every adjacency list, so
    any silent change to the sample stream changes the hex."""
    h = hashlib.sha256()
    stream: list[int] = []
    for item in samples:
        if isinstance(item, tuple):
            source, adjacency = item
        else:
            source, adjacency = item.source, item.adjacency
        stream.append(int(source))
        stream.append(len(adjacency))
        for v, targets in adjacency.items():
            stream.append(int(v))
            stream.append(len(targets))
            stream.extend(int(u) for u in targets)
    h.update(np.asarray(stream, dtype=np.int64).tobytes())
    return h.hexdigest()


def random_case_graph(seed: int) -> AttributedGraph:
    """A small deterministic random connected graph for oracle cases."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 24))
    edges = {(i - 1, i) for i in range(1, n)}
    for _ in range(int(rng.integers(n, 3 * n))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    attrs = [[int(rng.integers(0, 3))] for _ in range(n)]
    return AttributedGraph(n, sorted(edges), attributes=attrs)


def reference_attribute_edges(
    graph: AttributedGraph, attribute: int
) -> list[tuple[int, int]]:
    """Edges with both endpoints carrying ``attribute``, ``u < v``, by ``u``."""
    carriers = set(int(v) for v in graph.nodes_with_attribute(attribute))
    edges = []
    for u in sorted(carriers):
        for v in graph.neighbors(u):
            if int(v) > u and int(v) in carriers:
                edges.append((u, int(v)))
    return edges


def reference_edge_weight(
    graph: AttributedGraph, u: int, v: int, attribute: int, weighting
) -> float:
    """The ``g_l`` weight of edge ``(u, v)``, one scalar formula per scheme."""
    if weighting.scheme == "both_endpoints":
        bonus = weighting.beta if (
            graph.has_attribute(u, attribute) and graph.has_attribute(v, attribute)
        ) else 0.0
    elif weighting.scheme == "endpoint_average":
        c = int(graph.has_attribute(u, attribute)) + int(graph.has_attribute(v, attribute))
        bonus = weighting.beta * c / 2.0
    else:  # jaccard
        a_u = graph.attributes_of(u)
        a_v = graph.attributes_of(v)
        union = a_u | a_v
        bonus = weighting.beta * (len(a_u & a_v) / len(union)) if union else 0.0
    return 1.0 + bonus


def reference_weighted_graph(
    graph: AttributedGraph, attribute: int, weighting=None
) -> AttributedGraph:
    """The whole ``g_l``, weighted one edge at a time."""
    weighting = weighting or AttributeWeighting()
    weights: dict[tuple[int, int], float] = {}
    for u, v in graph.edges():
        w = reference_edge_weight(graph, u, v, attribute, weighting)
        if w != 1.0:
            weights[(u, v)] = w
    return graph.with_edge_weights(weights)


def reference_induced_subgraph(graph: AttributedGraph, members) -> SubgraphView:
    """The subgraph induced by ``members``, carrying the parent's weights."""
    ordered = sorted(int(v) for v in members)
    member_set = set(ordered)
    to_sub = {v: i for i, v in enumerate(ordered)}
    edges: list[tuple[int, int]] = []
    weights: dict[tuple[int, int], float] = {}
    for u in ordered:
        row = graph.neighbors(u)
        wrow = graph.neighbor_weights(u)
        for i, v in enumerate(row):
            v = int(v)
            if v > u and v in member_set:
                su, sv = to_sub[u], to_sub[v]
                edges.append((su, sv))
                weights[(min(su, sv), max(su, sv))] = float(wrow[i])
    sub = AttributedGraph(
        len(ordered),
        edges,
        attributes=[graph.attributes_of(v) for v in ordered],
        edge_weights=weights,
    )
    return SubgraphView(
        graph=sub, to_parent=np.asarray(ordered, dtype=np.int64), to_sub=to_sub
    )


def reference_reclustering_scores(
    graph: AttributedGraph,
    hierarchy,
    q: int,
    attribute: int,
    depth_weighted: bool = True,
) -> np.ndarray:
    """``r(C)`` along ``H(q)`` with one scalar LCA per attributed edge."""
    path = hierarchy.path_communities(q)
    level_of_vertex = {vertex: level for level, vertex in enumerate(path)}
    delta = np.zeros(len(path), dtype=np.int64)
    for u, v in reference_attribute_edges(graph, attribute):
        level = level_of_vertex.get(hierarchy.lca(u, v))
        if level is not None:
            delta[level] += 1
    if depth_weighted:
        weights = np.asarray(
            [hierarchy.depth(vertex) for vertex in path], dtype=np.int64
        )
    else:
        weights = np.ones(len(path), dtype=np.int64)
    sizes = np.asarray([hierarchy.size(vertex) for vertex in path], dtype=np.int64)
    return np.cumsum(delta * weights) / sizes


def reference_lore_chain(
    graph: AttributedGraph,
    hierarchy,
    q: int,
    attribute: int,
    weighting=None,
    weighted_graph: "AttributedGraph | None" = None,
    depth_weighted: bool = True,
) -> LoreResult:
    """Algorithm 2 for one query, nothing shared with any other query.

    ``weighted_graph`` is an optional precomputed
    :func:`reference_weighted_graph` for ``attribute`` under ``weighting``.
    """
    scores = reference_reclustering_scores(
        graph, hierarchy, q, attribute, depth_weighted=depth_weighted
    )
    path = hierarchy.path_communities(q)
    c_ell, _ = select_reclustering_community(scores, path)
    if weighted_graph is None:
        weighted_graph = reference_weighted_graph(graph, attribute, weighting)
    members = hierarchy.members(c_ell)
    view = reference_induced_subgraph(weighted_graph, members)
    local = agglomerative_hierarchy(view.graph)

    member_lists: list[list[int]] = []
    depths: list[int] = []
    for vertex in local.path_communities(view.to_sub[q]):
        if local.size(vertex) >= len(members):
            continue
        member_lists.append([int(view.to_parent[v]) for v in local.members(vertex)])
        depths.append(hierarchy.depth(c_ell) + local.depth(vertex) - 1)
    c_ell_chain_level = len(member_lists)
    for vertex in [c_ell, *hierarchy.ancestors(c_ell)]:
        member_lists.append([int(v) for v in hierarchy.members(vertex)])
        depths.append(hierarchy.depth(vertex))

    return LoreResult(
        chain=ReferenceChain.from_member_lists(graph.n, q, member_lists, depths),
        c_ell_vertex=c_ell,
        c_ell_chain_level=c_ell_chain_level,
        scores=scores,
        local=_LocalRecluster(view.to_parent, local),
    )


class ReferenceChain:
    """A nested chain with its sorted member arrays stored per level.

    The member-list form of ``CommunityChain``, frozen: same interface
    (``len``, ``sizes``, ``members``, ``depth``, ``level_of``,
    ``node_levels``, ``prefix``, ``validate_nesting``) and the same
    ``HierarchyError`` checks, computed the slow, obvious way.
    """

    OUTSIDE = -1

    def __init__(self, n, q, members, node_level, depths=None) -> None:
        self.n = int(n)
        self.q = int(q)
        self._members = members
        self._sizes = np.asarray([len(m) for m in members], dtype=np.int64)
        self._node_level = node_level
        if depths is None:
            # Synthetic depths: deepest community first, root-most last.
            depths = list(range(len(members), 0, -1))
        self._depths = list(int(d) for d in depths)
        self._validate()

    @classmethod
    def from_hierarchy(cls, hierarchy, q: int) -> "ReferenceChain":
        """``H(q)`` with one scalar ``lca(u, q)`` per node."""
        path = hierarchy.path_communities(q)
        if not path:
            raise HierarchyError(f"leaf {q} has no ancestor communities")
        level_of_vertex = {vertex: i for i, vertex in enumerate(path)}
        level_of_vertex[q] = 0  # lca(q, q) is the leaf itself.
        n = hierarchy.n_leaves
        node_level = np.empty(n, dtype=np.int64)
        for u in range(n):
            node_level[u] = level_of_vertex[hierarchy.lca(u, q)]
        members = [hierarchy.members(vertex) for vertex in path]
        depths = [hierarchy.depth(vertex) for vertex in path]
        return cls(n, q, members, node_level, depths)

    @classmethod
    def from_member_lists(cls, n, q, member_lists, depths=None) -> "ReferenceChain":
        """Nested member lists, smallest first; painted largest first."""
        members = [np.unique(np.asarray(ms, dtype=np.int64)) for ms in member_lists]
        node_level = np.full(n, cls.OUTSIDE, dtype=np.int64)
        for level in range(len(members) - 1, -1, -1):
            node_level[members[level]] = level
        return cls(n, q, members, node_level, depths)

    def __len__(self) -> int:
        return len(self._members)

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    def members(self, level: int) -> np.ndarray:
        return self._members[level]

    def depth(self, level: int) -> int:
        return self._depths[level]

    def level_of(self, node: int) -> int:
        return int(self._node_level[node])

    @property
    def node_levels(self) -> np.ndarray:
        return self._node_level

    def prefix(self, length: int) -> "ReferenceChain":
        if not (1 <= length <= len(self._members)):
            raise HierarchyError(
                f"prefix length {length} out of range 1..{len(self._members)}"
            )
        node_level = self._node_level.copy()
        node_level[node_level >= length] = self.OUTSIDE
        return ReferenceChain(
            self.n, self.q, self._members[:length], node_level, self._depths[:length]
        )

    def _validate(self) -> None:
        if not self._members:
            raise HierarchyError("a community chain must contain at least one community")
        if len(self._depths) != len(self._members):
            raise HierarchyError("depths and members have different lengths")
        if len(self._node_level) != self.n:
            raise HierarchyError("node_level length differs from n")
        if not (0 <= self.q < self.n):
            raise HierarchyError(f"query node {self.q} out of range")
        if self._node_level[self.q] != 0:
            raise HierarchyError("query node must be at level 0 (the deepest community)")
        for level in range(1, len(self._sizes)):
            if self._sizes[level] <= self._sizes[level - 1]:
                raise HierarchyError(
                    f"chain communities must strictly grow; level {level} has size "
                    f"{int(self._sizes[level])} after {int(self._sizes[level - 1])}"
                )

    def validate_nesting(self) -> None:
        """Prove strict nesting and node_level consistency by member sets."""
        previous: set[int] | None = None
        smallest_level = np.full(self.n, self.OUTSIDE, dtype=np.int64)
        for level in range(len(self._members) - 1, -1, -1):
            smallest_level[self._members[level]] = level
        if not np.array_equal(smallest_level, self._node_level):
            raise HierarchyError("node_level disagrees with the member lists")
        for level, ms in enumerate(self._members):
            member_set = set(int(v) for v in ms)
            if len(member_set) != len(ms):
                raise HierarchyError(f"community at level {level} has duplicate members")
            if self.q not in member_set:
                raise HierarchyError(
                    f"community at level {level} does not contain the query node {self.q}"
                )
            if previous is not None and not previous <= member_set:
                raise HierarchyError(
                    f"community at level {level} does not contain level {level - 1}"
                )
            previous = member_set


def reference_agglomerative_hierarchy(graph: AttributedGraph) -> CommunityHierarchy:
    """The hierarchy of :func:`reference_merges`."""
    return CommunityHierarchy.from_merges(graph.n, reference_merges(graph))


def reference_merges(graph: AttributedGraph) -> list[tuple[int, int]]:
    """NN-chain clustering, seeding each empty chain by a full rescan.

    Every time the chain empties, all live clusters are scanned and the
    smallest id that still has a neighbor seeds it. Similarity is
    unweighted-average linkage, ``W(A, B) / (|A| * |B|)``. A merge
    relabels both clusters' neighbours in dict-of-dict rows. Exhausted
    components are stacked under one root, largest first (ties by
    smallest id). Returns the merge list, ``(chain tail, predecessor)``
    per merge.
    """
    n = graph.n
    neighbor_weight: dict[int, dict[int, float]] = {}
    size: dict[int, int] = {}
    for v in range(n):
        neighbor_weight[v] = {
            int(u): float(w)
            for u, w in zip(graph.neighbors(v), graph.neighbor_weights(v))
        }
        size[v] = 1

    merges: list[tuple[int, int]] = []
    next_id = n
    active: set[int] = set(range(n))
    chain: list[int] = []

    def nearest(cluster: int):
        best = None
        for other, weight in neighbor_weight[cluster].items():
            sim = weight / (size[cluster] * size[other])
            if best is None or sim > best[0] or (sim == best[0] and other < best[1]):
                best = (sim, other)
        return None if best is None else best[1]

    while True:
        if not chain:
            candidates = [c for c in active if neighbor_weight[c]]
            if not candidates:
                break
            chain.append(min(candidates))
        candidate = nearest(chain[-1])
        if candidate is None:
            chain.pop()
            continue
        if len(chain) >= 2 and candidate == chain[-2]:
            a = chain.pop()
            b = chain.pop()
            new_id = next_id
            next_id += 1
            wa = neighbor_weight.pop(a)
            wb = neighbor_weight.pop(b)
            wa.pop(b, None)
            wb.pop(a, None)
            if len(wa) < len(wb):
                wa, wb = wb, wa
            for other, weight in wb.items():
                wa[other] = wa[other] + weight if other in wa else weight
            for other in wa:
                row = neighbor_weight[other]
                w_to_a = row.pop(a, None)
                w_to_b = row.pop(b, None)
                if w_to_a is not None and w_to_b is not None:
                    row[new_id] = w_to_a + w_to_b
                elif w_to_a is not None:
                    row[new_id] = w_to_a
                elif w_to_b is not None:
                    row[new_id] = w_to_b
            neighbor_weight[new_id] = wa
            size[new_id] = size.pop(a) + size.pop(b)
            active.discard(a)
            active.discard(b)
            active.add(new_id)
            merges.append((a, b))
        else:
            chain.append(candidate)

    remaining = sorted(active, key=lambda c: (-size[c], c))
    if len(remaining) > 1:
        current = remaining[0]
        for other in remaining[1:]:
            merges.append((current, other))
            current = next_id
            next_id += 1
    return merges


def reference_layout(hierarchy) -> dict:
    """A hierarchy's DFS layout, one numpy scalar write per vertex.

    Children are read off the parent array in ascending id order. Depths
    are assigned on the way down, leaf ranges and sizes on the way back
    up. Returns ``depth``, ``size``, ``range_lo``, ``range_hi``,
    ``leaf_order`` and ``leaf_position`` arrays.
    """
    n_leaves = hierarchy.n_leaves
    parent = hierarchy.parents
    total = len(parent)
    children: list[list[int]] = [[] for _ in range(total)]
    for v in range(total):
        if parent[v] >= 0:
            children[int(parent[v])].append(v)
    root = int(np.flatnonzero(parent == -1)[0])
    depth = np.zeros(total, dtype=np.int64)
    size = np.zeros(total, dtype=np.int64)
    range_lo = np.zeros(total, dtype=np.int64)
    range_hi = np.zeros(total, dtype=np.int64)
    leaf_order = np.zeros(n_leaves, dtype=np.int64)
    leaf_position = np.zeros(n_leaves, dtype=np.int64)
    cursor = 0
    stack: list[tuple[int, bool]] = [(root, False)]
    depth[root] = 1
    while stack:
        vertex, processed = stack.pop()
        if processed:
            range_hi[vertex] = cursor
            size[vertex] = cursor - range_lo[vertex]
            continue
        range_lo[vertex] = cursor
        if vertex < n_leaves:
            leaf_order[cursor] = vertex
            leaf_position[vertex] = cursor
            cursor += 1
            range_hi[vertex] = cursor
            size[vertex] = 1
            continue
        stack.append((vertex, True))
        for child in reversed(children[vertex]):
            depth[child] = depth[vertex] + 1
            stack.append((child, False))
    return {
        "depth": depth,
        "size": size,
        "range_lo": range_lo,
        "range_hi": range_hi,
        "leaf_order": leaf_order,
        "leaf_position": leaf_position,
    }


def reference_tree_hfs(hierarchy, arena, start: int = 0, buckets=None,
                       checkpoint_every=None, on_checkpoint=None):
    """HIMOR's tree HFS, one depth-keyed heap per sample.

    Each sample's source is charged to its parent community; a node
    reached from a node tagged ``C`` gets ``lca(u, C)``, and the heap pops
    deepest tags first, so every node is charged once, to its final tag.
    ``on_checkpoint(i, buckets)`` fires after every ``checkpoint_every``
    samples (absolute counts), except after the last one.
    """
    buckets = {} if buckets is None else buckets
    for i in range(start, arena.n_samples):
        source = int(arena.sources[i])
        start_tag = hierarchy.parent(source)
        assigned: set[int] = set()
        heap = [(-hierarchy.depth(start_tag), source, start_tag, int(arena.node_offsets[i]))]
        while heap:
            _, v, tag, entry = heapq.heappop(heap)
            if v in assigned:
                continue
            assigned.add(v)
            bucket = buckets.setdefault(tag, {})
            bucket[v] = bucket.get(v, 0) + 1
            s = int(arena.edge_start[entry])
            for dst in arena.edge_dst_entry[s: s + int(arena.edge_count[entry])]:
                u = int(arena.nodes[int(dst)])
                if u in assigned:
                    continue
                u_tag = hierarchy.lca(u, tag)
                heapq.heappush(heap, (-hierarchy.depth(u_tag), u, u_tag, int(dst)))
        if (
            checkpoint_every is not None
            and on_checkpoint is not None
            and (i + 1) % checkpoint_every == 0
            and (i + 1) < arena.n_samples
        ):
            on_checkpoint(i + 1, buckets)
    return buckets


def charge_buckets(charges, n_leaves: int) -> dict[int, dict[int, int]]:
    """Production's HIMOR charge table ``(keys, counts)``, keys
    ``tag * n_leaves + node``, as the ``{tag: {node: count}}`` buckets of
    :func:`reference_tree_hfs` and :func:`reference_bottom_up_ranks`.
    The table must be in its one form: strictly increasing keys, no zero
    count."""
    keys, counts = charges
    assert keys.dtype == counts.dtype == np.int64
    assert (np.diff(keys) > 0).all() and (counts != 0).all()
    buckets: dict[int, dict[int, int]] = {}
    for key, count in zip(keys.tolist(), counts.tolist()):
        buckets.setdefault(key // n_leaves, {})[key % n_leaves] = count
    return buckets


def reference_lca_tables(hierarchy):
    """``(first, tour, table, log)`` of an Euler-tour sparse-table LCA index."""
    total = hierarchy.n_vertices
    tour: list[int] = []
    depths: list[int] = []
    first = np.full(total, -1, dtype=np.int64)
    stack = [(hierarchy.root, 0)]
    while stack:
        vertex, child_index = stack.pop()
        if first[vertex] == -1:
            first[vertex] = len(tour)
        tour.append(vertex)
        depths.append(hierarchy.depth(vertex))
        kids = hierarchy.children(vertex)
        if child_index < len(kids):
            stack.append((vertex, child_index + 1))
            stack.append((kids[child_index], 0))
    depth_arr = np.asarray(depths, dtype=np.int64)
    t = len(tour)
    table = [np.arange(t, dtype=np.int64)]
    span = 1
    positions = np.arange(t, dtype=np.int64)
    while span * 2 <= t:
        prev = table[-1]
        right = prev[np.minimum(positions + span, t - 1)]
        table.append(np.where(depth_arr[right] < depth_arr[prev], right, prev))
        span *= 2
    log = np.zeros(t + 1, dtype=np.int64)
    for i in range(2, t + 1):
        log[i] = log[i // 2] + 1
    return first, np.asarray(tour, dtype=np.int64), np.stack(table), log


def _group_by_value(items: np.ndarray, values: np.ndarray):
    """Yield ``(value, items_with_that_value)`` pairs (one sort, no dicts)."""
    if not len(items):
        return
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    sorted_items = items[order]
    bounds = np.flatnonzero(np.diff(sorted_values)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(sorted_values)]))
    for s, e in zip(starts, ends):
        yield int(sorted_values[s]), sorted_items[s:e]


def reference_hfs_levels(arena, node_levels: np.ndarray, n_levels: int,
                         budget=None) -> np.ndarray:
    """Per-entry minimax chain level by Dial's algorithm.

    One bucket per chain level: entries activate in ascending level order
    and their out-edges are gathered exactly once, so an entry's first
    activation is final. ``n_levels`` marks "unreachable inside the
    chain"; ``budget`` is checked once per frontier expansion.
    """
    sentinel = int(n_levels)
    lvl = node_levels[arena.nodes]
    lvl = np.where((lvl < 0) | (lvl >= sentinel), sentinel, lvl)
    assigned = np.full(arena.total_nodes, sentinel, dtype=np.int64)
    if sentinel == 0 or arena.total_nodes == 0:
        return assigned

    edge_start = arena.edge_start
    edge_count = arena.edge_count
    edge_dst = arena.edge_dst_entry

    # Seed the buckets with every sample's source entry (a source
    # outside the chain stays at the sentinel and never propagates).
    buckets: list[list[np.ndarray]] = [[] for _ in range(sentinel)]
    roots = arena.node_offsets[:-1]
    root_lvl = lvl[roots]
    live = roots[root_lvl < sentinel]
    if len(live):
        assigned[live] = lvl[live]
        for h, chunk in _group_by_value(live, lvl[live]):
            buckets[h].append(chunk)

    expanded = np.zeros(arena.total_nodes, dtype=bool)
    for h in range(sentinel):
        pending = [c for c in buckets[h] if len(c)]
        buckets[h] = []
        if not pending:
            continue
        frontier = np.unique(np.concatenate(pending))
        frontier = frontier[
            (assigned[frontier] == h) & ~expanded[frontier]
        ]
        while len(frontier):
            if budget is not None:
                budget.check()
            expanded[frontier] = True
            counts = edge_count[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            # Ragged gather of every out-edge of the frontier.
            offsets = np.cumsum(counts)
            idx = np.arange(total, dtype=np.int64)
            idx += np.repeat(edge_start[frontier] - offsets + counts, counts)
            targets = edge_dst[idx]
            value = np.maximum(lvl[targets], h)
            improves = value < assigned[targets]
            targets = targets[improves]
            value = value[improves]
            assigned[targets] = value
            now = value == h
            frontier = np.unique(targets[now])
            for level, chunk in _group_by_value(
                targets[~now], value[~now]
            ):
                buckets[level].append(chunk)
    return assigned


def reference_level_bucket_counts(arena, node_levels: np.ndarray,
                                  n_levels: int) -> np.ndarray:
    """``counts[h, v]``: samples charging node ``v`` to level ``h``, one entry at a time."""
    counts = np.zeros((int(n_levels), arena.n), dtype=np.int64)
    assigned = reference_hfs_levels(arena, node_levels, n_levels)
    for entry, level in enumerate(assigned):
        if level < n_levels:
            counts[int(level), int(arena.nodes[entry])] += 1
    return counts


def _reference_ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts)
    idx = np.arange(total, dtype=np.int64)
    idx += np.repeat(starts - offsets + counts, counts)
    return idx


def reference_restrict(arena, allowed) -> RRArena:
    """The arena induced on ``allowed`` nodes, computed over every entry.

    Samples whose source lies outside ``allowed`` are dropped; surviving
    samples keep the entries a BFS from their source reaches through
    allowed nodes, with edges between kept entries preserved (storage
    order intact, entry ids renumbered).
    """
    mask = np.zeros(arena.n, dtype=bool)
    allowed_arr = np.fromiter(
        (int(v) for v in allowed), dtype=np.int64
    ) if not isinstance(allowed, np.ndarray) else np.asarray(
        allowed, dtype=np.int64
    )
    if len(allowed_arr) and not (
        (allowed_arr >= 0) & (allowed_arr < arena.n)
    ).all():
        raise InfluenceError("allowed contains nodes outside the graph")
    mask[allowed_arr] = True

    entry_ok = mask[arena.nodes] if arena.total_nodes else np.zeros(0, bool)
    keep_sample = mask[arena.sources] if arena.n_samples else np.zeros(0, bool)
    reach = np.zeros(arena.total_nodes, dtype=bool)
    roots = arena.node_offsets[:-1][keep_sample]
    if len(roots):
        # Sources are always allowed for kept samples (first entry).
        reach[roots] = True
        frontier = roots
        while len(frontier):
            counts = arena.edge_count[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            offsets = np.cumsum(counts)
            idx = np.arange(total, dtype=np.int64)
            idx += np.repeat(
                arena.edge_start[frontier] - offsets + counts, counts
            )
            targets = arena.edge_dst_entry[idx]
            fresh = entry_ok[targets] & ~reach[targets]
            frontier = np.unique(targets[fresh])
            reach[frontier] = True

    new_entry_id = np.cumsum(reach) - 1  # valid only where reach is True
    per_sample = np.bincount(
        arena.entry_samples[reach], minlength=arena.n_samples
    )[keep_sample]
    node_offsets = np.zeros(len(per_sample) + 1, dtype=np.int64)
    np.cumsum(per_sample, out=node_offsets[1:])

    if arena.total_edges:
        esrc = arena.edge_src_entries
        keep_edge = reach[esrc] & reach[arena.edge_dst_entry]
        edge_dst_entry = new_entry_id[arena.edge_dst_entry[keep_edge]]
        kept_counts = np.bincount(
            esrc[keep_edge], minlength=arena.total_nodes
        )
    else:
        edge_dst_entry = np.empty(0, dtype=np.int64)
        kept_counts = np.zeros(arena.total_nodes, dtype=np.int64)
    # New edge slices stay contiguous in the old storage order: entry
    # e's slice starts after every kept edge of entries stored before
    # it, so one cumsum over storage order yields the new starts.
    order = np.argsort(arena.edge_start, kind="stable")
    starts_in_order = np.zeros(arena.total_nodes, dtype=np.int64)
    np.cumsum(kept_counts[order][:-1], out=starts_in_order[1:])
    edge_start_all = np.empty(arena.total_nodes, dtype=np.int64)
    edge_start_all[order] = starts_in_order

    return RRArena(
        n=arena.n,
        sources=arena.sources[keep_sample],
        node_offsets=node_offsets,
        nodes=arena.nodes[reach],
        edge_start=edge_start_all[reach],
        edge_count=kept_counts[reach].astype(np.int64),
        edge_dst_entry=edge_dst_entry.astype(np.int64),
    )


def reference_take(arena, indices) -> RRArena:
    """Samples ``indices`` of ``arena`` in the given order, with each
    sample's edge-block start recomputed by a ``cumsum`` over every entry."""
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) and not (
        (indices >= 0) & (indices < arena.n_samples)
    ).all():
        raise InfluenceError("take indices out of sample range")

    node_counts = np.diff(arena.node_offsets)
    ecsum = np.zeros(arena.total_nodes + 1, dtype=np.int64)
    np.cumsum(arena.edge_count, out=ecsum[1:])
    sample_estart = ecsum[arena.node_offsets]  # shape (n_samples + 1,)

    sel_ncounts = node_counts[indices]
    node_offsets = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum(sel_ncounts, out=node_offsets[1:])
    nidx = _reference_ragged_ranges(arena.node_offsets[:-1][indices], sel_ncounts)

    sel_ecounts = np.diff(sample_estart)[indices]
    new_estart = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum(sel_ecounts, out=new_estart[1:])
    eidx = _reference_ragged_ranges(sample_estart[:-1][indices], sel_ecounts)

    edge_dst = (
        arena.edge_dst_entry[eidx]
        - np.repeat(arena.node_offsets[:-1][indices], sel_ecounts)
        + np.repeat(node_offsets[:-1], sel_ecounts)
    )
    edge_start = (
        arena.edge_start[nidx]
        - np.repeat(sample_estart[:-1][indices], sel_ncounts)
        + np.repeat(new_estart[:-1], sel_ncounts)
    )

    return RRArena(
        n=arena.n,
        sources=arena.sources[indices].copy(),
        node_offsets=node_offsets,
        nodes=arena.nodes[nidx],
        edge_start=edge_start,
        edge_count=arena.edge_count[nidx],
        edge_dst_entry=edge_dst,
    )


def _reference_check_conflicts(updates: list) -> None:
    """Reject batches that touch one edge / node-attribute pair twice."""
    seen_edges: set[tuple[int, int]] = set()
    seen_attrs: set[tuple[int, int]] = set()
    for update in updates:
        if isinstance(update, EdgeUpdate):
            key = update.key()
            if key in seen_edges:
                raise GraphError(
                    f"conflicting updates for edge {key} in one batch: a "
                    "batch may touch each edge at most once (split "
                    "order-dependent sequences across batches)"
                )
            seen_edges.add(key)
        elif isinstance(update, AttrUpdate):
            key = update.key()
            if key in seen_attrs:
                raise GraphError(
                    f"conflicting updates for node-attribute pair {key} in "
                    "one batch: a batch may touch each pair at most once"
                )
            seen_attrs.add(key)
        else:
            raise GraphError(
                f"unknown update type {type(update).__name__!r}; expected "
                "EdgeUpdate or AttrUpdate"
            )


def reference_apply_updates(graph: AttributedGraph, updates) -> AttributedGraph:
    """Apply an update batch by rebuilding the whole graph from edge and
    attribute sets, checking each update against the evolving sets."""
    updates = list(updates)
    _reference_check_conflicts(updates)
    edges = set(graph.edges())
    attributes = [set(graph.attributes_of(v)) for v in range(graph.n)]
    for update in updates:
        if isinstance(update, EdgeUpdate):
            key = update.key()
            if key[0] == key[1]:
                raise GraphError(f"self-loop update ({key[0]}, {key[1]})")
            if not (0 <= key[0] and key[1] < graph.n):
                raise GraphError(f"update endpoint out of range: {key}")
            if update.add:
                if key in edges:
                    raise GraphError(f"edge {key} already exists")
                edges.add(key)
            else:
                if key not in edges:
                    raise GraphError(f"edge {key} does not exist")
                edges.discard(key)
        else:
            node, attribute = update.key()
            if not 0 <= node < graph.n:
                raise GraphError(f"update node out of range: {node}")
            if attribute < 0:
                raise GraphError(f"negative attribute value: {attribute}")
            if update.add:
                if attribute in attributes[node]:
                    raise GraphError(
                        f"node {node} already carries attribute {attribute}"
                    )
                attributes[node].add(attribute)
            else:
                if attribute not in attributes[node]:
                    raise GraphError(
                        f"node {node} does not carry attribute {attribute}"
                    )
                attributes[node].discard(attribute)
    return AttributedGraph(graph.n, sorted(edges), attributes=attributes)


def reference_graph_checksum(graph: AttributedGraph) -> str:
    """SHA-256 of the sorted ``(u, v)`` edge tuples, serialized by ``json``."""
    return payload_checksum(sorted((int(u), int(v)) for u, v in graph.edges()))


def reference_bottom_up_ranks(
    hierarchy: CommunityHierarchy, buckets: dict[int, dict[int, int]]
) -> list[np.ndarray]:
    """Merge cumulative count dicts bottom-up, deepest vertex first, and
    rank every member of each community by bisecting its sorted counts."""
    n = hierarchy.n_leaves
    depths = hierarchy.depths
    ranks = [np.zeros(d - 1, dtype=np.int64) for d in depths[:n].tolist()]
    position = [0] * n

    cumulative: dict[int, dict[int, int]] = {}
    order = n + np.argsort(-depths[n:], kind="stable")
    for vertex in order.tolist():
        merged: dict[int, int] = {}
        for child in hierarchy.children(vertex):
            child_counts = cumulative.pop(child, None)
            if child_counts is None:
                continue
            if len(child_counts) > len(merged):
                merged, child_counts = child_counts, merged
            for node, count in child_counts.items():
                merged[node] = merged.get(node, 0) + count
        own = buckets.get(vertex)
        if own:
            for node, count in own.items():
                merged[node] = merged.get(node, 0) + count
        cumulative[vertex] = merged

        sorted_counts = sorted(merged.values())
        total_scored = len(sorted_counts)
        for node in hierarchy.members(vertex):
            node = int(node)
            count = merged.get(node, 0)
            strictly_above = total_scored - bisect_left(sorted_counts, count + 1)
            slot = position[node]
            ranks[node][slot] = 1 + strictly_above
            position[node] += 1
    return ranks


class _ReferencePipeline:
    """Shared construction knobs for the reference pipelines."""

    method_name = "abstract"

    def __init__(
        self,
        graph: AttributedGraph,
        theta: int = 10,
        weighting: AttributeWeighting | None = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        self.graph = graph
        self.theta = int(theta)
        self.weighting = weighting or AttributeWeighting()
        self.rng = ensure_rng(seed)
        self._hierarchy: CommunityHierarchy | None = None

    @property
    def hierarchy(self) -> CommunityHierarchy:
        """The shared non-attributed hierarchy (built on first use)."""
        if self._hierarchy is None:
            self._hierarchy = agglomerative_hierarchy(self.graph)
        return self._hierarchy

    def discover(self, query: CODQuery) -> CODResult:
        results = self.discover_multi(query.node, query.attribute, [query.k])
        return results[query.k]

    def discover_multi(self, node, attribute, ks) -> dict[int, CODResult]:
        raise NotImplementedError

    def _validate(self, node: int, attribute: "int | None", ks: "list[int]") -> None:
        if not ks:
            raise QueryError("at least one rank budget k is required")
        CODQuery(node, attribute, max(ks)).validate(self.graph)


class ReferenceCODU(_ReferencePipeline):
    """Non-attributed hierarchy + compressed evaluation, sampled here."""

    method_name = "CODU"

    def discover_multi(self, node, attribute, ks) -> dict[int, CODResult]:
        self._validate(node, attribute, ks)
        hierarchy = self.hierarchy
        start = time.perf_counter()
        chain = CommunityChain.from_hierarchy(hierarchy, node)
        evaluation = compressed_cod(
            self.graph, chain, k=ks, theta=self.theta, rng=self.rng
        )
        elapsed = time.perf_counter() - start
        return {
            k: CODResult(
                method=self.method_name,
                query=CODQuery(node, attribute, k),
                members=evaluation.characteristic_community(k),
                chain_length=len(chain),
                elapsed=elapsed,
            )
            for k in ks
        }

    def discover_batch(self, queries: "list[CODQuery]") -> list[CODResult]:
        """One shared RR pool serves every query of the batch."""
        from repro.core.pool import SharedSamplePool

        hierarchy = self.hierarchy
        pool = SharedSamplePool(
            self.graph, theta=self.theta, seed=self.rng
        )
        results: list[CODResult] = []
        for query in queries:
            query.validate(self.graph)
            start = time.perf_counter()
            chain = CommunityChain.from_hierarchy(hierarchy, query.node)
            evaluation = compressed_cod(
                self.graph, chain, k=query.k, rr_graphs=pool.arena
            )
            elapsed = time.perf_counter() - start
            results.append(
                CODResult(
                    method=self.method_name,
                    query=query,
                    members=evaluation.characteristic_community(query.k),
                    chain_length=len(chain),
                    elapsed=elapsed,
                )
            )
        return results


class ReferenceCODLMinus(_ReferencePipeline):
    """LORE chain + compressed evaluation over the full ``H_l(q)``."""

    method_name = "CODL-"

    def discover_multi(self, node, attribute, ks) -> dict[int, CODResult]:
        self._validate(node, attribute, ks)
        if attribute is None:
            raise QueryError(f"{self.method_name} requires a query attribute")
        hierarchy = self.hierarchy
        start = time.perf_counter()
        lore = lore_chain(
            self.graph, hierarchy, node, attribute, weighting=self.weighting
        )
        evaluation = compressed_cod(
            self.graph, lore.chain, k=ks, theta=self.theta, rng=self.rng
        )
        elapsed = time.perf_counter() - start
        return {
            k: CODResult(
                method=self.method_name,
                query=CODQuery(node, attribute, k),
                members=evaluation.characteristic_community(k),
                chain_length=len(lore.chain),
                elapsed=elapsed,
            )
            for k in ks
        }


class ReferenceCODL(ReferenceCODLMinus):
    """LORE + HIMOR index + Algorithm 3, all ``k`` answered jointly."""

    method_name = "CODL"

    def __init__(self, graph: AttributedGraph, **kwargs) -> None:
        super().__init__(graph, **kwargs)
        self._index: HimorIndex | None = None

    @property
    def index(self) -> HimorIndex:
        if self._index is None:
            self._index = HimorIndex.build(
                self.graph,
                self.hierarchy,
                theta=self.theta,
                rng=self.rng,
            )
        return self._index

    def discover_multi(self, node, attribute, ks) -> dict[int, CODResult]:
        self._validate(node, attribute, ks)
        if attribute is None:
            raise QueryError("CODL requires a query attribute")
        index = self.index
        start = time.perf_counter()
        lore = lore_chain(
            self.graph, self.hierarchy, node, attribute, weighting=self.weighting
        )
        # The index scan resolves each k independently; the fallback
        # (compressed evaluation inside C_l, restricted sampling) runs at
        # most once and serves every unresolved budget.
        members_by_k: dict[int, np.ndarray | None] = {}
        fallback_ks: list[int] = []
        for k in ks:
            ancestor = index.largest_qualifying_ancestor(
                node, k, floor_vertex=lore.c_ell_vertex
            )
            if ancestor is not None:
                members_by_k[k] = index.hierarchy.members(ancestor)
            else:
                members_by_k[k] = None
                fallback_ks.append(k)
        if fallback_ks and lore.c_ell_chain_level > 0:
            inner_chain = lore.chain.prefix(lore.c_ell_chain_level)
            allowed = set(
                int(v) for v in index.hierarchy.members(lore.c_ell_vertex)
            )
            n_local = self.theta * len(allowed)
            local_samples = sample_arena(
                self.graph, n_local, rng=self.rng, allowed=allowed
            )
            evaluation = compressed_cod(
                self.graph, inner_chain, k=fallback_ks, rr_graphs=local_samples
            )
            for k in fallback_ks:
                members_by_k[k] = evaluation.characteristic_community(k)
        elapsed = time.perf_counter() - start
        return {
            k: CODResult(
                method=self.method_name,
                query=CODQuery(node, attribute, k),
                members=members_by_k[k],
                chain_length=len(lore.chain),
                elapsed=elapsed,
            )
            for k in ks
        }


def reference_himor_cod(
    graph: AttributedGraph,
    index: HimorIndex,
    lore: LoreResult,
    k: int,
    theta: int = 10,
    rng: "int | np.random.Generator | None" = None,
) -> "tuple[np.ndarray | None, CompressedEvaluation | None]":
    """Algorithm 3 for one query: ``(members, fallback_evaluation)``, the
    evaluation ``None`` when the index scan resolves the query."""
    q = lore.chain.q
    ancestor = index.largest_qualifying_ancestor(q, k, floor_vertex=lore.c_ell_vertex)
    if ancestor is not None:
        return index.hierarchy.members(ancestor), None
    if lore.c_ell_chain_level == 0:
        return None, None
    inner_chain = lore.chain.prefix(lore.c_ell_chain_level)
    rng = ensure_rng(rng)
    allowed = set(int(v) for v in index.hierarchy.members(lore.c_ell_vertex))
    n_local = theta * len(allowed)
    local_samples = sample_arena(graph, n_local, rng=rng, allowed=allowed)
    evaluation = compressed_cod(graph, inner_chain, k=k, rr_graphs=local_samples)
    return evaluation.characteristic_community(k), evaluation
