"""The community hierarchy ``T`` (Section II-A of the paper).

A :class:`CommunityHierarchy` is a rooted tree whose leaves are the graph's
nodes and whose internal vertices are communities; the community held by an
internal vertex is the set of leaves below it. The root holds all nodes and
``dep(root) = 1`` (matching Example 2, where the root ``C_6`` has the
smallest depth and deeper communities are smaller).

Leaves are arranged in DFS order so every subtree is a contiguous slice of
one permutation array: ``members`` is O(result) and membership tests are
O(1). This layout is what lets the compressed evaluator and HIMOR scale.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import HierarchyError


class CommunityHierarchy:
    """A rooted community tree over leaves ``0..n_leaves-1``.

    Vertices are integers: ``0..n_leaves-1`` are leaves; internal vertices
    follow. Build instances via :meth:`from_merges` (output of agglomerative
    clustering) or :meth:`from_parents`.
    """

    __slots__ = (
        "_n_leaves",
        "_parent",
        "_children",
        "_size",
        "_depth",
        "_leaf_order",
        "_leaf_position",
        "_range_lo",
        "_range_hi",
        "_root",
        "_lca_index",
    )

    def __init__(self, n_leaves: int, parent: list[int], children: list[list[int]]) -> None:
        self._n_leaves = int(n_leaves)
        # Children are kept in ascending vertex-id order so the DFS leaf
        # layout — and therefore ``members()`` ordering — is a pure
        # function of the parent array. Without this, a hierarchy rebuilt
        # via ``from_parents`` (e.g. a persisted index loaded after a
        # worker respawn) would serve member arrays in a different order
        # than the merge-order original, breaking bit-identical replay.
        # Both constructors hand them over sorted.
        self._children = children
        self._lca_index = None
        self._validate_shape(parent)
        self._root = parent.index(-1)
        self._parent = np.array(parent, dtype=np.int64)
        self._compute_layout()
        # members(), leaf_order and the other bulk views hand these arrays
        # out without copying: freeze them so no caller (a served answer's
        # members, say) can corrupt the hierarchy through a view.
        for array in (self._parent, self._depth, self._range_lo,
                      self._range_hi, self._size, self._leaf_order,
                      self._leaf_position):
            array.setflags(write=False)

    # ---------------------------------------------------------- construction

    @classmethod
    def from_merges(cls, n_leaves: int, merges: Sequence[Sequence[int]]) -> "CommunityHierarchy":
        """Build from a merge sequence.

        ``merges[t]`` lists the child cluster ids combined at step ``t``
        into new cluster ``n_leaves + t``. Children may be leaves
        (``< n_leaves``) or earlier merge results. The final merge must
        produce a single root covering every leaf.
        """
        parent = [-1] * (n_leaves + len(merges))
        children: list[list[int]] = [[] for _ in range(n_leaves)]
        new_id = n_leaves
        for t, merge in enumerate(merges):
            kids = sorted(map(int, merge))
            if len(kids) < 2:
                raise HierarchyError(f"merge {t} must combine at least two clusters, got {kids}")
            for c in kids:
                if not (0 <= c < new_id):
                    raise HierarchyError(f"merge {t} references invalid cluster {c}")
                if parent[c] != -1:
                    raise HierarchyError(f"cluster {c} is merged twice")
                parent[c] = new_id
            children.append(kids)
            new_id += 1
        return cls(n_leaves, parent, children)

    @classmethod
    def from_parents(cls, n_leaves: int, parent: Sequence[int]) -> "CommunityHierarchy":
        """Build from a parent array (``-1`` marks the root)."""
        parent_list = np.asarray(parent, dtype=np.int64).tolist()
        total = len(parent_list)
        children: list[list[int]] = [[] for _ in range(total)]
        for v, p in enumerate(parent_list):
            if p >= 0:
                if p >= total:
                    raise HierarchyError(f"vertex {v} has parent {p} out of range")
                children[p].append(v)
        return cls(n_leaves, parent_list, children)

    # -------------------------------------------------------------- topology

    @property
    def n_leaves(self) -> int:
        """Number of graph nodes (leaves)."""
        return self._n_leaves

    @property
    def n_vertices(self) -> int:
        """Total tree vertices (leaves + communities)."""
        return len(self._parent)

    @property
    def root(self) -> int:
        """The root vertex (community holding all nodes)."""
        return self._root

    def is_leaf(self, vertex: int) -> bool:
        """Whether ``vertex`` is a graph node rather than a community."""
        self._check_vertex(vertex)
        return vertex < self._n_leaves

    def parent(self, vertex: int) -> int:
        """Parent vertex, or ``-1`` for the root."""
        self._check_vertex(vertex)
        return int(self._parent[vertex])

    def children(self, vertex: int) -> list[int]:
        """Child vertices (empty for leaves)."""
        self._check_vertex(vertex)
        return list(self._children[vertex])

    def depth(self, vertex: int) -> int:
        """``dep(vertex)``: the root has depth 1; children add 1."""
        self._check_vertex(vertex)
        return int(self._depth[vertex])

    @property
    def parents(self) -> np.ndarray:
        """The parent of every vertex as one int64 array, ``-1`` at the
        root (read-only)."""
        return self._parent

    @property
    def depths(self) -> np.ndarray:
        """``dep`` of every vertex as one int64 array (read-only).

        The bulk form of :meth:`depth` for build loops that would
        otherwise validate one vertex at a time.
        """
        return self._depth

    @property
    def sizes(self) -> np.ndarray:
        """Leaf count of every vertex as one int64 array (read-only);
        the bulk form of :meth:`size`."""
        return self._size

    @property
    def leaf_order(self) -> np.ndarray:
        """Every leaf in DFS order as one int64 array (read-only):
        ``members(v)`` is ``leaf_order[member_starts[v]:][:sizes[v]]``."""
        return self._leaf_order

    @property
    def member_starts(self) -> np.ndarray:
        """Where each vertex's members start in :attr:`leaf_order`, as one
        int64 array (read-only); the bulk form of :meth:`members`."""
        return self._range_lo

    def size(self, vertex: int) -> int:
        """Number of leaves below ``vertex`` (1 for leaves)."""
        self._check_vertex(vertex)
        return int(self._size[vertex])

    def internal_vertices(self) -> Iterator[int]:
        """All community vertices (non-leaves)."""
        return iter(range(self._n_leaves, self.n_vertices))

    # --------------------------------------------------------------- queries

    def members(self, vertex: int) -> np.ndarray:
        """Leaf ids below ``vertex`` (a contiguous slice; read-only)."""
        self._check_vertex(vertex)
        return self._leaf_order[self._range_lo[vertex]:self._range_hi[vertex]]

    def contains(self, vertex: int, leaf: int) -> bool:
        """O(1) test of whether ``leaf`` lies below ``vertex``."""
        self._check_vertex(vertex)
        if not (0 <= leaf < self._n_leaves):
            raise HierarchyError(f"{leaf} is not a leaf id")
        pos = self._leaf_position[leaf]
        return bool(self._range_lo[vertex] <= pos < self._range_hi[vertex])

    def ancestors(self, vertex: int, include_self: bool = False) -> Iterator[int]:
        """Vertices on the path to the root, nearest first."""
        self._check_vertex(vertex)
        # A memoryview reads the parent array as Python ints, several
        # times faster per step than numpy scalars, with no second copy
        # for memory_bytes() to charge; made per walk, as it cannot pickle.
        parent = memoryview(self._parent)
        v = vertex if include_self else parent[vertex]
        while v != -1:
            yield v
            v = parent[v]

    def path_communities(self, leaf: int) -> list[int]:
        """``H(q)``: the internal ancestors of ``leaf``, deepest first.

        The leaf itself (a singleton "community") is excluded, matching
        Example 2 where ``H(v_0)`` starts at the smallest multi-node
        community.
        """
        if not (0 <= leaf < self._n_leaves):
            raise HierarchyError(f"{leaf} is not a leaf id")
        return list(self.ancestors(leaf, include_self=False))

    def leaf_levels(self, path: Sequence[int]) -> np.ndarray:
        """Index in ``path`` of the first vertex containing each leaf.

        ``path`` must be nested, smallest first (e.g. a slice of
        :meth:`path_communities`), so its leaf-order slices only widen.
        Their bounds cut the leaf order into rings: outside, level
        ``L-1``'s left part, ..., level 0, ..., level ``L-1``'s right
        part, outside. One ``repeat`` paints the rings and one scatter
        through the leaf order indexes them by leaf id: O(n + |path|).
        Leaves outside every vertex get ``-1``.
        """
        path = np.asarray(path, dtype=np.int64)
        bounds = np.concatenate(
            ([0], self._range_lo[path][::-1], self._range_hi[path], [self._n_leaves])
        )
        rings = np.abs(np.arange(-len(path), len(path) + 1))
        rings[rings == len(path)] = -1
        levels = np.empty(self._n_leaves, dtype=np.int64)
        levels[self._leaf_order] = np.repeat(rings, np.diff(bounds))
        return levels

    def lca(self, a: int, b: int) -> int:
        """Lowest common ancestor of two tree vertices in O(1).

        The first call builds an Euler-tour sparse table
        (:class:`repro.hierarchy.lca.LcaIndex`) lazily.
        """
        return self._lca().lca(a, b)

    def lca_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise :meth:`lca` over two vertex arrays, vectorized."""
        return self._lca().lca_many(a, b)

    def _lca(self) -> "LcaIndex":  # noqa: F821
        """The Euler-tour LCA index, built on first use."""
        if self._lca_index is None:
            from repro.hierarchy.lca import LcaIndex

            self._lca_index = LcaIndex(self)
        return self._lca_index

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """Whether ``ancestor`` contains ``descendant`` (self counts)."""
        self._check_vertex(ancestor)
        self._check_vertex(descendant)
        return bool(
            self._range_lo[ancestor] <= self._range_lo[descendant]
            and self._range_hi[descendant] <= self._range_hi[ancestor]
        )

    def partition_at_size(self, max_size: int) -> list[int]:
        """A flat partition: the shallowest communities of size <= max_size.

        Descends from the root, stopping at the first vertex small enough;
        the returned vertices' member sets partition the leaves. Useful for
        extracting flat clusterings from the hierarchy (e.g., modularity
        sanity checks).
        """
        if max_size < 1:
            raise HierarchyError(f"max_size must be >= 1, got {max_size}")
        partition: list[int] = []
        stack = [self._root]
        while stack:
            vertex = stack.pop()
            if self._size[vertex] <= max_size:
                partition.append(vertex)
            else:
                stack.extend(self._children[vertex])
        return sorted(partition)

    def partition_at_depth(self, depth: int) -> list[int]:
        """A flat partition: vertices at ``depth`` plus shallower leaves.

        Every leaf is covered exactly once: by its ancestor at ``depth``
        when one exists, or by the deepest vertex on its path otherwise.
        """
        if depth < 1:
            raise HierarchyError(f"depth must be >= 1, got {depth}")
        partition: list[int] = []
        stack = [self._root]
        while stack:
            vertex = stack.pop()
            if self._depth[vertex] == depth or not self._children[vertex]:
                partition.append(vertex)
            else:
                stack.extend(self._children[vertex])
        return sorted(partition)

    def total_leaf_depth(self) -> int:
        """``sum_v dep(v)`` over leaves — the HIMOR cost term (Theorem 6)."""
        return int(self._depth[: self._n_leaves].sum())

    def memory_bytes(self) -> int:
        """Approximate footprint, for Table II style reporting."""
        arrays = (
            self._parent,
            self._size,
            self._depth,
            self._leaf_order,
            self._leaf_position,
            self._range_lo,
            self._range_hi,
        )
        total = sum(a.nbytes for a in arrays)
        total += sum(8 * len(kids) for kids in self._children)
        return total

    @staticmethod
    def binary_memory_bytes(n_leaves: int) -> int:
        """:meth:`memory_bytes` of a binary hierarchy over ``n_leaves`` leaves.

        A binary hierarchy has ``2 * n_leaves - 1`` vertices and
        ``2 * n_leaves - 2`` child links: five int64 arrays per vertex, two
        per leaf and one id per link. Agglomerative clustering joins at
        least two clusters per merge, so no hierarchy it builds over
        ``n_leaves`` leaves holds more.
        """
        n_vertices = 2 * n_leaves - 1
        return 8 * (5 * n_vertices + 2 * n_leaves + (n_vertices - 1))

    def __repr__(self) -> str:
        return (
            f"CommunityHierarchy(leaves={self._n_leaves}, "
            f"communities={self.n_vertices - self._n_leaves}, "
            f"height={int(self._depth.max())})"
        )

    # -------------------------------------------------------------- internal

    def _validate_shape(self, parent: list[int]) -> None:
        total = len(parent)
        n = self._n_leaves
        if not (0 < n <= total):
            raise HierarchyError(f"n_leaves={n} inconsistent with {total} vertices")
        if len(self._children) != total:
            raise HierarchyError("children list length differs from parent array")
        roots = parent.count(-1)
        if roots != 1:
            raise HierarchyError(f"hierarchy must have exactly one root, found {roots}")
        for leaf in range(n):
            if self._children[leaf]:
                raise HierarchyError(f"leaf {leaf} has children")
        if not all(self._children[n:]):
            vertex = next(v for v in range(n, total) if not self._children[v])
            raise HierarchyError(f"internal vertex {vertex} has no children")

    def _compute_layout(self) -> None:
        n = self._n_leaves
        children = self._children
        total = len(children)
        depth = [0] * total
        lo = [0] * total
        hi = [0] * total
        leaf_order: list[int] = []

        # Iterative DFS over Python lists: depths on the way down, leaf
        # ranges on the way back up (``~vertex`` marks a finished vertex).
        # Recursion is avoided because skewed hierarchies (the paper's
        # Retweet) can be thousands of levels deep.
        root = self._root
        depth[root] = 1
        stack = [root]
        while stack:
            vertex = stack.pop()
            if vertex < 0:
                hi[~vertex] = len(leaf_order)
                continue
            lo[vertex] = len(leaf_order)
            if vertex < n:
                leaf_order.append(vertex)
                hi[vertex] = len(leaf_order)
                continue
            kids = children[vertex]
            below = depth[vertex] + 1
            for child in kids:
                depth[child] = below
            stack.append(~vertex)
            stack.extend(reversed(kids))
        if len(leaf_order) != n:
            raise HierarchyError(
                f"root reaches {len(leaf_order)} of {n} leaves; "
                "the hierarchy must cover every node"
            )
        self._depth = np.array(depth, dtype=np.int64)
        self._range_lo = np.array(lo, dtype=np.int64)
        self._range_hi = np.array(hi, dtype=np.int64)
        self._size = self._range_hi - self._range_lo
        self._leaf_order = np.array(leaf_order, dtype=np.int64)
        self._leaf_position = np.empty(n, dtype=np.int64)
        self._leaf_position[self._leaf_order] = np.arange(n, dtype=np.int64)

    def _check_vertex(self, vertex: int) -> None:
        if not (0 <= vertex < self.n_vertices):
            raise HierarchyError(
                f"vertex {vertex} out of range (0..{self.n_vertices - 1})"
            )


def same_hierarchy(a: CommunityHierarchy, b: CommunityHierarchy) -> bool:
    """Structural equality of two hierarchies (same leaves, same parents).

    Agglomerative construction is deterministic, so equal parent arrays
    mean identical vertex layout: a reclustering equal to another serves
    every structure built over it.
    """
    if a.n_leaves != b.n_leaves or a.n_vertices != b.n_vertices:
        return False
    return bool(np.array_equal(a.parents, b.parents))


class ClusterMap(NamedTuple):
    """The vertices of ``old`` matched to those of ``new`` by member set.

    ``to_new[v]`` is the vertex of ``new`` with old vertex ``v``'s members
    and ``to_old`` the inverse, ``-1`` where none has them; every leaf
    maps to itself. ``changed`` marks, per leaf, whether it lies in an
    unmapped vertex of either hierarchy (a *changed cluster*).
    """

    old: CommunityHierarchy
    new: CommunityHierarchy
    to_new: np.ndarray
    to_old: np.ndarray
    changed: np.ndarray


def map_clusters(old: CommunityHierarchy, new: CommunityHierarchy) -> ClusterMap:
    """Match two hierarchies over the same leaves, cluster by cluster.

    Exact, with no hashing. A new vertex's members are a range of
    ``new.leaf_order``; their positions in ``old.leaf_order`` fill a
    range exactly when their highest and lowest positions lie ``size - 1``
    apart, and then the old vertex holding that range, if any, has the
    same members. One sparse table over the old positions, read in new
    leaf order, gives every new vertex's lowest and highest position, and
    one sorted search over the old vertices' ``(start, size)`` ranges finds
    the match. Vertices that share their member set with another vertex
    of their own hierarchy (one-child chains) stay unmapped, so the map is
    one-to-one. Equal hierarchies map by the identity.
    """
    n = old.n_leaves
    if new.n_leaves != n:
        raise HierarchyError(
            f"cannot map a {old.n_leaves}-leaf hierarchy onto {new.n_leaves} leaves"
        )
    # A leaf's members start at its own leaf-order position.
    seq = old.member_starts[new.leaf_order]
    starts, sizes = new.member_starts[n:], new.sizes[n:]
    low = _range_min(seq, starts, sizes)
    high = -_range_min(-seq, starts, sizes)
    old_keys = _range_keys(old)
    order = np.argsort(old_keys)
    at = np.minimum(np.searchsorted(old_keys[order], low * (n + 1) + sizes), len(order) - 1)
    match = order[at]
    hit = (
        (high - low + 1 == sizes)
        & (old_keys[match] == low * (n + 1) + sizes)
        & _distinct(old)[match]
        & _distinct(new)
    )
    to_old = np.concatenate((np.arange(n), np.where(hit, match + n, -1)))
    to_new = np.concatenate((np.arange(n), np.full(old.n_vertices - n, -1)))
    to_new[match[hit] + n] = np.flatnonzero(hit) + n
    changed = np.zeros(n, dtype=bool)
    for hierarchy, images in ((old, to_new), (new, to_old)):
        lost = np.flatnonzero(images < 0)
        cover = np.zeros(n + 1, dtype=np.int64)
        np.add.at(cover, hierarchy.member_starts[lost], 1)
        np.add.at(cover, hierarchy.member_starts[lost] + hierarchy.sizes[lost], -1)
        changed[hierarchy.leaf_order[np.cumsum(cover[:-1]) > 0]] = True
    return ClusterMap(old, new, to_new, to_old, changed)


def _range_keys(hierarchy: CommunityHierarchy) -> np.ndarray:
    """One integer per internal vertex naming its leaf-order range."""
    n = hierarchy.n_leaves
    return hierarchy.member_starts[n:] * (n + 1) + hierarchy.sizes[n:]


def _distinct(hierarchy: CommunityHierarchy) -> np.ndarray:
    """Whether each internal vertex is the only one with its member set."""
    _, inverse, counts = np.unique(
        _range_keys(hierarchy), return_inverse=True, return_counts=True
    )
    return counts[inverse] == 1


def _range_min(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``values[s:s + size].min()`` for every ``(s, size)`` with ``size >= 1``.

    Row ``j`` of the sparse table holds the minimum of every window of
    ``2**j`` values (rows are padded to full length; no query reads the
    padding), and each range is covered by two windows of its row.
    """
    rows = np.floor(np.log2(np.maximum(sizes, 1))).astype(np.int64)
    table = [values]
    while len(table) <= rows.max(initial=0):
        span = 1 << (len(table) - 1)
        prev = table[-1]
        table.append(np.concatenate((np.minimum(prev[:-span], prev[span:]), prev[-span:])))
    table = np.stack(table)
    return np.minimum(table[rows, starts], table[rows, starts + sizes - (1 << rows)])
