"""The attributed-graph store.

:class:`AttributedGraph` is the substrate every other subsystem builds on:
an undirected graph over dense integer node ids ``0..n-1``, with optional
categorical node attributes and optional positive edge weights. Adjacency is
stored as one sorted numpy array per node, which makes the hot loops (RR
graph sampling, truss/core peeling, agglomerative clustering) fast while
keeping the structure simple and immutable.

The class is deliberately *not* a general-purpose graph library: it exposes
exactly the operations the COD system needs. Graphs are immutable after
construction; derived graphs (induced subgraphs, reweighted copies) are new
objects.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import AttributeNotFoundError, GraphError, NodeNotFoundError

EdgeList = Sequence[tuple[int, int]]


class AttributedGraph:
    """An immutable undirected graph with categorical node attributes.

    Parameters
    ----------
    n:
        Number of nodes; node ids are ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs. Self-loops are rejected; duplicate
        pairs (in either orientation) are collapsed into one edge.
    attributes:
        Optional per-node attribute sets: a sequence of iterables of
        non-negative ints, one per node. Missing entries mean "no
        attributes".
    edge_weights:
        Optional mapping ``(min(u, v), max(u, v)) -> weight`` with positive
        weights. Unlisted edges default to weight ``1.0``. Weighted graphs
        are produced by :mod:`repro.graph.weighting` for reclustering; the
        influence machinery ignores weights (the paper's weighted-cascade
        probabilities depend on degree only).
    """

    __slots__ = (
        "_n",
        "_m",
        "_adjacency",
        "_weights",
        "_degrees",
        "_attributes",
        "_attribute_index",
        "_is_weighted",
        "_shm",
        "_edge_sha",
    )

    def __init__(
        self,
        n: int,
        edges: EdgeList,
        attributes: Sequence[Iterable[int]] | None = None,
        edge_weights: Mapping[tuple[int, int], float] | None = None,
    ) -> None:
        if n <= 0:
            raise GraphError(f"graph must have at least one node, got n={n}")
        self._n = int(n)
        self._shm = None
        self._edge_sha: "str | None" = None

        neighbor_sets: list[set[int]] = [set() for _ in range(self._n)]
        for u, v in edges:
            u = int(u)
            v = int(v)
            if u == v:
                raise GraphError(f"self-loop ({u}, {v}) is not allowed")
            if not (0 <= u < self._n):
                raise NodeNotFoundError(u, self._n)
            if not (0 <= v < self._n):
                raise NodeNotFoundError(v, self._n)
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)

        self._adjacency: list[np.ndarray] = [
            np.fromiter(sorted(neighbors), dtype=np.int64, count=len(neighbors))
            for neighbors in neighbor_sets
        ]
        self._degrees = np.fromiter(
            (len(a) for a in self._adjacency), dtype=np.int64, count=self._n
        )
        self._m = int(self._degrees.sum()) // 2

        self._is_weighted = edge_weights is not None
        self._weights: list[np.ndarray] | None = None
        if edge_weights is not None:
            self._weights = []
            for u, nbrs in enumerate(self._adjacency):
                row = np.ones(len(nbrs), dtype=np.float64)
                for i, v in enumerate(nbrs):
                    key = (u, int(v)) if u < v else (int(v), u)
                    if key in edge_weights:
                        w = float(edge_weights[key])
                        if w <= 0:
                            raise GraphError(f"edge weight for {key} must be positive, got {w}")
                        row[i] = w
                self._weights.append(row)

        attr_sets: list[frozenset[int]] = []
        if attributes is None:
            attr_sets = [frozenset()] * self._n
        else:
            if len(attributes) > self._n:
                raise GraphError(
                    f"got attribute sets for {len(attributes)} nodes but graph has {self._n}"
                )
            for node_attrs in attributes:
                attr_sets.append(frozenset(int(a) for a in node_attrs))
            attr_sets.extend([frozenset()] * (self._n - len(attr_sets)))
        self._attributes: tuple[frozenset[int], ...] = tuple(attr_sets)
        self._attribute_index = _index_attributes(self._attributes)

    # ------------------------------------------------------------------ size

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return self._m

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        kind = "weighted " if self._is_weighted else ""
        return (
            f"AttributedGraph({kind}n={self._n}, m={self._m}, "
            f"attributes={len(self._attribute_index)})"
        )

    # ------------------------------------------------------------- structure

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (a view; do not mutate)."""
        self._check_node(v)
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        self._check_node(v)
        return int(self._degrees[v])

    @property
    def degrees(self) -> np.ndarray:
        """Degree array of shape ``(n,)`` (a view; do not mutate)."""
        return self._degrees

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        self._check_node(u)
        self._check_node(v)
        row = self._adjacency[u]
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges once, as ``(u, v)`` with ``u < v``."""
        for u in range(self._n):
            row = self._adjacency[u]
            start = int(np.searchsorted(row, u + 1))
            for v in row[start:]:
                yield u, int(v)

    @property
    def edge_checksum(self) -> str:
        """SHA-256 hex digest of the edge set, computed once per graph.

        The digest covers the compact JSON text ``[[u,v],...]`` of every
        edge with ``u < v``, sorted: the adjacency rows already hold each
        node's larger neighbors in ascending order, so the text is read
        off the rows, and the digest equals that of ``json.dumps`` over
        the sorted edge tuples. Graphs are immutable, so the first read
        fixes it.
        """
        if self._edge_sha is None:
            sources = np.repeat(np.arange(self._n, dtype=np.int64), self._degrees)
            targets = np.concatenate(self._adjacency)
            upper = targets > sources
            pairs = zip(sources[upper].tolist(), targets[upper].tolist())
            text = "[" + ",".join([f"[{u},{v}]" for u, v in pairs]) + "]"
            self._edge_sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self._edge_sha

    # --------------------------------------------------------------- weights

    @property
    def is_weighted(self) -> bool:
        """Whether explicit edge weights were supplied at construction."""
        return self._is_weighted

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with ``neighbors(v)``; all ones when unweighted."""
        self._check_node(v)
        if self._weights is None:
            return np.ones(len(self._adjacency[v]), dtype=np.float64)
        return self._weights[v]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; raises if the edge is absent."""
        self._check_node(u)
        self._check_node(v)
        row = self._adjacency[u]
        i = int(np.searchsorted(row, v))
        if i >= len(row) or int(row[i]) != v:
            raise GraphError(f"edge ({u}, {v}) is not in the graph")
        if self._weights is None:
            return 1.0
        return float(self._weights[u][i])

    # ------------------------------------------------------------ attributes

    def attributes_of(self, v: int) -> frozenset[int]:
        """The attribute set of node ``v``."""
        self._check_node(v)
        return self._attributes[v]

    def has_attribute(self, v: int, attribute: int) -> bool:
        """Whether node ``v`` carries ``attribute``."""
        self._check_node(v)
        return attribute in self._attributes[v]

    def nodes_with_attribute(self, attribute: int) -> np.ndarray:
        """Sorted array of nodes carrying ``attribute``.

        Raises :class:`AttributeNotFoundError` for attributes no node has,
        which catches typos in query workloads early.
        """
        if attribute not in self._attribute_index:
            raise AttributeNotFoundError(attribute)
        return self._attribute_index[attribute]

    @property
    def attribute_universe(self) -> frozenset[int]:
        """All attribute ids present on at least one node."""
        return frozenset(self._attribute_index)

    def attribute_edge_arrays(self, attribute: int) -> tuple[np.ndarray, np.ndarray]:
        """Edges whose *both* endpoints carry ``attribute``, as arrays.

        Returns ``(u, v)`` int64 arrays with ``u[i] < v[i]``, ordered by
        ``u`` then ``v``. These are the "query-attributed edges" of LORE's
        reclustering score (Definition 4 of the paper).
        """
        carriers = np.unique(self.nodes_with_attribute(attribute))
        if not len(carriers):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        is_carrier = np.zeros(self._n, dtype=bool)
        is_carrier[carriers] = True
        u = np.repeat(carriers, self._degrees[carriers])
        v = np.concatenate([self._adjacency[c] for c in carriers.tolist()])
        keep = (v > u) & is_carrier[v]
        return u[keep], v[keep]

    def attribute_edges(self, attribute: int) -> Iterator[tuple[int, int]]:
        """Iterate :meth:`attribute_edge_arrays` as ``(u, v)`` int pairs."""
        u, v = self.attribute_edge_arrays(attribute)
        yield from zip(u.tolist(), v.tolist())

    # ---------------------------------------------------------- connectivity

    def connected_components(self) -> list[np.ndarray]:
        """Connected components as sorted node arrays, largest first."""
        seen = np.zeros(self._n, dtype=bool)
        components: list[np.ndarray] = []
        for start in range(self._n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            members = [start]
            while stack:
                u = stack.pop()
                for v in self._adjacency[u]:
                    v = int(v)
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
                        members.append(v)
            components.append(np.asarray(sorted(members), dtype=np.int64))
        components.sort(key=len, reverse=True)
        return components

    def is_connected(self) -> bool:
        """Whether the graph is connected (single-node graphs are)."""
        return len(self.connected_components()) == 1

    # ----------------------------------------------------------- conversions

    def with_edge_weights(self, weights: Mapping[tuple[int, int], float]) -> "AttributedGraph":
        """A copy of this graph carrying the given edge weights."""
        return AttributedGraph(
            self._n,
            list(self.edges()),
            attributes=self._attributes,
            edge_weights=weights,
        )

    def edited(
        self,
        edges: "Iterable[tuple[int, int, bool]]",
        attributes: "Iterable[tuple[int, int, bool]]",
    ) -> "AttributedGraph":
        """A copy with edges and node attributes added or removed, trusted
        as given.

        ``edges`` holds ``(u, v, add)`` triples and ``attributes`` holds
        ``(node, attribute, add)`` triples. Each must already be valid
        against this graph (ids in range, no self-loop, an inserted edge
        or attribute absent, a removed one present, no pair twice), as
        :func:`repro.dynamic.updates.apply_updates` checks; nothing is
        re-validated here.

        Only what changed is rebuilt: the adjacency rows and degrees of the
        touched endpoints, the touched nodes' attribute sets, and the
        carrier arrays of the touched attributes (an attribute that loses
        its last carrier leaves the universe). Every other row and carrier
        array is shared with this graph, or copied when this graph is a
        view over a shared-memory segment, so the copy outlives the
        segment. Edits carry no edge weights, so a weighted graph raises
        :class:`GraphError`.
        """
        if self._is_weighted:
            raise GraphError(
                "cannot edit a weighted graph: edge edits carry no weights"
            )
        adjacency = list(self._adjacency)
        index = dict(self._attribute_index)
        if self._shm is not None:
            adjacency = [row.copy() for row in adjacency]
            index = {a: nodes.copy() for a, nodes in index.items()}

        inserted: dict[int, list[int]] = {}
        deleted: dict[int, list[int]] = {}
        for u, v, add in edges:
            rows = inserted if add else deleted
            rows.setdefault(u, []).append(v)
            rows.setdefault(v, []).append(u)
        degrees = self._degrees.copy()
        for node in inserted.keys() | deleted.keys():
            row = _edit_row(adjacency[node], deleted.get(node), inserted.get(node))
            adjacency[node] = row
            degrees[node] = len(row)

        node_attributes = list(self._attributes)
        edited_sets: dict[int, set[int]] = {}
        gained: dict[int, list[int]] = {}
        lost: dict[int, list[int]] = {}
        for node, attribute, add in attributes:
            carried = edited_sets.get(node)
            if carried is None:
                carried = edited_sets[node] = set(node_attributes[node])
            if add:
                carried.add(attribute)
                gained.setdefault(attribute, []).append(node)
            else:
                carried.discard(attribute)
                lost.setdefault(attribute, []).append(node)
        for node, carried in edited_sets.items():
            node_attributes[node] = frozenset(carried)
        for attribute in gained.keys() | lost.keys():
            carriers = _edit_row(
                index.get(attribute, np.empty(0, dtype=np.int64)),
                lost.get(attribute),
                gained.get(attribute),
            )
            if len(carriers):
                index[attribute] = carriers
            else:
                del index[attribute]
        return self._from_rows(adjacency, degrees, tuple(node_attributes), index)

    # ---------------------------------------------------------- shared memory

    @property
    def is_shared(self) -> bool:
        """Whether this graph's arrays are views over a shared segment."""
        return self._shm is not None

    def to_shared(self, name: "str | None" = None):
        """Publish this graph as one flat-CSR shared-memory segment.

        The segment stores adjacency (``indptr``/``indices``), optional
        aligned edge weights, the per-node attribute sets as a CSR pair,
        and the attribute inverted index as a keyed CSR — everything
        :meth:`attach` needs to rebuild an equivalent graph whose heavy
        arrays are zero-copy views over the mapping. Returns the owning
        :class:`~repro.utils.shm.SharedSegment`; this graph is untouched.
        """
        from repro.utils.shm import create_segment

        n = self._n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=indptr[1:])
        arrays: dict[str, np.ndarray] = {
            "indptr": indptr,
            "indices": np.concatenate(self._adjacency)
            if self._m
            else np.empty(0, dtype=np.int64),
        }
        if self._weights is not None:
            arrays["weights"] = (
                np.concatenate(self._weights)
                if self._m
                else np.empty(0, dtype=np.float64)
            )
        attr_counts = np.fromiter(
            (len(attrs) for attrs in self._attributes), dtype=np.int64, count=n
        )
        attr_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(attr_counts, out=attr_indptr[1:])
        arrays["attr_indptr"] = attr_indptr
        arrays["attr_values"] = np.fromiter(
            (a for attrs in self._attributes for a in sorted(attrs)),
            dtype=np.int64,
            count=int(attr_counts.sum()),
        )
        keys = sorted(self._attribute_index)
        arrays["attr_keys"] = np.asarray(keys, dtype=np.int64)
        index_counts = np.fromiter(
            (len(self._attribute_index[k]) for k in keys),
            dtype=np.int64,
            count=len(keys),
        )
        index_indptr = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(index_counts, out=index_indptr[1:])
        arrays["attr_index_indptr"] = index_indptr
        arrays["attr_index_nodes"] = (
            np.concatenate([self._attribute_index[k] for k in keys])
            if keys
            else np.empty(0, dtype=np.int64)
        )
        return create_segment(
            arrays,
            kind="attributed-graph",
            extra={
                "n": n,
                "m": self._m,
                "weighted": self._is_weighted,
            },
            name=name,
        )

    @classmethod
    def from_csr(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        attributes: Sequence[frozenset[int]],
        weights: "np.ndarray | None" = None,
        attribute_index: "dict[int, np.ndarray] | None" = None,
    ) -> "AttributedGraph":
        """A graph over flat CSR arrays, trusted as given.

        ``indices[indptr[v]:indptr[v + 1]]`` must already be ``v``'s
        sorted, loop-free neighbor row, with every edge stored in both
        endpoints' rows; ``weights``, when given, is aligned with
        ``indices``. Nothing is re-validated and every row is a zero-copy
        slice, which is how derived graphs (shared-memory attachments,
        weighted induced subgraphs) skip the constructor's per-edge work.
        """
        n = len(indptr) - 1
        degrees = np.diff(indptr)
        degrees.setflags(write=False)
        return cls._from_rows(
            [indices[indptr[v]:indptr[v + 1]] for v in range(n)],
            degrees,
            tuple(attributes),
            attribute_index,
            weights=(
                None
                if weights is None
                else [weights[indptr[v]:indptr[v + 1]] for v in range(n)]
            ),
        )

    @classmethod
    def _from_rows(
        cls,
        adjacency: "list[np.ndarray]",
        degrees: np.ndarray,
        attributes: "tuple[frozenset[int], ...]",
        attribute_index: "dict[int, np.ndarray] | None",
        weights: "list[np.ndarray] | None" = None,
    ) -> "AttributedGraph":
        """A graph over per-node rows, trusted as given (see :meth:`from_csr`)."""
        graph = object.__new__(cls)
        graph._n = len(adjacency)
        graph._shm = None
        graph._edge_sha = None
        graph._adjacency = adjacency
        graph._degrees = degrees
        graph._m = int(degrees.sum()) // 2
        graph._is_weighted = weights is not None
        graph._weights = weights
        graph._attributes = attributes
        graph._attribute_index = (
            _index_attributes(attributes)
            if attribute_index is None
            else attribute_index
        )
        return graph

    @classmethod
    def from_segment(cls, segment) -> "AttributedGraph":
        """Rebuild a graph over a mapped ``attributed-graph`` segment.

        Per-node adjacency (and weight) rows are zero-copy slices of the
        mapped flat arrays; only the small Python-object surfaces (the
        attribute frozensets, the per-node view list) are rebuilt. The
        graph holds the segment handle so the mapping stays alive.
        """
        arr = segment.arrays
        n = int(segment.extra["n"])
        attr_indptr = arr["attr_indptr"]
        attr_values = arr["attr_values"]
        attributes = [
            frozenset(
                int(a) for a in attr_values[attr_indptr[v]:attr_indptr[v + 1]]
            )
            for v in range(n)
        ]
        index_indptr = arr["attr_index_indptr"]
        index_nodes = arr["attr_index_nodes"]
        attribute_index = {
            int(key): index_nodes[index_indptr[i]:index_indptr[i + 1]]
            for i, key in enumerate(arr["attr_keys"])
        }
        graph = cls.from_csr(
            arr["indptr"],
            arr["indices"],
            attributes,
            weights=arr["weights"] if segment.extra["weighted"] else None,
            attribute_index=attribute_index,
        )
        graph._shm = segment
        return graph

    @classmethod
    def attach(cls, name: str) -> "AttributedGraph":
        """Attach a published graph by segment name (read-only, zero-copy)."""
        from repro.utils.shm import attach_segment

        return cls.from_segment(attach_segment(name, kind="attributed-graph"))

    def detach_shared(self) -> None:
        """Drop this graph's segment handle (close the mapping)."""
        segment, self._shm = self._shm, None
        if segment is not None:
            segment.close()

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint, for Table II style reporting."""
        total = sum(a.nbytes for a in self._adjacency) + self._degrees.nbytes
        if self._weights is not None:
            total += sum(w.nbytes for w in self._weights)
        total += sum(len(attrs) * 8 for attrs in self._attributes)
        total += sum(arr.nbytes for arr in self._attribute_index.values())
        return total

    # -------------------------------------------------------------- internal

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise NodeNotFoundError(v, self._n)


def _edit_row(
    row: np.ndarray, removed: "list[int] | None", added: "list[int] | None"
) -> np.ndarray:
    """The sorted ``row`` without ``removed`` and with ``added``."""
    if removed:
        row = row[~np.isin(row, removed)]
    if added:
        row = np.union1d(row, added)
    return row


def _index_attributes(
    attributes: Sequence[frozenset[int]],
) -> dict[int, np.ndarray]:
    """The inverted index ``attribute -> sorted carrier nodes``."""
    index: dict[int, list[int]] = {}
    for v, attrs in enumerate(attributes):
        for a in attrs:
            index.setdefault(a, []).append(v)
    return {a: np.asarray(nodes, dtype=np.int64) for a, nodes in index.items()}
