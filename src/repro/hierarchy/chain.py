"""Nested community chains — the evaluator-facing view of ``H(q)``.

The compressed COD evaluator (Algorithm 1) does not care where a chain of
nested communities came from: it only needs, for a query node ``q``, the
communities ``C_0 ⊂ C_1 ⊂ ... ⊂ C_{L-1}`` containing ``q`` (deepest first)
and, for every graph node ``u``, the index of the *smallest* chain
community containing ``u``. :class:`CommunityChain` packages exactly that.

Chains are produced three ways:

* :meth:`CommunityChain.from_hierarchy` — ``H(q)`` from a non-attributed or
  globally reclustered hierarchy (CODU / CODR);
* :meth:`CommunityChain.from_member_lists` — LORE's stitched hierarchy
  ``H_l(q)`` (reclustered communities below ``C_l`` + original ancestors);
* truncated chains for Algorithm 3's fallback (``H_l(q | C_l)``) via
  :meth:`prefix`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import HierarchyError
from repro.hierarchy.dendrogram import CommunityHierarchy


class CommunityChain:
    """A strictly nested chain of communities containing a query node.

    Attributes
    ----------
    q:
        The query node every community must contain.
    n:
        Number of nodes in the ambient graph.
    """

    __slots__ = ("q", "n", "_members", "_sizes", "_node_level", "_depths")

    #: Sentinel level for nodes outside every chain community.
    OUTSIDE = -1

    def __init__(
        self,
        n: int,
        q: int,
        members: list[np.ndarray],
        node_level: np.ndarray,
        depths: Sequence[int] | None = None,
    ) -> None:
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

    # ---------------------------------------------------------- construction

    @classmethod
    def from_hierarchy(
        cls, hierarchy: CommunityHierarchy, q: int
    ) -> "CommunityChain":
        """Build ``H(q)`` from a community hierarchy.

        ``node_level`` is derived with one O(1) LCA query per node: the
        smallest chain community containing ``u`` is ``lca(u, q)``.
        """
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
    def from_member_lists(
        cls,
        n: int,
        q: int,
        member_lists: Sequence[Sequence[int]],
        depths: Sequence[int] | None = None,
    ) -> "CommunityChain":
        """Build from explicit nested member lists, smallest first.

        ``node_level`` is computed by painting levels from largest to
        smallest, O(sum |C_i|).
        """
        members = [np.unique(np.asarray(ms, dtype=np.int64)) for ms in member_lists]
        node_level = np.full(n, cls.OUTSIDE, dtype=np.int64)
        for level in range(len(members) - 1, -1, -1):
            node_level[members[level]] = level
        return cls(n, q, members, node_level, depths)

    # ------------------------------------------------------------- interface

    def __len__(self) -> int:
        return len(self._members)

    @property
    def sizes(self) -> np.ndarray:
        """Community sizes, aligned with chain levels (a view)."""
        return self._sizes

    def members(self, level: int) -> np.ndarray:
        """Node ids of the community at ``level`` (0 is deepest/smallest)."""
        return self._members[level]

    def depth(self, level: int) -> int:
        """``dep`` of the community at ``level`` (root-most is smallest)."""
        return self._depths[level]

    def level_of(self, node: int) -> int:
        """Index of the smallest chain community containing ``node``.

        Returns :attr:`OUTSIDE` when the node lies outside even the largest
        chain community (possible for truncated LORE chains).
        """
        return int(self._node_level[node])

    @property
    def node_levels(self) -> np.ndarray:
        """The full node -> level array (a view; do not mutate)."""
        return self._node_level

    def prefix(self, length: int) -> "CommunityChain":
        """The chain truncated to its ``length`` deepest communities.

        Used by Algorithm 3: after the HIMOR index resolves ancestors of
        ``C_l``, compressed evaluation only runs inside ``C_l``.
        """
        if not (1 <= length <= len(self._members)):
            raise HierarchyError(
                f"prefix length {length} out of range 1..{len(self._members)}"
            )
        node_level = self._node_level.copy()
        node_level[node_level >= length] = self.OUTSIDE
        return CommunityChain(
            self.n, self.q, self._members[:length], node_level, self._depths[:length]
        )

    def __repr__(self) -> str:
        return (
            f"CommunityChain(q={self.q}, levels={len(self._members)}, "
            f"sizes={self._sizes.tolist()[:6]}{'...' if len(self) > 6 else ''})"
        )

    # -------------------------------------------------------------- internal

    def _validate(self) -> None:
        """Cheap structural checks run on every construction.

        The O(sum |C_i|) nesting proof lives in :meth:`validate_nesting`,
        which tests invoke explicitly; hot paths only pay O(L).
        """
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
        """Prove strict nesting and node_level consistency (O(sum |C_i|)).

        Raises :class:`HierarchyError` on the first violation. Intended for
        tests and for validating externally supplied chains.
        """
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
