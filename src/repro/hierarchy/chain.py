"""Nested community chains — the evaluator-facing view of ``H(q)``.

The compressed COD evaluator (Algorithm 1) does not care where a chain of
nested communities came from: it only needs, for a query node ``q``, the
communities ``C_0 ⊂ C_1 ⊂ ... ⊂ C_{L-1}`` containing ``q`` (deepest first)
and, for every graph node ``u``, the index of the *smallest* chain
community containing ``u``. :class:`CommunityChain` packages exactly that
as three arrays: ``node_levels`` (that index per node, ``OUTSIDE`` for
nodes in no chain community), the per-level ``sizes`` and the per-level
depths. Member lists are not stored; :meth:`CommunityChain.members`
derives a level's community, in ascending node id, from ``node_levels``.

Chains are produced three ways, each painted from leaf-order slices by
:meth:`CommunityHierarchy.leaf_levels` with no sort and no per-node LCA:

* :meth:`CommunityChain.from_hierarchy` — ``H(q)`` from a non-attributed or
  globally reclustered hierarchy (CODU / CODR);
* :func:`repro.core.lore.lore_chain` — LORE's stitched hierarchy
  ``H_l(q)`` (reclustered communities below ``C_l`` + original ancestors);
* truncated chains for Algorithm 3's fallback (``H_l(q | C_l)``) via
  :meth:`CommunityChain.prefix`.
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
        Number of nodes in the ambient graph (the length of
        :attr:`node_levels`).
    """

    __slots__ = ("q", "n", "_node_level", "_sizes", "_depths")

    #: Sentinel level for nodes outside every chain community.
    OUTSIDE = -1

    def __init__(
        self,
        q: int,
        node_levels: np.ndarray,
        sizes: Sequence[int],
        depths: Sequence[int],
    ) -> None:
        self.q = int(q)
        self._node_level = np.asarray(node_levels, dtype=np.int64)
        self.n = len(self._node_level)
        self._sizes = np.asarray(sizes, dtype=np.int64)
        self._depths = np.asarray(depths, dtype=np.int64)
        self._validate()

    # ---------------------------------------------------------- construction

    @classmethod
    def from_hierarchy(
        cls, hierarchy: CommunityHierarchy, q: int
    ) -> "CommunityChain":
        """Build ``H(q)`` from a community hierarchy in O(n + |H(q)|)."""
        path = hierarchy.path_communities(q)
        if not path:
            raise HierarchyError(f"leaf {q} has no ancestor communities")
        return cls(q, hierarchy.leaf_levels(path), hierarchy.sizes[path], hierarchy.depths[path])

    # ------------------------------------------------------------- interface

    def __len__(self) -> int:
        return len(self._sizes)

    @property
    def sizes(self) -> np.ndarray:
        """Community sizes, aligned with chain levels (a view)."""
        return self._sizes

    def members(self, level: int) -> np.ndarray:
        """Node ids of the community at ``level`` (0 is deepest/smallest),
        ascending; O(n) per call."""
        levels = self._node_level
        return np.flatnonzero((levels >= 0) & (levels <= level))

    def depth(self, level: int) -> int:
        """``dep`` of the community at ``level`` (root-most is smallest)."""
        return int(self._depths[level])

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
        if not (1 <= length <= len(self)):
            raise HierarchyError(
                f"prefix length {length} out of range 1..{len(self)}"
            )
        node_level = self._node_level.copy()
        node_level[node_level >= length] = self.OUTSIDE
        return CommunityChain(
            self.q, node_level, self._sizes[:length], self._depths[:length]
        )

    def __repr__(self) -> str:
        return (
            f"CommunityChain(q={self.q}, levels={len(self)}, "
            f"sizes={self._sizes.tolist()[:6]}{'...' if len(self) > 6 else ''})"
        )

    # -------------------------------------------------------------- internal

    def _validate(self) -> None:
        """Cheap structural checks run on every construction.

        The O(n) proof that the level array and the sizes agree lives in
        :meth:`validate_nesting`, which tests invoke explicitly; hot paths
        only pay O(L).
        """
        if len(self._sizes) == 0:
            raise HierarchyError("a community chain must contain at least one community")
        if len(self._depths) != len(self._sizes):
            raise HierarchyError("depths and sizes have different lengths")
        if not (0 <= self.q < self.n):
            raise HierarchyError(f"query node {self.q} out of range")
        if self._node_level[self.q] != 0:
            raise HierarchyError("query node must be at level 0 (the deepest community)")
        shrinks = np.flatnonzero(np.diff(self._sizes) <= 0)
        if len(shrinks):
            level = int(shrinks[0]) + 1
            raise HierarchyError(
                f"chain communities must strictly grow; level {level} has size "
                f"{int(self._sizes[level])} after {int(self._sizes[level - 1])}"
            )

    def validate_nesting(self) -> None:
        """Prove the level array consistent with the sizes (O(n)).

        A level array is nested by construction, so what remains to check
        is every level in ``[OUTSIDE, L)``, ``sizes`` equal to the
        cumulative per-level node counts, ``q`` at level 0 and strict
        growth. Raises :class:`HierarchyError` on the first violation.
        Intended for tests and for validating externally supplied chains.
        """
        self._validate()
        levels = self._node_level
        if levels.min() < self.OUTSIDE or levels.max() >= len(self):
            raise HierarchyError(
                f"node levels must lie in [{self.OUTSIDE}, {len(self)})"
            )
        counted = np.cumsum(np.bincount(levels[levels >= 0], minlength=len(self)))
        if not np.array_equal(counted, self._sizes):
            raise HierarchyError(
                f"sizes {self._sizes.tolist()} disagree with the node levels, "
                f"which give {counted.tolist()}"
            )
