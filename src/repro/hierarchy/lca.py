"""Constant-time lowest-common-ancestor queries.

Implements the classic Euler-tour + sparse-table reduction of LCA to range
minimum (Bender et al. [48] in the paper): one O(T log T) preprocessing
pass, then O(1) per query. Both the LORE score computation (Theorem 5) and
HIMOR construction (Theorem 6) rely on O(1) ``lca``; :meth:`LcaIndex.lca_many`
answers a whole array of pairs in one vectorized pass.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HierarchyError


class LcaIndex:
    """Euler-tour sparse-table LCA index over a :class:`CommunityHierarchy`."""

    __slots__ = ("_first", "_table", "_tour", "_log", "_depths")

    def __init__(self, hierarchy: "CommunityHierarchy") -> None:  # noqa: F821
        total = hierarchy.n_vertices
        parents = hierarchy.parents
        depths = hierarchy.depths
        lo = hierarchy.member_starts
        hi = lo + hierarchy.sizes
        # The tour is the DFS over ascending child ids that also lays out
        # the leaves, so its preorder sorts vertices by first leaf position,
        # ancestors first, and each subtree is the preorder run that ends
        # at the first vertex starting at or after the subtree's last leaf.
        # A vertex is first visited after two tour steps per earlier vertex
        # less one per level below the root, and its parent is revisited
        # right after its subtree's 2 * size - 1 steps.
        preorder = np.lexsort((depths, lo))
        pre = np.empty(total, dtype=np.int64)
        pre[preorder] = np.arange(total, dtype=np.int64)
        subtree = np.searchsorted(lo[preorder], hi, side="left") - pre
        first = 2 * pre - (depths - 1)
        tour = np.empty(2 * total - 1, dtype=np.int64)
        tour[first] = np.arange(total, dtype=np.int64)
        child = np.flatnonzero(parents >= 0)
        tour[first[child] + 2 * subtree[child] - 1] = parents[child]

        self._first = first
        self._tour = tour
        depth_arr = hierarchy.depths[self._tour]

        t = len(tour)
        # table[j, i] is the tour index of the minimum depth in the window
        # [i, i + 2^j). Entries with i > t - 2^j are built with a clamped
        # right half; queries never touch them (both query windows fit).
        table = [np.arange(t, dtype=np.int64)]
        span = 1
        positions = np.arange(t, dtype=np.int64)
        while span * 2 <= t:
            prev = table[-1]
            right = prev[np.minimum(positions + span, t - 1)]
            choose_right = depth_arr[right] < depth_arr[prev]
            table.append(np.where(choose_right, right, prev))
            span *= 2
        self._table = np.stack(table)
        # _log[i] = floor(log2(i)) for i >= 1 (and 0 at i = 0): the value
        # k fills the run [2^k, 2^(k+1)).
        self._log = np.zeros(t + 1, dtype=np.int64)
        k = 1
        while (1 << k) <= t:
            self._log[1 << k: 1 << (k + 1)] = k
            k += 1
        # Depth is consulted at query time through the tour.
        self._depths = depth_arr

    def lca(self, a: int, b: int) -> int:
        """Lowest common ancestor of tree vertices ``a`` and ``b``."""
        total = len(self._first)
        if not (0 <= a < total) or not (0 <= b < total):
            raise HierarchyError(f"lca arguments ({a}, {b}) out of range 0..{total - 1}")
        i = self._first.item(a)
        j = self._first.item(b)
        if i > j:
            i, j = j, i
        length = j - i + 1
        k = self._log.item(length)
        if k >= len(self._table):
            k = len(self._table) - 1
        left = self._table.item(k, i)
        right = self._table.item(k, j - (1 << k) + 1)
        depths = self._depths
        best = left if depths.item(left) <= depths.item(right) else right
        return self._tour.item(best)

    def lca_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise :meth:`lca` over two equally long vertex arrays.

        Returns an int64 array with ``out[i] == lca(a[i], b[i])``, ties
        broken exactly as the scalar query breaks them.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape != b.shape:
            raise HierarchyError(
                f"lca_many arguments differ in shape: {a.shape} vs {b.shape}"
            )
        total = len(self._first)
        for side in (a, b):
            bad = (side < 0) | (side >= total)
            if bad.any():
                raise HierarchyError(
                    f"lca_many argument {int(side[bad][0])} out of range "
                    f"0..{total - 1}"
                )
        first_a = self._first[a]
        first_b = self._first[b]
        i = np.minimum(first_a, first_b)
        j = np.maximum(first_a, first_b)
        k = np.minimum(self._log[j - i + 1], len(self._table) - 1)
        left = self._table[k, i]
        right = self._table[k, j - (np.int64(1) << k) + 1]
        depths = self._depths
        best = np.where(depths[left] <= depths[right], left, right)
        return self._tour[best]
