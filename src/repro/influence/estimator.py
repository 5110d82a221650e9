"""RR-based influence estimation and influence ranking.

Theorem 1: ``sigma_g(q) = p_g(q) * |V|`` where ``p_g(q)`` is the
probability that ``q`` appears in a random RR set. The estimators here
count RR-set occurrences and expose both the scaled influence values and
the derived *influence ranks* (``rank_C(q)`` = 1 + number of nodes with
strictly larger influence; the paper's top-``k`` condition is
``rank <= k`` in this 1-based convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.graph.graph import AttributedGraph
from repro.influence.arena import sample_arena
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class InfluenceEstimate:
    """RR-occurrence counts plus the scaling context.

    Attributes
    ----------
    counts:
        ``counts[v]`` = number of sampled RR sets containing ``v``. Nodes
        absent from every sample are omitted (count 0).
    n_samples:
        Number of RR graphs drawn.
    population:
        The source population size (``|V|`` of the sampled graph); the
        Theorem-1 scaling factor.
    """

    counts: Mapping[int, int]
    n_samples: int
    population: int

    def influence(self, node: int) -> float:
        """Estimated expected spread of ``node``."""
        if self.n_samples == 0:
            raise InfluenceError("no samples were drawn; influence is undefined")
        return self.counts.get(node, 0) * self.population / self.n_samples

    def rank(self, node: int) -> int:
        """1-based influence rank of ``node`` (count ties share a rank)."""
        return rank_of(self.counts, node)

    def top_k(self, k: int) -> list[int]:
        """Nodes with rank <= k (may exceed ``k`` entries under ties)."""
        if k <= 0:
            raise InfluenceError(f"k must be positive, got {k}")
        if not self.counts:
            return []
        ordered = sorted(self.counts.values(), reverse=True)
        threshold = ordered[min(k, len(ordered)) - 1]
        return sorted(v for v, c in self.counts.items() if c >= threshold)


def estimate_influences(
    graph: AttributedGraph,
    n_samples: int,
    rng: "int | np.random.Generator | None" = None,
) -> InfluenceEstimate:
    """Estimate every node's influence on ``graph`` with ``n_samples`` RR sets."""
    if n_samples <= 0:
        raise InfluenceError(f"n_samples must be positive, got {n_samples}")
    arena = sample_arena(graph, n_samples, rng=ensure_rng(rng))
    return InfluenceEstimate(
        counts=arena.influence_counts(), n_samples=n_samples, population=graph.n
    )


def estimate_influences_in_community(
    graph: AttributedGraph,
    members: Sequence[int],
    n_samples: int,
    rng: "int | np.random.Generator | None" = None,
) -> InfluenceEstimate:
    """Estimate influences *within* the community induced by ``members``.

    RR sets are sampled with sources uniform in the community and the
    diffusion confined to it, while edge probabilities remain those of the
    original graph — the semantics of ``sigma_C`` in Theorem 2's proof
    (possible world on ``g``, reachability restricted to ``C``). This is
    what the Independent baseline of Section V-C and the top-k precision
    oracle compute per community.
    """
    if n_samples <= 0:
        raise InfluenceError(f"n_samples must be positive, got {n_samples}")
    allowed = set(int(v) for v in members)
    arena = sample_arena(graph, n_samples, rng=ensure_rng(rng), allowed=allowed)
    return InfluenceEstimate(
        counts=arena.influence_counts(), n_samples=n_samples, population=len(allowed)
    )


def influence_ranks(counts: Mapping[int, int]) -> dict[int, int]:
    """1-based rank of every node appearing in ``counts``."""
    ordered = sorted(counts.values(), reverse=True)
    return {v: 1 + _count_strictly_larger(ordered, c) for v, c in counts.items()}


def rank_of(counts: Mapping[int, int], node: int) -> int:
    """1-based influence rank of ``node`` under ``counts``.

    Nodes missing from ``counts`` have count 0 and rank below every node
    with a positive count.
    """
    target = counts.get(node, 0)
    return 1 + sum(1 for c in counts.values() if c > target)


def _count_strictly_larger(sorted_desc: list[int], value: int) -> int:
    """Number of entries in a descending-sorted list strictly above value."""
    lo, hi = 0, len(sorted_desc)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_desc[mid] > value:
            lo = mid + 1
        else:
            hi = mid
    return lo
