"""The Independent (naive) COD evaluator — the Section V-C baseline.

Follows the generic two-stage framework with *no* sharing: each community
in the chain is processed from scratch with its own RR samples
(``theta * |C|`` per community, sources uniform in the community, diffusion
confined to it). Its total sampling cost is ``theta * sum_C |C|``, which is
what makes it prohibitive on large graphs — the effect Fig. 8 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.compressed import _normalize_ks
from repro.graph.graph import AttributedGraph
from repro.hierarchy.chain import CommunityChain
from repro.influence.estimator import estimate_influences_in_community
from repro.utils.rng import ensure_rng


@dataclass
class IndependentEvaluation:
    """Per-level outcome of one independent COD evaluation.

    Mirrors :class:`~repro.core.compressed.CompressedEvaluation` where it
    matters to the experiments; levels carry an independent rank estimate
    for ``q`` per community.
    """

    chain: CommunityChain
    k_values: tuple[int, ...]
    n_samples_total: int
    query_ranks: list[int] = field(default_factory=list)

    def qualifies(self, level: int, k: int) -> bool:
        """Whether ``q`` ranked top-``k`` in the level's community."""
        if k not in self.k_values:
            raise ValueError(f"k={k} was not evaluated; budgets: {self.k_values}")
        return self.query_ranks[level] <= k

    def best_level(self, k: int) -> int | None:
        """The largest (highest) qualifying level, or ``None``."""
        for level in range(len(self.chain) - 1, -1, -1):
            if self.qualifies(level, k):
                return level
        return None

    def characteristic_community(self, k: int) -> np.ndarray | None:
        """Members of ``C*(q)`` for budget ``k``, or ``None`` when absent."""
        level = self.best_level(k)
        if level is None:
            return None
        return self.chain.members(level)


def independent_cod(
    graph: AttributedGraph,
    chain: CommunityChain,
    k: "int | Sequence[int]" = 5,
    theta: int = 10,
    rng: "int | np.random.Generator | None" = None,
) -> IndependentEvaluation:
    """Evaluate ``rank_C(q)`` independently for every chain community.

    Uses ``theta * |C|`` RR samples per community ``C`` (the paper's
    ``Theta = theta * sum_C |C|`` total).
    """
    k_values = _normalize_ks(k)
    rng = ensure_rng(rng)
    q = chain.q

    ranks: list[int] = []
    total_samples = 0
    for level in range(len(chain)):
        members = chain.members(level)
        n_samples = theta * len(members)
        total_samples += n_samples
        estimate = estimate_influences_in_community(graph, members, n_samples, rng=rng)
        ranks.append(estimate.rank(q))
    return IndependentEvaluation(
        chain=chain,
        k_values=k_values,
        n_samples_total=total_samples,
        query_ranks=ranks,
    )
