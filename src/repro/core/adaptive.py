"""Adaptive sample sizing for compressed COD evaluation.

The paper fixes ``theta`` (RR graphs per node) globally; Fig. 8 shows the
precision/cost trade-off that choice controls. This module provides an
adaptive alternative in the spirit of the stop-and-stare family ([23],
[24] in the paper): start from a small pool, and keep doubling it while
any level's top-k decision is statistically uncertain — i.e., the gap
between the query node's cumulative count and the k-th-largest count is
within ``z`` standard deviations (normal approximation of the count
difference). The pool is shared across rounds, so the total sampling cost
is at most twice that of the final round.

This is a documented engineering extension, not a claim from the paper:
the stopping rule is a heuristic (no formal union bound over levels), but
it empirically matches fixed high-theta decisions at a fraction of the
samples on easy queries while spending more only on genuinely borderline
ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.compressed import CompressedEvaluation, compressed_cod
from repro.errors import InfluenceError
from repro.graph.graph import AttributedGraph
from repro.hierarchy.chain import CommunityChain
from repro.influence.arena import concatenate_arenas, sample_arena
from repro.influence.models import InfluenceModel, WeightedCascade
from repro.utils.rng import ensure_rng


@dataclass
class AdaptiveResult:
    """Outcome of an adaptive evaluation.

    Attributes
    ----------
    evaluation:
        The final :class:`CompressedEvaluation` (largest pool).
    theta:
        The final per-node sample rate reached.
    rounds:
        Number of doubling rounds executed.
    converged:
        Whether every level's decision cleared the confidence margin
        (``False`` means the ``max_theta`` budget was exhausted first).
    """

    evaluation: CompressedEvaluation
    theta: int
    rounds: int
    converged: bool


def adaptive_compressed_cod(
    graph: AttributedGraph,
    chain: CommunityChain,
    k: int,
    theta_start: int = 2,
    theta_max: int = 64,
    z: float = 2.0,
    model: InfluenceModel | None = None,
    rng: "int | np.random.Generator | None" = None,
) -> AdaptiveResult:
    """Compressed COD evaluation with doubling sample pools.

    Parameters
    ----------
    theta_start / theta_max:
        Initial and maximum per-node sample rates; each round doubles the
        current rate by drawing as many *new* samples as already pooled.
    z:
        Confidence width in standard deviations; a level is settled when
        ``|count(q) - kth| >= z * sqrt(count(q) + kth)`` (both counts
        behave like Poisson totals under the shared-sample coupling).
    """
    if theta_start <= 0 or theta_max < theta_start:
        raise InfluenceError(
            f"need 0 < theta_start <= theta_max, got {theta_start}, {theta_max}"
        )
    if z < 0:
        raise InfluenceError(f"z must be non-negative, got {z}")
    model = model or WeightedCascade()
    rng = ensure_rng(rng)

    pool = sample_arena(graph, theta_start * graph.n, model=model, rng=rng)
    theta = theta_start
    rounds = 0
    while True:
        rounds += 1
        evaluation = compressed_cod(graph, chain, k=k, rr_graphs=pool)
        if _all_levels_settled(evaluation, k, z) or theta >= theta_max:
            converged = _all_levels_settled(evaluation, k, z)
            return AdaptiveResult(
                evaluation=evaluation, theta=theta, rounds=rounds,
                converged=converged,
            )
        # Double the pool (samples append; earlier draws are reused).
        pool = concatenate_arenas(
            [pool, sample_arena(graph, theta * graph.n, model=model, rng=rng)]
        )
        theta *= 2


def _all_levels_settled(
    evaluation: CompressedEvaluation, k: int, z: float
) -> bool:
    """Whether every level's top-k decision clears the z-margin."""
    j = evaluation._k_index(k)
    for level in range(len(evaluation.chain)):
        if evaluation.chain.sizes[level] <= k:
            continue  # trivially qualified, no uncertainty
        count_q = evaluation.query_counts[level]
        kth = evaluation.thresholds[level][j]
        gap = abs(count_q - kth)
        spread = math.sqrt(max(count_q + kth, 1))
        if gap < z * spread:
            return False
    return True
