"""Forward Monte-Carlo influence simulation under weighted cascade.

The RR machinery is the production estimator; this module simulates the
diffusion *forward* from a seed, which provides an independent ground truth
for tests (Theorem 1: the two must agree in expectation) and for reporting
``I(q)`` exactly on tiny worked examples. An active ``u`` activates each
inactive neighbor ``v`` with ``p(u, v) = 1 / deg(v)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.graph.graph import AttributedGraph
from repro.utils.rng import ensure_rng


def simulate_influence(
    graph: AttributedGraph,
    seed_node: int,
    trials: int = 1000,
    rng: "int | np.random.Generator | None" = None,
    restrict_to: Sequence[int] | None = None,
) -> float:
    """Expected spread of ``seed_node`` by forward simulation.

    Parameters
    ----------
    restrict_to:
        When given, diffusion is confined to this node set (the community),
        matching the paper's ``sigma_C(q)``.
    """
    if trials <= 0:
        raise InfluenceError(f"trials must be positive, got {trials}")
    rng = ensure_rng(rng)
    allowed: set[int] | None = None
    if restrict_to is not None:
        allowed = set(int(v) for v in restrict_to)
        if seed_node not in allowed:
            raise InfluenceError("seed_node must belong to restrict_to")
    if not (0 <= seed_node < graph.n):
        raise InfluenceError(f"seed_node {seed_node} is not a node of the graph")

    total = 0
    for _ in range(trials):
        total += _run_cascade(graph, seed_node, rng, allowed)
    return total / trials


def _run_cascade(
    graph: AttributedGraph,
    seed_node: int,
    rng: np.random.Generator,
    allowed: set[int] | None,
) -> int:
    """One forward IC cascade; returns the number of activated nodes."""
    active = {seed_node}
    frontier = [seed_node]
    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            for v in graph.neighbors(u):
                v = int(v)
                if v in active:
                    continue
                if allowed is not None and v not in allowed:
                    continue
                if rng.random() < 1.0 / graph.degree(v):
                    active.add(v)
                    next_frontier.append(v)
        frontier = next_frontier
    return len(active)
