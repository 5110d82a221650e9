"""Evaluation measures of Section V-A.

* ``|C*|``, topology density ``rho``, attribute density ``phi`` — computed
  by :func:`measure_community`;
* ``I(q)`` — global influence of a query node, via one shared RR pool per
  dataset (:func:`global_influence_table`);
* the characteristic-community check for baseline methods
  (:func:`is_characteristic` / :func:`oracle_rank`) — RR estimation inside
  the returned community, used to assign 0 to non-characteristic answers
  as the paper prescribes, and as the top-k precision oracle of Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.graph import AttributedGraph
from repro.graph.metrics import attribute_density, topology_density
from repro.influence.estimator import estimate_influences, estimate_influences_in_community
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class CommunityMeasures:
    """The three per-community effectiveness measures (zeros when absent)."""

    size: int
    topology_density: float
    attribute_density: float

    @classmethod
    def zero(cls) -> "CommunityMeasures":
        """The all-zero record the paper assigns to missing communities."""
        return cls(size=0, topology_density=0.0, attribute_density=0.0)


def measure_community(
    graph: AttributedGraph,
    members: "Sequence[int] | np.ndarray | None",
    attribute: int,
) -> CommunityMeasures:
    """Measure one community; ``None`` members yield the zero record."""
    if members is None or len(members) == 0:
        return CommunityMeasures.zero()
    return CommunityMeasures(
        size=len(members),
        topology_density=topology_density(graph, members),
        attribute_density=attribute_density(graph, members, attribute),
    )


def oracle_rank(
    graph: AttributedGraph,
    members: "Sequence[int] | np.ndarray",
    q: int,
    samples_per_node: int = 200,
    rng: "int | np.random.Generator | None" = None,
) -> int:
    """High-sample RR estimate of ``rank_C(q)`` (1-based).

    The Fig. 8 oracle draws ``samples_per_node * |C|`` restricted RR sets
    (the paper uses 1000 per node; 200 is the scaled default).
    """
    estimate = estimate_influences_in_community(
        graph, members, samples_per_node * len(members), rng=rng
    )
    return estimate.rank(q)


def is_characteristic(
    graph: AttributedGraph,
    members: "Sequence[int] | np.ndarray | None",
    q: int,
    k: int,
    samples_per_node: int = 200,
    rng: "int | np.random.Generator | None" = None,
) -> bool:
    """Whether ``q`` is top-``k`` influential inside ``members``.

    Communities no larger than ``k`` qualify trivially; ``None`` never
    qualifies.
    """
    if members is None or len(members) == 0 or int(q) not in set(int(v) for v in members):
        return False
    if len(members) <= k:
        return True
    return oracle_rank(graph, members, q, samples_per_node, rng=rng) <= k


def global_influence_table(
    graph: AttributedGraph,
    theta: int = 10,
    rng: "int | np.random.Generator | None" = None,
) -> dict[int, float]:
    """``I(v) = sigma_g(v)`` for every node, from one shared RR pool.

    One pool of ``theta * |V|`` RR sets serves every query of a dataset —
    the Fig. 7 (s)-(x) reporting path.
    """
    rng = ensure_rng(rng)
    estimate = estimate_influences(graph, theta * graph.n, rng=rng)
    return {v: estimate.influence(v) for v in range(graph.n)}
