"""Compressed COD evaluation (Section III, Algorithm 1).

Two stages over one shared pool of RR graphs, held in a flat
:class:`~repro.influence.arena.RRArena`:

1. **Shared sample generation / hierarchical-first search (HFS).** Each RR
   graph is traversed once. A node ``v`` is charged to the bucket of the
   *smallest* chain community within which ``v`` is reachable from the
   source — the minimax over source-to-``v`` paths of the largest node
   level on the path. :meth:`RRArena.level_bucket_counts` computes that
   assignment for every sample at once with one label-correcting frontier
   over all levels: an entry takes ``max(predecessor's value, own level)``
   over the best edge seen so far and is re-expanded whenever a later
   edge lowers it. Every value is realized by a real path and at
   the fixpoint no edge improves, so the result is exactly the paper's
   level-ordered queues' assignment.

2. **Top-k evaluation.** One pass over the buckets from the deepest
   community to the root, maintaining cumulative counts ``tau``. ``q`` is
   top-k in ``C_h`` iff ``tau(q) >= m_k`` where ``m_k`` is the k-th
   largest cumulative count. Theorem 3 guarantees the incremental top-k
   of the paper equals this global top-k, so reading ``m_k`` off a
   partition of the cumulative counts gives the same thresholds.

The evaluator answers *all* ranks ``1..k_max`` in one pass (the experiments
sweep ``k``).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import QueryError
from repro.graph.graph import AttributedGraph
from repro.hierarchy.chain import CommunityChain
from repro.influence.arena import RRArena, sample_arena
from repro.utils.rng import ensure_rng


@dataclass
class CompressedEvaluation:
    """Per-level outcome of one compressed COD evaluation.

    Attributes
    ----------
    chain:
        The evaluated community chain (deepest community first).
    k_values:
        The rank budgets answered, ascending.
    n_samples:
        Number of RR graphs drawn (``Theta``).
    population:
        Source-population size used for Theorem-1 scaling (``|V|``).
    query_counts:
        ``query_counts[h]`` = cumulative RR count of ``q`` within ``C_h``.
    thresholds:
        ``thresholds[h][j]`` = the ``k_values[j]``-th largest cumulative
        count in ``C_h`` (0 when fewer than ``k`` nodes scored).
    """

    chain: CommunityChain
    k_values: tuple[int, ...]
    n_samples: int
    population: int
    query_counts: list[int] = field(default_factory=list)
    thresholds: list[list[int]] = field(default_factory=list)

    def qualifies(self, level: int, k: int) -> bool:
        """Whether ``q`` is top-``k`` influential in the level's community."""
        j = self._k_index(k)
        if self.chain.sizes[level] <= k:
            return True
        return self.query_counts[level] >= self.thresholds[level][j]

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

    def query_influence(self, level: int) -> float:
        """Estimated ``sigma_{C_level}(q)`` (Theorem 2 scaling)."""
        if self.n_samples == 0:
            raise QueryError("no samples were drawn; influence is undefined")
        return self.query_counts[level] * self.population / self.n_samples

    def _k_index(self, k: int) -> int:
        try:
            return self.k_values.index(k)
        except ValueError:
            raise QueryError(
                f"k={k} was not evaluated; available budgets: {self.k_values}"
            ) from None


def compressed_cod(
    graph: AttributedGraph,
    chain: CommunityChain,
    k: "int | Sequence[int]" = 5,
    theta: int = 10,
    rng: "int | np.random.Generator | None" = None,
    rr_graphs: "RRArena | None" = None,
    budget: "object | None" = None,
    trace: "object | None" = None,
) -> CompressedEvaluation:
    """Run Algorithm 1 over ``chain`` for the query node ``chain.q``.

    Parameters
    ----------
    k:
        A rank budget or a collection of budgets answered jointly.
    theta:
        RR graphs per node: ``Theta = theta * graph.n`` samples are drawn
        (the paper's parameterization; default ``theta = 10``).
    rr_graphs:
        Optional pre-drawn samples as an
        :class:`~repro.influence.arena.RRArena` over ``graph``; overrides
        ``theta``, and the arena's own sample count is the Theorem-1
        ``Theta``. Anything else raises :class:`~repro.errors.QueryError`.
    budget:
        Optional cooperative execution budget (duck-typed; see
        :class:`repro.serving.budget.ExecutionBudget`). Fresh sampling
        ticks it per draw; the HFS pass checks the deadline once per
        frontier expansion so pre-drawn pools cannot blow a deadline
        unobserved.
    trace:
        Optional duck-typed span recorder (``span(name, **meta)`` context
        manager, e.g. ``repro.obs.QueryTrace``). The evaluation runs
        inside a ``compressed_eval`` span annotated with the chain depth
        and sample count; fresh sampling nests its own ``sampling`` span.
        Tracing never changes the evaluation.
    """
    k_values = _normalize_ks(k)
    if chain.n != graph.n:
        raise QueryError(
            f"chain covers {chain.n} nodes but the graph has {graph.n}"
        )
    if rr_graphs is not None and not isinstance(rr_graphs, RRArena):
        raise QueryError(
            f"rr_graphs must be an RRArena or None, got "
            f"{type(rr_graphs).__name__}"
        )

    span_cm = (
        trace.span("compressed_eval", levels=len(chain))
        if trace is not None
        else nullcontext()
    )
    with span_cm as span:
        if rr_graphs is None:
            rr_graphs = sample_arena(
                graph,
                theta * graph.n,
                rng=ensure_rng(rng),
                budget=budget,
                trace=trace,
            )
        elif rr_graphs.n != graph.n:
            raise QueryError(
                f"arena was sampled over {rr_graphs.n} nodes but the graph "
                f"has {graph.n}"
            )
        if span is not None:
            span.note(n_samples=rr_graphs.n_samples)
        return _evaluate_arena(graph, chain, k_values, rr_graphs, budget)


def _evaluate_arena(
    graph: AttributedGraph,
    chain: CommunityChain,
    k_values: tuple[int, ...],
    arena: RRArena,
    budget: "object | None",
) -> CompressedEvaluation:
    """Both Algorithm-1 stages on the flat arena arrays.

    Stage 1 is the vectorized minimax relaxation
    (:meth:`RRArena.level_bucket_counts`); stage 2 folds the per-level
    count rows into cumulative counts and reads the k-th largest positive
    cumulative count per level (a partial partition, not a full sort).
    """
    n_levels = len(chain)
    counts = arena.level_bucket_counts(chain.node_levels, n_levels, budget=budget)
    evaluation = CompressedEvaluation(
        chain=chain,
        k_values=k_values,
        n_samples=arena.n_samples,
        population=graph.n,
    )
    q = chain.q
    cumulative = np.zeros(graph.n, dtype=np.int64)
    for h in range(n_levels):
        cumulative += counts[h]
        scored = cumulative[cumulative > 0]
        m = len(scored)
        # The kv-th largest sits at ascending position m - kv; a partial
        # partition (in place, on the fresh masked copy) places exactly
        # those positions.
        ranks = [m - kv for kv in k_values if kv <= m]
        if ranks:
            scored.partition(ranks)
        evaluation.thresholds.append(
            [int(scored[m - kv]) if kv <= m else 0 for kv in k_values]
        )
        evaluation.query_counts.append(int(cumulative[q]))
    return evaluation


def _normalize_ks(k: "int | Sequence[int]") -> tuple[int, ...]:
    if isinstance(k, int):
        k_values: tuple[int, ...] = (k,)
    else:
        k_values = tuple(sorted(set(int(x) for x in k)))
    if not k_values:
        raise QueryError("at least one rank budget k is required")
    if k_values[0] <= 0:
        raise QueryError(f"rank budgets must be positive, got {k_values}")
    return k_values
