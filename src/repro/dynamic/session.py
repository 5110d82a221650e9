"""Staleness-bounded dynamic COD serving.

:class:`DynamicCOD` wraps a CODL pipeline for an evolving graph. The
offline structures (hierarchy + HIMOR index) are expensive; the paper's
Section IV-B discussion concludes that updating the compressed
computation incrementally is non-trivial and defers it. The session
therefore:

1. **serves** queries from the (possibly stale) structures built at the
   last rebuild;
2. **verifies** each answer against the *current* graph: the query node's
   rank inside the returned community is re-estimated with fresh
   restricted RR sampling (cheap — proportional to the community, not the
   graph);
3. **repairs** on verification failure: a fresh LORE + compressed
   evaluation on the current graph (a CODL- pass) replaces the stale
   answer;
4. **rebuilds** hierarchy and index once the number of applied edge
   updates exceeds ``rebuild_budget`` (drift bound).

This makes the stale index an accelerator, never a correctness risk: every
returned community is certified top-k on the live graph (up to sampling
confidence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.pipeline import CODL
from repro.core.problem import CODQuery
from repro.dynamic.updates import GraphUpdate, apply_updates
from repro.errors import QueryError
from repro.graph.graph import AttributedGraph
from repro.influence.estimator import estimate_influences_in_community
from repro.influence.models import InfluenceModel, WeightedCascade
from repro.utils.rng import ensure_rng


@dataclass
class DynamicAnswer:
    """One dynamic query's certified answer.

    Attributes
    ----------
    members:
        The certified characteristic community on the *current* graph, or
        ``None``.
    source:
        ``"index"`` (stale structures verified OK), ``"repair"`` (stale
        answer failed verification; fresh evaluation used), or
        ``"fresh"`` (structures had just been rebuilt).
    verified_rank:
        The query node's rank inside the answer, re-estimated on the
        current graph (``None`` when no community exists).
    """

    members: "np.ndarray | None"
    source: str
    verified_rank: "int | None"

    @property
    def found(self) -> bool:
        """Whether a characteristic community exists."""
        return self.members is not None


class DynamicCOD:
    """A COD query session over an evolving graph.

    Parameters
    ----------
    graph:
        The initial graph.
    rebuild_budget:
        Number of applied edge updates after which the hierarchy and
        HIMOR index are rebuilt (the drift bound).
    verify_samples_per_node:
        Sampling rate of the per-answer certification step.
    server:
        Optional server backend (duck-typed as
        :class:`~repro.serving.CODServer`: ``answer(query)`` and
        ``apply_updates(batch)``). When set, stale answers come from the
        server instead of a private CODL pipeline, and the rebuild path
        replays the pending update batches through
        ``server.apply_updates`` — which invalidates the server's
        LORE/restricted LRU caches and repairs its sample pool,
        so the server never keeps serving cache entries from a graph the
        session has already moved past.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        theta: int = 10,
        rebuild_budget: int = 50,
        verify_samples_per_node: int = 50,
        model: InfluenceModel | None = None,
        seed: "int | np.random.Generator | None" = None,
        server: "object | None" = None,
    ) -> None:
        if rebuild_budget < 1:
            raise QueryError(f"rebuild_budget must be >= 1, got {rebuild_budget}")
        self.theta = int(theta)
        self.rebuild_budget = int(rebuild_budget)
        self.verify_samples_per_node = int(verify_samples_per_node)
        self.model = model or WeightedCascade()
        self.rng = ensure_rng(seed)
        self._graph = graph
        self.server = server
        if server is not None and server.graph.n != graph.n:
            raise QueryError(
                f"server serves a {server.graph.n}-node graph but the "
                f"session starts from {graph.n} nodes"
            )
        self._pipeline = (
            None
            if server is not None
            else CODL(graph, theta=theta, model=self.model, seed=self.rng)
        )
        #: Batches applied to the live graph but not yet replayed into the
        #: server (batch boundaries preserved: each was validated as one
        #: atomic, conflict-free unit and must be replayed the same way).
        self._pending_batches: "list[list[GraphUpdate]]" = []
        #: Pool-less server over the live graph for repair passes: the
        #: CODL pipeline's own server while that covers the live graph,
        #: else built on first repair. ``apply`` drops it with the old
        #: graph, so repairs on one graph share one clustering.
        self._repair_server = None if self._pipeline is None else self._pipeline.server
        self._updates_since_build = 0
        self.rebuild_count = 0
        self.repair_count = 0

    # --------------------------------------------------------------- state

    @property
    def graph(self) -> AttributedGraph:
        """The current (live) graph."""
        return self._graph

    @property
    def updates_since_build(self) -> int:
        """Edge updates applied since the structures were last rebuilt."""
        return self._updates_since_build

    def apply(self, updates: Iterable[GraphUpdate]) -> None:
        """Apply an update batch; rebuild when the drift budget is hit."""
        updates = list(updates)
        self._graph = apply_updates(self._graph, updates)
        self._repair_server = None
        if self.server is not None:
            self._pending_batches.append(updates)
        self._updates_since_build += len(updates)
        if self._updates_since_build >= self.rebuild_budget:
            self._rebuild()

    def _rebuild(self) -> None:
        if self.server is not None:
            # Replay the pending batches through the server's epoch
            # machinery: each apply invalidates stale LORE/restricted
            # entries and repairs the sample pool — the server's caches
            # and the session's live graph re-converge here.
            for batch in self._pending_batches:
                self.server.apply_updates(batch)
            self._pending_batches = []
        else:
            self._pipeline = CODL(
                self._graph, theta=self.theta, model=self.model, seed=self.rng
            )
            self._repair_server = self._pipeline.server
        self._updates_since_build = 0
        self.rebuild_count += 1

    # -------------------------------------------------------------- queries

    def query(self, query: CODQuery, budget: "object | None" = None) -> DynamicAnswer:
        """Answer one query with a certified community on the live graph.

        ``budget`` is an optional cooperative execution budget (see
        :class:`repro.serving.budget.ExecutionBudget`): the verification
        sampling and any repair evaluation run under it, so a deadline or
        sample cap bounds the certification work too.
        """
        query.validate(self._graph)
        if budget is not None:
            budget.check()
        fresh = self._updates_since_build == 0
        if self.server is not None:
            members = self.server.answer(query).members
        else:
            members = self._pipeline.discover(query).members
        if members is not None:
            rank = self._verify_rank(members, query.node, budget=budget)
            if rank <= query.k:
                return DynamicAnswer(
                    members=members,
                    source="fresh" if fresh else "index",
                    verified_rank=rank,
                )
            if fresh:
                # Even a fresh evaluation can be flipped by verification
                # noise at the boundary; accept the verifier's verdict and
                # repair below.
                pass

        # Stale (or borderline) answer failed: evaluate on the live graph.
        self.repair_count += 1
        repaired = self._fresh_answer(query, budget=budget)
        if repaired is None:
            return DynamicAnswer(members=None, source="repair", verified_rank=None)
        rank = self._verify_rank(repaired, query.node, budget=budget)
        if rank > query.k:
            return DynamicAnswer(members=None, source="repair", verified_rank=None)
        return DynamicAnswer(members=repaired, source="repair", verified_rank=rank)

    # ------------------------------------------------------------- internal

    def _verify_rank(
        self, members: np.ndarray, q: int, budget: "object | None" = None
    ) -> int:
        estimate = estimate_influences_in_community(
            self._graph,
            [int(v) for v in members],
            self.verify_samples_per_node * len(members),
            model=self.model,
            rng=self.rng,
            budget=budget,
        )
        return estimate.rank(q)

    def _fresh_answer(
        self, query: CODQuery, budget: "object | None" = None
    ) -> "np.ndarray | None":
        # A CODL- pass on the live graph, every expensive phase (clustering,
        # LORE, sampling) under the caller's budget. Local import:
        # repro.serving imports this package.
        from repro.serving.server import RUNG_CODL_MINUS, CODServer

        if self._repair_server is None:
            self._repair_server = CODServer(
                self._graph, theta=self.theta, model=self.model, seed=self.rng
            )
        members, _ = self._repair_server.run_rung(
            RUNG_CODL_MINUS, query.node, query.attribute, [query.k], budget
        )
        return members[query.k]
