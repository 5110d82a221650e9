"""Batch query planner: attribute grouping over shared RR samples.

RR samples depend only on the graph and the diffusion model — never on
the query (the Theorem-2 observation behind
:class:`~repro.core.pool.SharedSamplePool`) — and every *per-attribute*
structure a query needs (LORE's edge counts and local reclustering, LORE
chain, restricted arena) is a deterministic function of the graph and the attribute. A
workload of admitted queries therefore factors cleanly:

* **group** the workload by query attribute (first-appearance order,
  input order within a group),
* **build once per group** — the group's first query populates the
  server's bounded LRU caches (LORE, restricted arenas)
  and every later query in the group hits them, and
* **share one pool** — with a :class:`SharedSamplePool` attached to the
  server, all compressed evaluations read the same materialized
  :class:`~repro.influence.arena.RRArena` instead of re-sampling
  ``theta * n`` RR graphs per query.

**Bit-identity.** In pooled mode the server draws nothing from its own
RNG per query, so each answer is a pure function of (query, pool, server
config) and reordering the workload cannot change any answer — the
planner exploits this by executing group-by-group. Without a pool the
planner still *plans* groups (the caches still help) but executes in
input order, because fresh sampling consumes the server's RNG stream and
reordering would change which samples each query sees. Either way the
answers are bit-identical to sequential :meth:`CODServer.answer` calls
on the same server, which the differential suite
(``tests/serving/test_planner.py``) pins.

**Failure isolation.** A query that raises — even a caller error like an
invalid node — becomes a refused :class:`ServedAnswer` carrying the
error, and its *actual* elapsed time (measured on the server's clock) is
what enters the ``query.seconds`` latency reservoir. The previous inline batch
loop recorded a fabricated ``0.0`` for such failures, silently dragging
refusal p50/p95 toward zero.

Budgets and degradation are untouched: every query still runs under the
server's deadline/sample budget and full CODL → CODL- → CODU → refusal
ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.problem import CODQuery
from repro.serving.server import REFUSED, ServedAnswer

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.server import CODServer


@dataclass
class QueryGroup:
    """One attribute's slice of a planned window.

    ``indices`` are positions in the *window* the plan was built from;
    queries keep their input order within the group.
    """

    attribute: "int | None"
    indices: list[int] = field(default_factory=list)
    queries: list[CODQuery] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.queries)


@dataclass
class BatchPlan:
    """The planner's decision for one window of queries.

    ``grouped_execution`` says whether execution may follow group order
    (pooled server) or must follow input order (fresh-sampling server,
    where reordering would change the RNG stream each query sees).
    """

    groups: list[QueryGroup]
    grouped_execution: bool
    #: Groups whose attribute has a published restricted shard adopted by
    #: the server (their CODL fallbacks attach the shard instead of
    #: restricting the full arena; see :meth:`CODServer.adopt_shards`).
    shard_covered: int = 0

    @property
    def n_queries(self) -> int:
        return sum(g.size for g in self.groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def order(self) -> Iterator[tuple[int, CODQuery]]:
        """Yield ``(window_index, query)`` in execution order."""
        if self.grouped_execution:
            for group in self.groups:
                yield from zip(group.indices, group.queries)
        else:
            flat = [
                (i, q)
                for group in self.groups
                for i, q in zip(group.indices, group.queries)
            ]
            flat.sort(key=lambda pair: pair[0])
            yield from flat

    def describe(self) -> dict:
        """JSON-able summary for health reports and the CLI."""
        return {
            "queries": self.n_queries,
            "groups": self.n_groups,
            "grouped_execution": self.grouped_execution,
            "shard_covered": self.shard_covered,
            "group_sizes": {
                str(g.attribute): g.size for g in self.groups
            },
        }


class BatchPlanner:
    """Plan and execute query workloads against one :class:`CODServer`.

    The planner owns no state beyond the last plan: its ``planner.*``
    counters live in the server's registry, and all reuse lives in the
    server's bounded caches and (optionally) its sample pool, so
    interleaving planned batches with direct :meth:`CODServer.answer`
    calls is safe.
    """

    def __init__(self, server: "CODServer") -> None:
        self.server = server
        self.last_plan: "BatchPlan | None" = None
        metrics = server.metrics
        self._batches = metrics.counter("planner.batches")
        self._groups = metrics.counter("planner.groups")
        self._queries = metrics.counter("planner.queries")
        self._shard_groups = metrics.counter("planner.shard_groups")
        self._last_groups = metrics.gauge("planner.last_groups")
        self._query_errors = metrics.counter("query.errors")
        self._latency = metrics.histogram("query.seconds")

    def plan(self, queries: "Iterable[CODQuery]") -> BatchPlan:
        """Group a window by attribute, preserving input order per group."""
        groups: dict[object, QueryGroup] = {}
        for i, query in enumerate(queries):
            attribute = getattr(query, "attribute", None)
            group = groups.get(attribute)
            if group is None:
                group = groups[attribute] = QueryGroup(attribute=attribute)
            group.indices.append(i)
            group.queries.append(query)
        manifest = getattr(self.server, "_shard_manifest", None) or {}
        return BatchPlan(
            groups=list(groups.values()),
            grouped_execution=self.server.pool is not None,
            shard_covered=sum(
                1
                for attribute in groups
                if attribute is not None and int(attribute) in manifest
            ),
        )

    def execute(
        self,
        queries: "list[CODQuery]",
        batch_size: "int | None" = None,
    ) -> list[ServedAnswer]:
        """Answer a workload, returning answers in input order.

        ``batch_size`` windows the workload: each consecutive window of
        that many queries is planned and executed independently (``None``
        plans the whole workload at once). With a pooled server the pool
        is materialized up front so its one-off sampling cost is not
        charged to whichever query happens to execute first.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        if self.server.pool is not None and queries:
            self.server.pool.materialize()
        window = len(queries) if batch_size is None else batch_size
        answers: "list[ServedAnswer | None]" = [None] * len(queries)
        for start in range(0, len(queries), max(1, window)):
            chunk = queries[start : start + window]
            plan = self.plan(chunk)
            self.last_plan = plan
            self._batches.inc()
            self._groups.inc(plan.n_groups)
            self._queries.inc(plan.n_queries)
            self._shard_groups.inc(plan.shard_covered)
            self._last_groups.set(plan.n_groups)
            for local_index, query in plan.order():
                answers[start + local_index] = self._answer_isolated(query)
        return [a for a in answers if a is not None]

    # ----------------------------------------------------------- internals

    def _answer_isolated(self, query: CODQuery) -> ServedAnswer:
        """One query, failures contained — with honest elapsed accounting."""
        clock = self.server._clock
        start = clock()
        try:
            return self.server.answer(query)
        except Exception as exc:  # noqa: BLE001 — isolate, never abort
            elapsed = clock() - start
            self._query_errors.inc()
            self._latency.record(elapsed)
            return ServedAnswer(
                query=query,
                members=None,
                rung=REFUSED,
                elapsed=elapsed,
                notes=[f"batch: {type(exc).__name__}: {exc}"],
                error=exc,
                epoch=self.server.epoch,
            )

    def __repr__(self) -> str:
        return (
            f"BatchPlanner(batches={self._batches.value}, "
            f"queries={self._queries.value}, "
            f"pooled={self.server.pool is not None})"
        )
