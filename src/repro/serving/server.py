"""The fault-tolerant COD server.

:class:`CODServer` wraps the paper's pipelines with the machinery a
serving deployment needs:

* **Execution budgets** — every query runs under an
  :class:`~repro.serving.budget.ExecutionBudget` (wall-clock deadline +
  RR-sample cap) enforced at cooperative checkpoints inside sampling,
  LORE, and compressed evaluation.
* **Degradation ladder** — rungs are tried in order under the remaining
  budget: ``CODL`` (HIMOR index) → ``CODL-`` (fresh LORE, no index) →
  ``CODU`` (non-attributed hierarchy, ignores the query attribute) →
  explicit refusal. The answer records which rung served it and why the
  higher rungs did not.
* **Retries** — transient sampling failures (``InfluenceError``) are
  retried with exponential backoff and a *shrinking* ``theta``: each
  retry asks for fewer samples, trading estimate variance for the chance
  to answer inside the budget.
* **Circuit breaker** — repeated LORE failures open a breaker that
  short-circuits the two LORE-based rungs straight to CODU for a
  cool-down window.
* **Health counters** — answered-per-rung, retries, breaker state, and
  p50/p95 latency via :meth:`CODServer.health`, a view over the server's
  one :class:`~repro.obs.MetricsRegistry` (see :data:`HEALTH_COUNTERS`).
* **Observability** — :meth:`CODServer.answer` accepts an optional
  duck-typed ``trace`` (e.g. :class:`~repro.obs.QueryTrace`) that records
  a span per stage (rungs, sampling, LORE, compressed evaluation, HIMOR
  lookup/build); constructing the server with a
  :class:`~repro.obs.MetricsRegistry` turns on stage profiling — the same
  spans feed ``stage.*`` timers and counters via
  :class:`~repro.obs.StageProfiler`. Instrumentation is purely
  observational: traced and untraced runs return bit-identical answers.

A query never escapes as an infrastructure exception: the only errors
:meth:`CODServer.answer` raises are caller errors (an invalid query).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.compressed import compressed_cod
from repro.core.himor import HimorIndex, graph_checksum, same_hierarchy
from repro.core.lore import LoreResult, local_recluster_bytes, lore_chain
from repro.core.problem import CODQuery, validate_budgets
from repro.errors import (
    BudgetExhaustedError,
    CircuitOpenError,
    DeadlineExceededError,
    IndexError_,
    InfluenceError,
    QueryError,
    ServingError,
)
from repro.graph.graph import AttributedGraph
from repro.graph.weighting import AttributeWeighting
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.core.pool import SharedSamplePool
from repro.influence.arena import RRArena, allowed_fingerprint, sample_arena
from repro.influence.fastsample import sample_arena_fast
from repro.influence.models import InfluenceModel, WeightedCascade
from repro.obs import Histogram, MetricsRegistry, StageProfiler, TeeTrace
from repro.serving.breaker import CircuitBreaker
from repro.serving.budget import BackoffPolicy, ExecutionBudget
from repro.utils.cache import LRUCache
from repro.utils.persist import clean_stale_tmp
from repro.utils.rng import ensure_rng

#: Ladder rungs, strongest first; ``REFUSED`` is the explicit bottom.
RUNG_CODL = "CODL"
RUNG_CODL_MINUS = "CODL-"
RUNG_CODU = "CODU"
REFUSED = "refused"
#: Supervisor refusal rungs: shed by admission control / lost to a worker
#: crash after its one requeue. Both satisfy :attr:`ServedAnswer.refused`.
REFUSED_OVERLOAD = "refused_overload"
REFUSED_CRASH = "refused_crash"

LADDER = (RUNG_CODL, RUNG_CODL_MINUS, RUNG_CODU)

#: Latency reservoir bound: memory stays O(1) in the query count while
#: percentiles remain exact for the first ``LATENCY_CAPACITY`` queries
#: and unbiased estimates afterwards.
LATENCY_CAPACITY = 2048

#: Byte budget of LORE's local memo, in whole-graph local reclusterings
#: (about 4.6 MB at 2,400 nodes).
LORE_LOCAL_RECLUSTERINGS = 16

#: Flat :meth:`CODServer.health` counters, by the registry counter each
#: one reads. Answered-per-rung, ``refused`` and ``queries`` read the
#: ``rung.<rung>`` counters plus ``query.errors``.
HEALTH_COUNTERS = {
    "retries": "ladder.retries",
    "deadline_exceeded": "ladder.deadline_exceeded",
    "budget_exhausted": "ladder.budget_exhausted",
    "breaker_short_circuits": "breaker.short_circuits",
    "index_rebuilds": "index.builds",
    "index_load_failures": "index.load_failures",
    "index_builds_resumed": "index.builds_resumed",
    "query_errors": "query.errors",
}


def latency_summary(latency: Histogram) -> dict:
    """The ``health()["latency"]`` block over a latency histogram."""
    p50, p95 = latency.percentiles((0.50, 0.95))
    return {
        "p50_s": p50,
        "p95_s": p95,
        "mean_s": latency.mean,
        "max_s": latency.max_value or 0.0,
    }


@dataclass
class ServedAnswer:
    """One query's outcome, degradation trail included.

    Attributes
    ----------
    query:
        The query served.
    members:
        The community (``None`` both for a genuine "no characteristic
        community" answer and for a refusal — distinguish via
        :attr:`refused`).
    rung:
        ``"CODL"``, ``"CODL-"``, ``"CODU"``, or ``"refused"``.
    chain_length:
        Communities examined by the answering rung (0 on refusal).
    elapsed:
        Wall-clock seconds charged to the query.
    retries:
        Sampling retries spent across all rungs.
    notes:
        Human-readable trail: one line per rung that failed or was
        skipped, naming the error — the "why" of the degradation.
    error:
        On refusal, the final error that exhausted the ladder.
    epoch:
        The graph epoch the answer was computed against (``None`` when the
        server has never seen an update log — e.g. legacy callers). Every
        admitted query is answered against exactly one epoch: updates are
        applied only between queries, so the epoch stamped at admission is
        the epoch of every structure the answer consulted.
    """

    query: CODQuery
    members: "np.ndarray | None"
    rung: str
    chain_length: int = 0
    elapsed: float = 0.0
    retries: int = 0
    notes: list[str] = field(default_factory=list)
    error: "Exception | None" = None
    epoch: "int | None" = None

    @property
    def found(self) -> bool:
        """Whether a characteristic community was returned."""
        return self.members is not None

    @property
    def refused(self) -> bool:
        """Whether the service gave up instead of answering — covers the
        ladder's own refusal and the supervisor's ``refused_overload`` /
        ``refused_crash`` outcomes."""
        return self.rung.startswith(REFUSED)

    @property
    def degraded(self) -> bool:
        """Whether a weaker rung than CODL served (or nothing did)."""
        return self.rung != RUNG_CODL


class CODServer:
    """Serve COD queries with budgets, degradation, and fault isolation.

    Parameters
    ----------
    graph:
        The graph to serve.
    theta:
        Baseline RR graphs per node; retries shrink it transiently.
    deadline_s / sample_budget:
        Default per-query budget (overridable per call); ``None`` means
        unbounded on that axis.
    max_retries:
        Sampling retries per rung attempt.
    backoff_s:
        Base backoff; retry ``i`` sleeps ``backoff_s * 2**i`` (clipped to
        the remaining deadline).
    theta_shrink / min_theta:
        Retry ``i`` samples at ``theta * theta_shrink**i`` (floored).
    breaker_threshold / breaker_cooldown_s:
        LORE circuit-breaker tuning.
    index_path:
        Optional HIMOR persistence location. When the file exists it is
        loaded instead of built; a fresh build is saved back to it. Stale
        ``*.tmp`` staging files for this artifact (left by a killed
        process) are swept on construction.
    auto_rebuild_index:
        When loading from ``index_path`` fails (corruption, version or
        checksum mismatch, graph mismatch), rebuild from scratch instead
        of failing the CODL rung.
    checkpoint_every:
        With ``index_path`` set, HIMOR builds checkpoint per-tree-bucket
        progress to ``<index_path>.ckpt`` every this-many samples and
        resume from it after a crash (``None`` disables checkpointing).
        Resume is validated against a build fingerprint and requires an
        integer ``seed`` to be sample-exact.
    clock:
        Monotonic time source shared by budgets and the breaker
        (injectable for tests).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`. The server always
        counts into one registry (this one, else a private one) and
        :meth:`health` reads it. Passing one turns on profiling: stage
        spans feed ``stage.<name>.seconds`` histograms and
        ``stage.<name>.calls`` counters, and the registry snapshot rides
        :meth:`health` under ``"metrics"``.
    pool:
        Optional :class:`~repro.core.pool.SharedSamplePool` over the same
        graph. When set, every compressed evaluation (and CODL's
        restricted fallback, via :meth:`RRArena.restrict`) is served from
        the pooled samples instead of drawing fresh ones — the server
        never consumes its own RNG per query, so answers are a pure
        function of (query, pool), identical across query orderings.
        That is what makes batched (grouped) execution bit-identical to
        sequential calls. The trade-off is inherited from the pool:
        answers to different queries share randomness and are therefore
        correlated. The ``sample_budget`` axis does not tick in pooled
        mode (nothing is drawn); deadlines still apply.
    cache_capacity:
        Entry bound for the finished LORE chain cache (``lore``) and the
        restricted-arena cache (``restricted``). LORE's query-independent
        parts (``lore_local``) are bounded by bytes instead: room for
        16 whole-graph local reclusterings, sized from ``graph.n`` here.
        Every cache's ``cache.<name>.*`` counters live in the server's
        registry and surface in :meth:`health` under ``"caches"``.
    fast_sampling:
        When true, fresh per-query draws use the vectorized batch
        sampler (:func:`~repro.influence.fastsample.sample_arena_fast`)
        instead of the stream-compatible one. Answers come from the same
        RR-graph distribution but not the same RNG stream, so they are
        statistically — not bitwise — equivalent at a given seed. Pooled
        evaluations are unaffected (the pool picks its own sampler via
        ``SharedSamplePool(fast=...)``).
    """

    def __init__(
        self,
        graph: AttributedGraph,
        theta: int = 10,
        model: "InfluenceModel | None" = None,
        weighting: "AttributeWeighting | None" = None,
        seed: "int | np.random.Generator | None" = None,
        deadline_s: "float | None" = None,
        sample_budget: "int | None" = None,
        max_retries: int = 2,
        backoff_s: float = 0.01,
        theta_shrink: float = 0.5,
        min_theta: int = 1,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 5.0,
        index_path: "str | Path | None" = None,
        auto_rebuild_index: bool = True,
        checkpoint_every: "int | None" = 256,
        clock: Callable[[], float] = time.monotonic,
        metrics: "object | None" = None,
        pool: "SharedSamplePool | None" = None,
        cache_capacity: int = 64,
        fast_sampling: bool = False,
        state_store: "object | None" = None,
    ) -> None:
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta!r}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries!r}")
        if not 0.0 < theta_shrink <= 1.0:
            raise ValueError(f"theta_shrink must be in (0, 1], got {theta_shrink!r}")
        if min_theta < 1:
            raise ValueError(f"min_theta must be >= 1, got {min_theta!r}")
        self.graph = graph
        self.theta = int(theta)
        self.model = model or WeightedCascade()
        self.weighting = weighting or AttributeWeighting()
        self.seed = seed if isinstance(seed, int) else None
        self.rng = ensure_rng(seed)
        self.deadline_s = deadline_s
        self.sample_budget = sample_budget
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.theta_shrink = float(theta_shrink)
        self.min_theta = int(min_theta)
        self.index_path = Path(index_path) if index_path is not None else None
        self.auto_rebuild_index = bool(auto_rebuild_index)
        self.checkpoint_every = checkpoint_every
        if self.index_path is not None:
            # Sweep staging files a killed predecessor left for our artifacts.
            clean_stale_tmp(self.index_path.parent, prefix=self.index_path.name)
            clean_stale_tmp(
                self.index_path.parent, prefix=self._checkpoint_path().name
            )
        self._clock = clock
        #: Profiling is on when the caller passed a registry; either way
        #: every counter below lives in ``self.metrics``.
        self._profiled = metrics is not None
        self.metrics = metrics or MetricsRegistry()
        m = self.metrics
        self._queries = m.counter("queries")
        self._rungs = {rung: m.counter(f"rung.{rung}") for rung in (*LADDER, REFUSED)}
        self._latency = m.histogram("query.seconds", capacity=LATENCY_CAPACITY)
        self._health = {key: m.counter(name) for key, name in HEALTH_COUNTERS.items()}
        self._update_batches = m.counter("updates.batches")
        self._updates_applied = m.counter("updates.applied")
        self._repaired_samples = m.counter("arena.repaired_samples")
        self._cache_invalidated = m.counter("cache.invalidated_entries")
        self._shard_attaches = m.counter("shm.shard.attaches")
        self._shard_hits = m.counter("shm.shard.hits")
        self._shard_misses = m.counter("shm.shard.misses")
        self._shard_rejects = m.counter("shm.shard.rejects")
        #: Local ``pool.restricted()`` builds actually executed — the
        #: per-worker restrict work ``benchmarks/bench_shard.py`` gates on.
        self._local_restricts = m.counter("pool.restricts")
        self._epoch_gauge = m.gauge("epoch")
        self._manifest_gauge = m.gauge("shm.shard.manifest")
        self._backoff = BackoffPolicy(
            base_s=self.backoff_s, factor=2.0, cap_s=float("inf"), jitter=0.0
        )
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
            clock=clock,
        )
        if pool is not None and pool.graph.n != graph.n:
            raise ValueError(
                f"pool was drawn over a {pool.graph.n}-node graph but the "
                f"server serves {graph.n} nodes"
            )
        self.pool = pool
        #: Optional :class:`~repro.serving.durability.DurableStateStore`
        #: (already recovered). When attached, :meth:`apply_updates` logs
        #: each batch write-ahead and only acknowledges the epoch after
        #: the WAL fsync — a crash can then never lose an applied epoch.
        self.state_store = state_store
        self.fast_sampling = bool(fast_sampling)
        self._sample = sample_arena_fast if self.fast_sampling else sample_arena
        if cache_capacity < 1:
            raise ValueError(
                f"cache_capacity must be >= 1, got {cache_capacity!r}"
            )
        self.cache_capacity = int(cache_capacity)
        self.epoch = 0
        self._hierarchy: "CommunityHierarchy | None" = None
        self._index: "HimorIndex | None" = None
        self._lore_cache = LRUCache(
            self.cache_capacity, name="lore", metrics=m
        )
        #: LORE's query-independent parts, shared across query nodes:
        #: per-attribute edge-LCA counts and per-(attribute, C_l) local
        #: reclusterings (see ``lore_chain(memo=)``). Invalidated together
        #: with ``_lore_cache`` by :meth:`invalidate_lore`. Bounded by bytes
        #: only: entries range from a few nodes to the whole graph, and an
        #: entry count would let cheap small ones evict the costly large
        #: ones between their uses.
        self._lore_local = LRUCache(
            None,
            max_bytes=LORE_LOCAL_RECLUSTERINGS * local_recluster_bytes(graph.n),
            name="lore_local",
            metrics=m,
        )
        self._restricted_cache = LRUCache(
            self.cache_capacity, name="restricted", metrics=m
        )
        #: Published restricted-shard manifest: ``{attribute: entry}`` where
        #: entry carries ``name``/``vertex``/``epoch``/``allowed_sha``/
        #: ``samples`` (see :meth:`adopt_shards`). Empty when the fleet
        #: publishes no shards.
        self._shard_manifest: dict[int, dict] = {}
        #: Attached shard arenas keyed by segment name (lazy, detached on
        #: rotation).
        self._shard_arenas: "dict[str, RRArena]" = {}

    @property
    def epoch(self) -> int:
        """Graph version: 0 = the construction-time graph; bumped by every
        :meth:`apply_updates` batch. Stamped on every answer and mirrored
        in the ``epoch`` gauge."""
        return self._epoch

    @epoch.setter
    def epoch(self, value: int) -> None:
        self._epoch = int(value)
        self._epoch_gauge.set(self._epoch)

    # ----------------------------------------------------------- public API

    def answer(
        self,
        query: CODQuery,
        deadline_s: "float | None" = None,
        sample_budget: "int | None" = None,
        trace: "object | None" = None,
    ) -> ServedAnswer:
        """Answer one query under a budget, degrading instead of raising.

        Invalid queries (bad node/attribute/k) still raise — they are the
        caller's bug, not an infrastructure fault.

        ``trace`` is any object exposing the duck-typed ``span(name,
        **meta)`` protocol (e.g. :class:`~repro.obs.QueryTrace`); when the
        server also carries a metrics registry, the caller's trace and the
        profiler both observe the same spans via
        :class:`~repro.obs.TeeTrace`. Tracing never changes the answer.
        """
        query.validate(self.graph)
        if self._profiled:
            profiler = StageProfiler(self.metrics)
            trace = profiler if trace is None else TeeTrace(trace, profiler)
        budget = ExecutionBudget(
            deadline_s=self.deadline_s if deadline_s is None else deadline_s,
            max_samples=self.sample_budget if sample_budget is None else sample_budget,
            clock=self._clock,
        )
        answer = ServedAnswer(
            query=query, members=None, rung=REFUSED, epoch=self.epoch
        )
        last_error: "Exception | None" = None

        root_cm = (
            trace.span(
                "answer", node=query.node, attribute=query.attribute, k=query.k
            )
            if trace is not None
            else nullcontext()
        )
        with root_cm as root:
            for rung in LADDER:
                rung_cm = (
                    trace.span(f"rung:{rung}")
                    if trace is not None
                    else nullcontext()
                )
                with rung_cm as rung_span:
                    try:
                        budget.check()
                        members_by_k, chain_length = self._try_rung(
                            rung, query, [query.k], budget, answer, trace
                        )
                        members = members_by_k[query.k]
                    except (DeadlineExceededError, BudgetExhaustedError) as exc:
                        # The budget is shared: once it is spent no lower
                        # rung can draw either, so stop descending and
                        # refuse explicitly.
                        if rung_span is not None:
                            rung_span.note(outcome=type(exc).__name__)
                        answer.notes.append(f"{rung}: {exc}")
                        last_error = exc
                        if isinstance(exc, DeadlineExceededError):
                            self._health["deadline_exceeded"].inc()
                        else:
                            self._health["budget_exhausted"].inc()
                        break
                    except CircuitOpenError as exc:
                        if rung_span is not None:
                            rung_span.note(outcome="breaker_open")
                        answer.notes.append(f"{rung}: {exc}")
                        last_error = exc
                        self._health["breaker_short_circuits"].inc()
                        continue
                    except Exception as exc:  # rung failed — degrade, never leak
                        if rung_span is not None:
                            rung_span.note(
                                outcome=f"failed: {type(exc).__name__}"
                            )
                        answer.notes.append(f"{rung}: {type(exc).__name__}: {exc}")
                        last_error = exc
                        continue
                    if rung_span is not None:
                        rung_span.note(
                            outcome="answered", found=members is not None
                        )
                    answer.members = members
                    answer.rung = rung
                    answer.chain_length = chain_length
                    break

            answer.elapsed = budget.elapsed()
            if root is not None:
                root.note(
                    rung=answer.rung,
                    retries=answer.retries,
                    breaker=self.breaker.state,
                )

        if answer.refused:
            answer.error = last_error
        self._queries.inc()
        self._rungs[answer.rung].inc()
        self._latency.record(answer.elapsed)
        return answer

    def run_rung(
        self,
        rung: str,
        node: int,
        attribute: "int | None",
        ks: "list[int]",
        budget: "ExecutionBudget | None" = None,
    ) -> "tuple[dict[int, np.ndarray | None], int]":
        """Run one rung directly: ``({k: community or None}, chain length)``.

        No ladder, retries or circuit breaker, and no budget unless one is
        given, so the first error propagates; every ``k`` is validated
        before any work. The paper pipelines (:mod:`repro.core.pipeline`)
        answer through this.
        """
        if rung not in LADDER:
            raise ValueError(f"unknown rung {rung!r}; expected one of {LADDER}")
        validate_budgets(self.graph, node, attribute, ks)
        if budget is None:
            budget = ExecutionBudget(clock=self._clock)
        query = CODQuery(node, attribute, max(ks))
        return self._try_rung(rung, query, list(ks), budget, None)

    @property
    def hierarchy(self) -> CommunityHierarchy:
        """The non-attributed hierarchy (built on first use)."""
        return self._ensure_hierarchy(ExecutionBudget(clock=self._clock))

    @property
    def index(self) -> HimorIndex:
        """The HIMOR index of the CODL rung (loaded or built on first use)."""
        return self._ensure_index(ExecutionBudget(clock=self._clock))

    def answer_batch(
        self,
        queries: "list[CODQuery]",
        batch_size: "int | None" = None,
    ) -> list[ServedAnswer]:
        """Answer a workload through the batch planner.

        The planner groups queries by attribute so per-attribute
        structures (LORE's edge counts and local reclusterings, LORE
        chains, restricted arenas) are
        built once per group; with a :class:`SharedSamplePool` attached it
        also executes group-by-group, which is safe because pooled answers
        do not depend on query order. Answers come back in input order
        and are bit-identical to sequential :meth:`answer` calls.

        Failures are isolated per query: one query raising — even a
        caller error like an invalid node — yields a refused
        :class:`ServedAnswer` with the error recorded (and counted in
        ``query.errors``) instead of aborting the rest of the
        batch. The failed query's *actual* elapsed time is charged to the
        ``query.seconds`` latency reservoir (never a fabricated zero).

        ``batch_size`` optionally windows the workload: each consecutive
        window of that many queries is planned independently, bounding
        how far a query can be deferred behind its attribute group.
        """
        from repro.serving.planner import BatchPlanner

        return BatchPlanner(self).execute(queries, batch_size=batch_size)

    def warm(self, pool: bool = True) -> None:
        """Build (or load/resume) the hierarchy and HIMOR index up front.

        Lets a worker pay the offline cost before accepting traffic — and
        lets a supervisor-restarted worker resume a checkpointed build —
        instead of charging it to the first query's budget. With a sample
        pool attached it is materialized too; pass ``pool=False`` to warm
        the index only (e.g. to time pool sampling separately).
        """
        trace = StageProfiler(self.metrics) if self._profiled else None
        self._ensure_index(ExecutionBudget(clock=self._clock), trace)
        if pool and self.pool is not None:
            self.pool.materialize(trace=trace)

    def apply_updates(
        self,
        updates,
        epoch: "int | None" = None,
        trace: "object | None" = None,
    ) -> dict:
        """Apply one update batch atomically and advance the epoch.

        ``updates`` is an :class:`~repro.dynamic.log.UpdateBatch` or a
        sequence of :class:`~repro.dynamic.updates.EdgeUpdate` /
        :class:`~repro.dynamic.updates.AttrUpdate`. The batch is validated
        (and rejected wholesale on intra-batch conflicts or invalid
        operations) before anything is touched, so a failed apply leaves
        the server exactly at its previous epoch.

        This is the safe-point entry: callers must not invoke it
        concurrently with :meth:`answer` (the supervisor guarantees that
        by enqueueing update directives on the same FIFO queue as tasks).
        Repair instead of rebuild:

        * **structural batches** (any edge update) drop the LORE and
          restricted memos; an attached per-sample-seeded pool is
          incrementally repaired (only samples that activated a touched
          node are redrawn — bit-identical to a from-scratch draw); the
          HIMOR index is delta-repaired when the
          post-update hierarchy is unchanged, else rebuilt from the
          repaired pool (no fresh sampling), else dropped for lazy
          rebuild.
        * **attribute-only batches** leave topology-derived state (pool
          samples, hierarchy, HIMOR ranks) untouched and invalidate only
          LORE entries scoped to the touched attributes (the ``jaccard``
          weighting scheme reads full attribute sets, so it drops all).

        ``epoch`` pins the post-apply epoch (workers replaying a
        supervisor directive pass the directive's target so respawned
        workers land on the fleet epoch); by default the epoch just
        increments. Returns an apply report (epoch, counts, index
        disposition).
        """
        # Local import: repro.dynamic stays importable without the serving
        # stack, so the dependency must point serving -> dynamic only here.
        from repro.dynamic.updates import (
            apply_updates as _apply_graph_updates,
            touched_attributes,
            touched_nodes,
        )

        batch = tuple(getattr(updates, "updates", updates))
        apply_cm = (
            trace.span("apply_updates", n=len(batch))
            if trace is not None
            else nullcontext()
        )
        with apply_cm as span:
            new_graph = _apply_graph_updates(self.graph, batch)
            t_nodes = touched_nodes(batch)
            t_attrs = touched_attributes(batch)
            structural = any(
                not hasattr(update, "attribute") for update in batch
            )
            target_epoch = self.epoch + 1 if epoch is None else int(epoch)
            if self.state_store is not None:
                # Write-ahead: the batch is validated (new_graph exists)
                # but nothing is mutated yet, so a WAL failure aborts the
                # apply with the server exactly at its previous epoch —
                # and a crash after the fsync replays this batch.
                from repro.core.himor import graph_checksum
                from repro.dynamic.log import as_batch
                from repro.errors import WalError

                if self.state_store.epoch + 1 != target_epoch:
                    raise WalError(
                        f"durable store is at epoch {self.state_store.epoch} "
                        f"but the server would apply epoch {target_epoch}; "
                        f"refusing to ack out-of-order state"
                    )
                self.state_store.append(
                    as_batch(updates), graph_sha=graph_checksum(new_graph)
                )
            invalidated = 0
            repaired = 0
            index_action = "none"
            if structural:
                invalidated += self.invalidate_lore()
                invalidated += self._restricted_cache.clear()
                rep = None
                if self.pool is not None:
                    rep = self.pool.repair(new_graph, t_nodes)
                    repaired = rep.n_repaired if rep is not None else 0
                self.graph = new_graph
                if self._hierarchy is not None or self._index is not None:
                    new_hierarchy = agglomerative_hierarchy(new_graph)
                    index_action = self._repair_index(
                        new_graph, new_hierarchy, rep, trace
                    )
                    self._hierarchy = new_hierarchy
            else:
                if self.weighting.scheme == "jaccard":
                    # Jaccard weights read every node's full attribute set,
                    # so no cached chain is provably untouched.
                    invalidated += self.invalidate_lore()
                else:
                    invalidated += self.invalidate_lore(t_attrs)
                # Restricted arenas and HIMOR ranks are topology-only;
                # attribute flips cannot stale them.
                if self.pool is not None:
                    self.pool.repair(new_graph, set())
                self.graph = new_graph
            self.epoch = self.epoch + 1 if epoch is None else int(epoch)
            self._update_batches.inc()
            self._updates_applied.inc(len(batch))
            self._cache_invalidated.inc(invalidated)
            self._repaired_samples.inc(repaired)
            if span is not None:
                span.note(
                    epoch=self.epoch,
                    structural=structural,
                    repaired_samples=repaired,
                    index=index_action,
                )
        if self.state_store is not None:
            self.state_store.maybe_snapshot(self.graph, self.epoch)
        return {
            "epoch": self.epoch,
            "updates": len(batch),
            "structural": structural,
            "repaired_samples": repaired,
            "cache_invalidated": invalidated,
            "index": index_action,
        }

    def _repair_index(
        self,
        graph: AttributedGraph,
        hierarchy: CommunityHierarchy,
        rep,
        trace: "object | None" = None,
    ) -> str:
        """Carry the HIMOR index across a structural update.

        Preference order: delta-repair (hierarchy unchanged and the pool
        produced a sample delta) > rebuild from the repaired pool arena
        (hierarchy moved but no sampling needed) > drop and rebuild
        lazily on the next CODL query. Every kept index is re-persisted
        so a respawned worker loads the current epoch's artifact.
        """
        if self._index is None:
            return "none"
        sha = graph_checksum(graph)
        if (
            rep is not None
            and self._index.has_buckets
            and same_hierarchy(self._index.hierarchy, hierarchy)
        ):
            self._index.hierarchy = hierarchy
            self._index.repair(rep.removed, rep.added, graph_sha=sha)
            action = "repaired"
        elif self.pool is not None and self.pool.per_sample_seeds:
            self._index = HimorIndex.build(
                graph,
                hierarchy,
                theta=self.theta,
                model=self.model,
                rr_graphs=self.pool.arena,
                trace=trace,
                sample_mode=self._index_sample_mode(),
            )
            self._health["index_rebuilds"].inc()
            action = "rebuilt"
        else:
            # Without a repairable pool the old ranks reflect stale
            # samples; drop the index and let CODL rebuild under its own
            # budget. The graph_sha gate keeps the persisted artifact
            # from resurrecting the stale epoch.
            self._index = None
            action = "dropped"
        if action != "dropped" and self.index_path is not None:
            self._index.save(self.index_path)
        return action

    def adopt_shared(
        self,
        graph: AttributedGraph,
        arena,
        epoch: "int | None" = None,
        n_updates: int = 0,
        shards: "dict | None" = None,
    ) -> dict:
        """Adopt a supervisor-published graph + repaired arena for an epoch.

        The shared-pool counterpart of :meth:`apply_updates`: instead of
        re-applying the update batch locally, the worker swaps in the
        already-updated graph and the already-repaired arena attached
        from shared memory. Because the supervisor's builder pool is
        configured identically to this worker's, the adopted state is
        bit-identical to what a local apply + repair would have produced.

        Conservative on derived state: the LORE and restricted memos drop,
        and the hierarchy/HIMOR index are discarded for lazy rebuild (the
        supervisor does not ship index deltas; CODL rebuilds from the
        adopted pool without resampling).
        """
        if self.pool is None:
            raise ServingError(
                "adopt_shared requires a sample pool; this server was built "
                "with use_pool disabled"
            )
        target = self.epoch + 1 if epoch is None else int(epoch)
        invalidated = self.invalidate_lore()
        invalidated += self._restricted_cache.clear()
        self.pool.adopt(graph, arena)
        old_graph = self.graph
        self.graph = graph
        index_action = (
            "dropped"
            if (self._hierarchy is not None or self._index is not None)
            else "none"
        )
        self._hierarchy = None
        self._index = None
        self.epoch = target
        # The restricted cache was already cleared wholesale above; adopt
        # the epoch's shard manifest so post-update queries attach the
        # rotated shards instead of re-restricting locally.
        self.adopt_shards(shards)
        self._update_batches.inc()
        self._updates_applied.inc(int(n_updates))
        self._cache_invalidated.inc(invalidated)
        if old_graph is not graph and old_graph.is_shared:
            old_graph.detach_shared()
        return {
            "epoch": self.epoch,
            "updates": int(n_updates),
            "structural": True,
            "repaired_samples": 0,
            "cache_invalidated": invalidated,
            "index": index_action,
            "adopted": True,
        }

    def adopt_shards(self, manifest: "dict | None") -> int:
        """Adopt a per-attribute restricted-shard manifest.

        ``manifest`` maps attribute → ``{"name", "vertex", "epoch",
        "allowed_sha", "samples"}`` describing a published ``rr-shard``
        segment holding ``pool.restricted(allowed)`` for that attribute's
        hot floor vertex. Shards attach lazily on first use
        (:meth:`_restricted_arena`); here we only reconcile state:

        * restricted-cache entries for attributes whose shard entry
          changed are invalidated (the cache key is ``(attribute,
          vertex)`` — per-attribute scoping is what makes this sound,
          see the keying bugfix in :meth:`_restricted_arena`),
        * attached arenas whose segment left the manifest are detached.

        Returns the number of cache entries invalidated. Idempotent;
        ``None`` clears the manifest.
        """
        cleaned: dict[int, dict] = {}
        for attr, entry in (manifest or {}).items():
            cleaned[int(attr)] = dict(entry)
        invalidated = 0
        changed = {
            attr
            for attr in set(self._shard_manifest) | set(cleaned)
            if self._shard_manifest.get(attr) != cleaned.get(attr)
        }
        for attr in changed:
            invalidated += self._restricted_cache.invalidate(
                lambda key, a=attr: key[0] == a
            )
        keep = {entry.get("name") for entry in cleaned.values()}
        for name, arena in list(self._shard_arenas.items()):
            if name not in keep:
                arena.detach()
                del self._shard_arenas[name]
        self._shard_manifest = cleaned
        self._manifest_gauge.set(len(cleaned))
        return invalidated

    def health(self) -> dict:
        """Health/stats snapshot for the CLI, read from :attr:`metrics`.

        Every number is the current value of one registry instrument
        (:data:`HEALTH_COUNTERS`, ``rung.*``, ``query.seconds``,
        ``updates.*``, ``cache.*``, ``shm.shard.*``, ``pool.restricts``).
        When profiling, the snapshot also carries the registry under
        ``"metrics"`` — this is what the supervisor folds into its
        fleet-wide rollup.
        """
        answered = {
            rung: counter.value
            for rung, counter in self._rungs.items()
            if rung != REFUSED and counter.value
        }
        refused = self._rungs[REFUSED].value + self._health["query_errors"].value
        snapshot = {
            "queries": sum(answered.values()) + refused,
            "answered_per_rung": answered,
            "refused": refused,
            **{key: counter.value for key, counter in self._health.items()},
            "latency": latency_summary(self._latency),
            "breaker_state": self.breaker.state,
            "epoch": self.epoch,
            "updates": {
                "batches_applied": self._update_batches.value,
                "updates_applied": self._updates_applied.value,
                "repaired_samples": self._repaired_samples.value,
                "cache_invalidated": self._cache_invalidated.value,
            },
            "caches": {
                "lore": self._lore_cache.stats(),
                "lore_local": self._lore_local.stats(),
                "restricted": self._restricted_cache.stats(),
            },
        }
        if self.pool is not None:
            snapshot["pool"] = {
                "samples": self.pool.n_samples,
                "materialized": self.pool.is_materialized,
                "attached": self.pool.is_attached,
                "arena_bytes": self.pool.arena_bytes(),
            }
        snapshot["shards"] = {
            "manifest": len(self._shard_manifest),
            "attached": len(self._shard_arenas),
            "attaches": self._shard_attaches.value,
            "hits": self._shard_hits.value,
            "misses": self._shard_misses.value,
            "rejects": self._shard_rejects.value,
            "local_restricts": self._local_restricts.value,
        }
        if self._profiled:
            snapshot["metrics"] = self.metrics.snapshot()
        return snapshot

    # -------------------------------------------------------------- ladder

    def _try_rung(
        self,
        rung: str,
        query: CODQuery,
        ks: "list[int]",
        budget: ExecutionBudget,
        answer: "ServedAnswer | None",
        trace: "object | None" = None,
    ) -> "tuple[dict[int, np.ndarray | None], int]":
        """The community per ``k`` and the number of communities examined.
        ``answer`` is ``None`` on a direct run (:meth:`run_rung`): one
        attempt, no circuit breaker."""
        if rung == RUNG_CODU:
            # Attribute-blind fallback on the non-attributed hierarchy.
            hierarchy = self._ensure_hierarchy(budget, trace)
            chain = CommunityChain.from_hierarchy(hierarchy, query.node)
        elif query.attribute is None:
            raise QueryError(f"{rung} requires a query attribute")
        elif rung == RUNG_CODL:
            return self._rung_codl(query, ks, budget, answer, trace)
        else:
            # CODL-: fresh LORE + compressed evaluation over the full chain.
            guarded = answer is not None
            chain = self._guarded_lore(query, budget, trace, guarded=guarded).chain
        return self._evaluate(chain, ks, budget, answer, trace, rung), len(chain)

    def _rung_codl(
        self,
        query: CODQuery,
        ks: "list[int]",
        budget: ExecutionBudget,
        answer: "ServedAnswer | None",
        trace: "object | None" = None,
    ) -> "tuple[dict[int, np.ndarray | None], int]":
        """Algorithm 3: HIMOR index scan + restricted local fallback. The
        scan resolves each ``k`` on its own; one fallback evaluation inside
        ``C_l`` serves every ``k`` it left open."""
        index = self._ensure_index(budget, trace)
        lore = self._guarded_lore(query, budget, trace, guarded=answer is not None)
        lookup_cm = (
            trace.span("himor_lookup") if trace is not None else nullcontext()
        )
        with lookup_cm as lookup_span:
            members_by_k: "dict[int, np.ndarray | None]" = {}
            for k in ks:
                ancestor = index.largest_qualifying_ancestor(
                    query.node, k, floor_vertex=lore.c_ell_vertex
                )
                members_by_k[k] = (
                    None if ancestor is None else index.hierarchy.members(ancestor)
                )
            fallback_ks = [k for k in ks if members_by_k[k] is None]
            if lookup_span is not None:
                lookup_span.note(hit=not fallback_ks)
        if fallback_ks and lore.c_ell_chain_level > 0:
            # Sources outside C_l never reach a community inside it, so
            # samples confined to C_l stand in for the global draw.
            vertex = lore.c_ell_vertex
            floor = (query.attribute, vertex, index.hierarchy.members(vertex))
            inner_chain = lore.chain.prefix(lore.c_ell_chain_level)
            fallback = self._evaluate(
                inner_chain, fallback_ks, budget, answer, trace, RUNG_CODL, floor
            )
            members_by_k.update(fallback)
        return members_by_k, len(lore.chain)

    def _evaluate(
        self,
        chain: CommunityChain,
        ks: "list[int]",
        budget: ExecutionBudget,
        answer: "ServedAnswer | None",
        trace: "object | None",
        label: str,
        floor: "tuple | None" = None,
    ) -> "dict[int, np.ndarray | None]":
        """Compressed evaluation of ``chain`` for every ``k``, with retries,
        over the pool or ``theta`` fresh samples per node. CODL's fallback
        passes ``floor=(attribute, C_l vertex, C_l members)`` to confine
        the samples to ``C_l``."""

        def evaluate(theta: int) -> "dict[int, np.ndarray | None]":
            if self.pool is not None and floor is not None:
                samples: "RRArena" = self._restricted_arena(*floor, budget, trace)
            elif self.pool is not None:
                budget.check()
                samples = self.pool.materialize(trace=trace)
            else:
                allowed = None if floor is None else set(int(v) for v in floor[2])
                count = self.graph.n if allowed is None else len(allowed)
                samples = self._sample(
                    self.graph,
                    budget.clamp_samples(theta * count),
                    model=self.model,
                    rng=self.rng,
                    allowed=allowed,
                    budget=budget,
                    trace=trace,
                )
            evaluation = compressed_cod(
                self.graph, chain, k=ks, rr_graphs=samples, budget=budget, trace=trace
            )
            return {k: evaluation.characteristic_community(k) for k in ks}

        return self._with_sampling_retries(evaluate, budget, answer, label)

    # ------------------------------------------------------------- retries

    def _with_sampling_retries(
        self,
        evaluate: "Callable[[int], dict[int, np.ndarray | None]]",
        budget: ExecutionBudget,
        answer: "ServedAnswer | None",
        label: str,
    ) -> "dict[int, np.ndarray | None]":
        """Run ``evaluate(theta)``, retrying transient sampling failures.

        Each retry backs off exponentially (clipped to the remaining
        deadline) and shrinks ``theta``, so a sick sampler gets cheaper —
        and therefore more likely to finish in budget — on every attempt.
        A direct run (``answer`` is ``None``) makes one attempt at the
        full ``theta``.
        """
        if answer is None:
            return evaluate(self.theta)
        theta = self.theta
        for attempt in range(self.max_retries + 1):
            try:
                return evaluate(max(self.min_theta, theta))
            except InfluenceError as exc:
                if attempt >= self.max_retries:
                    raise
                answer.notes.append(
                    f"{label}: sampling attempt {attempt + 1} failed "
                    f"({exc}); retrying with theta={max(self.min_theta, int(theta * self.theta_shrink))}"
                )
                answer.retries += 1
                self._health["retries"].inc()
                self._sleep_backoff(attempt, budget)
                theta = int(theta * self.theta_shrink)
        raise AssertionError("unreachable")  # pragma: no cover

    def _sleep_backoff(self, attempt: int, budget: ExecutionBudget) -> None:
        delay = self._backoff.delay(attempt)
        remaining = budget.remaining_seconds()
        if remaining is not None:
            delay = min(delay, remaining)
        if delay > 0:
            time.sleep(delay)
        budget.check()

    # ----------------------------------------------------- shared structure

    def _ensure_hierarchy(
        self, budget: ExecutionBudget, trace: "object | None" = None
    ) -> CommunityHierarchy:
        if self._hierarchy is None:
            budget.check()
            cluster_cm = (
                trace.span("clustering") if trace is not None else nullcontext()
            )
            with cluster_cm:
                self._hierarchy = agglomerative_hierarchy(self.graph)
        return self._hierarchy

    def _ensure_index(
        self, budget: ExecutionBudget, trace: "object | None" = None
    ) -> HimorIndex:
        if self._index is not None:
            return self._index
        if self.index_path is not None and self.index_path.exists():
            try:
                index = HimorIndex.load(self.index_path)
                if index.hierarchy.n_leaves != self.graph.n:
                    raise IndexError_(
                        f"persisted index covers {index.hierarchy.n_leaves} "
                        f"nodes but the served graph has {self.graph.n}"
                    )
                if index.sample_mode != self._index_sample_mode():
                    # Ranks counted over another sample stream: serving
                    # them differs from a build over our own samples, and
                    # a delta repair would subtract samples never counted.
                    raise IndexError_(
                        f"persisted index was built over the "
                        f"{index.sample_mode!r} sample stream, not "
                        f"{self._index_sample_mode()!r}; rebuilding"
                    )
                if (
                    index.graph_sha is not None
                    and index.graph_sha != graph_checksum(self.graph)
                ):
                    # A pre-update artifact surviving on disk (e.g. the
                    # server respawned into a newer epoch): its ranks
                    # describe the old edge set, so rebuild instead.
                    raise IndexError_(
                        "persisted index was built for a different edge set "
                        "(stale epoch); rebuilding"
                    )
                self._index = index
                # Adopt the persisted hierarchy so index and chains agree;
                # hierarchy-derived memos (LORE chains keyed by its vertex
                # ids, restricted arenas) are stale the moment it changes.
                if self._hierarchy is not index.hierarchy:
                    self.invalidate_lore()
                    self._restricted_cache.clear()
                self._hierarchy = index.hierarchy
                return index
            except IndexError_:
                self._health["index_load_failures"].inc()
                if not self.auto_rebuild_index:
                    raise
        budget.check()
        hierarchy = self._ensure_hierarchy(budget, trace)
        checkpoint_path = None
        if self.index_path is not None and self.checkpoint_every is not None:
            checkpoint_path = self._checkpoint_path()
        if self.pool is not None and self.pool.per_sample_seeds:
            # Build over the pool's per-sample-seeded arena: the index then
            # shares the pool's samples exactly, which is what lets a graph
            # update delta-repair it from the pool's repair report. The
            # sample mode keeps these checkpoints and artifacts from
            # crossing over to builds over another sample stream.
            rng = self.pool.base_seed
            samples = self.pool.materialize(budget=budget, trace=trace)
        else:
            # Pass the raw integer seed when the build is the generator's
            # first use: the checkpoint fingerprint then pins the sample
            # stream and a crash-resumed build is sample-exact.
            rng = self.seed if self.seed is not None and checkpoint_path else self.rng
            samples = None
        index = HimorIndex.build(
            self.graph,
            hierarchy,
            theta=self.theta,
            model=self.model,
            rng=rng,
            rr_graphs=samples,
            budget=budget,
            checkpoint_path=checkpoint_path,
            checkpoint_every=self.checkpoint_every or 256,
            trace=trace,
            sample_mode=self._index_sample_mode(),
        )
        self._index = index
        self._health["index_rebuilds"].inc()
        if index.resumed_from:
            self._health["index_builds_resumed"].inc()
        if self.index_path is not None:
            self._index.save(self.index_path)
        return self._index

    def _index_sample_mode(self) -> str:
        """The sample stream this server's HIMOR builds count over."""
        if self.pool is not None and self.pool.per_sample_seeds:
            return "per-sample-fast" if self.pool.fast else "per-sample"
        return "stream"

    def _checkpoint_path(self) -> Path:
        """Where mid-build HIMOR checkpoints live for this server."""
        assert self.index_path is not None
        return self.index_path.with_name(self.index_path.name + ".ckpt")

    def invalidate_lore(self, attributes: "set[int] | None" = None) -> int:
        """Drop LORE memos: every entry, or only ``attributes``' entries.

        The one invalidation path for both LORE caches, so the finished
        chains (keyed ``(node, attribute)``) and their query-independent
        parts (keyed ``(attribute, ...)``) cannot drift apart. Returns the
        number of finished chains dropped; the parts are rebuilt lazily
        and are not counted.
        """
        if attributes is None:
            self._lore_local.clear()
            return self._lore_cache.clear()
        self._lore_local.invalidate(lambda key: key[0] in attributes)
        return self._lore_cache.invalidate(lambda key: key[1] in attributes)

    def _guarded_lore(
        self,
        query: CODQuery,
        budget: ExecutionBudget,
        trace: "object | None" = None,
        guarded: bool = True,
    ) -> LoreResult:
        """LORE behind the circuit breaker, memoized per (node, attribute).

        The chain is a deterministic function of (graph, hierarchy, node,
        attribute, weighting), so a cached hit — checked before the
        breaker — returns the same result a fresh run would. A miss reuses
        the attribute's edge counts and ``C_l``'s local reclustering from
        ``_lore_local`` when present. Both caches are invalidated through
        :meth:`invalidate_lore` whenever the graph or hierarchy changes.
        ``guarded=False`` (a direct rung run) bypasses the breaker.
        """
        key = (query.node, query.attribute)
        cached = self._lore_cache.get(key)
        if cached is not None:
            return cached
        if guarded and not self.breaker.allow():
            raise CircuitOpenError("lore", self.breaker.retry_after())
        try:
            result = lore_chain(
                self.graph,
                self._ensure_hierarchy(budget, trace),
                query.node,
                query.attribute,
                weighting=self.weighting,
                budget=budget,
                trace=trace,
                memo=self._lore_local,
            )
        except (DeadlineExceededError, BudgetExhaustedError):
            raise  # a spent budget is not LORE's fault
        except Exception:
            if guarded:
                self.breaker.record_failure()
            raise
        if guarded:
            self.breaker.record_success()
        self._lore_cache.put(key, result)
        return result

    def _restricted_arena(
        self,
        attribute: "int | None",
        floor_vertex: int,
        members: "set[int] | np.ndarray",
        budget: ExecutionBudget,
        trace: "object | None" = None,
    ) -> "RRArena":
        """Pool induced on one hierarchy vertex's ``members``, memoized.

        The members' hashed set is built only on a cache miss, for the
        shard check and the local restrict; a hit never touches them.

        Keyed by ``(attribute, vertex)`` — *not* the vertex alone. Two
        attributes can share a floor vertex, and an entry's provenance is
        per-attribute: it may be a published shard attached for one
        attribute's manifest entry, and shard rotation invalidates one
        attribute's entries without touching another's
        (:meth:`adopt_shards`). Keying by vertex alone let a query for
        attribute B hit (and pin) an entry attached for attribute A —
        wrong attribution, wrong invalidation scope, and after a rotation
        a stale shard served under the colliding key.

        Build path prefers the fleet-published shard: if the manifest
        covers this attribute at this floor vertex for the current epoch
        and its ``allowed_sha`` matches our own allowed set, the shard
        segment is attached zero-copy instead of restricting the full
        arena locally. Any mismatch falls back to a local
        ``pool.restricted(allowed)`` — bit-identical by construction
        (:meth:`RRArena.restrict` is a pure function), so shards are a
        work-shifting optimization, never a correctness dependency.
        """
        assert self.pool is not None

        def build() -> "RRArena":
            budget.check()
            allowed = set(int(v) for v in members)
            shard = self._attach_shard(attribute, floor_vertex, allowed)
            if shard is not None:
                return shard
            self._local_restricts.inc()
            restrict_cm = (
                trace.span("pool_restrict", vertex=int(floor_vertex))
                if trace is not None
                else nullcontext()
            )
            with restrict_cm:
                return self.pool.restricted(allowed)

        key = (attribute, int(floor_vertex))
        return self._restricted_cache.get_or_create(key, build)

    def _attach_shard(
        self,
        attribute: "int | None",
        floor_vertex: int,
        allowed: set[int],
    ) -> "RRArena | None":
        """Attach the published shard for ``(attribute, floor_vertex)``.

        Returns ``None`` (counting a miss or a reject) whenever the shard
        cannot be *proven* to equal a local restrict: no manifest entry,
        wrong floor vertex, stale epoch, ``allowed_sha`` mismatch, or the
        segment is gone. The caller then restricts locally.
        """
        if attribute is None or not self._shard_manifest:
            return None
        entry = self._shard_manifest.get(int(attribute))
        if entry is None or entry.get("vertex") != int(floor_vertex):
            self._shard_misses.inc()
            return None

        def reject() -> None:
            self._shard_rejects.inc()

        if entry.get("epoch") != self.epoch:
            reject()
            return None
        if entry.get("allowed_sha") != allowed_fingerprint(allowed):
            reject()
            return None
        name = entry.get("name")
        arena = self._shard_arenas.get(name)
        if arena is None:
            try:
                arena = RRArena.attach(name, kind="rr-shard")
            except Exception:
                reject()
                return None
            meta = arena._shm.extra if arena._shm is not None else {}
            if (
                meta.get("attribute") != int(attribute)
                or meta.get("vertex") != int(floor_vertex)
                or meta.get("allowed_sha") != entry.get("allowed_sha")
            ):
                arena.detach()
                reject()
                return None
            self._shard_arenas[name] = arena
            self._shard_attaches.inc()
        self._shard_hits.inc()
        return arena
