"""Shared RR-sample pools for multi-query workloads.

RR-graph sampling depends only on the graph — never on the query — so a
workload of many COD queries over one graph can draw its samples once and
induce them per query. This is the same observation that powers the
compressed evaluator *within* one query (Theorem 2), lifted across
queries: the pool plays the role of a materialized possible-world sample.

Trade-off: answers to different queries become correlated (they share
randomness). For effectiveness sweeps averaging over many queries this is
immaterial and buys a large constant speedup; for statistically
independent per-query guarantees, draw fresh samples (the pipelines'
default behaviour).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import InfluenceError
from repro.graph.graph import AttributedGraph
from repro.influence.arena import ArenaRepair, RRArena, repair_arena, sample_arena
from repro.influence.fastsample import sample_arena_fast, sample_arena_seeded_fast
from repro.utils.rng import ensure_rng


class SharedSamplePool:
    """A materialized pool of RR graphs over one graph.

    Parameters
    ----------
    graph:
        The graph the samples were (or will be) drawn on.
    theta:
        Samples per node; the pool holds ``theta * graph.n`` RR graphs.
    seed:
        Sampling seed.
    lazy:
        When true (default) the pool materializes on first use.
    per_sample_seeds:
        When true, draw with the hashed kernel
        :func:`~repro.influence.fastsample.sample_arena_seeded_fast` —
        every sample depends only on ``(seed, sample_index)`` — which
        makes the pool **incrementally repairable** under graph updates
        (:meth:`repair`) with results bit-identical to resampling from
        scratch. Seeded implies fast: ``fast`` is forced true. Requires
        an integer ``seed``. Off by default: the
        stream-compatible :func:`sample_arena` stays the pool's
        seed-for-seed contract.
    fast:
        When true (and unseeded), draw with the vectorized batch kernel
        :func:`~repro.influence.fastsample.sample_arena_fast`. Samples
        come from the same RR-graph distribution but **not** the same
        RNG stream as :func:`sample_arena`, so a fast pool's answers are
        statistically — not bitwise — equivalent to a compatible pool's
        at the same seed.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        theta: int = 10,
        seed: "int | np.random.Generator | None" = None,
        lazy: bool = True,
        per_sample_seeds: bool = False,
        fast: bool = False,
    ) -> None:
        if theta <= 0:
            raise InfluenceError(f"theta must be positive, got {theta}")
        if per_sample_seeds and not isinstance(seed, (int, np.integer)):
            raise InfluenceError(
                "per_sample_seeds requires an integer seed (the base seed "
                "every sample's private stream is derived from)"
            )
        self.graph = graph
        self.theta = int(theta)
        self.per_sample_seeds = bool(per_sample_seeds)
        self.fast = bool(fast) or self.per_sample_seeds
        self.base_seed = int(seed) if per_sample_seeds else None
        self.repaired_samples_total = 0
        self._rng = ensure_rng(seed)
        self._arena: RRArena | None = None
        #: Serializes materialize/repair/publish: concurrent ``warm()``
        #: calls must not double-sample the pool or publish two segments.
        self._lock = threading.RLock()
        #: Cached :class:`~repro.utils.shm.SharedSegment` once published.
        self._segment = None
        if not lazy:
            self._materialize()

    # ------------------------------------------------------------ sampling

    @property
    def n_samples(self) -> int:
        """Number of RR graphs in the pool."""
        return self.theta * self.graph.n

    @property
    def arena(self) -> RRArena:
        """The pooled samples as a flat arena (materialized on first use)."""
        return self.materialize()

    @property
    def is_materialized(self) -> bool:
        """Whether the arena has been drawn (or attached) yet."""
        return self._arena is not None

    @property
    def is_attached(self) -> bool:
        """Whether the arena is a read-only view over a shared segment."""
        return self._arena is not None and self._arena.is_shared

    def arena_bytes(self) -> int:
        """Arena footprint in bytes; 0 while still lazy (never forces a draw)."""
        return 0 if self._arena is None else int(self._arena.memory_bytes())

    def materialize(
        self, budget: "object | None" = None, trace: "object | None" = None
    ) -> RRArena:
        """Draw the pool now (idempotent) and return the arena.

        Draws with the pool's one sampler: the hashed seeded kernel when
        ``per_sample_seeds`` is set, else :func:`sample_arena_fast` when
        ``fast``, else the stream-compatible :func:`sample_arena`.
        ``budget``/``trace`` are forwarded only to the draw that actually
        happens; they never change the samples.
        Callers that amortize the pool across a workload (e.g.
        :meth:`CODServer.warm`) call this once up front so the sampling
        cost is not charged to whichever query happens to run first.

        Thread-safe: concurrent calls (e.g. two ``warm()`` threads)
        serialize on the pool lock and exactly one of them draws; the
        losers observe the winner's arena. The double-checked fast path
        keeps the served steady state lock-free.
        """
        if self._arena is None:
            with self._lock:
                if self._arena is None:
                    self._materialize(budget=budget, trace=trace)
        assert self._arena is not None
        return self._arena

    def _materialize(
        self, budget: "object | None" = None, trace: "object | None" = None
    ) -> None:
        if self.per_sample_seeds:
            self._arena = sample_arena_seeded_fast(
                self.graph,
                self.n_samples,
                base_seed=self.base_seed,
                budget=budget,
                trace=trace,
            )
        else:
            sampler = sample_arena_fast if self.fast else sample_arena
            self._arena = sampler(
                self.graph,
                self.n_samples,
                rng=self._rng,
                budget=budget,
                trace=trace,
            )

    def repair(
        self,
        graph: AttributedGraph,
        touched_nodes: "set[int]",
        budget: "object | None" = None,
    ) -> "ArenaRepair | None":
        """Swap in the post-update ``graph`` and repair the pool in place.

        Per-sample-seeded pools with a materialized arena get incremental
        repair (:func:`repair_arena`): only samples that activated a
        touched node are redrawn, and the result is bit-identical to a
        from-scratch draw on the new graph. Returns the
        :class:`~repro.influence.arena.ArenaRepair` (its ``removed`` /
        ``added`` delta feeds incremental HIMOR repair).

        Stream-sampled pools cannot be repaired sample-by-sample (one
        shared RNG stream), so their arena is dropped and lazily redrawn
        on the new graph; unmaterialized pools just adopt the new graph.
        Both return ``None`` — "no per-sample delta available".
        """
        if graph.n != self.graph.n:
            raise InfluenceError(
                f"update changed the node count ({self.graph.n} -> "
                f"{graph.n}); pools only survive same-node-set updates"
            )
        with self._lock:
            self.graph = graph
            self._segment = None  # any published segment is now stale
            old = self._arena
            if old is None:
                return None
            if not self.per_sample_seeds:
                self._arena = None
                old.detach()
                return None
            result = repair_arena(
                old,
                graph,
                touched_nodes,
                base_seed=self.base_seed,
                budget=budget,
            )
            self._arena = result.arena
            if result.arena is not old:
                old.detach()
            self.repaired_samples_total += result.n_repaired
            return result

    # ---------------------------------------------------------- shared memory

    def to_shared(
        self,
        name: "str | None" = None,
        extra: "dict | None" = None,
        adopt: bool = True,
    ):
        """Publish the materialized arena into a shared segment (idempotent).

        Exactly one segment exists per pool state: concurrent callers
        serialize on the pool lock and the second one receives the first
        one's :class:`~repro.utils.shm.SharedSegment` instead of
        publishing a duplicate. :meth:`repair` invalidates the cache, so
        the next call publishes the repaired arena under a fresh name.

        With ``adopt`` (default) the pool swaps its private arrays for
        the segment's read-only views, so the publishing process keeps a
        single copy of the samples. The caller owns the segment's
        lifetime (:meth:`~repro.utils.shm.SharedSegment.destroy`).
        """
        with self._lock:
            if self._segment is None:
                arena = self.materialize()
                self._segment = arena.to_shared(name=name, extra=extra)
                if adopt:
                    self._arena = RRArena.from_segment(self._segment)
            return self._segment

    @classmethod
    def attach(
        cls,
        graph: AttributedGraph,
        name: str,
        theta: int = 10,
        seed: "int | np.random.Generator | None" = None,
        per_sample_seeds: bool = False,
        fast: bool = False,
    ) -> "SharedSamplePool":
        """A pool whose arena is attached read-only from segment ``name``.

        The configuration must match the publisher's: an attached worker
        pool answers queries bit-identically to a private pool built
        with the same ``(graph, theta, seed, ...)`` because pooled
        answers are a pure function of the arena. Geometry mismatches
        (wrong graph, wrong sample count for ``theta * n``) are rejected
        — attaching a stale segment must fail loudly, not skew answers.
        """
        pool = cls(
            graph,
            theta=theta,
            seed=seed,
            per_sample_seeds=per_sample_seeds,
            fast=fast,
        )
        arena = RRArena.attach(name)
        if arena.n != graph.n:
            arena.detach()
            raise InfluenceError(
                f"segment {name!r} holds an arena over {arena.n} nodes "
                f"but the graph has {graph.n}"
            )
        if arena.n_samples != pool.n_samples:
            count = arena.n_samples
            arena.detach()
            raise InfluenceError(
                f"segment {name!r} holds {count} samples but "
                f"theta={theta} over {graph.n} nodes needs {pool.n_samples}"
            )
        pool._arena = arena
        return pool

    def adopt(self, graph: AttributedGraph, arena: RRArena) -> None:
        """Swap in a post-update graph and an externally built arena.

        The epoch-rotation primitive for attached workers: the
        supervisor repairs *its* pool, publishes a fresh segment, and
        each worker adopts the new graph + attached arena here — no
        local resampling. The previous arena's mapping (if any) is
        released.
        """
        with self._lock:
            if graph.n != self.graph.n:
                raise InfluenceError(
                    f"adopted graph has {graph.n} nodes but the pool served "
                    f"{self.graph.n}"
                )
            if arena.n != graph.n:
                raise InfluenceError(
                    f"adopted arena covers {arena.n} nodes but the graph "
                    f"has {graph.n}"
                )
            if arena.n_samples != self.n_samples:
                raise InfluenceError(
                    f"adopted arena holds {arena.n_samples} samples but the "
                    f"pool is configured for {self.n_samples}"
                )
            old = self._arena
            self.graph = graph
            self._arena = arena
            self._segment = None
            if old is not None and old is not arena:
                old.detach()

    def restricted(self, allowed: "set[int] | np.ndarray") -> RRArena:
        """The pool induced on ``allowed`` nodes (Definition 3).

        Deterministic — a pure function of the materialized arena and the
        node set, drawing nothing from the pool's RNG — so pooled callers
        can serve restricted evaluations (CODL's local fallback) while
        staying bit-identical across query orderings. See
        :meth:`RRArena.restrict` for semantics.
        """
        return self.arena.restrict(allowed)

    def total_nodes(self) -> int:
        """``|R|``: total activated nodes across the pool (cost diagnostics)."""
        return self.arena.total_nodes

    def total_edges(self) -> int:
        """``vol(R)``: total activated edges across the pool."""
        return self.arena.total_edges

    def influence_counts(self) -> dict[int, int]:
        """RR-occurrence counts of every node over the pool.

        Equivalent to :func:`repro.influence.estimator.estimate_influences`
        on the pooled samples; reused by experiment drivers for ``I(q)``.
        """
        return self.arena.influence_counts()

    def __repr__(self) -> str:
        state = "materialized" if self._arena is not None else "lazy"
        return (
            f"SharedSamplePool(n={self.graph.n}, theta={self.theta}, "
            f"samples={self.n_samples}, {state})"
        )
