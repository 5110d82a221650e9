"""Supervised multi-worker serving: admission, heartbeats, crash recovery.

:class:`ServingSupervisor` runs N :class:`~repro.serving.CODServer`
workers in child processes and guarantees that **every admitted query
receives exactly one terminal** :class:`~repro.serving.ServedAnswer` —
answered, degraded, or explicitly refused — no matter what the workers
do. The moving parts:

* **Admission control** — queries enter through a bounded
  :class:`~repro.serving.queue.AdmissionQueue`; under overload the
  lowest-priority work is shed with an explicit ``refused_overload``
  answer (never a silent drop).
* **Failure detection** — a worker is *crashed* when its process exits,
  *wedged* when a dispatched task overruns ``task_timeout_s``, and
  *sick* when its heartbeat goes stale while idle or its start exceeds
  ``start_timeout_s``. Wedged and sick workers are killed. Heartbeat
  freshness is judged by each beat's per-incarnation sequence number on
  the supervisor's own clock (child and parent ``time.monotonic()``
  epochs are not comparable); a beat whose sequence was already seen
  never re-freshens the worker, and an unseen beat freshens it only to
  the last moment its queue was observed empty, so a backlog of old
  beats drained after a silence cannot mask the silence.
* **Event pump** — :meth:`~ServingSupervisor.poll` blocks on every live
  worker's event pipe and process sentinel at once. It wakes on a
  result or ready event (a worker is free: dispatch to it now), on a
  worker exit (police the death in the same round), or at its deadline.
  Heartbeats and epoch acks are handled as they arrive but do not end
  the wait.
* **Restart with backoff** — dead workers are respawned after a capped,
  jittered exponential delay
  (:class:`~repro.serving.budget.BackoffPolicy`); a worker that keeps
  dying is disabled after ``max_restarts``.
* **Requeue-once-then-refuse** — a query in flight on a dying worker is
  requeued exactly once (at the head of the line, immune to shedding);
  if its second dispatch also dies it gets a terminal ``refused_crash``
  answer. Results from a worker the supervisor already gave up on are
  deduplicated, preserving exactly-once delivery.
* **Index recovery** — each worker owns a HIMOR index artifact under
  ``index_dir`` with mid-build checkpoints; a worker respawned mid-build
  resumes the build from its checkpoint instead of starting over.
* **Aggregated health** — :meth:`health` merges supervisor counters
  (restarts, sheds, queue depth, end-to-end latency percentiles), read
  from the supervisor's one :class:`~repro.obs.MetricsRegistry`, with
  each worker's last self-reported :meth:`CODServer.health` snapshot.
  With ``profile=True`` every worker's server also carries a
  :class:`~repro.obs.MetricsRegistry`; per-worker snapshots (current and
  dead incarnations alike) are rolled into the fleet-wide
  ``fleet_metrics`` view via
  :meth:`~repro.obs.MetricsRegistry.merge_snapshots`.

Chaos is scripted through :class:`ChaosSchedule` (deterministic
kill/wedge/corrupt-checkpoint actions keyed by admission sequence
number) and through :mod:`repro.utils.faults` specs armed inside the
workers — see ``tests/serving/test_chaos.py`` for the invariant suite.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import queue as stdlib_queue
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.problem import CODQuery
from repro.dynamic.log import UpdateLog, as_batch
from repro.dynamic.updates import apply_updates, touched_nodes
from repro.errors import OverloadError, ServingError, WorkerCrashError
from repro.graph.graph import AttributedGraph
from repro.obs import MetricsRegistry
from repro.serving.budget import BackoffPolicy
from repro.serving.queue import PRIORITY_BATCH, AdmissionQueue
from repro.serving.server import (
    HEALTH_COUNTERS,
    LADDER,
    LATENCY_CAPACITY,
    REFUSED,
    REFUSED_CRASH,
    REFUSED_OVERLOAD,
    ServedAnswer,
    latency_summary,
)
from repro.serving.worker import (
    CHAOS_KILL,
    CHAOS_WEDGE,
    MSG_EPOCH,
    MSG_HEARTBEAT,
    MSG_READY,
    MSG_RESULT,
    ShardDirective,
    Task,
    UpdateDirective,
    WorkerConfig,
    decode_answer,
    worker_main,
)
from repro.utils.faults import corrupt_file
from repro.utils.persist import clean_stale_tmp

#: Supervisor-side chaos action: damage on-disk build checkpoints.
CHAOS_CORRUPT_CHECKPOINT = "corrupt-checkpoint"

CHAOS_ACTIONS = (CHAOS_KILL, CHAOS_WEDGE, CHAOS_CORRUPT_CHECKPOINT)

#: Flat :meth:`ServingSupervisor.health` counters, by the registry
#: counter each one reads. None reuses a worker metric name, because
#: ``merge_snapshots`` pools same-named instruments in ``fleet_metrics``.
FLEET_COUNTERS = {
    "refused_overload": "supervisor.refused_overload",
    "refused_crash": "supervisor.refused_crash",
    "restarts": "supervisor.restarts",
    "wedge_kills": "supervisor.wedge_kills",
    "heartbeat_kills": "supervisor.heartbeat_kills",
    "duplicate_results": "supervisor.duplicate_results",
    "transport_errors": "supervisor.transport_errors",
}

#: Worker lifecycle states surfaced in :meth:`ServingSupervisor.health`.
W_STARTING = "starting"
W_IDLE = "idle"
W_BUSY = "busy"
W_RESTARTING = "restarting"
W_DISABLED = "disabled"


def _queue_reader(event_queue) -> "mp_connection.Connection":
    """The pipe end behind a ``multiprocessing`` queue's ``get``.

    ``mp_connection.wait`` needs it to block until the queue has data,
    and ``mp.Queue`` has no public handle for it; the private
    ``_reader`` is that ``Connection`` on CPython 3.10 through 3.12.
    """
    return event_queue._reader


class ChaosSchedule:
    """Deterministic fault script keyed by admission sequence number.

    ``actions[seq]`` fires when query ``seq`` is first dispatched:
    ``"kill"`` and ``"wedge"`` ride the task into the worker (which
    ``os._exit``\\ s or stalls instead of answering — only on attempt 0,
    so the requeued retry runs clean), while ``"corrupt-checkpoint"``
    is executed by the supervisor itself, damaging every on-disk build
    checkpoint under ``index_dir`` before the dispatch.

    Parse the CLI form with :meth:`parse`: ``"kill@5,wedge@12,corrupt-checkpoint@1"``.
    """

    def __init__(self, actions: "dict[int, str] | None" = None) -> None:
        actions = dict(actions or {})
        for seq, action in actions.items():
            if action not in CHAOS_ACTIONS:
                raise ValueError(
                    f"unknown chaos action {action!r} at seq {seq}; "
                    f"known: {CHAOS_ACTIONS}"
                )
            if int(seq) < 0:
                raise ValueError(f"chaos seq must be non-negative, got {seq}")
        self.actions = {int(seq): action for seq, action in actions.items()}
        self.fired: dict[int, str] = {}

    @classmethod
    def parse(cls, spec: str) -> "ChaosSchedule":
        """Build a schedule from ``action@seq[,action@seq...]``."""
        actions: dict[int, str] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                action, seq_text = part.rsplit("@", 1)
                seq = int(seq_text)
            except ValueError:
                raise ValueError(
                    f"bad chaos entry {part!r}; expected action@seq"
                ) from None
            actions[seq] = action.strip()
        return cls(actions)

    def take(self, seq: int) -> "str | None":
        """Consume and return the action scheduled for ``seq``, if any."""
        action = self.actions.pop(seq, None)
        if action is not None:
            self.fired[seq] = action
        return action

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(slots=True)
class _TaskRecord:
    """Exactly-once bookkeeping for one query while it is outstanding."""

    seq: int
    query: CODQuery
    priority: int
    attempt: int = 0
    requeued: bool = False
    dispatched_to: "int | None" = None


@dataclass
class _WorkerSlot:
    """Supervisor-side state for one worker slot across incarnations."""

    slot: int
    proc: "multiprocessing.process.BaseProcess | None" = None
    task_queue: "object | None" = None
    event_queue: "object | None" = None
    incarnation: int = 0
    state: str = W_RESTARTING
    current: "Task | None" = None
    dispatched_at: float = 0.0
    spawned_at: float = 0.0
    last_seen: float = 0.0
    last_beat_seq: int = 0
    #: Supervisor-clock time this slot's event queue was last seen empty;
    #: any message drained later was necessarily *sent* after this, so it
    #: bounds how fresh a backlogged heartbeat can claim to be.
    queue_empty_at: float = 0.0
    respawn_at: float = 0.0
    restarts: int = 0
    backoff_attempt: int = 0
    tasks_done: int = 0
    last_health: "dict | None" = None
    health_incarnation: int = -1
    #: Last epoch this slot's current incarnation acknowledged (via an
    #: ``MSG_EPOCH`` ack or its spawn config).
    epoch: int = 0
    resumed_builds_total: int = 0
    #: Metrics snapshots folded in from dead incarnations (fleet rollup).
    metrics_prior: "dict | None" = None
    death_reasons: list[str] = field(default_factory=list)


class ServingSupervisor:
    """Run N CODServer workers under supervision (see module docstring).

    Parameters
    ----------
    graph:
        The graph every worker serves.
    n_workers:
        Worker processes to keep alive.
    queue_capacity:
        Bound on the admission queue; beyond it, load shedding kicks in.
    task_timeout_s:
        Wall-clock allowance for one dispatched task before the worker is
        declared wedged and killed. Must comfortably exceed the per-query
        ``deadline_s`` (a deadline refusal is an *answer*, not a wedge).
    heartbeat_interval_s / heartbeat_timeout_s:
        Worker beat cadence and the staleness bound past which a
        non-busy worker is declared sick.
    start_timeout_s:
        Allowance for a worker to signal ready (covers index build).
    restart_backoff:
        :class:`~repro.serving.budget.BackoffPolicy` for respawn delays
        (default: 0.05 s base, doubling, 2 s cap, 10% jitter).
    max_restarts:
        Per-slot restarts before the slot is disabled for good.
    index_dir:
        Directory for per-worker HIMOR artifacts and build checkpoints;
        ``None`` disables index persistence (workers build in memory).
    checkpoint_every:
        Samples between mid-build checkpoints (with ``index_dir``).
    warm_index:
        Build/resume the index before a worker signals ready.
    server_options:
        Extra :class:`~repro.serving.CODServer` keyword arguments
        (``theta``, ``seed``, ``deadline_s``, breaker tuning, ...).
    profile:
        Give every worker's server a :class:`~repro.obs.MetricsRegistry`
        (opt-in stage profiling); snapshots ride each result's health
        report and :meth:`health` merges them — across incarnations —
        with the supervisor's own registry into the fleet-wide
        ``fleet_metrics`` view.
    affinity:
        Attribute-affinity dispatch (default on): each attribute is
        sticky-claimed by the first slot to serve it, and an idle slot
        prefers queued queries whose attribute it already claimed —
        within the same priority class only — so per-attribute caches
        stay hot. Preference never idles a worker: with no matching
        entry the class's FIFO head is dispatched (counted as a miss
        when it steals a claimed attribute). Claims/hits/misses surface
        in :meth:`health` under ``"affinity"``.
    use_pool:
        Give every worker a per-worker
        :class:`~repro.core.pool.SharedSamplePool` so its compressed
        evaluations share one RR arena across queries (correlated
        answers, large speedup — see the pool's docstring).
    pool_seeded:
        Draw each worker's pool with per-sample seeds (implies
        ``use_pool``; requires an integer ``seed`` in
        ``server_options``). Seeded pools always draw with the hashed
        kernel, whatever ``fast_sampling`` says. This is what makes
        :meth:`submit_updates` repair worker pools incrementally —
        bit-identically to a from-scratch redraw — instead of dropping
        them on every structural epoch.
    shared_pool:
        Fleet-wide zero-copy pools (implies ``use_pool``): instead of
        every worker sampling its own arena, the supervisor materializes
        the pool **once** (sharded across per-sample-seeded slices when
        ``pool_seeded``, merged via
        :func:`~repro.influence.arena.concatenate_arenas`), publishes
        the graph and arena as shared-memory segments
        (:mod:`repro.utils.shm`), and workers attach them read-only —
        N workers share one arena's physical pages and skip cold-start
        resampling entirely. Answers are bit-identical to per-worker
        pools because the builder pool is constructed with exactly the
        worker pool's configuration. Segments are supervisor-owned:
        unlinked on :meth:`shutdown`, rotated (old epoch unlinked after
        the new one is published) on :meth:`submit_updates`, and stale
        segments of dead processes are swept at start and on every
        respawn. :meth:`health` reports a ``"shm"`` block.
    shard_attributes:
        Restricted-shard publication policy (shared-pool fleets only).
        ``"auto"`` (default) shards every attribute whose admitted query
        count crosses ``shard_hot_threshold``: the supervisor computes
        that attribute's restricted arena **once** from the builder pool
        (LORE floor vertex of the modal query node) and publishes it as
        a ``rr-shard`` segment workers attach instead of each restricting
        the full arena. An explicit iterable of attribute ids restricts
        sharding to those (hot at their first query); ``None`` disables
        sharding. Shards rotate with the main segments on every update
        epoch and are unlinked at shutdown; dispatch routes shard-covered
        attributes to the worker with the shard mapped
        (``affinity.shard_hits``). Bit-identity is unconditional: a
        worker verifies vertex/epoch/``allowed_sha`` before serving a
        shard and otherwise restricts locally.
    shard_hot_threshold:
        Admitted queries an attribute needs before auto-sharding it.
    shard_max:
        Cap on concurrently published shards.
    affinity_max_claims:
        Bound on the sticky attribute→slot claim table (LRU evicted,
        counted in ``health()["affinity"]["evictions"]``).
    chaos:
        Optional :class:`ChaosSchedule` for scripted fault drills.
    worker_fault_specs:
        :func:`repro.utils.faults.arm` spec dicts armed inside every
        worker at bootstrap (site-level chaos, e.g. kill at sample k).
    wedge_s:
        How long a scripted wedge stalls (must exceed ``task_timeout_s``
        for the wedge to be detected rather than merely slow).
    mp_start_method:
        ``"fork"`` where available (fast, shares the graph page-table),
        else ``"spawn"``.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        n_workers: int = 2,
        *,
        queue_capacity: int = 64,
        task_timeout_s: float = 10.0,
        heartbeat_interval_s: float = 0.05,
        heartbeat_timeout_s: float = 2.0,
        start_timeout_s: float = 60.0,
        restart_backoff: "BackoffPolicy | None" = None,
        max_restarts: int = 5,
        index_dir: "str | Path | None" = None,
        checkpoint_every: int = 64,
        warm_index: bool = True,
        server_options: "dict | None" = None,
        profile: bool = False,
        affinity: bool = True,
        use_pool: bool = False,
        pool_seeded: bool = False,
        shared_pool: bool = False,
        shard_attributes: "str | Iterable[int] | None" = "auto",
        shard_hot_threshold: int = 4,
        shard_max: int = 16,
        affinity_max_claims: int = 1024,
        chaos: "ChaosSchedule | None" = None,
        worker_fault_specs: "Iterable[dict] | None" = None,
        wedge_s: float = 3600.0,
        mp_start_method: "str | None" = None,
        state_dir: "str | Path | None" = None,
        snapshot_every: "int | None" = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers!r}")
        if task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be positive, got {task_timeout_s!r}"
            )
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be non-negative, got {max_restarts!r}")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every!r}")
        self.graph = graph
        self.n_workers = int(n_workers)
        self.queue = AdmissionQueue(queue_capacity)
        self.task_timeout_s = float(task_timeout_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.start_timeout_s = float(start_timeout_s)
        self.restart_backoff = restart_backoff or BackoffPolicy(
            base_s=0.05, factor=2.0, cap_s=2.0, jitter=0.1, seed=0
        )
        self.max_restarts = int(max_restarts)
        self.index_dir = Path(index_dir) if index_dir is not None else None
        self.checkpoint_every = int(checkpoint_every)
        self.warm_index = bool(warm_index)
        self.server_options = dict(server_options or {})
        self.profile = bool(profile)
        self.affinity = bool(affinity)
        self.pool_seeded = bool(pool_seeded)
        self.shared_pool = bool(shared_pool)
        self.use_pool = bool(use_pool) or self.pool_seeded or self.shared_pool
        if self.pool_seeded and not isinstance(
            self.server_options.get("seed"), int
        ):
            raise ValueError(
                "pool_seeded requires an integer 'seed' in server_options "
                "(per-sample streams are derived from it)"
            )
        if shard_hot_threshold < 1:
            raise ValueError(
                f"shard_hot_threshold must be >= 1, got {shard_hot_threshold!r}"
            )
        if shard_max < 0:
            raise ValueError(f"shard_max must be >= 0, got {shard_max!r}")
        if affinity_max_claims < 1:
            raise ValueError(
                f"affinity_max_claims must be >= 1, got {affinity_max_claims!r}"
            )
        # Restricted-shard publication: "auto" shards whichever attributes
        # cross the hot threshold; an explicit iterable restricts sharding
        # to those attributes (first query makes them hot); None disables.
        if shard_attributes is None:
            self._shard_allowlist: "set[int] | None" = None
            self.shard_enabled = False
        elif shard_attributes == "auto":
            self._shard_allowlist = None
            self.shard_enabled = self.shared_pool
        else:
            self._shard_allowlist = {int(a) for a in shard_attributes}
            self.shard_enabled = self.shared_pool
        self.shard_hot_threshold = int(shard_hot_threshold)
        self.shard_max = int(shard_max)
        self.affinity_max_claims = int(affinity_max_claims)
        self.chaos = chaos or ChaosSchedule()
        self.worker_fault_specs = [dict(s) for s in (worker_fault_specs or [])]
        self.wedge_s = float(wedge_s)
        if mp_start_method is None:
            mp_start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(mp_start_method)
        self._slots = [_WorkerSlot(slot=i) for i in range(self.n_workers)]
        #: Outstanding queries only: :meth:`_deliver` drops a record, so a
        #: result whose seq has no record is a duplicate.
        self._records: dict[int, _TaskRecord] = {}
        self._answers: dict[int, ServedAnswer] = {}
        #: Wire member bytes → shared read-only array, held weakly (see
        #: decode_answer).
        self._members_memo: "weakref.WeakValueDictionary[bytes, object]" = (
            weakref.WeakValueDictionary()
        )
        self._requeue: list[int] = []
        self._next_seq = 0
        self._started = False
        #: Fleet graph version: bumped by every :meth:`submit_updates`
        #: batch; the full batch history lives in :attr:`update_log`.
        self.epoch = 0
        self.update_log = UpdateLog()
        self.state_store = None
        self.recovery = None
        # The supervisor's one counter store: its own health counters, the
        # shm and affinity instruments, and the durable store's.
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._rungs = {
            rung: m.counter(f"supervisor.rung.{rung}") for rung in LADDER
        }
        self._refused = m.counter("supervisor.rung.refused")
        self._latency = m.histogram(
            "supervisor.answer.seconds", capacity=LATENCY_CAPACITY
        )
        self._fleet = {key: m.counter(name) for key, name in FLEET_COUNTERS.items()}
        self._update_acks = m.counter("supervisor.update_acks")
        self._updates_skipped = m.counter("supervisor.updates_skipped")
        self._shm_attaches = m.counter("shm.attaches")
        self._shm_publishes = m.counter("shm.publishes")
        self._shm_sweeps = m.counter("shm.sweeps")
        self._shm_swept = m.counter("shm.swept_segments")
        self._shm_bytes = m.gauge("shm.segment_bytes")
        self._shard_publishes = m.counter("shm.shard.publishes")
        self._shard_rotations = m.counter("shm.shard.rotations")
        self._shard_bytes = m.gauge("shm.shard.segment_bytes")
        self._affinity_claims = m.counter("affinity.claims")
        self._affinity_hits = m.counter("affinity.hits")
        self._affinity_misses = m.counter("affinity.misses")
        self._affinity_evictions = m.counter("affinity.evictions")
        self._affinity_shard_hits = m.counter("affinity.shard_hits")
        self._affinity_shard_misses = m.counter("affinity.shard_misses")
        if state_dir is not None:
            # Cold start = recovery, even on an empty directory: the
            # supervisor's graph and epoch come from the newest proven
            # snapshot + WAL suffix, so every worker it spawns boots
            # straight into the last *acknowledged* epoch.
            from repro.serving.durability import DurableStateStore

            self.state_store = DurableStateStore(
                state_dir,
                snapshot_every=snapshot_every,
                metrics=self.metrics,
            )
            self.recovery = self.state_store.recover(base_graph=graph)
            self.graph = self.recovery.graph
            self.epoch = self.recovery.epoch
        # Shared-pool state: supervisor-owned segments (kind → handle),
        # the builder pool whose arena backs them, shard boundaries of
        # the sharded materialization, and sweep/attach accounting.
        self._builder_pool = None
        self._shm_segments: "dict[str, object]" = {}
        self._pool_shards: "list[int] | None" = None
        self._shm_attach_counts: dict[str, int] = {}
        # Restricted-shard state: per-attribute published segments, the
        # manifest workers adopt, the hierarchy the builder derives floor
        # vertices from, the per-attribute query-node histogram that
        # detects hot attributes, and the attribute → slot routing table.
        self._shard_segments_by_attr: "dict[int, object]" = {}
        self._shard_manifest: "dict[int, dict]" = {}
        self._shard_slots: "dict[int, int]" = {}
        self._shard_failed: set[int] = set()
        self._builder_hierarchy = None
        self._attr_hot: "dict[int, dict[int, int]]" = {}
        self._epoch_reports: dict[int, dict] = {}
        # Attribute-affinity dispatch: sticky attribute → slot claims in
        # LRU order, bounded by ``affinity_max_claims`` and dropped when
        # their slot dies (see _account_affinity / _on_worker_death) —
        # an unbounded claim dict once grew forever with distinct
        # attributes and kept routing to slots that no longer existed.
        self._affinity_slots: "OrderedDict[object, int]" = OrderedDict()

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "ServingSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def start(self) -> None:
        """Spawn the worker fleet (idempotent)."""
        if self._started:
            return
        if self.index_dir is not None:
            self.index_dir.mkdir(parents=True, exist_ok=True)
            clean_stale_tmp(self.index_dir)
        if self.shared_pool:
            # Reclaim segments stranded by dead processes (a previous
            # supervisor killed before its shutdown), then publish this
            # fleet's graph + arena before any worker needs them.
            self._sweep_segments()
            self._publish_shared_state()
        now = time.monotonic()
        for slot in self._slots:
            self._spawn(slot, now)
        self._started = True

    def shutdown(self, join_timeout_s: float = 2.0) -> None:
        """Stop every worker: polite sentinel first, SIGKILL stragglers."""
        for slot in self._slots:
            if slot.proc is not None and slot.proc.is_alive():
                try:
                    slot.task_queue.put(None)
                except Exception:  # noqa: BLE001 — queue may be broken
                    pass
        for slot in self._slots:
            if slot.proc is not None:
                slot.proc.join(timeout=join_timeout_s)
                if slot.proc.is_alive():
                    slot.proc.kill()
                    slot.proc.join(timeout=join_timeout_s)
                slot.proc = None
            slot.state = W_DISABLED
        self._started = False
        self._release_segments()
        if self.state_store is not None:
            self.state_store.close()

    # ---------------------------------------------------------- shared pool

    def _ensure_builder_pool(self):
        """The supervisor's own pool — the single sampling site of the fleet.

        Constructed with *exactly* the worker pool's configuration
        (theta/seed/per-sample-seeds/fast from ``server_options``): the
        fleet's bit-identity guarantee rests on this arena being the very
        arena each worker would have drawn privately.
        """
        if self._builder_pool is None:
            from repro.core.pool import SharedSamplePool

            pool = SharedSamplePool(
                self.graph,
                theta=int(self.server_options.get("theta", 10)),
                seed=self.server_options.get("seed"),
                per_sample_seeds=self.pool_seeded,
                fast=bool(self.server_options.get("fast_sampling", False)),
            )
            self._materialize_builder_pool(pool)
            self._builder_pool = pool
        return self._builder_pool

    def _materialize_builder_pool(self, pool) -> None:
        """Materialize the builder pool, sharded when seeds permit.

        With per-sample seeds every sample's stream depends only on
        ``(base_seed, index)``, so the pool splits into ``n_workers``
        index slices drawn independently and merged in order via
        :func:`~repro.influence.arena.concatenate_arenas` — bit-identical
        to one monolithic draw, and the shard boundaries are published in
        the segment's metadata. Without per-sample seeds there is one
        sequential stream, so the pool draws in one shot.
        """
        if not (self.pool_seeded and self.n_workers > 1 and pool.n_samples > 1):
            pool.materialize()
            self._pool_shards = None
            return
        import numpy as np

        from repro.influence.arena import concatenate_arenas
        from repro.influence.fastsample import sample_arena_seeded_fast

        shards = np.array_split(
            np.arange(pool.n_samples, dtype=np.int64),
            min(self.n_workers, pool.n_samples),
        )
        parts = [
            sample_arena_seeded_fast(
                self.graph,
                base_seed=pool.base_seed,
                indices=shard,
            )
            for shard in shards
        ]
        pool.adopt(self.graph, concatenate_arenas(parts))
        offsets = [0]
        for shard in shards:
            offsets.append(offsets[-1] + len(shard))
        self._pool_shards = offsets

    def _publish_shared_state(self) -> None:
        """Publish the current graph + arena as shm segments (one epoch).

        The previous epoch's segments are unlinked only *after* the new
        ones exist: attached workers keep serving off their established
        mappings (POSIX unlink removes the name, not the memory), live
        directives carry the new names, and respawns bootstrap from them.
        """
        from repro.utils.shm import default_segment_name

        pool = self._ensure_builder_pool()
        old = dict(self._shm_segments)
        graph_segment = self.graph.to_shared(
            name=default_segment_name(f"graph-e{self.epoch}")
        )
        extra = (
            {"shard_offsets": self._pool_shards}
            if self._pool_shards is not None
            else None
        )
        arena_segment = pool.to_shared(
            name=default_segment_name(f"arena-e{self.epoch}"), extra=extra
        )
        self._shm_segments = {"graph": graph_segment, "arena": arena_segment}
        self._shm_publishes.inc()
        self._shm_bytes.set(graph_segment.nbytes + arena_segment.nbytes)
        for segment in old.values():
            if segment is not graph_segment and segment is not arena_segment:
                segment.destroy()

    def _sweep_segments(self) -> None:
        """Unlink segments whose owning process is provably dead."""
        from repro.utils.shm import sweep_stale_segments

        swept = sweep_stale_segments()
        self._shm_sweeps.inc()
        self._shm_swept.inc(len(swept))

    def _release_segments(self) -> None:
        """Unlink and unmap every supervisor-owned segment (shutdown)."""
        for segment in self._shm_segments.values():
            try:
                segment.destroy()
            except Exception:  # noqa: BLE001 — release the rest regardless
                pass
        self._shm_segments = {}
        self._builder_pool = None
        for segment in self._shard_segments_by_attr.values():
            try:
                segment.destroy()
            except Exception:  # noqa: BLE001 — release the rest regardless
                pass
        self._shard_segments_by_attr = {}
        self._shard_manifest = {}
        self._shard_slots = {}
        self._builder_hierarchy = None
        self._shm_bytes.set(0)
        self._shard_bytes.set(0)

    # ------------------------------------------------------- shard building

    def _note_hot(self, query: CODQuery) -> None:
        """Histogram one admitted query; build its shard once hot.

        The histogram drives two decisions: *when* an attribute is hot
        enough to shard (total query count crosses the threshold — or 1
        for explicitly allowlisted attributes) and *which* node's LORE
        floor vertex the shard restricts to (the modal query node, ties
        to the smallest id — deterministic for a given workload prefix).
        """
        if not self.shard_enabled or query.attribute is None:
            return
        attr = int(query.attribute)
        if self._shard_allowlist is not None and attr not in self._shard_allowlist:
            return
        counts = self._attr_hot.setdefault(attr, {})
        node = int(query.node)
        counts[node] = counts.get(node, 0) + 1
        if attr in self._shard_manifest or attr in self._shard_failed:
            return
        if len(self._shard_manifest) >= self.shard_max:
            return
        threshold = 1 if self._shard_allowlist is not None else self.shard_hot_threshold
        if sum(counts.values()) >= threshold:
            if self._build_shard(attr) is not None:
                self._broadcast_shards()

    def _build_shard(self, attr: int) -> "dict | None":
        """Restrict the builder arena for one hot attribute and publish it.

        The shard is ``pool.restricted(allowed)`` where ``allowed`` is
        the member set of the LORE floor vertex for the attribute's modal
        query node — computed against the supervisor's own hierarchy,
        which is bit-identical to every worker's (PR 6 canonicalized
        hierarchy construction to a pure function of the graph). The
        published segment carries ``allowed_sha`` so a worker whose own
        allowed set disagrees (different query node, different floor)
        rejects the shard and restricts locally instead of serving a
        wrong restriction. Failures (LORE at chain level 0, empty
        restriction, any exception) mark the attribute failed-for-this-
        epoch and never disturb serving.
        """
        from repro.core.lore import lore_chain
        from repro.hierarchy.nnchain import agglomerative_hierarchy
        from repro.influence.arena import allowed_fingerprint
        from repro.utils.shm import default_segment_name

        counts = self._attr_hot.get(attr)
        if not counts:
            return None
        try:
            pool = self._ensure_builder_pool()
            if self._builder_hierarchy is None:
                self._builder_hierarchy = agglomerative_hierarchy(self.graph)
            hierarchy = self._builder_hierarchy
            node = min(counts, key=lambda n: (-counts[n], n))
            lore = lore_chain(
                self.graph,
                hierarchy,
                node,
                attr,
                weighting=self.server_options.get("weighting"),
            )
            if lore.c_ell_chain_level == 0:
                self._shard_failed.add(attr)
                return None
            allowed = hierarchy.members(lore.c_ell_vertex)
            restricted = pool.restricted(allowed)
            if restricted.n_samples == 0:
                self._shard_failed.add(attr)
                return None
            sha = allowed_fingerprint(allowed)
            segment = restricted.to_shared(
                name=default_segment_name(f"shard-a{attr}-e{self.epoch}"),
                extra={
                    "attribute": int(attr),
                    "vertex": int(lore.c_ell_vertex),
                    "epoch": int(self.epoch),
                    "allowed_sha": sha,
                },
                kind="rr-shard",
            )
        except Exception:  # noqa: BLE001 — shards optimize, never break serving
            self._shard_failed.add(attr)
            return None
        self._shard_segments_by_attr[attr] = segment
        entry = {
            "name": segment.name,
            "vertex": int(lore.c_ell_vertex),
            "epoch": int(self.epoch),
            "allowed_sha": sha,
            "samples": int(restricted.n_samples),
        }
        self._shard_manifest[attr] = entry
        self._shard_publishes.inc()
        self._shard_bytes.set(
            sum(s.nbytes for s in self._shard_segments_by_attr.values())
        )
        self._assign_shard_slot(attr)
        return entry

    def _assign_shard_slot(self, attr: int) -> "int | None":
        """Route ``attr`` to one slot: its sticky claim if it has one,
        else the enabled slot carrying the fewest shards (ties to the
        lowest slot id)."""
        eligible = [s.slot for s in self._slots if s.state != W_DISABLED]
        if not eligible:
            self._shard_slots.pop(attr, None)
            return None
        claimed = self._affinity_slots.get(attr)
        if claimed in eligible:
            slot_id = claimed
        else:
            load = {sid: 0 for sid in eligible}
            for assigned in self._shard_slots.values():
                if assigned in load:
                    load[assigned] += 1
            slot_id = min(eligible, key=lambda sid: (load[sid], sid))
        self._shard_slots[attr] = slot_id
        return slot_id

    def _broadcast_shards(self) -> None:
        """Send the current shard manifest to every live worker."""
        directive = ShardDirective(
            manifest={a: dict(e) for a, e in self._shard_manifest.items()}
        )
        for slot in self._slots:
            if slot.task_queue is None:
                continue
            try:
                slot.task_queue.put(directive)
            except Exception:  # noqa: BLE001 — broken pipe = the worker is dead
                self._fleet["transport_errors"].inc()
                self._on_worker_death(slot, "task queue broken (shard directive)")

    def _rotate_shards(self) -> None:
        """Rebuild every published shard for the new epoch, then unlink
        the old segments — same publish-before-destroy discipline as the
        main graph/arena segments (attached workers keep their mappings;
        the name is what rotates)."""
        self._builder_hierarchy = None
        old_segments = dict(self._shard_segments_by_attr)
        old_attrs = list(self._shard_manifest)
        self._shard_segments_by_attr = {}
        self._shard_manifest = {}
        # The new graph may make a previously unshardable attribute
        # shardable (or vice versa) — retry each at most once per epoch.
        self._shard_failed.clear()
        for attr in old_attrs:
            self._build_shard(attr)
        for segment in old_segments.values():
            try:
                segment.destroy()
            except Exception:  # noqa: BLE001 — rotation must not abort mid-way
                pass
        self._shard_rotations.inc(len(old_segments))

    # ------------------------------------------------------------ admission

    def submit(self, query: CODQuery, priority: int = PRIORITY_BATCH) -> int:
        """Admit one query; returns its sequence number.

        The caller can look the terminal answer up with
        :meth:`answer_for` once :meth:`drain` (or enough :meth:`poll`
        rounds) completes. Refusals by admission control are terminal
        immediately.
        """
        query.validate(self.graph)
        self.start()
        self._note_hot(query)
        seq = self._next_seq
        self._next_seq += 1
        self._records[seq] = _TaskRecord(seq=seq, query=query, priority=int(priority))
        admission = self.queue.admit(seq, priority=int(priority))
        if admission.shed is not None:
            shed_seq, shed_priority = admission.shed
            self._deliver_overload(shed_seq, shed_priority)
        if not admission.admitted:
            self._deliver_overload(seq, int(priority))
        return seq

    def submit_updates(self, updates, label: "str | None" = None) -> int:
        """Apply one update batch fleet-wide; returns the new epoch.

        The batch is validated against the supervisor's graph first — a
        conflicting or invalid batch raises without changing any state —
        then appended to :attr:`update_log` and enqueued as an
        :class:`~repro.serving.worker.UpdateDirective` on every live
        worker's task queue. Because directives ride the same FIFO queue
        as tasks, each worker applies the batch at a safe point between
        queries: no barrier, no pause, and every admitted query is
        answered against exactly one epoch.

        Workers currently restarting (or spawned later) skip the
        directive path entirely: :meth:`_spawn` hands them the
        supervisor's post-update graph and current epoch, so a crash
        mid-transition can neither strand a worker on the old epoch nor
        double-apply a batch.
        """
        batch = as_batch(updates, label=label)
        new_graph = apply_updates(self.graph, batch.updates)
        self.start()
        epoch_from = self.epoch
        if self.state_store is not None:
            # Ack-after-fsync: the batch is durable before any worker
            # (or the supervisor's own graph) observes it. A WAL failure
            # here aborts the submit with all state unchanged.
            from repro.core.himor import graph_checksum

            self.state_store.append(
                batch, graph_sha=graph_checksum(new_graph)
            )
        self.graph = new_graph
        self.update_log.append(batch)
        # Not the in-session log's count: a recovered supervisor starts
        # at the recovered epoch with an empty session log.
        self.epoch = epoch_from + 1
        if self.state_store is not None:
            self.state_store.maybe_snapshot(self.graph, self.epoch)
        shm_names = None
        if self.shared_pool:
            # Repair the single fleet arena here (bit-identical to a
            # fresh seeded draw on the new graph) and publish the new
            # epoch's segments; the directive carries their names so
            # workers adopt instead of re-applying the batch locally.
            pool = self._ensure_builder_pool()
            structural = any(
                not hasattr(update, "attribute") for update in batch.updates
            )
            pool.repair(
                self.graph,
                touched_nodes(batch.updates) if structural else set(),
            )
            self._pool_shards = None  # the repaired arena is unsharded
            self._publish_shared_state()
            self._rotate_shards()
            shm_names = {
                "graph": self._shm_segments["graph"].name,
                "arena": self._shm_segments["arena"].name,
                "shards": {
                    attr: dict(entry)
                    for attr, entry in self._shard_manifest.items()
                },
            }
        directive = UpdateDirective(
            epoch_from=epoch_from,
            epoch_to=self.epoch,
            updates=batch.updates,
            shm=shm_names,
        )
        for slot in self._slots:
            if slot.task_queue is None:
                continue  # restarting/disabled: the respawn config catches up
            try:
                slot.task_queue.put(directive)
            except Exception:  # noqa: BLE001 — broken pipe = the worker is dead
                self._fleet["transport_errors"].inc()
                self._on_worker_death(slot, "task queue broken (update directive)")
        return self.epoch

    def answer_for(self, seq: int) -> "ServedAnswer | None":
        """The terminal answer for an admitted query, if delivered yet."""
        return self._answers.get(seq)

    def serve(
        self,
        queries: Sequence[CODQuery],
        priorities: "Sequence[int] | None" = None,
        drain_timeout_s: "float | None" = None,
    ) -> list[ServedAnswer]:
        """Admit a workload, drain it, and return answers in input order."""
        if priorities is not None and len(priorities) != len(queries):
            raise ValueError(
                f"{len(priorities)} priorities for {len(queries)} queries"
            )
        seqs = [
            self.submit(
                query,
                PRIORITY_BATCH if priorities is None else priorities[i],
            )
            for i, query in enumerate(queries)
        ]
        self.drain(timeout_s=drain_timeout_s)
        return [self._answers[seq] for seq in seqs]

    def drain(self, timeout_s: "float | None" = None) -> None:
        """Pump until every admitted query is terminal.

        With ``timeout_s`` set, anything still outstanding at expiry is
        refused explicitly (the exactly-once guarantee holds even when
        the drain itself gives up).
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while self.outstanding:
            if deadline is not None and time.monotonic() > deadline:
                for seq in list(self._records):
                    self._deliver_refusal(
                        seq,
                        REFUSED,
                        ServingError(
                            f"supervisor drain timed out after {timeout_s}s"
                        ),
                        "supervisor: drain timeout",
                    )
                return
            self.poll(0.05)

    @property
    def outstanding(self) -> int:
        """Admitted queries not yet terminal."""
        return len(self._records)

    # ----------------------------------------------------------- event pump

    def poll(self, wait_s: float = 0.05) -> None:
        """One supervision round, run twice: reap events, police workers,
        dispatch.

        The first pass does not wait: it starts idle workers on queued
        work before the blocking reap, so a query submitted to an idle
        fleet is answered within this poll. The second pass's reap blocks
        for up to ``wait_s`` and ends early when a worker is freed (a
        result or ready event) or a worker process exits, so the freed
        worker gets its next task, or the dead one is handled, in this
        same round. With no worker process running it ends when the
        first respawn is due. Heartbeats and epoch acks do not end the wait.
        """
        for wait in (0.0, wait_s):
            self._reap_events(wait)
            self._police_workers()
            self._dispatch()

    def _reap_events(self, wait_s: float) -> None:
        # Each incarnation writes to its own queue: a worker SIGKILLed
        # mid-``put`` can only poison *its* queue (discarded at respawn),
        # never block its siblings on a shared write lock.
        deadline = time.monotonic() + wait_s
        exited = False
        while True:
            freed = False
            for slot in self._slots:
                freed |= self._drain_slot_events(slot)
            remaining = deadline - time.monotonic()
            if freed or exited or remaining <= 0:
                return
            # Restarting and disabled slots have no process and no queue.
            live = [slot for slot in self._slots if slot.proc is not None]
            if not live:
                # Nothing can wake this wait: sleep only until the first
                # respawn is due, so the caller's next policing starts it.
                due = min([deadline] + [
                    slot.respawn_at for slot in self._slots
                    if slot.state == W_RESTARTING
                ])
                time.sleep(max(0.0, due - time.monotonic()))
                return
            # A dead worker's sentinel stays ready, so ending the wait on
            # it (and policing the death next) also keeps this from spinning.
            sentinels = {slot.proc.sentinel: slot for slot in live}
            readers = [_queue_reader(slot.event_queue) for slot in live]
            for handle in mp_connection.wait(
                readers + list(sentinels), timeout=remaining
            ):
                if handle in sentinels:
                    # The sentinel fires as the child closes its files,
                    # a moment before it can be reaped: join it so
                    # ``is_alive()`` in _police_workers already says so.
                    sentinels[handle].proc.join(timeout=1.0)
                    exited = True

    def _drain_slot_events(self, slot: _WorkerSlot) -> bool:
        """Drain one slot's event queue; True if an event freed a worker
        (a result, or a ready signal from a starting worker)."""
        if slot.event_queue is None:
            return False
        freed = False
        while True:
            try:
                message = slot.event_queue.get_nowait()
            except stdlib_queue.Empty:
                slot.queue_empty_at = time.monotonic()
                return freed
            except (EOFError, OSError):
                self._fleet["transport_errors"].inc()
                return freed
            except Exception:  # noqa: BLE001 — a torn pickle must not stop the pump
                self._fleet["transport_errors"].inc()
                return freed
            self._handle_event(message)
            freed |= message[0] in (MSG_RESULT, MSG_READY)

    def _handle_event(self, message: tuple) -> None:
        tag, worker_id, incarnation = message[0], message[1], message[2]
        slot = self._slots[worker_id]
        current_incarnation = incarnation == slot.incarnation
        if tag == MSG_HEARTBEAT:
            # Freshness is the beat's per-incarnation sequence number, not
            # a timestamp: child monotonic clocks do not share the
            # supervisor's epoch. Only an unseen (higher) sequence counts,
            # and it freshens the worker only to the last moment the
            # slot's queue was observed empty — the beat must have been
            # sent after that — so a backlog of stale beats drained after
            # a silence cannot mask the silence (a beat already seen never
            # re-freshens either).
            if current_incarnation and int(message[3]) > slot.last_beat_seq:
                slot.last_beat_seq = int(message[3])
                slot.last_seen = max(slot.last_seen, slot.queue_empty_at)
            return
        if current_incarnation:
            slot.last_seen = time.monotonic()
        if tag == MSG_READY:
            if current_incarnation and slot.state == W_STARTING:
                slot.state = W_IDLE
                if len(message) > 3 and isinstance(message[3], dict):
                    attached = list(message[3].get("attached", ()))
                    self._shm_attaches.inc(len(attached))
                    for name in attached:
                        self._shm_attach_counts[name] = (
                            self._shm_attach_counts.get(name, 0) + 1
                        )
            return
        if tag == MSG_EPOCH:
            if current_incarnation:
                epoch, report = int(message[3]), message[4]
                slot.epoch = epoch
                if report.get("skipped"):
                    self._updates_skipped.inc()
                else:
                    self._update_acks.inc()
                    agg = self._epoch_reports.setdefault(
                        epoch,
                        {
                            "workers_applied": 0,
                            "updates": int(report.get("updates", 0)),
                            "repaired_samples": 0,
                            "cache_invalidated": 0,
                            "index": {},
                        },
                    )
                    agg["workers_applied"] += 1
                    agg["repaired_samples"] += int(
                        report.get("repaired_samples", 0)
                    )
                    agg["cache_invalidated"] += int(
                        report.get("cache_invalidated", 0)
                    )
                    disposition = str(report.get("index", "none"))
                    agg["index"][disposition] = (
                        agg["index"].get(disposition, 0) + 1
                    )
            return
        if tag == MSG_RESULT:
            seq, wire, health = message[3], message[4], message[5]
            if current_incarnation:
                slot.tasks_done += 1
                slot.last_health = health
                slot.health_incarnation = incarnation
                slot.backoff_attempt = 0  # the worker proved itself healthy
                if slot.current is not None and slot.current.seq == seq:
                    slot.current = None
                    slot.state = W_IDLE
            record = self._records.get(seq)
            if record is None:
                # We already refused/requeued-and-answered this query; a
                # late result from a worker we gave up on is dropped to
                # preserve exactly-once delivery.
                self._fleet["duplicate_results"].inc()
                return
            answer = decode_answer(wire, record.query, self._members_memo)
            answer.notes.append(
                f"supervisor: served by worker {worker_id} "
                f"(attempt {record.attempt})"
            )
            self._deliver(seq, answer)

    def _police_workers(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if slot.state == W_DISABLED:
                continue
            if slot.state == W_RESTARTING:
                if now >= slot.respawn_at:
                    self._spawn(slot, now)
                continue
            if slot.proc is None or not slot.proc.is_alive():
                self._on_worker_death(slot, "process exited")
            elif (
                slot.state == W_BUSY
                and now - slot.dispatched_at > self.task_timeout_s
            ):
                self._fleet["wedge_kills"].inc()
                self._kill(slot)
                self._on_worker_death(
                    slot,
                    f"wedged: task overran {self.task_timeout_s}s deadline",
                )
            elif (
                slot.state == W_STARTING
                and now - slot.spawned_at > self.start_timeout_s
            ):
                self._kill(slot)
                self._on_worker_death(
                    slot, f"start timeout after {self.start_timeout_s}s"
                )
            elif now - slot.last_seen > self.heartbeat_timeout_s:
                self._fleet["heartbeat_kills"].inc()
                self._kill(slot)
                self._on_worker_death(slot, "heartbeat went stale")
        if self.outstanding and all(
            slot.state == W_DISABLED for slot in self._slots
        ):
            for seq in list(self._records):
                self._deliver_refusal(
                    seq,
                    REFUSED,
                    WorkerCrashError(
                        "every worker slot is disabled "
                        f"(restart budget of {self.max_restarts} spent)"
                    ),
                    "supervisor: no workers left",
                )

    def _dispatch(self) -> None:
        for slot in self._slots:
            if slot.state != W_IDLE:
                continue
            seq = self._next_dispatchable(slot)
            if seq is None:
                return
            record = self._records[seq]
            self._account_affinity(record, slot)
            chaos = self.chaos.take(seq) if record.attempt == 0 else None
            if chaos == CHAOS_CORRUPT_CHECKPOINT:
                self._corrupt_checkpoints()
                chaos = None
            task = Task(
                seq=seq,
                node=record.query.node,
                attribute=record.query.attribute,
                k=record.query.k,
                deadline_s=self.server_options.get("deadline_s"),
                sample_budget=self.server_options.get("sample_budget"),
                attempt=record.attempt,
                chaos=chaos,
                wedge_s=self.wedge_s,
            )
            record.dispatched_to = slot.slot
            slot.current = task
            slot.dispatched_at = time.monotonic()
            slot.state = W_BUSY
            try:
                slot.task_queue.put(task)
            except Exception:  # noqa: BLE001 — broken pipe = the worker is dead
                self._fleet["transport_errors"].inc()
                self._on_worker_death(slot, "task queue broken")

    def _next_dispatchable(self, slot: "_WorkerSlot | None" = None) -> "int | None":
        """Next admitted query for ``slot``: requeued work first, then the
        admission queue — preferring, when affinity dispatch is on,
        queries whose attribute this slot already serves (so its LORE /
        local-index caches stay hot). Preference is
        scored, not boolean: an attribute whose *restricted shard* is
        routed to this slot outranks (2) a mere sticky-claim/unclaimed
        match (1), so shard-covered work gravitates to the one worker
        with the shard segment already mapped; attributes claimed by (or
        sharded to) another slot score 0 but can still drain here
        (counted as a miss) rather than wait — the queue falls back to
        its FIFO head when nothing scores, so nothing starves.
        """
        while self._requeue:
            seq = self._requeue.pop(0)
            if seq in self._records:
                return seq
        prefer = None
        if self.affinity and slot is not None:
            slot_id = slot.slot

            def prefer(seq: int) -> int:
                record = self._records.get(seq)
                if record is None:
                    return 0
                attribute = record.query.attribute
                shard_slot = self._shard_slots.get(attribute)
                if shard_slot is not None:
                    return 2 if shard_slot == slot_id else 0
                claimed = self._affinity_slots.get(attribute)
                return 1 if claimed is None or claimed == slot_id else 0

        while True:
            seq = self.queue.pop(prefer=prefer)
            if seq is None or seq in self._records:
                return seq

    def _account_affinity(self, record: "_TaskRecord", slot: "_WorkerSlot") -> None:
        """Affinity bookkeeping for one dispatch.

        Sticky claims: first claim wins; a re-dispatch to the claiming
        slot is a hit, elsewhere a miss. The claim table is an LRU
        bounded by ``affinity_max_claims`` — touching an attribute
        refreshes it, and the coldest claim is evicted (counted) when
        the table would overflow. Shard routing is accounted separately:
        a shard-covered attribute dispatched to its routed slot is a
        ``shard_hit``, elsewhere a ``shard_miss``.
        """
        if not self.affinity:
            return
        attribute = record.query.attribute
        shard_slot = self._shard_slots.get(attribute)
        if shard_slot is not None:
            if shard_slot == slot.slot:
                self._affinity_shard_hits.inc()
            else:
                self._affinity_shard_misses.inc()
        claimed = self._affinity_slots.get(attribute)
        if claimed is None:
            self._affinity_slots[attribute] = slot.slot
            self._affinity_claims.inc()
            while len(self._affinity_slots) > self.affinity_max_claims:
                self._affinity_slots.popitem(last=False)
                self._affinity_evictions.inc()
        else:
            self._affinity_slots.move_to_end(attribute)
            if claimed == slot.slot:
                self._affinity_hits.inc()
            else:
                self._affinity_misses.inc()

    # ------------------------------------------------------- fault handling

    def _spawn(self, slot: _WorkerSlot, now: float) -> None:
        slot.incarnation += 1
        if self.shared_pool and slot.incarnation > 1:
            # Respawn after a death: reclaim any segment stranded by a
            # process that died without cleanup (pid-tag pattern — the
            # same contract clean_stale_tmp enforces for index tmp files).
            self._sweep_segments()
        slot.task_queue = self._ctx.Queue()
        slot.event_queue = self._ctx.Queue()
        index_path = None
        if self.index_dir is not None:
            index_path = str(self.index_dir / f"worker{slot.slot}.himor.json")
        shm_graph = shm_arena = None
        if self.shared_pool and self._shm_segments:
            shm_graph = self._shm_segments["graph"].name
            shm_arena = self._shm_segments["arena"].name
        config = WorkerConfig(
            worker_id=slot.slot,
            incarnation=slot.incarnation,
            # Under a shared pool the graph crosses as a segment name, not
            # a pickled copy — the worker attaches it zero-copy.
            graph=None if shm_graph is not None else self.graph,
            server_options=dict(self.server_options),
            index_path=index_path,
            checkpoint_every=self.checkpoint_every,
            heartbeat_interval_s=self.heartbeat_interval_s,
            warm_index=self.warm_index,
            chaos_specs=[dict(s) for s in self.worker_fault_specs],
            profile=self.profile,
            use_pool=self.use_pool,
            pool_seeded=self.pool_seeded,
            epoch=self.epoch,
            shm_graph=shm_graph,
            shm_arena=shm_arena,
            shm_shards=(
                {a: dict(e) for a, e in self._shard_manifest.items()}
                if self.shared_pool and self._shard_manifest
                else None
            ),
        )
        process = self._ctx.Process(
            target=worker_main,
            args=(config, slot.task_queue, slot.event_queue),
            name=f"cod-worker-{slot.slot}",
            daemon=True,
        )
        process.start()
        slot.proc = process
        slot.state = W_STARTING
        slot.current = None
        slot.spawned_at = now
        slot.last_seen = now
        slot.last_beat_seq = 0  # beat sequences restart with the incarnation
        slot.queue_empty_at = now  # the fresh incarnation's queue starts empty
        slot.epoch = self.epoch  # bootstrapped from the post-update graph

    def _kill(self, slot: _WorkerSlot) -> None:
        if slot.proc is not None and slot.proc.is_alive():
            slot.proc.kill()
            slot.proc.join(timeout=5.0)

    def _on_worker_death(self, slot: _WorkerSlot, reason: str) -> None:
        slot.death_reasons.append(reason)
        if slot.proc is not None:
            slot.proc.join(timeout=1.0)
            slot.proc = None
        # Salvage any result the dead incarnation already queued — it may
        # have answered its task and died after; that answer still counts
        # (and spares the requeue) and its health snapshot belongs in the
        # fold below.
        self._drain_slot_events(slot)
        # Fold the dying incarnation's cumulative counters into the slot
        # totals, then retire the snapshot: until the respawn bumps the
        # incarnation, health() would otherwise count it a second time as
        # the slot's current one.
        if slot.last_health is not None and slot.health_incarnation == slot.incarnation:
            slot.resumed_builds_total += int(
                slot.last_health.get("index_builds_resumed", 0)
            )
            worker_metrics = slot.last_health.get("metrics")
            if worker_metrics:
                slot.metrics_prior = MetricsRegistry.merge_snapshots(
                    [slot.metrics_prior, worker_metrics]
                )
            slot.health_incarnation = -1
        for queue in (slot.task_queue, slot.event_queue):
            if queue is not None:
                try:
                    queue.close()
                except Exception:  # noqa: BLE001 — a broken queue is expected here
                    pass
        slot.task_queue = None
        slot.event_queue = None
        # The dead incarnation's caches are gone with its process: claims
        # pointing at this slot are stale (a respawn starts cold), so drop
        # them and re-route its shards to a slot that is still live.
        stale = [
            attribute
            for attribute, claimed in self._affinity_slots.items()
            if claimed == slot.slot
        ]
        for attribute in stale:
            del self._affinity_slots[attribute]
        if stale:
            self._affinity_evictions.inc(len(stale))
        for attr, routed in list(self._shard_slots.items()):
            if routed == slot.slot:
                survivors = [
                    s.slot
                    for s in self._slots
                    if s.slot != slot.slot and s.state != W_DISABLED
                ]
                if survivors:
                    load = {sid: 0 for sid in survivors}
                    for assigned in self._shard_slots.values():
                        if assigned in load:
                            load[assigned] += 1
                    self._shard_slots[attr] = min(
                        survivors, key=lambda sid: (load[sid], sid)
                    )
                # A single-worker fleet keeps the routing: the respawn
                # re-adopts the manifest via its spawn config.
        task, slot.current = slot.current, None
        record = None if task is None else self._records.get(task.seq)
        if record is not None:
            if record.requeued:
                self._fleet["refused_crash"].inc()
                self._deliver_refusal(
                    task.seq,
                    REFUSED_CRASH,
                    WorkerCrashError(
                        f"worker died twice on this query "
                        f"(last: worker {slot.slot}, {reason})"
                    ),
                    f"supervisor: worker {slot.slot} died ({reason}); "
                    f"requeue budget spent",
                )
            else:
                record.requeued = True
                record.attempt += 1
                self._requeue.append(task.seq)
        slot.restarts += 1
        self._fleet["restarts"].inc()
        if slot.restarts > self.max_restarts:
            slot.state = W_DISABLED
            return
        delay = self.restart_backoff.delay(slot.backoff_attempt)
        slot.backoff_attempt += 1
        slot.respawn_at = time.monotonic() + delay
        slot.state = W_RESTARTING

    def _corrupt_checkpoints(self) -> None:
        """Scripted chaos: damage every on-disk build checkpoint."""
        if self.index_dir is None:
            return
        for path in self.index_dir.glob("*.ckpt"):
            corrupt_file(path, mode="truncate")

    # -------------------------------------------------------------- answers

    def _deliver(self, seq: int, answer: ServedAnswer) -> None:
        assert seq not in self._answers, f"duplicate terminal answer for {seq}"
        del self._records[seq]
        self._answers[seq] = answer
        if answer.refused:
            self._refused.inc()
        else:
            self._rungs[answer.rung].inc()
        self._latency.record(answer.elapsed)

    def _deliver_refusal(
        self, seq: int, rung: str, error: Exception, note: str
    ) -> None:
        record = self._records[seq]
        self._deliver(
            seq,
            ServedAnswer(
                query=record.query,
                members=None,
                rung=rung,
                notes=[note],
                error=error,
                epoch=self.epoch,
            ),
        )

    def _deliver_overload(self, seq: int, priority: int) -> None:
        self._fleet["refused_overload"].inc()
        self._deliver_refusal(
            seq,
            REFUSED_OVERLOAD,
            OverloadError(self.queue.depth, self.queue.capacity),
            f"supervisor: shed at priority {priority} "
            f"(queue {self.queue.depth}/{self.queue.capacity})",
        )

    # --------------------------------------------------------------- health

    def health(self) -> dict:
        """One aggregated operational snapshot across the fleet.

        Combines supervisor-side end-to-end stats (per-rung counts,
        latency percentiles over *delivered* answers, shed/crash/refusal
        counters, queue depth, restarts) with each worker's last
        self-reported :meth:`CODServer.health` snapshot. Every supervisor
        number reads an instrument of :attr:`metrics`. The in-process
        ladder counters (``retries``, ``index_rebuilds``, ...) keep their
        keys and read zero here; the workers' own sit under ``workers``.
        """
        answered = {
            rung: counter.value
            for rung, counter in self._rungs.items()
            if counter.value
        }
        refused = self._refused.value
        snapshot = {
            "queries": sum(answered.values()) + refused,
            "answered_per_rung": answered,
            "refused": refused,
            **dict.fromkeys(HEALTH_COUNTERS, 0),
            "latency": latency_summary(self._latency),
        }
        worker_retries = 0
        resumed_builds = 0
        per_worker: dict[str, dict] = {}
        metrics_parts: "list[dict | None]" = []
        for slot in self._slots:
            current = (
                slot.last_health
                if slot.health_incarnation == slot.incarnation
                else None
            )
            slot_resumed = slot.resumed_builds_total + (
                int(current.get("index_builds_resumed", 0)) if current else 0
            )
            resumed_builds += slot_resumed
            metrics_parts.append(slot.metrics_prior)
            if current:
                metrics_parts.append(current.get("metrics"))
            per_worker[str(slot.slot)] = {
                "state": slot.state,
                "restarts": slot.restarts,
                "tasks_done": slot.tasks_done,
                "resumed_builds": slot_resumed,
                "epoch": slot.epoch,
                "death_reasons": list(slot.death_reasons),
                "health": slot.last_health,
            }
            if slot.last_health is not None:
                worker_retries += slot.last_health.get("retries", 0)
        snapshot.update(
            {
                "n_workers": self.n_workers,
                "admitted": self._next_seq,
                "completed": len(self._answers),
                "outstanding": self.outstanding,
                "queue_depth": self.queue.depth + len(self._requeue),
                "shed": self.queue.shed_queued + self.queue.refused_incoming,
                **{key: counter.value for key, counter in self._fleet.items()},
                "affinity": {
                    "enabled": self.affinity,
                    "attributes": len(self._affinity_slots),
                    "claims": self._affinity_claims.value,
                    "hits": self._affinity_hits.value,
                    "misses": self._affinity_misses.value,
                    "evictions": self._affinity_evictions.value,
                    "max_claims": self.affinity_max_claims,
                    "shard_hits": self._affinity_shard_hits.value,
                    "shard_misses": self._affinity_shard_misses.value,
                    "shard_slots": {
                        str(attr): slot_id
                        for attr, slot_id in sorted(self._shard_slots.items())
                    },
                },
                "worker_retries": worker_retries,
                "resumed_builds": resumed_builds,
                "epoch": self.epoch,
                "updates": {
                    "batches_submitted": self.update_log.epoch,
                    "acks": self._update_acks.value,
                    "skipped": self._updates_skipped.value,
                    "per_epoch": {
                        str(epoch): dict(report)
                        for epoch, report in sorted(self._epoch_reports.items())
                    },
                },
                "chaos_fired": dict(self.chaos.fired),
                "workers": per_worker,
                "shm": {
                    "enabled": self.shared_pool,
                    "segments": {
                        kind: {
                            "name": segment.name,
                            "bytes": segment.nbytes,
                            "attaches": self._shm_attach_counts.get(
                                segment.name, 0
                            ),
                        }
                        for kind, segment in self._shm_segments.items()
                    },
                    "segment_bytes": sum(
                        segment.nbytes
                        for segment in self._shm_segments.values()
                    ),
                    "attaches": self._shm_attaches.value,
                    "publishes": self._shm_publishes.value,
                    "sweeps": self._shm_sweeps.value,
                    "swept_segments": self._shm_swept.value,
                    "shard_offsets": self._pool_shards,
                    "shards": {
                        "enabled": self.shard_enabled,
                        "published": {
                            str(attr): {
                                "name": entry["name"],
                                "vertex": entry["vertex"],
                                "epoch": entry["epoch"],
                                "samples": entry["samples"],
                                "bytes": self._shard_segments_by_attr[
                                    attr
                                ].nbytes,
                            }
                            for attr, entry in sorted(
                                self._shard_manifest.items()
                            )
                        },
                        "bytes": sum(
                            s.nbytes
                            for s in self._shard_segments_by_attr.values()
                        ),
                        "publishes": self._shard_publishes.value,
                        "rotations": self._shard_rotations.value,
                    },
                },
                # Fleet-wide metrics rollup: dead incarnations' folded
                # snapshots plus each live worker's latest, merged — with
                # the supervisor's own registry once a fleet subsystem
                # (shared pool, durable store) reports through it.
                "fleet_metrics": MetricsRegistry.merge_snapshots(
                    metrics_parts
                    + (
                        [self.metrics.snapshot()]
                        if self.shared_pool or self.state_store is not None
                        else []
                    )
                ),
            }
        )
        if self.state_store is not None:
            recovery = self.recovery
            snapshot["durability"] = {
                "state_dir": str(self.state_store.state_dir),
                "snapshot_every": self.state_store.snapshot_every,
                "snapshots": self.state_store.snapshots.epochs(),
                "quarantined": [
                    str(p) for p in self.state_store.snapshots.quarantined
                ],
                "recovery": None if recovery is None else {
                    "epoch": recovery.epoch,
                    "snapshot_epoch": recovery.snapshot_epoch,
                    "replayed_epochs": recovery.replayed_epochs,
                    "truncated_records": recovery.truncated_records,
                    "seconds": recovery.seconds,
                },
            }
        return snapshot
