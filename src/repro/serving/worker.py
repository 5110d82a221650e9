"""Worker-side protocol for supervised multi-process serving.

One worker = one child process running a private
:class:`~repro.serving.CODServer` over the shared graph. The supervisor
talks to it over two queues:

* a per-worker **task queue** (supervisor → worker) carrying
  :class:`Task` messages and a ``None`` shutdown sentinel, and
* a shared **event queue** (workers → supervisor) carrying ``ready``,
  ``heartbeat``, and ``result`` tuples.

Answers cross the process boundary as plain-dict *wire* forms
(:func:`encode_answer` / :func:`decode_answer`) rather than pickled
:class:`~repro.serving.ServedAnswer` objects: exceptions with non-trivial
constructors do not round-trip through pickle, and the supervisor already
holds the query object — only the outcome needs to travel. Members
travel as one int64 byte string and come back as a read-only array over
those bytes; a weak memo lets identical answers share one array.

A heartbeat thread beats every ``heartbeat_interval_s`` regardless of
what the main thread is doing, so the supervisor can tell a *crashed*
worker (process gone) from a *wedged* one (beats arrive but the
dispatched task never returns — detected by deadline overrun) from a
*sick* one (alive but silent — stale heartbeat). Each beat carries a
per-incarnation **sequence number** rather than a timestamp: a child
process's ``time.monotonic()`` is not guaranteed to share an epoch with
the supervisor's, so freshness is judged by monotone sequence on the
supervisor's own clock (a beat already seen never re-freshens the
worker). Chaos plans from the
supervisor's config are armed at bootstrap via
:func:`repro.utils.faults.arm_spec`, and a scripted per-task ``chaos``
field supports the deterministic kill/wedge schedules the chaos suite
drives.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.problem import CODQuery
from repro.errors import ServingError
from repro.serving.server import REFUSED, CODServer, ServedAnswer
from repro.utils import faults

if TYPE_CHECKING:  # pragma: no cover
    import weakref

    from repro.graph.graph import AttributedGraph

#: Event-queue message tags (workers → supervisor).
MSG_READY = "ready"
MSG_HEARTBEAT = "heartbeat"
MSG_RESULT = "result"
MSG_EPOCH = "epoch"

#: Scripted per-task chaos actions a worker executes on receipt.
CHAOS_KILL = "kill"
CHAOS_WEDGE = "wedge"


@dataclass
class Task:
    """One dispatched query (supervisor → worker).

    ``seq`` is the admission sequence number — the supervisor's key for
    exactly-once terminal-answer bookkeeping. ``attempt`` is 0 on first
    dispatch and 1 on the single requeue a crashed query is entitled to.
    ``chaos`` carries a scripted action (:data:`CHAOS_KILL` /
    :data:`CHAOS_WEDGE`) the worker executes *instead of* answering —
    the deterministic fault schedule of the chaos suite.
    """

    seq: int
    node: int
    attribute: "int | None"
    k: int
    deadline_s: "float | None" = None
    sample_budget: "int | None" = None
    attempt: int = 0
    chaos: "str | None" = None
    wedge_s: float = 3600.0


@dataclass
class UpdateDirective:
    """One epoch transition (supervisor → worker, on the task queue).

    Rides the same FIFO queue as :class:`Task`, which is the safe-point
    mechanism: a directive enqueued between two tasks is applied between
    them, so every admitted query is answered against exactly one epoch
    with no barrier or pause.

    ``epoch_from``/``epoch_to`` bracket the transition. A worker whose
    server is already at (or past) ``epoch_to`` — a respawn bootstrapped
    from the post-update graph whose queue still holds the directive's
    duplicate — skips it instead of double-applying; a worker at any
    *other* epoch than ``epoch_from`` exits so the supervisor respawns it
    straight into the fleet's current epoch.
    """

    epoch_from: int
    epoch_to: int
    updates: tuple = ()
    #: Shared-pool rotation: ``{"graph": <segment>, "arena": <segment>}``
    #: names of the supervisor-published post-update state, plus an
    #: optional ``"shards"`` manifest of per-attribute restricted-shard
    #: segments rotated for the new epoch. A worker that receives this
    #: attaches both and adopts them instead of re-applying the batch
    #: locally (see :meth:`CODServer.adopt_shared`).
    shm: "dict | None" = None


@dataclass
class ShardDirective:
    """A restricted-shard manifest broadcast (supervisor → worker).

    Sent when the supervisor publishes (or rebuilds) per-attribute
    restricted-arena shards between epochs. Rides the task FIFO like
    :class:`UpdateDirective`, so adoption happens at a safe point
    between queries; a worker that dies before processing it gets the
    manifest at respawn via :attr:`WorkerConfig.shm_shards` instead.
    Adoption is idempotent and epoch-checked at *use* time (stale
    entries are rejected per attach, never served).
    """

    manifest: dict


@dataclass
class WorkerConfig:
    """Everything a worker child process needs to bootstrap."""

    worker_id: int
    incarnation: int
    #: The serving graph — pickled into the child when shared memory is
    #: off; ``None`` under a shared pool, where ``shm_graph`` names the
    #: segment the worker attaches instead.
    graph: "AttributedGraph | None"
    server_options: dict = field(default_factory=dict)
    index_path: "str | None" = None
    checkpoint_every: int = 64
    heartbeat_interval_s: float = 0.05
    warm_index: bool = False
    chaos_specs: "list[dict]" = field(default_factory=list)
    kill_exit_code: int = 9
    #: Give the worker's server a metrics registry (stage profiling); the
    #: snapshot rides every result's health report for the fleet rollup.
    profile: bool = False
    #: Attach a per-worker :class:`~repro.core.pool.SharedSamplePool`
    #: (seeded from ``server_options``) so compressed evaluations share
    #: one RR arena across this worker's queries instead of re-sampling.
    #: Pairs with the supervisor's attribute-affinity dispatch: same
    #: attribute → same worker → hot caches over the same pool.
    use_pool: bool = False
    #: Draw the pool with per-sample seeds (requires an integer ``seed``
    #: in ``server_options``) so graph updates repair it incrementally.
    pool_seeded: bool = False
    #: The epoch of ``graph`` at spawn time. A respawned worker is handed
    #: the supervisor's *current* graph, so it starts at the fleet epoch
    #: without replaying (or double-applying) any update batch.
    epoch: int = 0
    #: Shared-memory segment holding the serving graph (supervisor-owned).
    #: When set the worker attaches it read-only instead of unpickling a
    #: private copy — zero-copy bootstrap.
    shm_graph: "str | None" = None
    #: Shared-memory segment holding the materialized RR arena. When set
    #: the worker's pool attaches it instead of resampling, so N workers
    #: share one arena's physical pages.
    shm_arena: "str | None" = None
    #: Per-attribute restricted-shard manifest current at spawn time
    #: (attribute → segment entry; see :meth:`CODServer.adopt_shards`).
    #: A respawned worker adopts it at boot so it never misses a
    #: :class:`ShardDirective` that predated its incarnation.
    shm_shards: "dict | None" = None


def encode_answer(answer: ServedAnswer) -> dict:
    """Flatten a :class:`ServedAnswer` into a picklable wire dict."""
    return {
        "members": None if answer.members is None
        else np.asarray(answer.members, dtype=np.int64).tobytes(),
        "rung": answer.rung,
        "chain_length": int(answer.chain_length),
        "elapsed": float(answer.elapsed),
        "retries": int(answer.retries),
        "notes": list(answer.notes),
        "error": None if answer.error is None
        else f"{type(answer.error).__name__}: {answer.error}",
        "epoch": answer.epoch,
    }


def decode_answer(
    wire: dict, query: CODQuery, memo: "weakref.WeakValueDictionary"
) -> ServedAnswer:
    """Rebuild a :class:`ServedAnswer` around the supervisor's query object.

    Members come back as a read-only int64 array over the wire bytes.
    ``memo`` (wire bytes → array) lets answers with identical members
    share one array. It holds its arrays weakly: an entry lives exactly
    as long as some answer holds its array, so the memo never keeps
    memory alive and needs no bound of its own.

    The worker-side exception (if any) comes back as a
    :class:`~repro.errors.ServingError` carrying the original type name
    and message — the concrete class does not survive the wire, the
    diagnosis does.
    """
    members = wire["members"]
    if members is not None:
        shared = memo.get(members)
        if shared is None:
            shared = memo[members] = np.frombuffer(members, dtype=np.int64)
        members = shared
    return ServedAnswer(
        query=query,
        members=members,
        rung=wire["rung"],
        chain_length=wire["chain_length"],
        elapsed=wire["elapsed"],
        retries=wire["retries"],
        notes=list(wire["notes"]),
        error=None if wire["error"] is None else ServingError(wire["error"]),
        epoch=wire.get("epoch"),
    )


def refused_wire(
    error: Exception,
    note: str,
    elapsed: float = 0.0,
    epoch: "int | None" = None,
) -> dict:
    """Wire form of an explicit refusal manufactured outside the ladder."""
    return {
        "members": None,
        "rung": REFUSED,
        "chain_length": 0,
        "elapsed": float(elapsed),
        "retries": 0,
        "notes": [note],
        "error": f"{type(error).__name__}: {error}",
        "epoch": epoch,
    }


def worker_main(config: WorkerConfig, task_queue, event_queue) -> None:
    """Child-process entry point: serve tasks until the ``None`` sentinel.

    Never raises: per-task failures become refused wire answers, and the
    only abrupt exits are the scripted/armed chaos kills the supervisor
    asked for.
    """
    faults.reset()  # do not inherit the parent test process's armed plans
    for spec in config.chaos_specs:
        faults.arm_spec(dict(spec))

    stop = threading.Event()

    def beat() -> None:
        # Beats are numbered, not timestamped: time.monotonic() epochs are
        # not comparable across processes, a monotone per-incarnation
        # sequence is. The supervisor stamps arrival on its own clock
        # (bounded by when it last saw this queue empty) and ignores any
        # beat whose sequence it has already seen.
        beat_seq = 0
        while not stop.wait(config.heartbeat_interval_s):
            faults.maybe_fail("worker_heartbeat")
            beat_seq += 1
            event_queue.put(
                (MSG_HEARTBEAT, config.worker_id, config.incarnation, beat_seq)
            )

    heartbeat = threading.Thread(
        target=beat, name=f"worker{config.worker_id}-heartbeat", daemon=True
    )
    heartbeat.start()

    metrics = None
    if config.profile:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    attached: "list[str]" = []
    graph = config.graph
    if config.shm_graph is not None:
        from repro.graph.graph import AttributedGraph

        # A missing/corrupt segment means the supervisor's published state
        # is gone (or we are a stale incarnation racing a rotation); exit
        # so the respawn is handed the current segment names.
        try:
            graph = AttributedGraph.attach(config.shm_graph)
        except Exception:  # noqa: BLE001 — see above: respawn is the repair
            os._exit(config.kill_exit_code)
        attached.append(config.shm_graph)
    pool = None
    if config.use_pool:
        from repro.core.pool import SharedSamplePool

        pool_options = dict(
            theta=int(config.server_options.get("theta", 10)),
            seed=config.server_options.get("seed"),
            per_sample_seeds=config.pool_seeded,
            # The server option doubles as the pool's sampler choice so one
            # flag keeps a worker's fresh draws and pooled draws consistent.
            fast=bool(config.server_options.get("fast_sampling", False)),
        )
        if config.shm_arena is not None:
            # Attach the supervisor's arena; on any failure fall back to a
            # private pool — bit-identical anyway (same graph/seed/theta),
            # just without the page sharing.
            try:
                pool = SharedSamplePool.attach(
                    graph, config.shm_arena, **pool_options
                )
                attached.append(config.shm_arena)
            except Exception:  # noqa: BLE001 — degraded start beats no start
                pool = None
        if pool is None:
            pool = SharedSamplePool(graph, **pool_options)
    server = CODServer(
        graph,
        index_path=config.index_path,
        checkpoint_every=config.checkpoint_every,
        metrics=metrics,
        pool=pool,
        **config.server_options,
    )
    server.epoch = config.epoch
    if config.shm_shards:
        server.adopt_shards(config.shm_shards)
    if config.warm_index:
        # Build (or resume) the HIMOR index before accepting traffic. A
        # failure here is not fatal: the ladder retries/degrades per query.
        try:
            server.warm()
        except Exception:  # noqa: BLE001 — degraded start beats no start
            pass
    event_queue.put(
        (MSG_READY, config.worker_id, config.incarnation,
         {"attached": attached})
    )

    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            if isinstance(task, ShardDirective):
                # Manifest adoption can never sink a worker: a bad entry
                # is rejected at attach time, falling back to local
                # restricts (bit-identical), so failures here are moot.
                server.adopt_shards(task.manifest)
                continue
            if isinstance(task, UpdateDirective):
                _apply_directive(server, task, config, event_queue)
                continue
            event_queue.put(
                (MSG_RESULT, config.worker_id, config.incarnation, task.seq,
                 _serve_task(server, task, config), server.health())
            )
    finally:
        stop.set()


def _apply_directive(
    server: CODServer, directive: UpdateDirective, config: WorkerConfig,
    event_queue,
) -> None:
    """Move the server to the directive's epoch, or die trying.

    Skipping (already at/past the target) covers a respawned worker whose
    fresh graph already bakes the batch in. Any other epoch mismatch, or
    a failed apply, exits the process: the supervisor's respawn hands the
    replacement the current graph + epoch, so suicide *is* the repair —
    a worker never keeps serving a stale epoch and never double-applies.
    """
    if directive.epoch_to <= server.epoch:
        event_queue.put(
            (MSG_EPOCH, config.worker_id, config.incarnation, server.epoch,
             {"epoch": server.epoch, "skipped": True})
        )
        return
    if server.epoch != directive.epoch_from:
        os._exit(config.kill_exit_code)
    try:
        if directive.shm is not None:
            # Shared-pool rotation: attach the supervisor-published
            # post-update graph + repaired arena and adopt them instead of
            # re-applying the batch locally.
            from repro.graph.graph import AttributedGraph
            from repro.influence.arena import RRArena

            new_graph = AttributedGraph.attach(directive.shm["graph"])
            arena = RRArena.attach(directive.shm["arena"])
            report = server.adopt_shared(
                new_graph,
                arena,
                epoch=directive.epoch_to,
                n_updates=len(directive.updates),
                shards=directive.shm.get("shards"),
            )
        else:
            report = server.apply_updates(
                directive.updates, epoch=directive.epoch_to
            )
    except Exception:  # noqa: BLE001 — see docstring: respawn is the repair
        os._exit(config.kill_exit_code)
    event_queue.put(
        (MSG_EPOCH, config.worker_id, config.incarnation, server.epoch, report)
    )


def _serve_task(server: CODServer, task: Task, config: WorkerConfig) -> dict:
    """Answer one task, translating every failure into a refusal wire."""
    if task.chaos == CHAOS_KILL:
        os._exit(config.kill_exit_code)
    if task.chaos == CHAOS_WEDGE:
        time.sleep(task.wedge_s)
    try:
        faults.maybe_fail("worker_task")
        query = CODQuery(task.node, task.attribute, task.k)
        answer = server.answer(
            query, deadline_s=task.deadline_s, sample_budget=task.sample_budget
        )
        return encode_answer(answer)
    except Exception as exc:  # noqa: BLE001 — a query must never sink a worker
        return refused_wire(
            exc, f"worker: {type(exc).__name__}: {exc}", epoch=server.epoch
        )
