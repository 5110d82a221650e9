"""The three serving workloads: ``cold-hubs``, ``live-skewed``, ``fleet-skewed``.

Each workload builds the real serving stack over a synthetic registry
dataset, drives it from this one process with a closed-loop client, and
returns a :class:`Result`: the metrics, the operation counts, the
correctness verdict and a text summary. Only public entry points are
called: ``CODServer.warm/answer/apply_updates/health``,
``ServingSupervisor.start/submit/poll/answer_for/health/shutdown`` and
``attribute_weighted_graph``, plus the program's own observation hooks
(``CODServer(metrics=)``, ``answer(trace=)``, ``apply_updates(trace=)``,
``ServingSupervisor(profile=True)``).

Untraced runs report the end-to-end metrics. A traced run serves two
halves over identically prepared servers, the first untraced and the
second traced, so the throughput difference between them is the tracing
overhead; the per-layer metrics come from the traced half.
"""

from __future__ import annotations

import gc
import json
from multiprocessing import resource_tracker
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from harness import (
    REFERENCE_KERNEL_S,
    SPEED_WINDOW,
    SpeedTrack,
    UpdateStream,
    block_rate,
    hot_queries,
    machine,
    median,
    peak_rss_mb,
    ratio,
    signature,
    tail_percentile,
    zipf_mix,
)
from layers import (
    AnswerProfile,
    counter_delta,
    hit_ratio,
    stage_calls,
    stage_seconds,
    update_layers,
)
from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.datasets.registry import load_dataset
from repro.dynamic.log import UpdateLog
from repro.graph.weighting import attribute_weighted_graph
from repro.obs import MetricsRegistry, QueryTrace
from repro.serving import CODServer, ServingSupervisor
from repro.utils.shm import close_all_segments

#: RR samples per node: half the serving default of 10, which keeps set-up
#: and index rebuilds short enough for a run of about half a minute.
THETA = 5
#: Top-k of every query.
K = 5
#: Dataset generation seed: the graph is part of the system under test and
#: stays fixed.
DATASET_SEED = 7
#: Seed of the query sets (the skewed workloads' hot set and the
#: ``cold-hubs`` query pool), of each Zipf client's popularity order, and of
#: the ``live-skewed`` update batches. Like the graph they stay fixed: query
#: costs differ tenfold, so a median over a fresh draw of queries or a fresh
#: Zipf head moves with every seed, and an edge batch costs twice as much
#: when it forces an index rebuild as when the index is repaired.
#: ``--seed`` orders the ``cold-hubs`` queries and draws the skewed reads.
HOT_SEED = 7
#: Sampling seed of every pool, so answers can be checked bit for bit.
POOL_SEED = 0
#: The skewed workloads' hot set: this many attributes with this many
#: query nodes each. A fixed attribute count keeps the re-weighting work
#: after each structural update the same from seed to seed.
HOT_ATTRIBUTES = 20
HOT_PER_ATTRIBUTE = 2
#: Reads come from interleaved clients, each Zipf-skewed over its own
#: popularity order. With one client the top five queries carry half the
#: reads, so the median read is whatever those five happen to cost and
#: jumps from seed to seed; four clients spread the head over twenty.
ZIPF_EXPONENT = 1.1
ZIPF_CLIENTS = 4
#: Reads between two update batches on ``live-skewed``. One edge batch and
#: one attribute batch then bracket 500 reads; such a pair is one
#: measurement block, and two pairs reach the p99 sample floor below. Edge
#: batches take seconds each, so every further pair lengthens a run by
#: about a quarter.
READS_PER_BATCH = 250
#: Queries a measured phase needs before it may stop, so that p99 has
#: ten samples beyond it. A phase runs for ``--seconds`` and until this.
MIN_SAMPLES = 1000
#: Queries in one ``cold-hubs`` measurement block. ``throughput_qps`` is
#: the median over a phase's blocks, so a host that slows for part of a run
#: moves only the blocks it hits. Latency percentiles are taken over the
#: whole phase, since p99 needs all of its samples.
COLD_BLOCK = 200
#: Hard stop for one phase, in wall-clock seconds, to keep a run within its
#: time limit on a slow machine.
PHASE_CAP_S = 60.0
#: Clock of the in-process workloads: this process's CPU time. The server
#: answers on the calling thread, so on an idle host this clock reads the
#: same as the wall clock (to 0.1% on a 2-core VM), and it leaves out time
#: the hypervisor gave to other guests. In-process times are further scaled
#: to a reference host speed (:class:`harness.SpeedTrack`). Fleet latency
#: spans queueing and IPC across processes, and the poll step sets most of
#: it, so the fleet stays on the unscaled wall clock.
IN_PROCESS_CLOCK = process_time
#: Set-ups per untraced in-process run; ``setup_s`` is their median. A
#: set-up takes one to three seconds, long enough for the host's speed to
#: change inside it, which scaling corrects only in part.
SETUP_REPEATS = 5
#: Answers recomputed by a cold reference server per run.
CHECK_ANSWERS = 12
FLEET_WORKERS = 2
#: Fleet starts per untraced run. Each is timed for ``setup_s`` and then
#: serves the measured stream from cold workers. p99 falls among the cold
#: fills, whose level moved by a fifth from one start to the next with the
#: dispatch order: over ten runs of one start each p99 spread by 0.22 of its
#: median, over ten runs of two starts each by 0.10 while the host held its
#: speed (0.08 with the worker compute scaled, see :class:`FleetPhase`).
FLEET_STARTS = 2
#: Wall-clock seconds between two speed-kernel runs in the fleet client.
FLEET_SPEED_EVERY_S = 0.02
#: Queries the fleet client keeps in flight.
FLEET_WINDOW = 4
#: Queries a fleet phase needs before it may stop. The phase starts with
#: cold worker caches, as a fleet does after every start, and about 80
#: answers of its first block are cold fills of 100 to 600 ms. At 3200
#: queries (eight blocks) p99 lands among the denser middle of the fills;
#: at 2000 it sat on their sparse upper edge and moved by a third. A fleet
#: warmed by one untimed block instead put p99 on the edge between two poll
#: steps, where it moved by as much.
FLEET_SAMPLES = 3200
#: Answers in one fleet measurement block.
FLEET_BLOCK = 400
FLEET_START_TIMEOUT_S = 120.0

WORKLOADS = {
    "cold-hubs": ("pubmed", 2.0),
    "live-skewed": ("amazon", 2.5),
    "fleet-skewed": ("amazon", 2.5),
}


@dataclass
class Result:
    """What one run reports."""

    metrics: dict
    attempted: int
    failed: int
    correct: bool
    provenance: dict
    summary: list = field(default_factory=list)


class Phase:
    """One measured phase: its clock, latencies, answers and updates.

    Every time the phase records is read from ``clock``. Time the client
    spends on its own bookkeeping (generating the next update batch,
    walking a trace) runs under :meth:`paused` and is not charged to the
    system.
    """

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.latencies: list[float] = []
        #: The latencies before any scaling.
        self.raw_latencies = self.latencies
        self.answers: list = []
        self.updates: list[tuple[str, float, "dict | None"]] = []
        #: (phase clock, queries answered) at the end of each block.
        self.blocks: list[tuple[float, int]] = []
        self.failed = 0
        #: Seconds measured on ``clock``, and on the wall clock.
        self.measured_s = 0.0
        self.wall_s = 0.0
        self._paused = 0.0
        self._start = clock()
        self._wall_start = perf_counter()

    def elapsed(self) -> float:
        return self.clock() - self._start - self._paused

    @contextmanager
    def paused(self):
        started = self.clock()
        try:
            yield
        finally:
            self._paused += self.clock() - started

    def end_block(self) -> None:
        self.blocks.append((self.elapsed(), len(self.latencies)))

    def stop(self) -> None:
        self.measured_s = self.elapsed()
        self.wall_s = perf_counter() - self._wall_start

    def done(self, seconds: float, samples: int, count: int) -> bool:
        """Whether a time-bounded phase that issued ``count`` queries may stop."""
        if perf_counter() - self._wall_start >= PHASE_CAP_S:
            return True
        return self.elapsed() >= seconds and count >= samples

    @property
    def operations(self) -> int:
        return len(self.answers) + len(self.updates)

    def op_done(self, kind: str) -> None:
        """Called after every timed ``"read"`` and ``"update"``."""

    def sample_speed(self) -> None:
        """Called by the fleet client before each poll."""

    def submitted(self):
        """Called when a fleet query is submitted; handed to :meth:`arrived`."""

    def arrived(self, mark) -> None:
        """Called when the answer to a fleet query arrives."""


class ScaledPhase(Phase):
    """An in-process phase whose times are scaled to the reference host speed.

    The speed kernel runs before the first operation and after every
    operation, outside the measured time. When the phase stops, each
    operation's time is scaled by the host speed around it
    (:meth:`harness.SpeedTrack.scale`), and a block's time is the sum of
    its operations' scaled times. The unscaled latencies stay in
    ``raw_latencies``.
    """

    def __init__(self) -> None:
        super().__init__(clock=IN_PROCESS_CLOCK)
        self.speed = SpeedTrack(IN_PROCESS_CLOCK)
        #: (``"read"`` or ``"update"``, index in its list) of every operation.
        self._ops: list[tuple[str, int]] = []
        #: Operations and reads done at the end of each block.
        self._marks: list[tuple[int, int]] = []
        with self.paused():
            self.speed.sample()

    def op_done(self, kind: str) -> None:
        done = self.latencies if kind == "read" else self.updates
        self._ops.append((kind, len(done) - 1))
        with self.paused():
            self.speed.sample()

    def end_block(self) -> None:
        self._marks.append((len(self._ops), len(self.latencies)))

    def stop(self) -> None:
        super().stop()
        self.raw_latencies = list(self.latencies)
        scaled = []
        for j, (kind, i) in enumerate(self._ops):
            factor = self.speed.scale(j, j + 1)
            if kind == "read":
                self.latencies[i] *= factor
                scaled.append(self.latencies[i])
            else:
                label, seconds, report = self.updates[i]
                self.updates[i] = (label, seconds * factor, report)
                scaled.append(seconds * factor)
        elapsed = np.concatenate([[0.0], np.cumsum(scaled)])
        self.blocks = [(float(elapsed[ops]), reads) for ops, reads in self._marks]
        self.measured_s = float(elapsed[-1])


class Tracer:
    """Per-layer accounting for one traced in-process server."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.profile = AnswerProfile()
        self.update_layers: dict[str, float] = defaultdict(float)
        self._weighted_misses = registry.counter("cache.weighted.misses").value

    def after_answer(self, server: CODServer, query: CODQuery, trace) -> None:
        self.profile.add(trace)
        misses = self.registry.counter("cache.weighted.misses").value
        if misses > self._weighted_misses:
            # The server built g_l for this attribute inside the answer;
            # weighting has no span, so time the same build directly.
            started = perf_counter()
            attribute_weighted_graph(server.graph, query.attribute, server.weighting)
            self.profile.add_weighting(perf_counter() - started)
            self._weighted_misses = misses

    def after_update(self, trace) -> None:
        for layer, seconds in update_layers(trace).items():
            self.update_layers[layer] += seconds


# ---------------------------------------------------------------- serving


def build_server(graph, metrics: "MetricsRegistry | None" = None) -> CODServer:
    """Pool, server and ``warm()``: what ``setup_s`` times in-process."""
    pool = SharedSamplePool(
        graph, theta=THETA, seed=POOL_SEED, per_sample_seeds=True, fast=True
    )
    server = CODServer(
        graph,
        theta=THETA,
        seed=POOL_SEED,
        pool=pool,
        fast_sampling=True,
        metrics=metrics,
    )
    server.warm()
    return server


class FleetPhase(Phase):
    """A fleet phase whose worker compute is scaled to the reference speed.

    An answer's latency is the worker's compute (``ServedAnswer.elapsed``)
    plus admission, queue wait, dispatch, IPC and the poll loop. The
    compute is CPU work, and the cold fills that set the fleet's p99 are
    mostly compute, so it is scaled like an in-process time: by the speed
    kernel, run in this process at most every ``FLEET_SPEED_EVERY_S``
    before a poll, over the runs between the query's submission and its
    answer's arrival. The rest stays on the wall clock, which includes the
    kernel's own runs.
    """

    def __init__(self) -> None:
        super().__init__()
        self.speed = SpeedTrack(IN_PROCESS_CLOCK)
        self.raw_latencies = []
        #: (last kernel run before submission, first after arrival) per answer.
        self._windows: list[tuple[int, int]] = []
        self._sampled_at = self.clock()
        self.speed.sample()

    def sample_speed(self) -> None:
        if self.clock() - self._sampled_at >= FLEET_SPEED_EVERY_S:
            self._sampled_at = self.clock()
            self.speed.sample()

    def submitted(self) -> int:
        return len(self.speed.samples) - 1

    def arrived(self, mark: int) -> None:
        self._windows.append((mark, len(self.speed.samples)))

    def stop(self) -> None:
        """Scale the answers that arrived since the last stop: one phase can
        span several fleet starts."""
        super().stop()
        self.speed.sample()
        start = len(self.raw_latencies)
        self.raw_latencies.extend(self.latencies[start:])
        for i in range(start, len(self.latencies)):
            first, last = self._windows[i]
            self.latencies[i] += self.answers[i].elapsed * (self.speed.scale(first, last) - 1.0)


def timed_setup(speed: SpeedTrack, build, clock=IN_PROCESS_CLOCK):
    """``build()`` timed on ``clock``, and what it built.

    The time is scaled to the reference host speed by the speed kernel's
    median over ``SPEED_WINDOW`` runs on each side of it.
    """
    gc.collect()
    for _ in range(SPEED_WINDOW):
        speed.sample()
    started = clock()
    built = build()
    seconds = clock() - started
    before = len(speed.samples) - 1
    for _ in range(SPEED_WINDOW):
        speed.sample()
    return seconds * speed.scale(before, before + 1), built


def timed_setups(graph) -> "tuple[list[float], CODServer]":
    """Set up ``SETUP_REPEATS`` servers; keep only the last."""
    times: list[float] = []
    speed = SpeedTrack(IN_PROCESS_CLOCK)
    server = None
    for _ in range(SETUP_REPEATS):
        server = None
        seconds, server = timed_setup(speed, lambda: build_server(graph))
        times.append(seconds)
    return times, server


def read(server: CODServer, query: CODQuery, phase: Phase, tracer=None) -> None:
    """One closed-loop query, timed around ``answer()``."""
    trace = QueryTrace() if tracer is not None else None
    started = phase.clock()
    try:
        answer = server.answer(query, trace=trace)
    except Exception:  # noqa: BLE001 — a raised query counts as failed
        phase.failed += 1
        phase.answers.append(None)
        return
    phase.latencies.append(phase.clock() - started)
    phase.op_done("read")
    phase.answers.append(answer)
    if answer.refused:
        phase.failed += 1
    if tracer is not None:
        with phase.paused():
            tracer.after_answer(server, query, trace)


def apply(server: CODServer, batch, phase: Phase, tracer=None) -> None:
    """One update batch, timed around ``apply_updates()``."""
    trace = QueryTrace() if tracer is not None else None
    started = phase.clock()
    try:
        report = server.apply_updates(batch, trace=trace)
    except Exception:  # noqa: BLE001 — a raised update counts as failed
        phase.failed += 1
        report = None
    phase.updates.append((batch.label, phase.clock() - started, report))
    phase.op_done("update")
    if tracer is not None and report is not None:
        with phase.paused():
            tracer.after_update(trace)


def reference_mismatches(graph, answers: list, rng: np.random.Generator) -> "tuple[int, int]":
    """Recompute a seeded subset of ``answers`` on a cold server over ``graph``.

    Returns ``(checked, mismatches)``. Answers that already failed
    (``None`` or refused) were counted where they happened.
    """
    candidates = [a for a in answers if a is not None and not a.refused]
    if not candidates:
        return 0, 0
    picks = rng.choice(len(candidates), size=min(CHECK_ANSWERS, len(candidates)), replace=False)
    reference = build_server(graph)
    mismatches = 0
    for i in sorted(int(p) for p in picks):
        answer = candidates[i]
        mismatches += signature(answer) != signature(reference.answer(answer.query))
    return len(picks), mismatches


def divergent_answers(first: list, second: list) -> int:
    """Positions where two phases serving the same inputs answered differently."""
    return sum(
        a is None or b is None or signature(a) != signature(b)
        for a, b in zip(first, second)
    )


# --------------------------------------------------------------- workloads


def in_process(workload, graph, seed, seconds, traced, serve, check, extra) -> Result:
    """Run an in-process workload untraced, or as two halves when traced.

    ``serve(server, phase, tracer, amount, seconds, samples)`` serves until
    the phase may stop, or exactly ``amount`` units when given, and returns
    ``(amount, log)``: the units it served, which the traced half repeats,
    and the update log that ``check(phase, log)`` replays.
    """
    if not traced:
        setups, server = timed_setups(graph)
        phase = ScaledPhase()
        _, log = serve(server, phase, None, None, seconds, MIN_SAMPLES)
        rss = peak_rss_mb()
        server = None
        checked, mismatches = check(phase, log)
        return _end_to_end(
            workload, graph, seed, setups, phase, rss, checked, mismatches, extra
        )

    server = build_server(graph)
    first = ScaledPhase()
    amount, _ = serve(server, first, None, None, seconds / 2, MIN_SAMPLES // 2)
    server = None
    gc.collect()
    registry = MetricsRegistry()
    server = build_server(graph, metrics=registry)
    tracer = Tracer(registry)
    warm = registry.snapshot()
    second = ScaledPhase()
    _, log = serve(server, second, tracer, amount, seconds, MIN_SAMPLES)
    checked, mismatches = check(second, log)
    mismatches += divergent_answers(first.answers, second.answers)
    return _in_process_layers(
        workload, graph, seed, server, registry, warm, tracer, first, second,
        checked, mismatches, extra,
    )


def cold_hubs(graph, seed: int, seconds: float, traced: bool) -> Result:
    """Distinct (node, attribute) queries: every answer misses every cache."""
    # Every run measures the same ``MIN_SAMPLES`` pairs, drawn once, in
    # blocks of ``COLD_BLOCK`` whose order ``--seed`` rotates. Latency
    # follows the attribute: LORE on one of the three attributes' weighted
    # graphs takes about 24 ms, on the other two about 13 ms. Pairs drawn
    # uniformly put half the queries in each mode and p50 between them,
    # where it moved by a third from run to run; equally many pairs per
    # attribute, interleaved, put p50 inside the faster mode and give every
    # block the same mix.
    rng = np.random.default_rng(HOT_SEED)
    carriers = [
        [(int(v), a) for v in rng.permutation(graph.nodes_with_attribute(a))]
        for a in sorted(graph.attribute_universe)
    ]
    pairs = [pair for group in zip(*carriers) for pair in group]
    offset = COLD_BLOCK * int(np.random.default_rng(seed).integers(MIN_SAMPLES // COLD_BLOCK))
    order = np.concatenate([
        np.roll(np.arange(MIN_SAMPLES), -offset), np.arange(MIN_SAMPLES, len(pairs))
    ])

    def serve(server, phase, tracer, count, seconds_, samples):
        i = 0
        while (i < count) if count is not None else not phase.done(seconds_, samples, i):
            for _ in range(COLD_BLOCK):
                node, attribute = pairs[order[i % len(pairs)]]
                read(server, CODQuery(node, attribute, K), phase, tracer)
                i += 1
            phase.end_block()
        phase.stop()
        return i, None

    def check(phase, log) -> "tuple[int, int]":
        rng = np.random.default_rng(seed + 1)
        return reference_mismatches(graph, phase.answers, rng)

    return in_process(
        "cold-hubs", graph, seed, seconds, traced, serve, check,
        {"distinct_pairs": len(pairs)},
    )


def _hot_set(graph) -> list:
    return hot_queries(graph, HOT_ATTRIBUTES, HOT_PER_ATTRIBUTE, K, HOT_SEED)


def live_skewed(graph, seed: int, seconds: float, traced: bool) -> Result:
    """Zipf reads over a hot set, with an update batch every ``READS_PER_BATCH``."""
    hot = _hot_set(graph)
    protected = [(q.node, q.attribute) for q in hot]
    mix = zipf_mix(len(hot), 40 * MIN_SAMPLES, ZIPF_EXPONENT, ZIPF_CLIENTS, seed + 1, HOT_SEED)

    def serve(server, phase, tracer, pairs, seconds_, samples):
        stream = UpdateStream(graph, HOT_SEED, protected=protected)
        log = UpdateLog()
        i = done_pairs = 0
        while (done_pairs < pairs) if pairs is not None else not phase.done(seconds_, samples, i):
            for kind in ("edge", "attr"):
                for _ in range(READS_PER_BATCH):
                    read(server, hot[mix[i % len(mix)]], phase, tracer)
                    i += 1
                with phase.paused():
                    batch = stream.next_batch(kind)
                    log.append(batch)
                apply(server, batch, phase, tracer)
            phase.end_block()
            done_pairs += 1
        phase.stop()
        return done_pairs, log

    def check(phase, log) -> "tuple[int, int]":
        rng = np.random.default_rng(seed + 3)
        epochs = sorted({a.epoch for a in phase.answers if a is not None})
        if not epochs:
            return 0, 0
        epoch = int(rng.choice(epochs))
        at_epoch = [a for a in phase.answers if a is not None and a.epoch == epoch]
        return reference_mismatches(log.replay(graph, through_epoch=epoch), at_epoch, rng)

    return in_process(
        "live-skewed", graph, seed, seconds, traced, serve, check,
        {
            "hot_queries": len(hot),
            "zipf_exponent": ZIPF_EXPONENT,
            "zipf_clients": ZIPF_CLIENTS,
            "reads_per_batch": READS_PER_BATCH,
        },
    )


def start_fleet(graph, profile: bool = False) -> ServingSupervisor:
    """``start()`` and poll until every worker is idle: fleet ``setup_s``."""
    supervisor = ServingSupervisor(
        graph,
        n_workers=FLEET_WORKERS,
        shared_pool=True,
        pool_seeded=True,
        shard_attributes="auto",
        server_options={"theta": THETA, "seed": POOL_SEED, "fast_sampling": True},
        profile=profile,
    )
    deadline = perf_counter() + FLEET_START_TIMEOUT_S
    try:
        supervisor.start()
        while any(
            worker["state"] != "idle"
            for worker in supervisor.health()["workers"].values()
        ):
            if perf_counter() > deadline:
                raise RuntimeError("fleet workers did not all become idle")
            supervisor.poll(0.005)
    except BaseException:
        supervisor.shutdown()
        raise
    return supervisor


def fleet_serve(supervisor, hot, mix, phase, count=None, seconds=0.0, samples=FLEET_SAMPLES) -> None:
    """Closed loop with ``FLEET_WINDOW`` queries in flight."""
    inflight: dict[int, float] = {}
    i = 0
    submitting = True
    while submitting or inflight:
        while submitting and len(inflight) < FLEET_WINDOW:
            if (i >= count) if count is not None else phase.done(seconds, samples, i):
                submitting = False
                break
            seq = supervisor.submit(hot[mix[i % len(mix)]])
            inflight[seq] = (phase.clock(), phase.submitted())
            i += 1
        if not inflight:
            break
        phase.sample_speed()
        supervisor.poll(0.05)
        for seq in list(inflight):
            answer = supervisor.answer_for(seq)
            if answer is None:
                continue
            started, mark = inflight.pop(seq)
            phase.latencies.append(phase.clock() - started)
            phase.arrived(mark)
            phase.answers.append(answer)
            if len(phase.latencies) % FLEET_BLOCK == 0:
                phase.end_block()
            if answer.refused:
                phase.failed += 1
    phase.stop()


def fleet_mismatches(reference: CODServer, phases, rng) -> "tuple[int, int]":
    """Every fleet answer to a seeded subset of the served queries vs in-process."""
    served = sorted({a.query for phase in phases for a in phase.answers},
                    key=lambda q: (q.node, q.attribute))
    picks = rng.choice(len(served), size=min(CHECK_ANSWERS, len(served)), replace=False)
    expected = {
        served[int(p)]: signature(reference.answer(served[int(p)])) for p in picks
    }
    checked = mismatches = 0
    for phase in phases:
        for answer in phase.answers:
            if answer.query in expected and not answer.refused:
                checked += 1
                mismatches += signature(answer) != expected[answer.query]
    return checked, mismatches


def eval_samples(reference: CODServer, queries) -> dict:
    """RR samples one compressed evaluation reads for each query.

    A fleet worker answers from the same seeded pool as ``reference`` (and
    the correctness check proves the answers identical), so the reference
    server's traced answer gives the samples a worker evaluated; 0 when the
    index lookup answered without local evaluation.
    """
    samples = {}
    for query in queries:
        trace = QueryTrace()
        reference.answer(query, trace=trace)
        profile = AnswerProfile()
        profile.add(trace)
        samples[query] = profile.eval_samples
    return samples


def fleet_skewed(graph, seed: int, seconds: float, traced: bool) -> Result:
    """The ``live-skewed`` read mix, without updates, through a 2-worker fleet."""
    hot = _hot_set(graph)
    # The first block is the same in every run: one pass over the hot set in
    # a fixed order, then a fixed stretch of the Zipf stream. Nearly every
    # answer slower than 100 ms falls in it (cold worker caches, shard
    # publication), so it sets p99; the seeded Zipf stream follows.
    mix = np.concatenate([
        np.arange(len(hot)),
        zipf_mix(len(hot), FLEET_BLOCK - len(hot), ZIPF_EXPONENT, ZIPF_CLIENTS, HOT_SEED, HOT_SEED),
        zipf_mix(len(hot), 20 * FLEET_SAMPLES, ZIPF_EXPONENT, ZIPF_CLIENTS, seed + 1, HOT_SEED),
    ])
    rng = np.random.default_rng(seed + 3)
    extra = {
        "hot_queries": len(hot),
        "zipf_exponent": ZIPF_EXPONENT,
        "zipf_clients": ZIPF_CLIENTS,
        "workers": FLEET_WORKERS,
        "window": FLEET_WINDOW,
    }
    if not traced:
        setups: list[float] = []
        speed = SpeedTrack(IN_PROCESS_CLOCK)
        # One phase spans every start; its clock is paused while a fleet
        # shuts down and the next one starts.
        phase = None
        for _ in range(FLEET_STARTS):
            # The workers build in parallel, so the set-up is timed on the
            # wall clock. Unscaled, a fleet set-up took 2.3 s in one run and
            # 3.7 s in the next; scaled by the kernel in this process, the
            # medians of three ten-run sets fell between 2.40 and 2.55 s.
            with phase.paused() if phase is not None else nullcontext():
                elapsed, supervisor = timed_setup(speed, lambda: start_fleet(graph), perf_counter)
            setups.append(elapsed)
            try:
                phase = phase or FleetPhase()
                fleet_serve(supervisor, hot, mix, phase, seconds=seconds)
                health = supervisor.health()
            finally:
                with phase.paused() if phase is not None else nullcontext():
                    supervisor.shutdown()
            supervisor = None
        rss = peak_rss_mb(children=True)
        checked, mismatches = fleet_mismatches(build_server(graph), [phase], rng)
        result = _end_to_end(
            "fleet-skewed", graph, seed, setups, phase, rss, checked, mismatches,
            extra=extra,
        )
        result.summary += _fleet_lines(phase, health)
        return result

    supervisor = start_fleet(graph)
    try:
        first = Phase()
        fleet_serve(supervisor, hot, mix, first, seconds=seconds / 2, samples=FLEET_SAMPLES // 2)
    finally:
        supervisor.shutdown()
    supervisor = start_fleet(graph, profile=True)
    try:
        second = Phase()
        fleet_serve(supervisor, hot, mix, second, count=len(first.answers))
        health = supervisor.health()
    finally:
        supervisor.shutdown()
    supervisor = None
    registry = MetricsRegistry()
    reference = build_server(graph, metrics=registry)
    reference_warm = registry.snapshot()
    checked, mismatches = fleet_mismatches(reference, [first, second], rng)
    samples = eval_samples(reference, {a.query for a in second.answers})
    return _fleet_layers(
        graph, seed, health, reference_warm, samples, first, second, checked,
        mismatches, extra,
    )


RUNNERS = {
    "cold-hubs": cold_hubs,
    "live-skewed": live_skewed,
    "fleet-skewed": fleet_skewed,
}


def run(workload: str, seed: int, seconds: float, traced: bool) -> Result:
    """Generate the workload's graph (not timed) and run it."""
    dataset, scale = WORKLOADS[workload]
    graph = load_dataset(dataset, scale=scale, seed=DATASET_SEED).graph
    try:
        return RUNNERS[workload](graph, seed, seconds, traced)
    finally:
        # Leave no segment and no helper process behind: shared memory
        # starts multiprocessing's resource tracker, which otherwise
        # outlives this process by a moment.
        close_all_segments()
        tracker = getattr(resource_tracker, "_resource_tracker", None)
        if tracker is not None and hasattr(tracker, "_stop"):
            tracker._stop()


# ------------------------------------------------------------------ results


def _provenance(workload, graph, seed, phase, checked, extra) -> dict:
    dataset, scale = WORKLOADS[workload]
    edge = [u for u in phase.updates if u[0] == "edge"]
    return {
        "machine": machine(),
        "workload": workload,
        "dataset": dataset,
        "scale": scale,
        "dataset_seed": DATASET_SEED,
        "n": graph.n,
        "m": graph.m,
        "theta": THETA,
        "k": K,
        "pool_seed": POOL_SEED,
        "hot_seed": HOT_SEED,
        "seed": seed,
        "queries": len(phase.answers),
        "updates": len(phase.updates),
        "edge_batches": len(edge),
        "attr_batches": len(phase.updates) - len(edge),
        "window": FLEET_WINDOW if workload == "fleet-skewed" else 1,
        "loop": "closed",
        "clock": phase.clock.__name__,
        "scaled": isinstance(phase, (ScaledPhase, FleetPhase)),
        "measured_s": round(phase.measured_s, 3),
        "measured_wall_s": round(phase.wall_s, 3),
        "checked_answers": checked,
        **extra,
    }


def _clock_line(phase: Phase) -> str:
    if not isinstance(phase, (ScaledPhase, FleetPhase)):
        return f"phase: {phase.measured_s:.3f} s on the wall clock, unscaled"
    kernel = phase.speed.samples
    raw = phase.raw_latencies
    return (
        f"host speed: kernel {median(kernel) * 1e3:.3f} ms median over {len(kernel)} runs "
        f"({min(kernel) * 1e3:.3f} to {max(kernel) * 1e3:.3f}), reference "
        f"{REFERENCE_KERNEL_S * 1e3:.3f} ms; unscaled p50 {median(raw) * 1e3:.3f} ms, "
        f"p99 {tail_percentile(raw, 0.99) * 1e3:.3f} ms; phase {phase.measured_s:.3f} s "
        f"measured, {phase.wall_s:.3f} s on the wall clock"
    )


def _update_lines(phase: Phase) -> list:
    lines = []
    edge = [(s, r) for kind, s, r in phase.updates if kind == "edge"]
    if edge:
        lines.append(
            "edge-update ms per structural epoch: "
            + " ".join(f"{s * 1e3:.0f}" for s, _ in edge)
            + " | index: "
            + " ".join((r or {}).get("index", "failed") for _, r in edge)
        )
    return lines


def _counts_line(phase: Phase, mismatches: int) -> str:
    answered = [a for a in phase.answers if a is not None]
    degraded = sum(a.degraded and not a.refused for a in answered)
    failed = phase.failed + mismatches
    return (
        f"operations {phase.operations} (queries {len(phase.answers)}, updates "
        f"{len(phase.updates)}), failed_frac {ratio(failed, phase.operations):.4f}, "
        f"degraded_frac {ratio(degraded, len(answered)):.4f}, "
        f"latency samples {len(phase.latencies)}"
    )


def _end_to_end(workload, graph, seed, setups, phase, rss, checked, mismatches, extra) -> Result:
    latencies = phase.latencies
    rate = block_rate(phase.blocks)
    metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p99_ms": tail_percentile(latencies, 0.99) * 1e3,
        "throughput_qps": rate,
        "peak_rss_mb": rss,
    }
    summary = [
        "setup_s samples: " + " ".join(f"{s:.3f}" for s in setups),
        f"queries/s: {rate:.2f} median over {len(phase.blocks)} blocks, "
        f"{len(phase.latencies) / phase.measured_s:.2f} over the whole phase",
        _clock_line(phase),
        _counts_line(phase, mismatches),
        f"correctness: {checked} answers checked against a cold reference server, "
        f"{mismatches} mismatches",
    ] + _update_lines(phase)
    return Result(
        metrics=metrics,
        attempted=phase.operations,
        failed=phase.failed + mismatches,
        correct=mismatches == 0 and checked > 0,
        provenance=_provenance(workload, graph, seed, phase, checked, extra),
        summary=summary,
    )


def _overhead(first: Phase, second: Phase) -> float:
    """Percent of untraced throughput lost when tracing is on."""
    untraced = len(first.answers) / first.measured_s
    traced = len(second.answers) / second.measured_s
    return (untraced - traced) / untraced * 100.0


def _shares(answer_seconds: float, layers: dict) -> list:
    return [
        f"  {name:<28} {seconds:9.3f} s  {ratio(seconds, answer_seconds) * 100:5.1f}%"
        for name, seconds in layers.items()
    ]


def _in_process_layers(
    workload, graph, seed, server, registry, warm, tracer, first, second,
    checked, mismatches, extra,
) -> Result:
    profile = tracer.profile
    end = registry.snapshot()
    updates = second.updates
    edge = [s for kind, s, _ in updates if kind == "edge"]
    attr = [s for kind, s, _ in updates if kind == "attr"]
    reports = [r for _, _, r in updates if r is not None]
    answered = [a for a in second.answers if a is not None]
    metrics = {
        "weighting.builds": profile.weighting_builds,
        "weighting.seconds": profile.weighting_seconds,
        "cache.weighted.hit_ratio": hit_ratio(end, warm, "weighted"),
        "lore.seconds": profile.seconds.get("lore", 0.0),
        "lore.calls": profile.calls.get("lore", 0),
        "cache.lore.hit_ratio": hit_ratio(end, warm, "lore"),
        "restrict.seconds": profile.seconds.get("restrict", 0.0),
        "restrict.calls": profile.calls.get("restrict", 0),
        "cache.restricted.hit_ratio": hit_ratio(end, warm, "restricted"),
        "shard.hit_ratio": ratio(
            counter_delta(end, warm, "shm.shard.hits"),
            counter_delta(end, warm, "shm.shard.hits") + counter_delta(end, warm, "shm.shard.misses"),
        ),
        "compressed_eval.seconds": profile.seconds.get("compressed_eval", 0.0),
        "compressed_eval.calls": profile.calls.get("compressed_eval", 0),
        "compressed_eval.samples_per_query": ratio(profile.eval_samples, profile.answers),
        "himor_build.seconds": stage_seconds(warm, "himor_build")
        + profile.seconds.get("himor_build", 0.0) + tracer.update_layers.get("himor_build", 0.0),
        "himor_lookup.seconds": profile.seconds.get("himor_lookup", 0.0),
        "himor_lookup.hit_ratio": 1.0 - ratio(profile.local_evaluations, profile.lookups),
        "index.rebuilt": sum(r["index"] == "rebuilt" for r in reports),
        "index.delta_repaired": sum(r["index"] == "repaired" for r in reports),
        "clustering.seconds": stage_seconds(warm, "clustering") + profile.seconds.get("clustering", 0.0),
        "clustering.calls": stage_calls(warm, "clustering") + profile.calls.get("clustering", 0),
        "sampling.seconds": stage_seconds(warm, "sampling") + profile.seconds.get("sampling", 0.0),
        "sampling.samples": int(end["counters"].get("rr.samples", 0)),
        "arena.bytes": server.health()["pool"]["arena_bytes"],
        "apply_updates.seconds": sum(s for _, s, _ in updates),
        "edge_update_p50_ms": median(edge) * 1e3,
        "attr_update_p50_ms": median(attr) * 1e3,
        "arena.repaired_samples": sum(r["repaired_samples"] for r in reports),
        "cache.invalidated_entries": sum(r["cache_invalidated"] for r in reports),
        "answer.seconds": profile.answer_seconds,
        "answer.unattributed_seconds": profile.unattributed_seconds,
        # No fleet runs in-process: no supervisor, worker or segment did work.
        **{name: 0 for name in FLEET_ONLY},
        "trace.overhead_pct": _overhead(first, second),
        "degraded_frac": ratio(sum(a.degraded and not a.refused for a in answered), len(answered)),
        "failed_frac": ratio(second.failed + mismatches, second.operations),
    }
    layers = {
        "weighting (timed directly)": profile.weighting_seconds,
        **{f"{name}": profile.seconds[name] for name in sorted(profile.seconds)},
        "answer.unattributed": profile.unattributed_seconds,
    }
    total = sum(layers.values())
    residual = profile.weighting_seconds + profile.unattributed_seconds
    summary = [
        f"answer.seconds {profile.answer_seconds:.3f} s over {profile.answers} traced answers:",
        *_shares(profile.answer_seconds, layers),
        f"decomposition: layers + weighting + unattributed = {total:.6f} s, "
        f"answer.seconds = {profile.answer_seconds:.6f} s",
        f"finding: weighting is {ratio(profile.weighting_seconds, residual) * 100:.1f}% of "
        f"the {residual:.3f} s of answer time no span covers "
        f"({profile.weighting_builds} builds)",
        f"tracing overhead: {metrics['trace.overhead_pct']:.1f}% of untraced throughput "
        f"({len(first.answers)} queries each half)",
        _counts_line(second, mismatches),
        f"correctness: {checked} answers recomputed by a cold reference; traced and "
        f"untraced halves compared answer by answer; {mismatches} mismatches",
    ] + _update_lines(second)
    if tracer.update_layers:
        summary.append(
            "inside apply_updates: "
            + ", ".join(f"{k} {v:.3f} s" for k, v in sorted(tracer.update_layers.items()))
            + f" of {metrics['apply_updates.seconds']:.3f} s"
        )
    return Result(
        metrics=metrics,
        attempted=first.operations + second.operations,
        failed=first.failed + second.failed + mismatches,
        correct=mismatches == 0 and checked > 0,
        provenance=_provenance(workload, graph, seed, second, checked, extra),
        summary=summary,
    )


def _fleet_split(phase: Phase) -> "tuple[list[float], list[float]]":
    compute = [a.elapsed for a in phase.answers]
    overhead = [lat - c for lat, c in zip(phase.raw_latencies, compute)]
    return compute, overhead


def _fleet_lines(phase: Phase, health: dict) -> list:
    compute, overhead = _fleet_split(phase)
    raw = phase.raw_latencies
    n = len(raw)
    return [
        f"finding: fleet p50 {median(raw) * 1e3:.2f} ms unscaled; overhead p50 "
        f"{median(overhead) * 1e3:.2f} ms against worker compute p50 "
        f"{median(compute) * 1e3:.2f} ms",
        f"mean unscaled latency {sum(raw) / n * 1e3:.3f} ms = mean overhead "
        f"{sum(overhead) / n * 1e3:.3f} ms + mean compute {sum(compute) / n * 1e3:.3f} ms",
        f"affinity {json.dumps({k: health['affinity'][k] for k in ('hits', 'misses', 'shard_hits', 'shard_misses')})}",
    ]


#: Per-layer metrics of the fleet's own layers.
FLEET_ONLY = (
    "fleet.overhead_p50_ms",
    "fleet.overhead_p99_ms",
    "fleet.worker_compute_p50_ms",
    "fleet.worker_busy_frac",
    "affinity.hit_ratio",
    "affinity.shard_hit_ratio",
    "shm.segment_bytes",
    "shm.attaches",
    "shm.shard.publishes",
)
#: Per-layer metrics of the update path, which runs only on ``live-skewed``.
UPDATE_ONLY = (
    "index.rebuilt",
    "index.delta_repaired",
    "apply_updates.seconds",
    "edge_update_p50_ms",
    "attr_update_p50_ms",
    "arena.repaired_samples",
    "cache.invalidated_entries",
)


def _fleet_layers(
    graph, seed, health, reference_warm, samples, first, second, checked,
    mismatches, extra,
) -> Result:
    fleet = health["fleet_metrics"]
    empty = {"counters": {}, "histograms": {}}
    compute, overhead = _fleet_split(second)
    builds = int(fleet["counters"].get("cache.weighted.misses", 0))
    served = sorted({a.query.attribute for a in second.answers})
    per_attribute = []
    for attribute in served:
        started = perf_counter()
        attribute_weighted_graph(graph, attribute)
        per_attribute.append(perf_counter() - started)
    weighting = builds * sum(per_attribute) / len(per_attribute)
    answer_layers = {
        "lore": stage_seconds(fleet, "lore"),
        "himor_lookup": stage_seconds(fleet, "himor_lookup"),
        "restrict": stage_seconds(fleet, "pool_restrict"),
        "compressed_eval": stage_seconds(fleet, "compressed_eval"),
    }
    answer_seconds = stage_seconds(fleet, "answer")
    unattributed = answer_seconds - sum(answer_layers.values()) - weighting
    affinity, shm = health["affinity"], health["shm"]
    lookups = stage_calls(fleet, "himor_lookup")
    wall = second.measured_s
    answered = [a for a in second.answers if not a.refused]
    evaluated = sum(samples[a.query] > 0 for a in answered)
    metrics = {
        "weighting.builds": builds,
        "weighting.seconds": weighting,
        "cache.weighted.hit_ratio": hit_ratio(fleet, empty, "weighted"),
        "lore.seconds": answer_layers["lore"],
        "lore.calls": stage_calls(fleet, "lore"),
        "cache.lore.hit_ratio": hit_ratio(fleet, empty, "lore"),
        "restrict.seconds": answer_layers["restrict"],
        "restrict.calls": stage_calls(fleet, "pool_restrict"),
        "cache.restricted.hit_ratio": hit_ratio(fleet, empty, "restricted"),
        "shard.hit_ratio": ratio(
            fleet["counters"].get("shm.shard.hits", 0),
            fleet["counters"].get("shm.shard.hits", 0)
            + fleet["counters"].get("shm.shard.misses", 0),
        ),
        "compressed_eval.seconds": answer_layers["compressed_eval"],
        "compressed_eval.calls": stage_calls(fleet, "compressed_eval"),
        "compressed_eval.samples_per_query": ratio(
            sum(samples[a.query] for a in answered), len(answered)
        ),
        "himor_build.seconds": stage_seconds(fleet, "himor_build"),
        "himor_lookup.seconds": answer_layers["himor_lookup"],
        "himor_lookup.hit_ratio": 1.0 - ratio(stage_calls(fleet, "compressed_eval"), lookups),
        "clustering.seconds": stage_seconds(fleet, "clustering"),
        "clustering.calls": stage_calls(fleet, "clustering"),
        "sampling.seconds": stage_seconds(reference_warm, "sampling"),
        "sampling.samples": int(reference_warm["counters"].get("rr.samples", 0)),
        "arena.bytes": shm["segments"].get("arena", {}).get("bytes", 0),
        # No updates run on the fleet.
        **{name: 0 for name in UPDATE_ONLY},
        "answer.seconds": answer_seconds,
        "answer.unattributed_seconds": unattributed,
        "fleet.overhead_p50_ms": median(overhead) * 1e3,
        "fleet.overhead_p99_ms": tail_percentile(overhead, 0.99) * 1e3,
        "fleet.worker_compute_p50_ms": median(compute) * 1e3,
        "fleet.worker_busy_frac": sum(compute) / (wall * FLEET_WORKERS),
        "affinity.hit_ratio": ratio(affinity["hits"], affinity["hits"] + affinity["misses"]),
        "affinity.shard_hit_ratio": ratio(
            affinity["shard_hits"], affinity["shard_hits"] + affinity["shard_misses"]
        ),
        "shm.segment_bytes": shm["segment_bytes"] + shm["shards"]["bytes"],
        "shm.attaches": shm["attaches"],
        "shm.shard.publishes": shm["shards"]["publishes"],
        "trace.overhead_pct": _overhead(first, second),
        "degraded_frac": ratio(sum(a.degraded for a in answered), len(answered)),
        "failed_frac": ratio(second.failed + mismatches, second.operations),
    }
    layers = {
        "weighting (estimated)": weighting,
        **answer_layers,
        "answer.unattributed": unattributed,
    }
    summary = [
        f"answer.seconds {answer_seconds:.3f} s across workers "
        f"({stage_calls(fleet, 'answer')} answers):",
        *_shares(answer_seconds, layers),
        f"decomposition: layers + weighting + unattributed = {sum(layers.values()):.6f} s, "
        f"answer.seconds = {answer_seconds:.6f} s",
        f"weighting: {builds} builds x {sum(per_attribute) / len(per_attribute) * 1e3:.1f} ms "
        f"mean per attribute, timed directly on {len(served)} attributes",
        f"samples per query from the reference server's traced answers: "
        f"{metrics['compressed_eval.samples_per_query']:.1f}; {evaluated} answers "
        f"need a local evaluation, the workers counted "
        f"{metrics['compressed_eval.calls']} compressed evaluations",
        *_fleet_lines(second, health),
        f"tracing overhead: {metrics['trace.overhead_pct']:.1f}% of untraced throughput "
        f"({len(first.answers)} queries each half)",
        _counts_line(second, mismatches),
        f"correctness: {checked} fleet answers compared with in-process answers; "
        f"{mismatches} mismatches",
    ]
    return Result(
        metrics=metrics,
        attempted=first.operations + second.operations,
        failed=first.failed + second.failed + mismatches,
        correct=mismatches == 0 and checked > 0,
        provenance=_provenance("fleet-skewed", graph, seed, second, checked, extra),
        summary=summary,
    )
