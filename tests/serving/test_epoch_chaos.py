"""Epoch chaos drill: streaming updates under kill/wedge/corrupt chaos.

The tentpole acceptance scenario: 200 queries interleaved with 20
update batches through a pooled-seeded two-worker fleet, with scheduled
worker kills, wedges, and a corrupted HIMOR build checkpoint, asserting

* every admitted query receives **exactly one** terminal answer, stamped
  with **exactly one** epoch (the graph version it was computed
  against);
* per epoch, every answer is **bit-identical** to a from-scratch oracle:
  a fresh pooled-seeded server built on that epoch's graph (recovered by
  replaying the update log) — crashed workers respawn into the current
  epoch without double-applying or losing batches;
* repair was **incremental**: per-epoch repaired-sample counts stay
  strictly below the pool size for localized updates (the oracle
  equality is what proves the repaired state equals fresh sampling);
* after every batch, the HIMOR index each worker serves (and persists,
  so a respawned worker would load it) holds the buckets and ranks of a
  fresh build over that epoch's graph.

These tests spawn real child processes and take a few seconds; they run
in the dedicated epoch-chaos step of CI.
"""

import numpy as np
import pytest

from repro.core.himor import HimorIndex
from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.dynamic import AttrUpdate, EdgeUpdate, UpdateBatch, UpdateLog
from repro.serving import BackoffPolicy, ChaosSchedule, ServingSupervisor
from repro.serving.server import CODServer
from repro.serving.supervisor import W_STARTING
from repro.utils.faults import corrupt_file, inject

from tests.oracle.reference import charge_buckets

DB = 0
THETA = 3
SEED = 11
EXTRA_ATTR = 7  # never queried, so attr flips cannot invalidate queries

N_QUERIES = 200
N_BATCHES = 20
UPDATE_EVERY = 10  # one batch before queries 5, 15, ..., 195


def make_queries(n: int) -> list[CODQuery]:
    return [CODQuery(i % 10, DB if i % 3 else None, 3) for i in range(n)]


def make_batches(graph) -> list[UpdateBatch]:
    """20 query-safe batches: toggle extra edges/attrs on, then off.

    Batch ``2j`` inserts a non-edge and grants node ``j`` an unqueried
    attribute; batch ``2j + 1`` reverts both — every batch is valid at
    its application point, touches two nodes, and never disturbs an edge
    or attribute the workload depends on.
    """
    non_edges = [
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if not graph.has_edge(u, v)
    ]
    batches = []
    for j in range(N_BATCHES // 2):
        u, v = non_edges[j]
        batches.append(UpdateBatch(
            updates=(EdgeUpdate(u, v, add=True),
                     AttrUpdate(j, EXTRA_ATTR, add=True)),
            label=f"grow-{j}",
        ))
        batches.append(UpdateBatch(
            updates=(EdgeUpdate(u, v, add=False),
                     AttrUpdate(j, EXTRA_ATTR, add=False)),
            label=f"shrink-{j}",
        ))
    return batches


def oracle_server(graph) -> CODServer:
    """A from-scratch pooled-seeded server on one epoch's graph."""
    pool = SharedSamplePool(graph, theta=THETA, seed=SEED,
                            per_sample_seeds=True)
    return CODServer(graph, theta=THETA, seed=SEED, pool=pool)


def assert_indexes_match_rebuild(index_dir, graph, n_workers: int) -> None:
    """Each worker's persisted HIMOR index equals a fresh build's."""
    fresh = oracle_server(graph).index
    for worker in range(n_workers):
        served = HimorIndex.load(index_dir / f"worker{worker}.himor.json")
        assert np.array_equal(served.hierarchy.parents, fresh.hierarchy.parents)
        assert charge_buckets(served._charges, graph.n) == charge_buckets(
            fresh._charges, graph.n
        )
        for v in range(graph.n):
            assert np.array_equal(served.ranks_of(v), fresh.ranks_of(v)), v


def interrupt_warm(graph, index_dir, name: str, *, after: int) -> None:
    """Leave a genuine mid-build checkpoint behind for ``name``.

    Uses the same pooled-seeded configuration as the fleet's workers so
    the checkpoint fingerprint matches and resume is actually exercised.
    """
    server = CODServer(
        graph, theta=THETA, seed=SEED,
        pool=SharedSamplePool(graph, theta=THETA, seed=SEED,
                              per_sample_seeds=True),
        index_path=index_dir / name, checkpoint_every=4,
    )
    with inject(site="himor_sample", after=after, exc=RuntimeError):
        with pytest.raises(RuntimeError):
            server.warm()
    assert (index_dir / f"{name}.ckpt").exists()


class TestEpochChaosDrill:
    def test_updates_interleaved_with_chaos_match_rebuild_oracle(
        self, paper_graph, tmp_path
    ):
        # Both workers start with a real mid-build checkpoint; worker 1's
        # is corrupted, so one must resume and one must rebuild — on top
        # of the kills and wedges below.
        interrupt_warm(paper_graph, tmp_path, "worker0.himor.json", after=13)
        interrupt_warm(paper_graph, tmp_path, "worker1.himor.json", after=13)
        corrupt_file(tmp_path / "worker1.himor.json.ckpt", mode="truncate")

        queries = make_queries(N_QUERIES)
        batches = make_batches(paper_graph)
        schedule = ChaosSchedule.parse(
            "kill@10,wedge@45,kill@80,kill@120,wedge@160"
        )
        log = UpdateLog()

        supervisor = ServingSupervisor(
            paper_graph,
            n_workers=2,
            pool_seeded=True,
            queue_capacity=N_QUERIES + 8,  # admit everything: the drill
            task_timeout_s=1.0,            # tests recovery, not shedding
            heartbeat_timeout_s=15.0,
            start_timeout_s=120.0,
            restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0, cap_s=0.1,
                                          jitter=0.0),
            max_restarts=20,
            index_dir=tmp_path,
            checkpoint_every=4,
            warm_index=True,
            chaos=schedule,
            wedge_s=120.0,
            server_options={"theta": THETA, "seed": SEED},
        )
        with supervisor:
            # Directives jump straight onto worker FIFO queues while
            # queries sit in the admission queue, so genuine interleaving
            # needs pacing: each batch goes in once most of the previous
            # round's queries have resolved — leaving a few in flight
            # across every epoch boundary to exercise the safe point.
            import time as _time

            qi = 0
            for batch in batches:
                for _ in range(UPDATE_EVERY):
                    supervisor.submit(queries[qi])
                    qi += 1
                    supervisor.poll(0.0)
                deadline = _time.monotonic() + 120.0
                while (supervisor.outstanding > 4
                       and _time.monotonic() < deadline):
                    supervisor.poll(0.05)
                epoch = supervisor.submit_updates(batch, label=batch.label)
                assert epoch == log.append(batch)
                # Every worker applied the batch (or respawned warm into
                # its epoch) and persisted the index it now serves.
                while _time.monotonic() < deadline and any(
                    slot.epoch != epoch or slot.state == W_STARTING
                    for slot in supervisor._slots
                ):
                    supervisor.poll(0.05)
                assert_indexes_match_rebuild(
                    tmp_path, log.replay(paper_graph, through_epoch=epoch), 2
                )
            assert qi == N_QUERIES
            assert log.epoch == N_BATCHES
            supervisor.drain(timeout_s=300.0)
            # Trailing batches have no queries behind them: keep reaping
            # events until every worker acks the final epoch.
            deadline = _time.monotonic() + 60.0
            while (_time.monotonic() < deadline and any(
                slot.epoch != N_BATCHES for slot in supervisor._slots
            )):
                supervisor.poll(0.05)
        health = supervisor.health()

        # --- exactly one terminal answer per admitted query ---
        answers = [supervisor.answer_for(seq) for seq in range(N_QUERIES)]
        assert all(answer is not None for answer in answers)
        assert supervisor.outstanding == 0
        assert health["completed"] == N_QUERIES
        assert health["admitted"] == N_QUERIES
        assert health["refused"] == 0

        # --- every scheduled fault fired; the fleet recovered ---
        assert health["chaos_fired"] == {10: "kill", 45: "wedge", 80: "kill",
                                         120: "kill", 160: "wedge"}
        assert health["wedge_kills"] == 2
        assert health["restarts"] >= 5

        # --- every answer stamped with exactly one valid epoch ---
        for answer in answers:
            assert isinstance(answer.epoch, int), answer
            assert 0 <= answer.epoch <= N_BATCHES, answer.epoch
        observed = sorted({answer.epoch for answer in answers})
        # The workload genuinely spans the update stream.
        assert len(observed) >= 5, observed
        assert health["updates"]["batches_submitted"] == N_BATCHES
        assert health["epoch"] == N_BATCHES
        for info in health["workers"].values():
            assert info["epoch"] == N_BATCHES

        # --- per-epoch answers are bit-identical to a rebuild oracle ---
        for epoch in observed:
            oracle = oracle_server(log.replay(paper_graph,
                                              through_epoch=epoch))
            for query, answer in zip(queries, answers):
                if answer.epoch != epoch:
                    continue
                expected = oracle.answer(query)
                if expected.members is None:
                    assert answer.members is None, (epoch, query)
                else:
                    assert np.array_equal(answer.members, expected.members), (
                        epoch, query, answer.members, expected.members,
                    )

        # --- repair was incremental, not rebuild-from-scratch ---
        pool_samples = THETA * paper_graph.n
        per_epoch = health["updates"]["per_epoch"]
        assert per_epoch, "no worker ever applied a directive"
        repaired_total = 0
        for epoch, report in per_epoch.items():
            # Each batch touches two nodes: strictly fewer samples than
            # the whole pool get redrawn on every applying worker.
            assert report["repaired_samples"] < (
                report["workers_applied"] * pool_samples
            ), (epoch, report)
            repaired_total += report["repaired_samples"]
        assert repaired_total > 0

    def test_kill_during_update_apply_respawns_into_current_epoch(
        self, paper_graph
    ):
        # A worker killed *between* epochs must respawn with the
        # supervisor's post-update graph and epoch — no double-apply, no
        # stale-epoch answers — and its later answers must match the
        # rebuild oracle for the epoch they are stamped with.
        supervisor = ServingSupervisor(
            paper_graph,
            n_workers=1,
            pool_seeded=True,
            task_timeout_s=30.0,
            heartbeat_timeout_s=30.0,
            start_timeout_s=120.0,
            restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0, cap_s=0.1,
                                          jitter=0.0),
            max_restarts=5,
            chaos=ChaosSchedule.parse("kill@2"),
            server_options={"theta": THETA, "seed": SEED},
        )
        log = UpdateLog()
        queries = make_queries(8)
        batch = make_batches(paper_graph)[0]
        with supervisor:
            for i, query in enumerate(queries):
                if i == 4:
                    supervisor.submit_updates(batch)
                    log.append(batch)
                supervisor.submit(query)
                supervisor.poll(0.0)
            supervisor.drain(timeout_s=120.0)
        health = supervisor.health()

        answers = [supervisor.answer_for(seq) for seq in range(len(queries))]
        assert all(a is not None and not a.refused for a in answers)
        assert health["restarts"] >= 1
        assert health["chaos_fired"] == {2: "kill"}
        assert {a.epoch for a in answers} <= {0, 1}
        assert any(a.epoch == 1 for a in answers)
        oracles = {
            epoch: oracle_server(log.replay(paper_graph, through_epoch=epoch))
            for epoch in {a.epoch for a in answers}
        }
        for query, answer in zip(queries, answers):
            expected = oracles[answer.epoch].answer(query)
            if expected.members is None:
                assert answer.members is None
            else:
                assert np.array_equal(answer.members, expected.members)
