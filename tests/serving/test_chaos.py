"""Scripted chaos drills for the supervised serving fleet.

The acceptance scenario from the issue: a 200-query run through a
supervised fleet with five scheduled worker kills/wedges plus a corrupted
HIMOR build checkpoint, asserting that

* every admitted query receives **exactly one** terminal answer — none
  lost, none duplicated, and
* a HIMOR build resumed from a mid-build checkpoint produces **the same
  ranks** as an uninterrupted build on the same seed (including when a
  sibling worker's checkpoint was corrupted).

These tests spawn real child processes and take a few seconds; they run
in the dedicated chaos step of CI.
"""

import time

import numpy as np
import pytest

from repro.core.problem import CODQuery
from repro.serving import BackoffPolicy, ChaosSchedule, ServingSupervisor
from repro.serving.server import CODServer
from repro.serving.supervisor import W_RESTARTING, W_STARTING
from repro.utils.faults import corrupt_file, inject

DB = 0
THETA = 3
SEED = 11


def make_queries(n: int) -> list[CODQuery]:
    return [CODQuery(i % 10, DB if i % 3 else None, 3) for i in range(n)]


def interrupt_warm(graph, index_dir, name: str, *, after: int) -> None:
    """Leave a genuine mid-build checkpoint behind for ``name``.

    Runs a server warm-up that dies ``after`` samples into the HIMOR
    build, exactly as a killed worker would, so the supervisor's workers
    find a real partial build on disk.
    """
    server = CODServer(graph, theta=THETA, seed=SEED,
                       index_path=index_dir / name, checkpoint_every=4)
    with inject(site="himor_sample", after=after, exc=RuntimeError):
        with pytest.raises(RuntimeError):
            server.warm()
    assert (index_dir / f"{name}.ckpt").exists()


class TestAcceptanceDrill:
    def test_200_queries_with_kills_wedges_and_corrupt_checkpoint(
        self, paper_graph, tmp_path
    ):
        # Both workers start with a real mid-build checkpoint on disk;
        # worker 1's is then corrupted. Worker 0 must resume, worker 1
        # must discard and rebuild — and both must end with correct
        # indexes (verified against an uninterrupted reference build).
        interrupt_warm(paper_graph, tmp_path, "worker0.himor.json", after=13)
        interrupt_warm(paper_graph, tmp_path, "worker1.himor.json", after=13)
        corrupt_file(tmp_path / "worker1.himor.json.ckpt", mode="truncate")

        n_queries = 200
        schedule = ChaosSchedule.parse(
            "kill@10,wedge@45,kill@80,kill@120,wedge@160"
        )
        assert len(schedule) == 5
        supervisor = ServingSupervisor(
            paper_graph,
            n_workers=2,
            queue_capacity=n_queries + 8,  # admit everything: the drill
            task_timeout_s=1.0,            # tests crash recovery, not shedding
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
            answers = supervisor.serve(make_queries(n_queries),
                                       drain_timeout_s=300.0)
        health = supervisor.health()

        # --- exactly-one terminal answer per admitted query ---
        assert len(answers) == n_queries
        assert all(a is not None for a in answers)
        assert supervisor.outstanding == 0
        per_seq = [supervisor.answer_for(seq) for seq in range(n_queries)]
        assert all(answer is not None for answer in per_seq)
        # The supervisor's exactly-once bookkeeping dropped any late
        # duplicates rather than delivering them.
        assert health["completed"] == n_queries
        assert health["admitted"] == n_queries

        # --- every scheduled fault actually fired ---
        assert health["chaos_fired"] == {10: "kill", 45: "wedge", 80: "kill",
                                         120: "kill", 160: "wedge"}
        assert health["wedge_kills"] == 2
        assert health["restarts"] >= 5

        # --- nothing was lost: the five disrupted queries still resolved ---
        for seq in (10, 45, 80, 120, 160):
            answer = supervisor.answer_for(seq)
            assert answer is not None
            # Requeue-once guarantees the clean retry answers these.
            assert not answer.refused, (seq, answer.notes)

        # --- all the rest answered normally ---
        assert health["refused"] == 0
        assert health["refused_crash"] == 0
        assert health["refused_overload"] == 0

        # --- checkpoint recovery: resume-equals-fresh ---
        reference = CODServer(paper_graph, theta=THETA, seed=SEED)
        reference.warm()
        reference_index = reference._index
        for name in ("worker0.himor.json", "worker1.himor.json"):
            from repro.core.himor import HimorIndex

            rebuilt = HimorIndex.load(tmp_path / name)
            for v in range(paper_graph.n):
                assert np.array_equal(rebuilt.ranks_of(v),
                                      reference_index.ranks_of(v)), (name, v)
            # Completed builds clean their checkpoints up.
            assert not (tmp_path / f"{name}.ckpt").exists()

        # Worker 0's intact checkpoint was actually *resumed*, worker 1's
        # corrupted one was discarded — visible in the propagated health
        # (accumulated across incarnations: a later restart loads the
        # persisted index and would otherwise erase the evidence).
        assert health["resumed_builds"] >= 1
        assert health["resumed_builds"] < 2 + health["restarts"]


class TestWorkerBuildCrash:
    def test_kill_at_sample_k_resumes_on_restart(self, paper_graph, tmp_path):
        # The worker's first incarnation dies mid-index-build (kill at
        # sample 16); the respawned incarnation must resume the build from
        # the checkpoint and then serve correctly.
        supervisor = ServingSupervisor(
            paper_graph,
            n_workers=1,
            task_timeout_s=5.0,
            heartbeat_timeout_s=15.0,
            start_timeout_s=120.0,
            restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0, cap_s=0.1,
                                          jitter=0.0),
            max_restarts=5,
            index_dir=tmp_path,
            checkpoint_every=4,
            warm_index=True,
            worker_fault_specs=[{"site": "himor_sample", "after": 16,
                                 "count": 1, "action": "kill"}],
            server_options={"theta": THETA, "seed": SEED},
        )
        with supervisor:
            answers = supervisor.serve(make_queries(6), drain_timeout_s=120.0)
        assert not any(a.refused for a in answers)
        health = supervisor.health()
        assert health["restarts"] >= 1
        # The respawned worker resumed rather than rebuilding from zero.
        worker_health = health["workers"]["0"]["health"]
        assert worker_health is not None
        assert worker_health["index_builds_resumed"] == 1

        # And the persisted index matches an uninterrupted build.
        from repro.core.himor import HimorIndex

        reference = CODServer(paper_graph, theta=THETA, seed=SEED)
        reference.warm()
        persisted = HimorIndex.load(tmp_path / "worker0.himor.json")
        for v in range(paper_graph.n):
            assert np.array_equal(persisted.ranks_of(v),
                                  reference._index.ranks_of(v))


class TestHeartbeatChaos:
    def test_wedged_heartbeat_triggers_respawn(self, paper_graph):
        # The heartbeat thread itself wedges: the worker process stays
        # alive (results would still flow), but once it sits idle with a
        # stale beat the supervisor must declare it sick and replace it.
        import time

        supervisor = ServingSupervisor(
            paper_graph,
            n_workers=1,
            warm_index=False,
            task_timeout_s=30.0,
            heartbeat_timeout_s=0.5,
            start_timeout_s=60.0,
            restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0, cap_s=0.1,
                                          jitter=0.0),
            max_restarts=5,
            worker_fault_specs=[{"site": "worker_heartbeat", "after": 3,
                                 "count": 1, "action": "wedge",
                                 "delay_s": 60.0}],
            server_options={"theta": THETA, "seed": SEED},
        )
        with supervisor:
            first = supervisor.serve(make_queries(3), drain_timeout_s=60.0)
            # The worker idles here with its heartbeat thread wedged; the
            # next serving round must notice the stale beat and respawn.
            time.sleep(1.0)
            second = supervisor.serve(make_queries(3), drain_timeout_s=60.0)
        assert all(a is not None for a in first + second)
        health = supervisor.health()
        assert health["heartbeat_kills"] >= 1
        assert health["restarts"] >= 1
        # Exactly-once still holds across the sick-worker replacement.
        assert health["completed"] == 6


class TestSharedPoolChaos:
    def test_sigkill_respawn_reattaches_and_strands_no_segments(
        self, paper_graph
    ):
        """SIGKILL respawn drill for the zero-copy fleet.

        A worker killed mid-serve dies without any shm cleanup. The
        invariants: its replacement attaches the supervisor's segments
        (not a private resample), every respawn runs a stale-segment
        sweep, the workload still gets exactly-once answers bit-identical
        to an undisturbed fleet, and shutdown leaves /dev/shm empty of
        this fleet's segments.
        """
        import os

        from repro.utils.shm import list_segments, segment_exists

        n_queries = 24
        schedule = ChaosSchedule.parse("kill@3,kill@11")
        supervisor = ServingSupervisor(
            paper_graph,
            n_workers=2,
            queue_capacity=n_queries + 8,
            task_timeout_s=2.0,
            heartbeat_timeout_s=15.0,
            start_timeout_s=120.0,
            restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0, cap_s=0.1,
                                          jitter=0.0),
            max_restarts=20,
            warm_index=False,
            shared_pool=True,
            pool_seeded=True,
            chaos=schedule,
            server_options={"theta": THETA, "seed": SEED},
        )
        with supervisor:
            answers = supervisor.serve(make_queries(n_queries),
                                       drain_timeout_s=300.0)
            # A death counts its restart at once, but the slot sweeps when
            # it respawns and its attaches count when the new incarnation
            # reports ready: read the counters once every slot is back.
            deadline = time.monotonic() + 30.0
            while any(
                worker["state"] in (W_RESTARTING, W_STARTING)
                for worker in supervisor.health()["workers"].values()
            ):
                assert time.monotonic() < deadline, "a killed worker never came back"
                supervisor.poll()
            health = supervisor.health()
            published = [
                block["name"]
                for block in health["shm"]["segments"].values()
            ]

        assert len(answers) == n_queries
        assert health["chaos_fired"] == {3: "kill", 11: "kill"}
        assert health["restarts"] >= 2
        # Each respawned incarnation re-attached graph + arena: strictly
        # more attaches than the initial 2 workers x 2 segments...
        assert health["shm"]["attaches"] > 4
        # ...and each respawn swept for dead-owner segments (plus the one
        # sweep at start).
        assert health["shm"]["sweeps"] >= 1 + health["restarts"]

        # Exactly-once with answers identical to an undisturbed fleet.
        with ServingSupervisor(
            paper_graph, n_workers=2, warm_index=False,
            shared_pool=True, pool_seeded=True,
            task_timeout_s=5.0, heartbeat_timeout_s=15.0,
            start_timeout_s=120.0,
            restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0,
                                          cap_s=0.1, jitter=0.0),
            server_options={"theta": THETA, "seed": SEED},
        ) as undisturbed:
            reference = undisturbed.serve(make_queries(n_queries),
                                          drain_timeout_s=300.0)
        for chaotic, clean in zip(answers, reference):
            assert (chaotic.members is None) == (clean.members is None)
            if chaotic.members is not None:
                assert np.array_equal(chaotic.members, clean.members)

        # No segment survived shutdown — neither the published pair nor
        # anything else this process owns.
        assert not any(segment_exists(name) for name in published)
        leaked = [
            entry["name"]
            for entry in list_segments()
            if entry["owner_pid"] == os.getpid()
        ]
        assert leaked == []

    def test_shard_dispatch_survives_kills_and_rotations(self, paper_graph):
        """Shard-affinity drill: kills + epoch rotations, no stale shards.

        The workload is hot enough that the supervisor publishes
        restricted shards and routes queries to them. Mid-workload a
        worker is SIGKILLed (its claims and shard routes must move to the
        survivor, the respawn must re-adopt the manifest), then a
        structural update rotates every shard to a new epoch. Invariants:
        exactly-once answers bit-identical to an undisturbed unsharded
        fleet across both epochs, zero shard rejects (nobody ever served
        a stale shard — epoch + allowed_sha verification would refuse
        it), old-epoch shard segments unlinked by the rotation, and
        nothing left in /dev/shm after shutdown.
        """
        import os

        from repro.dynamic.updates import EdgeUpdate
        from repro.utils.shm import list_segments, segment_exists

        n_queries = 24
        updates = [EdgeUpdate(0, 7, add=True)]

        def run(shard_attributes, chaos):
            supervisor = ServingSupervisor(
                paper_graph,
                n_workers=2,
                queue_capacity=n_queries + 8,
                task_timeout_s=2.0,
                heartbeat_timeout_s=15.0,
                start_timeout_s=120.0,
                restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0,
                                              cap_s=0.1, jitter=0.0),
                max_restarts=20,
                warm_index=False,
                shared_pool=True,
                pool_seeded=True,
                shard_attributes=shard_attributes,
                shard_hot_threshold=2,
                chaos=chaos,
                server_options={"theta": THETA, "seed": SEED},
            )
            with supervisor:
                first = supervisor.serve(make_queries(n_queries),
                                         drain_timeout_s=300.0)
                epoch0 = supervisor.health()
                supervisor.submit_updates(updates)
                second = supervisor.serve(make_queries(n_queries),
                                          drain_timeout_s=300.0)
                health = supervisor.health()
            return first + second, epoch0, health

        answers, epoch0, health = run(
            "auto", ChaosSchedule.parse("kill@3,kill@30")
        )
        reference, _, _ = run(None, None)

        assert len(answers) == 2 * n_queries
        assert health["chaos_fired"] == {3: "kill", 30: "kill"}
        assert health["restarts"] >= 2
        for chaotic, clean in zip(answers, reference):
            assert (chaotic.members is None) == (clean.members is None)
            if chaotic.members is not None:
                assert np.array_equal(chaotic.members, clean.members)

        # Shards were actually in play on both sides of the rotation...
        old_names = [
            e["name"] for e in epoch0["shm"]["shards"]["published"].values()
        ]
        assert old_names
        shards = health["shm"]["shards"]
        assert shards["rotations"] >= 1
        assert health["affinity"]["shard_hits"] >= 1
        for entry in shards["published"].values():
            assert entry["epoch"] == 1
        # ...no worker ever answered off a stale shard: every adopted
        # shard passed epoch + allowed_sha verification or fell back to a
        # (bit-identical) local restrict, never a reject from a mismatch.
        for worker in health["workers"].values():
            worker_health = worker.get("health") or {}
            worker_shards = worker_health.get("shards", {})
            assert worker_shards.get("rejects", 0) == 0
        # Rotation unlinked the old epoch's shard segments even though a
        # kill landed between publish and rotate.
        assert not any(segment_exists(name) for name in old_names)

        leaked = [
            entry["name"]
            for entry in list_segments()
            if entry["owner_pid"] == os.getpid()
        ]
        assert leaked == []
