"""Supervisor tests: dispatch, shedding, crash recovery, health rollup.

These spawn real worker processes over the 10-node paper graph, so each
scenario keeps the workload small; the heavyweight scripted-fault drill
lives in ``test_chaos.py``.
"""

import os
import signal
import time

import pytest

from repro.core.problem import CODQuery
from repro.errors import OverloadError, WorkerCrashError
from repro.serving import (
    PRIORITY_BACKGROUND,
    PRIORITY_INTERACTIVE,
    BackoffPolicy,
    ChaosSchedule,
    ServingSupervisor,
)
from repro.serving.server import REFUSED_CRASH, REFUSED_OVERLOAD
from repro.serving.worker import MSG_HEARTBEAT

DB = 0

#: Shared supervisor tuning for fast, deterministic tests.
FAST = dict(
    task_timeout_s=2.0,
    heartbeat_timeout_s=10.0,
    start_timeout_s=60.0,
    restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0, cap_s=0.1, jitter=0.0),
)


def make_queries(n: int) -> list[CODQuery]:
    return [CODQuery(i % 10, DB if i % 3 else None, 3) for i in range(n)]


class TestChaosSchedule:
    def test_parse(self):
        schedule = ChaosSchedule.parse("kill@3, wedge@7,corrupt-checkpoint@1")
        assert schedule.actions == {3: "kill", 7: "wedge",
                                    1: "corrupt-checkpoint"}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="action@seq"):
            ChaosSchedule.parse("kill=3")
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosSchedule.parse("explode@3")
        with pytest.raises(ValueError, match="non-negative"):
            ChaosSchedule({-1: "kill"})

    def test_take_consumes(self):
        schedule = ChaosSchedule({2: "kill"})
        assert schedule.take(1) is None
        assert schedule.take(2) == "kill"
        assert schedule.take(2) is None  # fires once
        assert schedule.fired == {2: "kill"}
        assert len(schedule) == 0


class TestHappyPath:
    def test_serves_workload_in_order(self, paper_graph):
        queries = make_queries(8)
        with ServingSupervisor(
            paper_graph, n_workers=2, warm_index=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            answers = supervisor.serve(queries, drain_timeout_s=60.0)
        assert len(answers) == 8
        assert not any(a.refused for a in answers)
        # Answers line up with their queries even when workers interleave.
        for query, answer in zip(queries, answers):
            assert answer.query.node == query.node
        health = supervisor.health()
        assert health["completed"] == 8
        assert health["restarts"] == 0
        assert health["duplicate_results"] == 0

    def test_single_worker(self, paper_graph):
        with ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            answers = supervisor.serve(make_queries(4), drain_timeout_s=60.0)
        assert [a.refused for a in answers] == [False] * 4

    def test_invalid_parameters(self, paper_graph):
        with pytest.raises(ValueError):
            ServingSupervisor(paper_graph, n_workers=0)
        with pytest.raises(ValueError):
            ServingSupervisor(paper_graph, task_timeout_s=0.0)
        with pytest.raises(ValueError):
            ServingSupervisor(paper_graph, max_restarts=-1)

    @pytest.mark.parametrize("every", [0, -3])
    def test_bad_checkpoint_interval_rejected(self, paper_graph, every):
        with pytest.raises(ValueError, match="checkpoint_every"):
            ServingSupervisor(paper_graph, checkpoint_every=every)


class TestAdmissionControl:
    def test_overflow_sheds_lowest_priority_with_terminal_answer(
        self, paper_graph
    ):
        # Submissions happen before any pump, so a capacity-4 queue with 8
        # background + 4 interactive queries must shed deterministically.
        supervisor = ServingSupervisor(
            paper_graph, n_workers=1, queue_capacity=4, warm_index=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        )
        with supervisor:
            background = [supervisor.submit(q, PRIORITY_BACKGROUND)
                          for q in make_queries(8)]
            interactive = [supervisor.submit(q, PRIORITY_INTERACTIVE)
                           for q in make_queries(4)]
            supervisor.drain(timeout_s=60.0)
        shed_answers = [supervisor.answer_for(seq) for seq in background]
        live_answers = [supervisor.answer_for(seq) for seq in interactive]
        # Every interactive query ran; the background class bore the load.
        assert not any(a.refused for a in live_answers)
        refused = [a for a in shed_answers if a.refused]
        assert len(refused) == 8  # 4 refused at admission, 4 shed for VIPs
        assert all(a.rung == REFUSED_OVERLOAD for a in refused)
        assert all(isinstance(a.error, OverloadError) for a in refused)
        health = supervisor.health()
        assert health["refused_overload"] == 8
        assert health["shed"] == 8

    def test_all_queries_get_exactly_one_answer_under_overload(
        self, paper_graph
    ):
        supervisor = ServingSupervisor(
            paper_graph, n_workers=1, queue_capacity=2, warm_index=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        )
        with supervisor:
            seqs = [supervisor.submit(q, i % 3)
                    for i, q in enumerate(make_queries(12))]
            supervisor.drain(timeout_s=60.0)
        answers = [supervisor.answer_for(seq) for seq in seqs]
        assert all(a is not None for a in answers)
        assert supervisor.outstanding == 0


class TestCrashRecovery:
    def test_killed_worker_restarts_and_query_is_requeued(self, paper_graph):
        supervisor = ServingSupervisor(
            paper_graph, n_workers=2, warm_index=False,
            chaos=ChaosSchedule({2: "kill"}),
            server_options={"theta": 3, "seed": 11}, **FAST,
        )
        with supervisor:
            answers = supervisor.serve(make_queries(6), drain_timeout_s=60.0)
        assert not any(a.refused for a in answers)
        health = supervisor.health()
        assert health["restarts"] >= 1
        assert health["chaos_fired"] == {2: "kill"}
        # The requeued query records its second attempt in the notes.
        assert any("attempt 1" in note
                   for a in answers for note in a.notes)

    def test_wedged_worker_detected_and_killed(self, paper_graph):
        supervisor = ServingSupervisor(
            paper_graph, n_workers=2, warm_index=False,
            chaos=ChaosSchedule({1: "wedge"}), wedge_s=60.0,
            server_options={"theta": 3, "seed": 11},
            task_timeout_s=0.75,
            heartbeat_timeout_s=10.0,
            start_timeout_s=60.0,
            restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0, cap_s=0.1,
                                          jitter=0.0),
        )
        with supervisor:
            answers = supervisor.serve(make_queries(5), drain_timeout_s=60.0)
        assert not any(a.refused for a in answers)
        assert supervisor.health()["wedge_kills"] == 1

    def test_repeatedly_dying_query_gets_refused_crash(self, paper_graph):
        # Every task crashes its worker: the first death requeues the
        # query, the second must refuse it — never retry forever.
        supervisor = ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False, max_restarts=20,
            worker_fault_specs=[{"site": "worker_task", "rate": 1.0,
                                 "action": "kill"}],
            server_options={"theta": 3, "seed": 11}, **FAST,
        )
        with supervisor:
            answers = supervisor.serve(make_queries(2), drain_timeout_s=60.0)
        assert all(a.refused for a in answers)
        assert all(a.rung == REFUSED_CRASH for a in answers)
        assert all(isinstance(a.error, WorkerCrashError) for a in answers)
        assert supervisor.health()["refused_crash"] == 2

    def test_restart_budget_exhaustion_disables_and_refuses(self, paper_graph):
        supervisor = ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False, max_restarts=2,
            worker_fault_specs=[{"site": "worker_task", "rate": 1.0,
                                 "action": "kill"}],
            server_options={"theta": 3, "seed": 11}, **FAST,
        )
        with supervisor:
            answers = supervisor.serve(make_queries(6), drain_timeout_s=60.0)
        # Exactly-once still holds: every query has one terminal answer.
        assert len(answers) == 6
        assert all(a.refused for a in answers)
        health = supervisor.health()
        assert health["workers"]["0"]["state"] == "disabled"
        assert health["restarts"] == 3  # max_restarts + the one that tripped

    def test_worker_site_fault_becomes_refusal_not_crash(self, paper_graph):
        # A plain exception at the task site is caught inside the worker:
        # the query is refused but the worker (and fleet) stays up.
        supervisor = ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False,
            worker_fault_specs=[{"site": "worker_task", "rate": 1.0,
                                 "count": 1, "exc": RuntimeError}],
            server_options={"theta": 3, "seed": 11}, **FAST,
        )
        with supervisor:
            answers = supervisor.serve(make_queries(3), drain_timeout_s=60.0)
        assert sum(a.refused for a in answers) == 1
        assert supervisor.health()["restarts"] == 0


class TestHealthRollup:
    def test_aggregated_snapshot_shape(self, paper_graph):
        with ServingSupervisor(
            paper_graph, n_workers=2, warm_index=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            supervisor.serve(make_queries(6), drain_timeout_s=60.0)
            health = supervisor.health()
        for key in ("n_workers", "admitted", "completed", "queue_depth",
                    "shed", "refused_overload", "refused_crash", "restarts",
                    "wedge_kills", "duplicate_results", "latency", "workers"):
            assert key in health, key
        assert health["n_workers"] == 2
        assert set(health["workers"]) == {"0", "1"}
        for info in health["workers"].values():
            assert {"state", "restarts", "tasks_done", "death_reasons",
                    "health"} <= set(info)
        # Per-worker server health propagated from the last result.
        reporting = [w for w in health["workers"].values()
                     if w["health"] is not None]
        assert reporting, "no worker propagated its CODServer health"
        assert sum(w["health"]["queries"] for w in reporting) >= 1
        assert health["latency"]["p95_s"] >= health["latency"]["p50_s"]


class TestHeartbeatFreshness:
    """Unit tests for sequence-numbered heartbeats (no processes spawned).

    Child ``time.monotonic()`` epochs are not comparable to the
    supervisor's, so a beat carries a per-incarnation sequence number and
    freshness is stamped on the supervisor's clock, bounded by the last
    moment the slot's event queue was observed empty.
    """

    @staticmethod
    def _supervisor_with_live_slot(paper_graph):
        supervisor = ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        )
        slot = supervisor._slots[0]
        slot.incarnation = 1
        slot.last_seen = 100.0
        slot.queue_empty_at = 105.0
        return supervisor, slot

    def test_unseen_beat_freshens_to_queue_empty_bound(self, paper_graph):
        supervisor, slot = self._supervisor_with_live_slot(paper_graph)
        supervisor._handle_event((MSG_HEARTBEAT, 0, 1, 1))
        assert slot.last_beat_seq == 1
        assert slot.last_seen == 105.0

    def test_replayed_or_older_beat_never_refreshens(self, paper_graph):
        supervisor, slot = self._supervisor_with_live_slot(paper_graph)
        supervisor._handle_event((MSG_HEARTBEAT, 0, 1, 5))
        assert slot.last_seen == 105.0
        # A later drain pass finds backlogged copies of old beats: the
        # queue-empty bound has moved on but the sequences were seen.
        slot.queue_empty_at = 110.0
        supervisor._handle_event((MSG_HEARTBEAT, 0, 1, 5))
        supervisor._handle_event((MSG_HEARTBEAT, 0, 1, 3))
        assert slot.last_seen == 105.0
        assert slot.last_beat_seq == 5
        # A genuinely new beat picks up the new bound.
        supervisor._handle_event((MSG_HEARTBEAT, 0, 1, 6))
        assert slot.last_seen == 110.0

    def test_backlogged_beats_cannot_mask_a_silence(self, paper_graph):
        # The wedged-heartbeat regression: beats queued *before* a silence
        # drain *after* it. They are new sequences, but the queue was last
        # seen empty long ago, so they cannot claim recent liveness.
        supervisor, slot = self._supervisor_with_live_slot(paper_graph)
        slot.last_seen = 105.0
        slot.queue_empty_at = 105.0  # queue never empty again after this
        for seq in (1, 2, 3):
            supervisor._handle_event((MSG_HEARTBEAT, 0, 1, seq))
        assert slot.last_seen == 105.0  # silence still visible

    def test_stale_incarnation_beat_ignored(self, paper_graph):
        supervisor, slot = self._supervisor_with_live_slot(paper_graph)
        supervisor._handle_event((MSG_HEARTBEAT, 0, 0, 99))
        assert slot.last_beat_seq == 0
        assert slot.last_seen == 100.0

    def test_last_seen_never_moves_backwards(self, paper_graph):
        supervisor, slot = self._supervisor_with_live_slot(paper_graph)
        slot.last_seen = 120.0  # e.g. a result arrived after the bound
        supervisor._handle_event((MSG_HEARTBEAT, 0, 1, 1))
        assert slot.last_seen == 120.0


class TestFleetMetrics:
    def test_profile_off_reports_empty_rollup(self, paper_graph):
        with ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            supervisor.serve(make_queries(2), drain_timeout_s=60.0)
            health = supervisor.health()
        assert health["fleet_metrics"] == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_rollup_spans_worker_incarnations(self, paper_graph):
        # kill@2 takes down the first incarnation mid-workload; the fleet
        # view must still count the queries it answered before dying
        # (folded into metrics_prior) plus the successor's.
        queries = make_queries(6)
        with ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False, profile=True,
            chaos=ChaosSchedule({2: "kill"}),
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            answers = supervisor.serve(queries, drain_timeout_s=60.0)
            health = supervisor.health()
        assert not any(a.refused for a in answers)
        assert health["restarts"] >= 1
        fleet = health["fleet_metrics"]
        assert fleet["counters"]["queries"] == 6
        assert fleet["counters"]["stage.answer.calls"] == 6
        assert fleet["histograms"]["query.seconds"]["count"] == 6
        # The dead incarnation really contributed: the live worker alone
        # reports fewer queries than the fleet total.
        live = [w["health"]["metrics"] for w in health["workers"].values()
                if w["health"] is not None and "metrics" in w["health"]]
        assert sum(m["counters"]["queries"] for m in live) < 6

    def test_dead_incarnation_not_double_counted_before_respawn(
        self, paper_graph
    ):
        # Regression: between a death and the respawn the slot's
        # incarnation is unchanged, so the folded metrics_prior and the
        # "current" last_health snapshot are the same data — health()
        # must count it once, not twice.
        supervisor = ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False, profile=True,
            server_options={"theta": 3, "seed": 11}, **FAST,
        )
        slot = supervisor._slots[0]
        slot.incarnation = 1
        slot.health_incarnation = 1
        slot.last_health = {
            "index_builds_resumed": 1,
            "metrics": {"counters": {"queries": 4}, "gauges": {},
                        "histograms": {}},
        }
        supervisor._on_worker_death(slot, "test: simulated death")
        health = supervisor.health()
        assert health["fleet_metrics"]["counters"]["queries"] == 4
        assert health["resumed_builds"] == 1


class TestAffinityDispatch:
    def test_affinity_accounting_invariants(self, paper_graph):
        # Mixed-attribute workload over 2 workers: every dispatch is
        # accounted as exactly one of claim / hit / miss, the claim map
        # holds one slot per distinct attribute, and no query is lost.
        queries = [CODQuery(v, v % 2, 3) for v in range(10)]
        with ServingSupervisor(
            paper_graph, n_workers=2, warm_index=False, affinity=True,
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            answers = supervisor.serve(queries, drain_timeout_s=60.0)
            health = supervisor.health()
        assert len(answers) == 10
        affinity = health["affinity"]
        assert affinity["enabled"] is True
        assert affinity["attributes"] == 2
        assert affinity["claims"] == 2
        dispatches = affinity["claims"] + affinity["hits"] + affinity["misses"]
        assert dispatches == 10

    def test_affinity_can_be_disabled(self, paper_graph):
        with ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False, affinity=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            answers = supervisor.serve(make_queries(4), drain_timeout_s=60.0)
            health = supervisor.health()
        assert len(answers) == 4
        assert health["affinity"]["enabled"] is False
        assert health["affinity"]["claims"] == 0

    def test_pooled_workers_serve_workload(self, paper_graph):
        # use_pool gives every worker a SharedSamplePool; answers still
        # arrive and nothing is refused on the happy path.
        queries = [CODQuery(v, DB, 3) for v in (3, 2, 7, 5)]
        with ServingSupervisor(
            paper_graph, n_workers=1, warm_index=True, use_pool=True,
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            answers = supervisor.serve(queries, drain_timeout_s=60.0)
        assert [a.refused for a in answers] == [False] * 4


class TestEventPump:
    """``poll`` blocks on worker pipes and process exits, not a timer."""

    @staticmethod
    def _until_idle(supervisor, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while any(w["state"] != "idle"
                  for w in supervisor.health()["workers"].values()):
            assert time.monotonic() < deadline, "workers never became idle"
            supervisor.poll(0.05)

    @staticmethod
    def _timed_poll(supervisor, wait_s):
        wall, cpu = time.monotonic(), time.process_time()
        supervisor.poll(wait_s)
        return time.monotonic() - wall, time.process_time() - cpu

    def test_ready_worker_ends_the_wait_and_gets_dispatched(self, paper_graph):
        # The first query after start() waits only for the worker to come
        # up, not for the rest of the poll window.
        with ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            seq = supervisor.submit(make_queries(1)[0])
            wall, _ = self._timed_poll(supervisor, 3.0)
            assert wall < 1.5
            assert supervisor._records[seq].dispatched_to == 0

    def test_query_to_idle_fleet_is_answered_in_one_poll(self, paper_graph):
        # Dispatch comes before the wait: the idle worker starts on the
        # query at once, and its result ends the same poll's wait.
        with ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            supervisor.serve(make_queries(1), drain_timeout_s=60.0)
            self._until_idle(supervisor)
            seq = supervisor.submit(make_queries(2)[1])
            wall, _ = self._timed_poll(supervisor, 1.0)
            assert supervisor.answer_for(seq) is not None
            assert wall < 0.5

    def test_worker_exit_ends_the_wait(self, paper_graph):
        with ServingSupervisor(
            paper_graph, n_workers=1, warm_index=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            self._until_idle(supervisor)
            os.kill(supervisor._slots[0].proc.pid, signal.SIGKILL)
            wall, _ = self._timed_poll(supervisor, 5.0)
            assert wall < 1.0
            worker = supervisor.health()["workers"]["0"]
            assert worker["death_reasons"] == ["process exited"]

    def test_idle_and_post_crash_waits_do_not_spin(self, paper_graph):
        with ServingSupervisor(
            paper_graph, n_workers=2, warm_index=False,
            server_options={"theta": 3, "seed": 11}, **FAST,
        ) as supervisor:
            supervisor.serve(make_queries(4), drain_timeout_s=60.0)
            self._until_idle(supervisor)
            wall, cpu = self._timed_poll(supervisor, 0.5)
            assert wall >= 0.45
            assert cpu < 0.1
            # A dead worker's pipe and sentinel must not keep waking the
            # pump once the death has been policed.
            os.kill(supervisor._slots[0].proc.pid, signal.SIGKILL)
            supervisor._slots[0].proc.join(timeout=5.0)
            supervisor.poll(0.0)
            assert supervisor.health()["workers"]["0"]["death_reasons"]
            wall, cpu = self._timed_poll(supervisor, 0.5)
            assert wall >= 0.45
            assert cpu < 0.1
