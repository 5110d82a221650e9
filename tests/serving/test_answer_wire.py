"""What a fleet answer carries: the member wire and the supervisor's records.

Members cross the process boundary as one int64 byte string and come back
as read-only arrays, which identical answers share through a weak memo.
The supervisor keeps a query's record only while the query is outstanding.
Served members are read-only in-process too, so no caller can corrupt the
hierarchy (or a shared array) through an answer.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.serving import BackoffPolicy, ServingSupervisor
from repro.serving.server import REFUSED_OVERLOAD, CODServer, ServedAnswer
from repro.serving.worker import MSG_RESULT, decode_answer, encode_answer

DB, ML = 0, 1
THETA = 4
SEED = 11
FAST = dict(
    task_timeout_s=10.0,
    heartbeat_timeout_s=30.0,
    start_timeout_s=120.0,
    restart_backoff=BackoffPolicy(base_s=0.01, factor=2.0, cap_s=0.1,
                                  jitter=0.0),
)
#: Every (node, attribute) pair of the paper graph, CODU's None included.
QUERIES = [CODQuery(v, a, 3) for v in range(10) for a in (DB, ML, None)]


def seeded_server(graph):
    pool = SharedSamplePool(graph, theta=THETA, seed=SEED,
                            per_sample_seeds=True)
    return CODServer(graph, theta=THETA, seed=SEED, pool=pool)


def seeded_fleet(graph, **kwargs):
    options = dict(n_workers=2, pool_seeded=True, warm_index=False, **FAST)
    options.update(kwargs)
    return ServingSupervisor(
        graph, server_options={"theta": THETA, "seed": SEED}, **options
    )


def member_lists(answers):
    return [None if a.members is None else a.members.tolist() for a in answers]


def wire_for(members):
    return encode_answer(ServedAnswer(
        query=CODQuery(0, DB, 3),
        members=None if members is None else np.asarray(members),
        rung="CODL",
    ))


class TestWire:
    def test_members_travel_as_int64_bytes(self):
        wire = wire_for([3, 1, 2])
        assert wire["members"] == np.array([3, 1, 2], dtype=np.int64).tobytes()
        answer = decode_answer(wire, CODQuery(0, DB, 3), weakref.WeakValueDictionary())
        assert answer.members.dtype == np.int64
        assert answer.members.tolist() == [3, 1, 2]
        assert not answer.members.flags.writeable
        with pytest.raises(ValueError):
            answer.members[0] = -1

    def test_no_members_round_trips(self):
        wire = wire_for(None)
        assert wire["members"] is None
        assert decode_answer(wire, CODQuery(0, DB, 3), weakref.WeakValueDictionary()).members is None

    def test_memo_shares_identical_members(self):
        memo = weakref.WeakValueDictionary()
        first = decode_answer(wire_for([4, 5]), CODQuery(4, DB, 3), memo)
        second = decode_answer(wire_for([4, 5]), CODQuery(5, DB, 3), memo)
        other = decode_answer(wire_for([4, 6]), CODQuery(4, DB, 3), memo)
        assert first.members is second.members
        assert other.members is not first.members

    def test_memo_holds_only_arrays_some_answer_holds(self):
        memo = weakref.WeakValueDictionary()
        kept = []
        for i in range(500):
            answer = decode_answer(wire_for([i, i + 1]), CODQuery(0, DB, 3), memo)
            if i % 100 == 0:
                kept.append((i, answer))
        del answer
        gc.collect()
        # Dropped answers left the memo; the held ones are still shared.
        assert set(memo) == {
            np.array([i, i + 1], dtype=np.int64).tobytes() for i, _ in kept
        }
        for i, held in kept:
            assert held.members.tolist() == [i, i + 1]
            again = decode_answer(wire_for([i, i + 1]), CODQuery(1, DB, 3), memo)
            assert again.members is held.members
        kept.clear()
        del again, held
        gc.collect()
        assert len(memo) == 0


class TestReadOnlyMembers:
    def test_in_process_members_are_read_only(self, paper_graph):
        server = seeded_server(paper_graph)
        query = CODQuery(0, DB, 3)
        answer = server.answer(query)
        expected = answer.members.tolist()
        # This answer is an index hit: a view of the hierarchy's leaf order.
        assert np.shares_memory(answer.members, server.index.hierarchy.leaf_order)
        with pytest.raises(ValueError):
            answer.members[0] = -1
        assert server.answer(query).members.tolist() == expected
        for other in QUERIES:
            members = server.answer(other).members
            assert members is None or not members.flags.writeable

    def test_fleet_members_match_in_process_and_are_shared(self, paper_graph):
        expected = member_lists(
            [seeded_server(paper_graph).answer(q) for q in QUERIES]
        )
        with seeded_fleet(paper_graph) as supervisor:
            first = supervisor.serve(QUERIES, drain_timeout_s=120.0)
            for answer in first:
                if answer.members is not None:
                    assert not answer.members.flags.writeable
                    with pytest.raises(ValueError):
                        answer.members[0] = -1
            second = supervisor.serve(QUERIES, drain_timeout_s=120.0)
            memo = supervisor._members_memo
        assert not any(a.refused for a in first + second)
        assert member_lists(first) == expected
        assert member_lists(second) == expected
        # Identical answers share one array through the memo.
        for a, b in zip(first, second):
            assert a.members is b.members
        assert set(memo) == {
            np.asarray(m, dtype=np.int64).tobytes()
            for m in expected if m is not None
        }

    def test_spawned_worker_answers_like_in_process(self, paper_graph):
        # A spawned worker starts from a fresh interpreter: the config,
        # tasks and answer wire must all survive pickling.
        queries = QUERIES[::4]
        expected = member_lists(
            [seeded_server(paper_graph).answer(q) for q in queries]
        )
        with seeded_fleet(
            paper_graph, n_workers=1, mp_start_method="spawn"
        ) as supervisor:
            answers = supervisor.serve(queries, drain_timeout_s=120.0)
        assert not any(a.refused for a in answers)
        assert member_lists(answers) == expected


class TestOutstandingRecords:
    def test_records_live_only_while_outstanding(self, paper_graph):
        with seeded_fleet(paper_graph) as supervisor:
            supervisor.serve(QUERIES[:6], drain_timeout_s=120.0)
            assert supervisor._records == {}
            seqs = [supervisor.submit(q) for q in QUERIES[6:12]]
            assert set(supervisor._records) == set(seqs)
            assert supervisor.outstanding == 6
            supervisor.drain(timeout_s=120.0)
            assert supervisor._records == {}
            assert supervisor.outstanding == 0
            health = supervisor.health()
        assert health["admitted"] == 12
        assert health["completed"] == 12

    def test_admitted_counts_shed_submits(self, paper_graph):
        # Every submit lands before any pump, so a capacity-2 queue sheds.
        with seeded_fleet(
            paper_graph, n_workers=1, queue_capacity=2
        ) as supervisor:
            seqs = [supervisor.submit(q) for q in QUERIES[:12]]
            supervisor.drain(timeout_s=120.0)
            health = supervisor.health()
            assert supervisor._records == {}
        shed = [s for s in seqs if supervisor.answer_for(s).rung == REFUSED_OVERLOAD]
        assert shed
        assert health["admitted"] == 12
        assert health["completed"] == 12
        assert health["refused_overload"] == len(shed)

    def test_late_duplicate_result_is_dropped_and_counted(self, paper_graph):
        with seeded_fleet(paper_graph, n_workers=1) as supervisor:
            (answer,) = supervisor.serve(QUERIES[:1], drain_timeout_s=120.0)
            slot = supervisor._slots[0]
            # A result from an incarnation the supervisor gave up on.
            late = (MSG_RESULT, 0, slot.incarnation - 1, 0,
                    wire_for([9, 8, 7]), None)
            supervisor._handle_event(late)
            health = supervisor.health()
        assert health["duplicate_results"] == 1
        assert supervisor.answer_for(0) is answer
        assert supervisor._records == {}
        assert health["completed"] == 1
