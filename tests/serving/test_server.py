"""End-to-end tests for CODServer: ladder, retries, breaker, budgets.

Fault injection (``repro.utils.faults``) drives every rung: the suite
proves that with faults in HIMOR construction/loading, LORE, or RR
sampling the server still returns an answer (or an explicit refusal) with
the correct rung recorded — never an uncaught exception.
"""

import pytest

from repro.core.problem import CODQuery
from repro.errors import (
    BudgetExhaustedError,
    DeadlineExceededError,
    HierarchyError,
    IndexError_,
    InfluenceError,
    QueryError,
)
from repro.serving import CODServer
from repro.utils.faults import inject


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


DB = 0


@pytest.fixture()
def query() -> CODQuery:
    return CODQuery(3, DB, 2)


@pytest.fixture()
def server(paper_graph) -> CODServer:
    return CODServer(paper_graph, theta=3, seed=11, backoff_s=0.0)


class TestHappyPath:
    def test_answers_on_codl(self, server, query):
        answer = server.answer(query)
        assert answer.rung == "CODL"
        assert not answer.refused
        assert not answer.degraded
        assert answer.notes == []
        assert server.health()["answered_per_rung"] == {"CODL": 1}

    def test_invalid_query_still_raises(self, server):
        with pytest.raises(QueryError):
            server.answer(CODQuery(99, DB, 2))

    def test_health_latency_counters(self, server, query):
        for _ in range(3):
            server.answer(query)
        health = server.health()
        assert health["queries"] == 3
        assert health["latency"]["p95_s"] >= health["latency"]["p50_s"] >= 0.0
        assert health["breaker_state"] == "closed"


class TestDegradationLadder:
    def test_himor_fault_degrades_to_codl_minus(self, server, query):
        with inject(site="himor_build", rate=1.0, exc=IndexError_):
            answer = server.answer(query)
        assert answer.rung == "CODL-"
        assert answer.degraded
        assert any("CODL:" in note for note in answer.notes)

    def test_lore_fault_degrades_to_codu(self, server, query):
        with inject(site="lore", rate=1.0, exc=HierarchyError):
            answer = server.answer(query)
        assert answer.rung == "CODU"
        # Both LORE-based rungs recorded their failure.
        assert len(answer.notes) == 2

    def test_everything_failing_yields_refusal(self, paper_graph, query):
        server = CODServer(paper_graph, theta=3, seed=11,
                           max_retries=1, backoff_s=0.0)
        with inject(site="rr_sampling", rate=1.0, exc=InfluenceError):
            answer = server.answer(query)
        assert answer.refused
        assert answer.rung == "refused"
        assert answer.members is None
        assert isinstance(answer.error, InfluenceError)
        assert server.health()["refused"] == 1

    def test_attribute_free_query_served_by_codu(self, server):
        answer = server.answer(CODQuery(0, None, 3))
        assert answer.rung == "CODU"
        assert answer.degraded


class TestRetries:
    def test_transient_sampling_fault_is_retried(self, paper_graph, query):
        server = CODServer(paper_graph, theta=3, seed=11,
                           max_retries=2, backoff_s=0.0)
        # Failure 1 kills the index build (not retried: it degrades);
        # failure 2 hits CODL-'s first sampling attempt, whose retry then
        # succeeds because the fault budget (count=2) is spent.
        with inject(site="rr_sampling", rate=1.0, count=2, exc=InfluenceError):
            answer = server.answer(query)
        assert not answer.refused
        assert answer.rung == "CODL-"
        assert answer.retries == 1
        assert server.health()["retries"] == 1
        assert any("retrying with theta=" in note for note in answer.notes)

    def test_retries_exhausted_propagates_to_next_rung(self, paper_graph, query):
        server = CODServer(paper_graph, theta=3, seed=11,
                           max_retries=0, backoff_s=0.0)
        # Exactly enough failures to kill index build and CODL-'s only
        # attempt; CODU's sampling then succeeds.
        with inject(site="rr_sampling", rate=1.0, count=2, exc=InfluenceError):
            answer = server.answer(query)
        assert answer.rung == "CODU"


class TestBudgets:
    def test_zero_deadline_refuses_with_deadline_error(self, server, query):
        answer = server.answer(query, deadline_s=0.0)
        assert answer.refused
        assert isinstance(answer.error, DeadlineExceededError)
        assert server.health()["deadline_exceeded"] == 1

    def test_tiny_sample_budget_refuses_with_budget_error(self, server, query):
        answer = server.answer(query, sample_budget=2)
        assert answer.refused
        assert isinstance(answer.error, BudgetExhaustedError)
        assert server.health()["budget_exhausted"] == 1

    def test_per_call_budget_overrides_default(self, paper_graph, query):
        server = CODServer(paper_graph, theta=3, seed=11, deadline_s=0.0)
        assert server.answer(query).refused
        answer = server.answer(query, deadline_s=30.0)
        assert not answer.refused

    def test_default_budget_unbounded(self, server, query):
        assert not server.answer(query).refused


class TestCircuitBreaker:
    def test_opens_after_consecutive_lore_failures_and_recovers(
        self, paper_graph, query
    ):
        clock = FakeClock()
        server = CODServer(paper_graph, theta=3, seed=11, backoff_s=0.0,
                           breaker_threshold=2, breaker_cooldown_s=10.0,
                           clock=clock)
        with inject(site="lore", rate=1.0, exc=HierarchyError):
            # Query 1: CODL fails (1), CODL- fails (2) -> breaker opens.
            first = server.answer(query)
            assert first.rung == "CODU"
            assert server.breaker.state == "open"

            # Query 2: both LORE rungs short-circuit straight to CODU.
            second = server.answer(query)
            assert second.rung == "CODU"
            assert any("circuit breaker" in note for note in second.notes)
        assert server.health()["breaker_short_circuits"] == 2

        # After the cool-down (faults disarmed) the probe succeeds and the
        # server is back on the top rung.
        clock.advance(10.0)
        assert server.breaker.state == "half_open"
        recovered = server.answer(query)
        assert recovered.rung == "CODL"
        assert server.breaker.state == "closed"

    def test_probe_failure_reopens(self, paper_graph, query):
        clock = FakeClock()
        server = CODServer(paper_graph, theta=3, seed=11, backoff_s=0.0,
                           breaker_threshold=1, breaker_cooldown_s=5.0,
                           clock=clock)
        with inject(site="lore", rate=1.0, exc=HierarchyError):
            server.answer(query)
            assert server.breaker.state == "open"
            clock.advance(5.0)
            server.answer(query)  # half-open probe fails
            assert server.breaker.state == "open"
        assert server.breaker.open_count == 2


class TestBatch:
    def test_answer_batch_mixed_faults(self, paper_graph):
        server = CODServer(paper_graph, theta=2, seed=5, backoff_s=0.0)
        queries = [CODQuery(3, DB, 2), CODQuery(2, DB, 1), CODQuery(7, DB, 3)]
        with inject(site="lore", rate=0.5, seed=3, exc=HierarchyError):
            answers = server.answer_batch(queries)
        assert len(answers) == 3
        assert all(a.rung in ("CODL", "CODL-", "CODU", "refused") for a in answers)
        assert server.health()["queries"] == 3

    def test_answer_batch_isolates_poison_query(self, paper_graph):
        # Regression: one query whose answer() raises (here a caller error —
        # node 99 is not in the graph) must not abort the rest of the batch.
        server = CODServer(paper_graph, theta=2, seed=5, backoff_s=0.0)
        queries = [CODQuery(3, DB, 2), CODQuery(99, DB, 2), CODQuery(7, DB, 3)]
        answers = server.answer_batch(queries)
        assert len(answers) == 3
        assert not answers[0].refused
        assert not answers[2].refused
        poisoned = answers[1]
        assert poisoned.refused
        assert isinstance(poisoned.error, QueryError)
        assert any("batch: QueryError" in note for note in poisoned.notes)
        assert server.health()["query_errors"] == 1
        # The refusal is counted in the aggregate stats like any other.
        assert server.health()["refused"] == 1

    def test_answer_batch_counts_every_error_separately(self, paper_graph):
        server = CODServer(paper_graph, theta=2, seed=5, backoff_s=0.0)
        queries = [CODQuery(99, DB, 2), CODQuery(-1, DB, 2)]
        answers = server.answer_batch(queries)
        assert all(a.refused for a in answers)
        assert server.health()["query_errors"] == 2
