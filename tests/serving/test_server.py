"""End-to-end tests for CODServer: ladder, retries, breaker, budgets.

Fault injection (``repro.utils.faults``) drives every rung: the suite
proves that with faults in HIMOR construction/loading, LORE, or RR
sampling the server still returns an answer (or an explicit refusal) with
the correct rung recorded — never an uncaught exception.
"""

import numpy as np
import pytest

from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.datasets.queries import generate_queries
from repro.datasets.registry import load_dataset
from repro.errors import (
    BudgetExhaustedError,
    DeadlineExceededError,
    HierarchyError,
    IndexError_,
    InfluenceError,
    QueryError,
)
from repro.graph.graph import AttributedGraph
from repro.serving import CODServer
from repro.utils.faults import inject


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class SteppingClock:
    """A clock that advances a fixed step on every read.

    A query's elapsed time and deadline fate then depend only on how many
    clock reads its code path performs, not on wall time.
    """

    def __init__(self, step: float = 0.001) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


DB = 0


def members(answer) -> "list[int] | None":
    return None if answer.members is None else sorted(int(v) for v in answer.members)


def random_graph(seed: int) -> AttributedGraph:
    """Small connected attributed graph: random tree + extra edges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 28))
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for _ in range(int(rng.integers(n // 2, n))):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    attributes = []
    for _ in range(n):
        count = 1 + int(rng.integers(0, 2))
        attributes.append({int(a) for a in rng.choice(3, size=count,
                                                      replace=False)})
    return AttributedGraph(n, sorted(edges), attributes=attributes)


def random_queries(graph: AttributedGraph, rng, count: int) -> list[CODQuery]:
    queries = []
    for _ in range(count):
        node = int(rng.integers(0, graph.n))
        attrs = sorted(graph.attributes_of(node))
        attribute = attrs[int(rng.integers(0, len(attrs)))]
        queries.append(CODQuery(node, attribute, k=1 + int(rng.integers(0, 3))))
    return queries


def answer_or_error(server: CODServer, query: CODQuery):
    """The served answer, or the name of the error ``answer`` raised."""
    try:
        return server.answer(query)
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return type(exc).__name__


def assert_same_answers(got, want) -> None:
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        if isinstance(b, str):
            assert a == b, i
        else:
            assert a.rung == b.rung, i
            assert members(a) == members(b), i


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


class TestWorkload:
    def test_mixed_faults_answer_every_query(self, paper_graph):
        server = CODServer(paper_graph, theta=2, seed=5, backoff_s=0.0)
        queries = [CODQuery(3, DB, 2), CODQuery(2, DB, 1), CODQuery(7, DB, 3)]
        with inject(site="lore", rate=0.5, seed=3, exc=HierarchyError):
            answers = [server.answer(q) for q in queries]
        assert len(answers) == 3
        assert all(a.rung in ("CODL", "CODL-", "CODU", "refused") for a in answers)
        assert server.health()["queries"] == 3


class TestPooledOrderIndependence:
    """A pooled server's answers do not depend on query order.

    Affinity dispatch hands each supervised worker a different
    subsequence of the workload, so every worker must answer a query as
    it would have in any other position.
    """

    @pytest.mark.parametrize("per_sample_seeds", [False, True])
    def test_permuted_skewed_window(self, per_sample_seeds):
        graph = load_dataset("cora", scale=0.15, seed=7).graph

        def make() -> CODServer:
            pool = SharedSamplePool(graph, theta=8, seed=9,
                                    per_sample_seeds=per_sample_seeds)
            return CODServer(graph, theta=8, seed=7, backoff_s=0.0, pool=pool)

        for seed in range(3):
            # A hot set drawn with replacement, as a serving stream
            # repeats its popular queries.
            hot = generate_queries(graph, count=6, k=2, rng=8 + seed)
            rng = np.random.default_rng(10 + seed)
            queries = [hot[int(i)] for i in rng.integers(0, len(hot), size=24)]
            assert len(set(queries)) < len(queries)
            assert len({q.attribute for q in queries}) >= 2
            order = rng.permutation(len(queries))
            in_order = make()
            permuted = make()
            expected = [in_order.answer(q) for q in queries]
            got = {int(i): permuted.answer(queries[i]) for i in order}
            for i, want in enumerate(expected):
                assert got[i].rung == want.rung
                assert members(got[i]) == members(want)
            assert permuted.health()["caches"]["restricted"]["hits"] > 0


    @pytest.mark.parametrize("per_sample_seeds", [False, True])
    @pytest.mark.parametrize("seed", range(50))
    def test_random_graph_permuted_identity(self, seed, per_sample_seeds):
        graph = random_graph(seed)
        rng = np.random.default_rng(1000 + seed)
        queries = random_queries(graph, rng, count=6)
        if seed % 3 == 0:
            # An out-of-graph node: answer() raises for it in any position.
            queries[len(queries) // 2] = CODQuery(graph.n + 5, DB, 2)

        def make() -> CODServer:
            pool = SharedSamplePool(graph, theta=2, seed=seed + 999,
                                    per_sample_seeds=per_sample_seeds)
            return CODServer(graph, theta=2, seed=seed, backoff_s=0.0,
                             pool=pool)

        expected = [answer_or_error(make(), q) for q in queries]
        permuted = make()
        order = rng.permutation(len(queries))
        got = {int(i): answer_or_error(permuted, queries[i]) for i in order}
        assert_same_answers([got[i] for i in range(len(queries))], expected)
        if seed % 3 == 0:
            assert expected[len(queries) // 2] == "QueryError"

    def test_workloads_are_mixed_attribute(self):
        # The random workloads above must span several attributes, or
        # permuting them would never interleave attribute caches.
        mixed = 0
        for seed in range(50):
            graph = random_graph(seed)
            rng = np.random.default_rng(1000 + seed)
            queries = random_queries(graph, rng, count=6)
            if len({q.attribute for q in queries}) >= 2:
                mixed += 1
        assert mixed >= 40

    def test_invalid_query_leaves_neighbors_intact(self, paper_graph):
        def make() -> CODServer:
            pool = SharedSamplePool(paper_graph, theta=2, seed=77)
            return CODServer(paper_graph, theta=2, seed=5, backoff_s=0.0,
                             pool=pool)

        valid = [CODQuery(3, DB, 2), CODQuery(7, DB, 3)]
        poisoned = [valid[0], CODQuery(99, DB, 2), valid[1]]
        server = make()
        got = [answer_or_error(server, q) for q in poisoned]
        assert got[1] == "QueryError"
        clean = make()
        assert_same_answers([got[0], got[2]], [clean.answer(q) for q in valid])


class TestReproducibility:
    """Identically built servers answer one stream identically."""

    def test_deadline_exhaustion_identity(self, paper_graph):
        # A stepping clock makes deadline-driven degradation a function of
        # the code path alone, so even degraded answers must repeat.
        def make(step: float) -> CODServer:
            return CODServer(
                paper_graph, theta=2, seed=3, backoff_s=0.0,
                deadline_s=0.02, clock=SteppingClock(step),
                pool=SharedSamplePool(paper_graph, theta=2, seed=11),
            )

        queries = [CODQuery(v, DB, 2) for v in (3, 2, 7, 5, 4)]
        for step in (0.0005, 0.002, 0.01):
            first, second = make(step), make(step)
            assert_same_answers([first.answer(q) for q in queries],
                                [second.answer(q) for q in queries])
        # The harshest step must actually bite: not every answer can have
        # survived on the full-fidelity rung.
        harsh = make(0.01)
        assert any(harsh.answer(q).rung != "CODL" for q in queries)

    def test_unpooled_twins_share_rng_stream(self, paper_graph):
        # Without a pool, fresh sampling consumes the server RNG, so the
        # answers depend on input order; twins fed one mixed-attribute
        # stream must still agree query for query.
        queries = [
            CODQuery(3, 0, 2), CODQuery(0, 1, 2), CODQuery(7, 0, 3),
            CODQuery(8, 1, 2), CODQuery(2, 0, 1),
        ]
        first = CODServer(paper_graph, theta=2, seed=5, backoff_s=0.0)
        second = CODServer(paper_graph, theta=2, seed=5, backoff_s=0.0)
        assert_same_answers([first.answer(q) for q in queries],
                            [second.answer(q) for q in queries])


class TestRefusalLatency:
    def test_refusal_elapsed_is_measured_not_zero(self, paper_graph, query):
        # A refused query spent time descending the ladder; recording 0.0
        # for it would drag the latency percentiles to zero.
        server = CODServer(paper_graph, theta=2, seed=5, max_retries=1,
                           backoff_s=0.0, clock=SteppingClock(0.01))
        with inject(site="rr_sampling", rate=1.0, exc=InfluenceError):
            answer = server.answer(query)
        assert answer.refused
        assert answer.elapsed > 0.0
        health = server.health()
        assert health["refused"] == 1
        assert health["latency"]["p50_s"] > 0.0
        assert health["latency"]["p95_s"] > 0.0
