"""Differential suite for the batch planner.

The planner's contract is *bit-identity*: for any workload, the answers
it returns are exactly what sequential :meth:`CODServer.answer` calls
would produce on an identically configured server (same seed, same pool
seed). The suite pins that over 50 seeded random (graph, workload)
cases — mixed-attribute batches, mid-batch refusals from poison queries,
and deadline exhaustion under an auto-advancing fake clock — plus the
planner's grouping/windowing mechanics and the refusal-latency
regression the planner fixed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery
from repro.errors import QueryError
from repro.graph.graph import AttributedGraph
from repro.obs import MetricsRegistry
from repro.serving.planner import BatchPlan, BatchPlanner, QueryGroup
from repro.serving.server import CODServer

DB = 0


class SteppingClock:
    """A clock that advances a fixed step on every read.

    Makes elapsed-time and deadline behaviour exactly reproducible: a
    query's fate depends only on how many clock reads its code path
    performs, not on wall time.
    """

    def __init__(self, step: float = 0.001) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


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


def members_of(answer) -> "list[int] | None":
    return None if answer.members is None else sorted(int(v) for v in answer.members)


def sequential_oracle(server: CODServer, queries) -> list:
    """Per-query answers with the same isolation the planner applies."""
    out = []
    for query in queries:
        try:
            out.append(server.answer(query))
        except Exception as exc:  # noqa: BLE001 — mirror planner isolation
            out.append(("raised", type(exc).__name__))
    return out


def assert_matches_oracle(answers, oracle) -> None:
    assert len(answers) == len(oracle)
    for got, want in zip(answers, oracle):
        if isinstance(want, tuple):
            assert got.refused
            assert type(got.error).__name__ == want[1]
        else:
            assert got.rung == want.rung
            assert members_of(got) == members_of(want)


class TestDifferential:
    """50 seeded cases: planner output == sequential pooled answers."""

    @pytest.mark.parametrize("seed", range(50))
    def test_pooled_identity(self, seed):
        graph = random_graph(seed)
        rng = np.random.default_rng(1000 + seed)
        queries = random_queries(graph, rng, count=6)
        if seed % 3 == 0:
            # Mid-batch poison: an out-of-graph node whose answer() raises.
            queries[len(queries) // 2] = CODQuery(graph.n + 5, DB, 2)

        def make() -> CODServer:
            return CODServer(
                graph, theta=2, seed=seed, backoff_s=0.0,
                pool=SharedSamplePool(graph, theta=2, seed=seed + 999),
            )

        oracle = sequential_oracle(make(), queries)
        answers = BatchPlanner(make()).execute(queries)
        assert_matches_oracle(answers, oracle)
        # The workload generator must actually exercise mixed batches.
        assert len({q.attribute for q in queries}) >= 1

    def test_skewed_repeated_window_identity(self):
        # A hot set of distinct queries drawn with replacement into one
        # window, as a real serving stream repeats its popular queries:
        # repeats must be served from the pooled caches and still match
        # sequential pooled answers.
        from repro.datasets.queries import generate_queries
        from repro.datasets.registry import load_dataset

        graph = load_dataset("cora", scale=0.15, seed=7).graph
        hot = generate_queries(graph, count=6, k=2, rng=8)
        picks = np.random.default_rng(10).integers(0, len(hot), size=32)
        queries = [hot[int(i)] for i in picks]
        assert len(set(queries)) < len(queries)
        assert len({q.attribute for q in queries}) >= 2

        def make() -> CODServer:
            return CODServer(
                graph, theta=8, seed=7, backoff_s=0.0,
                pool=SharedSamplePool(graph, theta=8, seed=9),
            )

        oracle = sequential_oracle(make(), queries)
        server = make()
        answers = BatchPlanner(server).execute(queries)
        assert_matches_oracle(answers, oracle)
        caches = server.health()["caches"]
        assert caches["lore"]["hits"] > 0
        assert caches["restricted"]["hits"] > 0

    def test_workloads_are_mixed_attribute(self):
        # Sanity on the generator itself: across the suite's seeds, most
        # workloads span several attributes (the planner's grouping is
        # exercised, not vacuous).
        mixed = 0
        for seed in range(50):
            graph = random_graph(seed)
            rng = np.random.default_rng(1000 + seed)
            queries = random_queries(graph, rng, count=6)
            if len({q.attribute for q in queries}) >= 2:
                mixed += 1
        assert mixed >= 40

    def test_mid_batch_refusal_leaves_neighbors_intact(self, paper_graph):
        def make() -> CODServer:
            return CODServer(
                paper_graph, theta=2, seed=5, backoff_s=0.0,
                pool=SharedSamplePool(paper_graph, theta=2, seed=77),
            )

        valid = [CODQuery(3, DB, 2), CODQuery(7, DB, 3)]
        poisoned = [valid[0], CODQuery(99, DB, 2), valid[1]]
        answers = BatchPlanner(make()).execute(poisoned)
        assert answers[1].refused
        assert isinstance(answers[1].error, QueryError)
        clean = BatchPlanner(make()).execute(valid)
        assert members_of(answers[0]) == members_of(clean[0])
        assert members_of(answers[2]) == members_of(clean[1])
        assert answers[0].rung == clean[0].rung
        assert answers[2].rung == clean[1].rung

    def test_deadline_exhaustion_identity(self, paper_graph):
        # Single-attribute workload: grouped order == input order, so the
        # shared stepping clock advances identically on both sides and
        # even deadline-driven degradation must match exactly.
        def make(step: float) -> CODServer:
            return CODServer(
                paper_graph, theta=2, seed=3, backoff_s=0.0,
                deadline_s=0.02, clock=SteppingClock(step),
                pool=SharedSamplePool(paper_graph, theta=2, seed=11),
            )

        queries = [CODQuery(v, DB, 2) for v in (3, 2, 7, 5, 4)]
        for step in (0.0005, 0.002, 0.01):
            oracle = sequential_oracle(make(step), queries)
            answers = BatchPlanner(make(step)).execute(queries)
            assert_matches_oracle(answers, oracle)
        # The harshest step must actually bite: not every answer can have
        # survived on the full-fidelity rung.
        harsh = BatchPlanner(make(0.01)).execute(queries)
        assert any(a.rung != "CODL" for a in harsh)


class TestRefusalLatency:
    def test_batch_refusal_elapsed_is_measured_not_zero(self, paper_graph):
        # Regression: the pre-planner batch loop recorded 0.0 latency for
        # every isolated failure, dragging refusal percentiles to zero.
        clock = SteppingClock(0.01)
        server = CODServer(paper_graph, theta=2, seed=5, backoff_s=0.0,
                           clock=clock)
        answers = server.answer_batch([CODQuery(99, DB, 2)])
        assert answers[0].refused
        assert answers[0].elapsed > 0.0
        assert server.health()["refused"] == 1
        assert server.health()["latency"]["p50_s"] > 0.0
        assert server.health()["latency"]["p95_s"] > 0.0


class TestPlanning:
    def test_groups_by_attribute_first_appearance(self, paper_graph):
        server = CODServer(paper_graph, theta=2, seed=5)
        planner = BatchPlanner(server)
        queries = [
            CODQuery(3, 0, 2), CODQuery(0, 1, 2), CODQuery(2, 0, 2),
            CODQuery(8, 1, 2), CODQuery(7, 0, 2),
        ]
        plan = planner.plan(queries)
        assert [g.attribute for g in plan.groups] == [0, 1]
        assert plan.groups[0].indices == [0, 2, 4]
        assert plan.groups[1].indices == [1, 3]
        assert plan.n_queries == 5
        assert plan.describe()["group_sizes"] == {"0": 3, "1": 2}

    def test_order_grouped_vs_input(self):
        groups = [
            QueryGroup(attribute=0, indices=[0, 2], queries=["a0", "a1"]),
            QueryGroup(attribute=1, indices=[1, 3], queries=["b0", "b1"]),
        ]
        grouped = BatchPlan(groups=groups, grouped_execution=True)
        assert [i for i, _ in grouped.order()] == [0, 2, 1, 3]
        sequential = BatchPlan(groups=groups, grouped_execution=False)
        assert [i for i, _ in sequential.order()] == [0, 1, 2, 3]

    def test_grouped_execution_requires_pool(self, paper_graph):
        unpooled = BatchPlanner(CODServer(paper_graph, theta=2, seed=5))
        assert not unpooled.plan([CODQuery(3, DB, 2)]).grouped_execution
        pooled = BatchPlanner(CODServer(
            paper_graph, theta=2, seed=5,
            pool=SharedSamplePool(paper_graph, theta=2, seed=1),
        ))
        assert pooled.plan([CODQuery(3, DB, 2)]).grouped_execution

    def test_unpooled_batch_matches_sequential_rng_stream(self, paper_graph):
        # Without a pool, fresh sampling consumes the server RNG, so the
        # planner must execute in input order — pinned by comparing
        # against a twin server answering the same mixed workload
        # sequentially.
        queries = [
            CODQuery(3, 0, 2), CODQuery(0, 1, 2), CODQuery(7, 0, 3),
            CODQuery(8, 1, 2), CODQuery(2, 0, 1),
        ]
        twin = CODServer(paper_graph, theta=2, seed=5, backoff_s=0.0)
        oracle = sequential_oracle(twin, queries)
        server = CODServer(paper_graph, theta=2, seed=5, backoff_s=0.0)
        answers = server.answer_batch(queries)
        assert_matches_oracle(answers, oracle)

    def test_batch_size_windows_and_metrics(self, paper_graph):
        metrics = MetricsRegistry()
        server = CODServer(
            paper_graph, theta=2, seed=5, backoff_s=0.0, metrics=metrics,
            pool=SharedSamplePool(paper_graph, theta=2, seed=1),
        )
        planner = BatchPlanner(server)
        queries = [CODQuery(v, DB, 2) for v in (3, 2, 7, 5, 4)]
        answers = planner.execute(queries, batch_size=2)
        assert len(answers) == 5
        assert [a.query.node for a in answers] == [3, 2, 7, 5, 4]
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["planner.batches"] == 3  # windows of 2, 2, 1
        assert snapshot["counters"]["planner.queries"] == 5
        assert snapshot["gauges"]["planner.last_groups"] >= 1

    def test_batch_size_must_be_positive(self, paper_graph):
        planner = BatchPlanner(CODServer(paper_graph, theta=2, seed=5))
        with pytest.raises(ValueError):
            planner.execute([CODQuery(3, DB, 2)], batch_size=0)

    def test_empty_workload(self, paper_graph):
        server = CODServer(paper_graph, theta=2, seed=5)
        planner = BatchPlanner(server)
        assert planner.execute([]) == []
        assert server.metrics.counter("planner.batches").value == 0

    def test_answer_batch_delegates_to_planner(self, paper_graph):
        def make() -> CODServer:
            return CODServer(
                paper_graph, theta=2, seed=5, backoff_s=0.0,
                pool=SharedSamplePool(paper_graph, theta=2, seed=1),
            )

        queries = [CODQuery(3, 0, 2), CODQuery(0, 1, 2), CODQuery(7, 0, 3)]
        via_method = make().answer_batch(queries, batch_size=2)
        via_planner = BatchPlanner(make()).execute(queries, batch_size=2)
        for a, b in zip(via_method, via_planner):
            assert a.rung == b.rung
            assert members_of(a) == members_of(b)
