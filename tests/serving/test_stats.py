"""Server latency and counter reporting: bounded latency memory,
backward-compatible ``health()`` keys, and argument validation
(regressions for the unbounded ``_latencies`` list and the swallowed
bad-fraction bug).

``health()`` reads the server's registry, so these tests record straight
into the registry instruments (``query.seconds``, ``rung.<rung>``) and
check what the report makes of them.
"""

import pytest

from repro.serving import CODServer
from repro.serving.server import LATENCY_CAPACITY


def _server(paper_graph) -> CODServer:
    return CODServer(paper_graph, theta=2, seed=5)


def _record(server: CODServer, rung: str, elapsed: float) -> None:
    server.metrics.counter(f"rung.{rung}").inc()
    server.metrics.histogram("query.seconds").record(elapsed)


class TestBoundedLatencies:
    def test_memory_stays_bounded_under_soak(self, paper_graph):
        server = _server(paper_graph)
        for i in range(10_000):
            _record(server, "CODL", elapsed=i / 10_000.0)
        assert server.health()["queries"] == 10_000
        # The old implementation kept every latency in a plain list; the
        # reservoir keeps memory O(1) in the query count.
        latency = server.metrics.histogram("query.seconds")
        assert latency.capacity == LATENCY_CAPACITY
        assert len(latency._values) <= LATENCY_CAPACITY

    def test_mean_and_max_are_exact_past_capacity(self, paper_graph):
        server = _server(paper_graph)
        n = LATENCY_CAPACITY * 3
        for i in range(n):
            _record(server, "CODL", elapsed=float(i))
        latency = server.health()["latency"]
        assert latency["mean_s"] == pytest.approx((n - 1) / 2.0)
        assert latency["max_s"] == float(n - 1)

    def test_refusals_count_into_latency(self, paper_graph):
        server = _server(paper_graph)
        _record(server, "CODL", elapsed=0.1)
        _record(server, "refused", elapsed=0.5)
        health = server.health()
        assert health["queries"] == 2
        assert health["refused"] == 1
        assert health["latency"]["max_s"] == 0.5


class TestSnapshotCompatibility:
    def test_as_dict_keys_are_stable(self, paper_graph):
        server = _server(paper_graph)
        _record(server, "CODL", elapsed=0.2)
        snapshot = server.health()
        for key in ("queries", "answered_per_rung", "refused", "retries",
                    "deadline_exceeded", "budget_exhausted",
                    "breaker_short_circuits", "index_rebuilds",
                    "index_load_failures", "index_builds_resumed",
                    "latency", "breaker_state"):
            assert key in snapshot, key
        for key in ("p50_s", "p95_s", "mean_s", "max_s"):
            assert key in snapshot["latency"], key
        assert snapshot["answered_per_rung"] == {"CODL": 1}
        assert snapshot["latency"]["p50_s"] == 0.2
        assert snapshot["latency"]["max_s"] == 0.2
        # Without profiling the registry does not ride the report.
        assert "metrics" not in snapshot

    def test_empty_stats_snapshot_is_all_zero(self, paper_graph):
        latency = _server(paper_graph).health()["latency"]
        assert latency == {"p50_s": 0.0, "p95_s": 0.0,
                           "mean_s": 0.0, "max_s": 0.0}


class TestPercentileValidation:
    def test_bad_fraction_raises_even_with_no_queries(self, paper_graph):
        # Regression: validation must come before the empty-data early
        # return, else a caller's bad fraction silently reads as 0.0.
        latency = _server(paper_graph).metrics.histogram("query.seconds")
        with pytest.raises(ValueError, match="fraction"):
            latency.percentile(1.5)
        with pytest.raises(ValueError, match="fraction"):
            latency.percentile(-0.01)

    def test_valid_fraction_on_empty_stats_is_zero(self, paper_graph):
        latency = _server(paper_graph).metrics.histogram("query.seconds")
        assert latency.percentile(0.95) == 0.0

    def test_percentiles_nearest_rank(self, paper_graph):
        server = _server(paper_graph)
        for v in (0.1, 0.2, 0.3, 0.4):
            _record(server, "CODL", elapsed=v)
        latency = server.metrics.histogram("query.seconds")
        assert latency.percentile(0.5) == 0.2
        assert latency.percentile(1.0) == 0.4
        assert server.health()["latency"]["p50_s"] == 0.2
