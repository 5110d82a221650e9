"""Unit tests for the bounded LRU cache and its cross-module adopters.

Covers the cache contract itself (capacity/byte bounds, recency
semantics, counters, metrics mirroring) plus the properties the adopting
modules rely on: :class:`~repro.core.pipeline.CODR`'s timing-exclusion
peek, the server's 1k-attribute soak staying under its bounds, and the
two remaining whole-graph ``g_l`` call sites (CODR's global recluster and
the experiment sweeps) weighting exactly as the frozen oracle does.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro.core.pipeline import CODR
from repro.core.problem import CODQuery
from repro.eval import experiments
from repro.graph.graph import AttributedGraph
from repro.graph.weighting import AttributeWeighting
from repro.obs import MetricsRegistry
from repro.serving.server import CODServer
from repro.utils.cache import LRUCache, default_sizeof
from tests.oracle.reference import reference_weighted_graph

DB = 0
ML = 1


class TestLRUBasics:
    def test_capacity_bound_evicts_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert "a" not in cache
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_contains_is_a_peek(self):
        # CODR's timing-exclusion check (`attribute in cache`) must not
        # perturb recency or the hit/miss counters.
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache  # peek: "a" stays the LRU entry
        cache.put("c", 3)
        assert "a" not in cache
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0

    def test_replace_updates_value_without_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 10)
        assert cache.get("a") == 10
        assert len(cache) == 1
        assert cache.stats()["evictions"] == 0

    def test_get_default_and_counters(self):
        cache = LRUCache(2)
        assert cache.get("nope") is None
        assert cache.get("nope", default=7) == 7
        cache.put("a", 1)
        cache.get("a")
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)
        with pytest.raises(ValueError):
            LRUCache(4, max_bytes=0)


class TestByteBound:
    def test_byte_bound_evicts_until_fit(self):
        cache = LRUCache(10, max_bytes=100, sizeof=lambda v: 40)
        cache.put("a", "x")
        cache.put("b", "x")
        cache.put("c", "x")  # 120 bytes > 100: evict "a"
        assert "a" not in cache
        assert len(cache) == 2
        assert cache.current_bytes == 80
        assert cache.stats()["evictions"] == 1

    def test_oversized_value_not_cached(self):
        cache = LRUCache(10, max_bytes=100, sizeof=lambda v: v)
        cache.put("big", 500)
        assert "big" not in cache
        assert cache.stats()["oversized"] == 1
        assert cache.current_bytes == 0

    def test_oversized_replacement_removes_stale_entry(self):
        sizes = {"small": 10, "grown": 500}
        cache = LRUCache(10, max_bytes=100, sizeof=lambda v: sizes[v])
        cache.put("k", "small")
        cache.put("k", "grown")  # now oversized: stale entry must go too
        assert "k" not in cache
        assert cache.current_bytes == 0
        assert cache.stats()["oversized"] == 1

    def test_default_sizeof_prefers_memory_bytes(self):
        class Sized:
            def memory_bytes(self):
                return 12345

        assert default_sizeof(Sized()) == 12345
        assert default_sizeof("abc") > 0


class TestByteOnly:
    def test_many_small_entries_do_not_evict_a_large_one_that_fits(self):
        cache = LRUCache(None, max_bytes=1000, sizeof=lambda v: v)
        cache.put("large", 600)
        for i in range(100):
            cache.put(("small", i), 1)
        assert "large" in cache
        assert len(cache) == 101
        assert cache.current_bytes == 700
        assert cache.stats()["evictions"] == 0

    def test_evicts_least_recently_used_first(self):
        cache = LRUCache(None, max_bytes=100, sizeof=lambda v: v)
        cache.put("a", 30)
        cache.put("b", 30)
        cache.put("c", 30)
        cache.get("a")  # order, oldest first: b, c, a
        cache.put("d", 50)  # 140 bytes: evict b, then c
        assert list(cache._entries) == ["a", "d"]
        assert cache.current_bytes == 80
        assert cache.stats()["evictions"] == 2

    def test_oversized_value_rejected_without_evicting(self):
        cache = LRUCache(None, max_bytes=100, sizeof=lambda v: v)
        cache.put("a", 60)
        cache.put("big", 101)
        assert "big" not in cache
        assert "a" in cache
        stats = cache.stats()
        assert stats["oversized"] == 1
        assert stats["evictions"] == 0
        assert stats["current_bytes"] == 60

    def test_stats_report_no_capacity(self):
        stats = LRUCache(None, max_bytes=64).stats()
        assert stats["capacity"] is None
        assert stats["max_bytes"] == 64

    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError, match="both be None"):
            LRUCache(None)
        with pytest.raises(ValueError):
            LRUCache(None, max_bytes=0)
        with pytest.raises(ValueError):
            LRUCache(0, max_bytes=64)


class TestGetOrCreate:
    def test_factory_runs_once(self):
        cache = LRUCache(4)
        calls = []
        build = lambda: calls.append(1) or "v"  # noqa: E731
        assert cache.get_or_create("k", build) == "v"
        assert cache.get_or_create("k", build) == "v"
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_factory_failure_caches_nothing(self):
        cache = LRUCache(4)

        def boom():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError):
            cache.get_or_create("k", boom)
        assert "k" not in cache
        assert cache.stats()["misses"] == 1
        # A later successful build fills the slot normally.
        assert cache.get_or_create("k", lambda: 3) == 3

    def test_clear_preserves_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["hits"] == 1


class TestRekey:
    def test_renames_keep_recency_and_drops_free_bytes(self):
        cache = LRUCache(3, max_bytes=100, sizeof=lambda v: v)
        cache.put(("a", 1), 10)
        cache.put(("b", 2), 20)
        cache.put(("c", 3), 30)
        dropped = cache.rekey(
            lambda key, value: None if value == 20 else (key[0], key[1] + 10)
        )
        assert dropped == 1
        assert list(cache._entries) == [("a", 11), ("c", 13)]
        assert cache.current_bytes == 40
        assert cache.stats()["invalidations"] == 1
        cache.put(("d", 4), 10)
        cache.put(("e", 5), 10)  # over capacity: the oldest, ("a", 11), goes
        assert ("a", 11) not in cache and ("c", 13) in cache


class TestMetricsMirror:
    def test_counters_and_gauges_emitted(self):
        metrics = MetricsRegistry()
        cache = LRUCache(2, max_bytes=100, sizeof=lambda v: 40,
                         name="t", metrics=metrics)
        cache.put("a", "x")
        cache.put("b", "x")
        cache.put("c", "x")
        cache.get("b")
        cache.get("gone")
        cache.put("huge", "x" * 1)  # sizeof says 40, fits — use real oversize
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["cache.t.hits"] == 1
        assert counters["cache.t.misses"] == 1
        assert counters["cache.t.evictions"] >= 1
        assert snapshot["gauges"]["cache.t.entries"] == len(cache)
        assert snapshot["gauges"]["cache.t.bytes"] == cache.current_bytes

    def test_oversized_counter_emitted(self):
        metrics = MetricsRegistry()
        cache = LRUCache(2, max_bytes=10, sizeof=lambda v: 99,
                         name="o", metrics=metrics)
        cache.put("a", "x")
        assert metrics.snapshot()["counters"]["cache.o.oversized"] == 1


class TestBoundedAdopters:
    def test_server_health_has_no_weighted_cache(self, paper_graph):
        # LORE weights only C_l's induced edges, so the server keeps no
        # whole-graph g_l copies to report.
        server = CODServer(paper_graph, theta=2, seed=5)
        server.answer(CODQuery(3, DB, 2))
        caches = server.health()["caches"]
        assert "weighted" not in caches
        assert set(caches) == {"lore", "lore_local", "restricted"}

    def test_server_lore_local_soak_stays_bounded(self, paper_graph):
        # 1000 distinct query attributes must not grow 2000 LORE parts
        # (one edge-count array and one local reclustering each).
        attributes = [
            [a for a in range(1000) if a % 10 in (v, (v + 1) % 10)]
            for v in range(10)
        ]
        graph = AttributedGraph(
            10, list(paper_graph.edges()), attributes=attributes
        )
        server = CODServer(graph, theta=2, seed=5, cache_capacity=8)
        for attribute in range(1000):
            server.answer(CODQuery(attribute % 10, attribute, 2))
        # The memo is bounded by bytes, not entries: it holds as many
        # small parts as fit and evicts the rest.
        stats = server._lore_local.stats()
        assert stats["current_bytes"] <= stats["max_bytes"]
        assert stats["evictions"] > 0
        health = server.health()
        assert health["caches"]["lore"]["entries"] <= 8

    def test_codr_hierarchy_cache_bounded(self, paper_graph):
        # Regression for the unbounded `CODR._cache` dict.
        pipeline = CODR(paper_graph, theta=2, seed=1, cache_capacity=4)
        for attribute in range(12):
            pipeline.hierarchy_for(attribute)
        assert len(pipeline._cache) <= 4
        assert pipeline._cache.stats()["evictions"] >= 8
        # Repeats of a resident attribute still hit.
        resident = 11
        before = pipeline._cache.stats()["hits"]
        pipeline.hierarchy_for(resident)
        assert pipeline._cache.stats()["hits"] == before + 1


def spy_weighting(monkeypatch, module) -> list:
    """Record every ``attribute_weighted_graph`` call ``module`` makes."""
    calls = []
    real = module.attribute_weighted_graph

    def spy(graph, attribute, weighting=None):
        weighted = real(graph, attribute, weighting)
        calls.append((graph, attribute, weighting, weighted))
        return weighted

    monkeypatch.setattr(module, "attribute_weighted_graph", spy)
    return calls


def assert_weighted_as_reference(calls) -> None:
    assert calls
    for graph, attribute, weighting, weighted in calls:
        reference = reference_weighted_graph(graph, attribute, weighting)
        assert weighted.is_weighted
        assert list(weighted.edges()) == list(reference.edges())
        for v in range(reference.n):
            assert np.array_equal(
                weighted.neighbor_weights(v), reference.neighbor_weights(v)
            )


class TestCrossModuleEquivalence:
    def test_codr_and_experiment_weighting_match_reference(
        self, paper_graph, monkeypatch
    ):
        # CODR's global recluster and the experiment sweeps still build
        # the whole g_l; it must be the oracle's edge-by-edge g_l.
        codr_calls = spy_weighting(monkeypatch, pipeline_module)
        for weighting in (
            AttributeWeighting(),
            AttributeWeighting(beta=1.5, scheme="endpoint_average"),
            AttributeWeighting(scheme="jaccard"),
        ):
            pipeline = CODR(paper_graph, theta=2, seed=1, weighting=weighting)
            for attribute in (DB, ML):
                pipeline.hierarchy_for(attribute)
        assert_weighted_as_reference(codr_calls)

        sweep_calls = spy_weighting(monkeypatch, experiments)
        config = experiments.ExperimentConfig(
            n_queries=3, theta=4, ks=(1, 5), scale=0.15,
            oracle_samples_per_node=20,
        )
        experiments.fig4_hierarchy_skew(names=("cora",), config=config)
        experiments.fig8_compressed_vs_independent(
            names=("cora",), thetas=(4,), config=config
        )
        assert_weighted_as_reference(sweep_calls)
