"""Unit tests for the metrics registry: counters, gauges, bounded
histograms, snapshots, and cross-worker merge semantics."""

import json
import math
import random

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.registry import LEVEL_GAUGES


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = Counter()
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)
        assert c.value == 0


class TestGauge:
    def test_set_and_add(self):
        g = Gauge()
        g.set(2.5)
        g.add(-1.0)
        assert g.value == 1.5


class TestHistogram:
    def test_memory_bounded_under_soak(self):
        h = Histogram(capacity=64, seed=0)
        for i in range(10_000):
            h.record(float(i))
        assert len(h._values) <= 64
        assert h.count == 10_000

    def test_streaming_aggregates_exact_past_capacity(self):
        h = Histogram(capacity=8, seed=0)
        values = [float(i) for i in range(100)]
        for v in values:
            h.record(v)
        assert h.count == 100
        assert h.total == sum(values)
        assert h.mean == pytest.approx(sum(values) / 100)
        assert h.min_value == 0.0
        assert h.max_value == 99.0

    def test_percentiles_exact_below_capacity(self):
        h = Histogram(capacity=512, seed=0)
        for v in range(1, 101):
            h.record(float(v))
        assert h.percentile(0.0) == 1.0
        assert h.percentile(0.50) == 50.0
        assert h.percentile(0.95) == 95.0
        assert h.percentile(1.0) == 100.0

    def test_percentile_validates_fraction_before_empty_check(self):
        # Regression: a bad fraction must raise even on an empty histogram
        # (the old code returned 0.0 first and hid the caller's bug).
        h = Histogram()
        with pytest.raises(ValueError, match="fraction"):
            h.percentile(1.5)
        with pytest.raises(ValueError, match="fraction"):
            h.percentile(-0.1)
        with pytest.raises(ValueError, match="fraction"):
            h.percentiles((0.5, 2.0))
        assert h.percentile(0.5) == 0.0  # valid fraction, no data

    def test_nan_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError, match="NaN"):
            h.record(float("nan"))
        assert h.count == 0

    def test_one_sort_percentiles_match_single_calls(self):
        h = Histogram(capacity=512, seed=0)
        for v in (5.0, 1.0, 9.0, 3.0, 7.0):
            h.record(v)
        p50, p95 = h.percentiles((0.50, 0.95))
        assert p50 == h.percentile(0.50)
        assert p95 == h.percentile(0.95)


def _nearest_rank(values, fractions):
    ordered = sorted(values)
    if not ordered:
        return [0.0 for _ in fractions]
    return [ordered[max(1, math.ceil(f * len(ordered))) - 1] for f in fractions]


class _UnsortedHistogram:
    """The reservoir in arrival order, sorting on every read: what
    :class:`Histogram` computed before it kept its reservoir sorted."""

    def __init__(self, capacity, seed=0):
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.min_value = self.max_value = None
        self.values = []
        self.rng = random.Random(seed)

    def record(self, value):
        self.count += 1
        self.total += value
        self.min_value = value if self.min_value is None else min(self.min_value, value)
        self.max_value = value if self.max_value is None else max(self.max_value, value)
        if len(self.values) < self.capacity:
            self.values.append(value)
        else:
            j = self.rng.randrange(self.count)
            if j < self.capacity:
                self.values[j] = value

    def as_dict(self):
        p50, p95 = _nearest_rank(self.values, (0.50, 0.95))
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count if self.count else 0.0,
            "min": self.min_value,
            "max": self.max_value,
            "p50": p50,
            "p95": p95,
            "capacity": self.capacity,
            "values": sorted(self.values),
        }


class TestSortedReservoir:
    """The reservoir is kept sorted: percentiles read the same nearest-rank
    values a sort would, and Algorithm R's sample stays uniform."""

    FRACTIONS = (0.0, 0.01, 0.25, 0.50, 0.95, 0.99, 1.0)
    AGGREGATES = ("count", "sum", "mean", "min", "max", "capacity")

    @pytest.mark.parametrize("capacity", [1, 7, 2048])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_percentiles_match_a_sort_across_capacity(self, capacity, seed):
        rng = random.Random(seed)
        h = Histogram(capacity=capacity, seed=seed)
        reference = _UnsortedHistogram(capacity, seed=seed)
        length = 3 * capacity + 17
        checkpoints = {1, capacity - 1, capacity, capacity + 1, length}
        for i in range(1, length + 1):
            # Rounded draws repeat values, so equal keys are exercised.
            value = round(rng.expovariate(1.0), 2)
            h.record(value)
            reference.record(value)
            if i in checkpoints or i % 97 == 0:
                assert h._values == sorted(h._values)
                assert len(h._values) == min(i, capacity)
                assert h.percentiles(self.FRACTIONS) == _nearest_rank(
                    h._values, self.FRACTIONS
                )
                snapshot, expected = h.as_dict(), reference.as_dict()
                if i <= capacity:
                    # Nothing replaced yet: the same values, sorted.
                    assert snapshot == expected
                else:
                    assert {k: snapshot[k] for k in self.AGGREGATES} == {
                        k: expected[k] for k in self.AGGREGATES
                    }
                    assert snapshot["values"] == h._values
        assert json.loads(json.dumps(h.as_dict())) == h.as_dict()

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_replacement_keeps_the_sample_uniform(self, order):
        # Replacing a uniform slot of the sorted list must not favour small
        # or large values: every position of the stream stays in the
        # reservoir with probability capacity / length.
        capacity, length, trials = 7, 50, 2000
        stream = range(length) if order == "ascending" else range(length, 0, -1)
        kept = [0] * length
        for seed in range(trials):
            h = Histogram(capacity=capacity, seed=seed)
            for value in stream:
                h.record(value)
            for value in map(int, h._values):
                kept[value if order == "ascending" else length - value] += 1
        share = capacity / length
        sigma = math.sqrt(share * (1 - share) / trials)
        for position, hits in enumerate(kept):
            assert abs(hits / trials - share) < 5 * sigma, position

    def test_empty_histogram_reads_zero(self):
        assert Histogram(capacity=7).percentiles(self.FRACTIONS) == [0.0] * 7


class TestRegistry:
    def test_create_on_first_use_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_snapshot_is_json_serializable_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zed").inc(2)
        reg.counter("abc").inc()
        reg.gauge("depth").set(3.0)
        reg.histogram("lat").record(0.25)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert list(snap["counters"]) == ["abc", "zed"]
        assert snap["counters"]["zed"] == 2
        assert snap["gauges"]["depth"] == 3.0
        assert snap["histograms"]["lat"]["count"] == 1


class TestMerge:
    def test_counters_and_gauges_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("queries").inc(3)
        b.counter("queries").inc(4)
        b.counter("only_b").inc()
        a.gauge("load").set(1.0)
        b.gauge("load").set(2.5)
        merged = MetricsRegistry.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["queries"] == 7
        assert merged["counters"]["only_b"] == 1
        assert merged["gauges"]["load"] == 3.5

    def test_level_gauges_take_the_largest_reading(self):
        # Regression: two workers at epoch 1 once rolled up to a fleet at
        # epoch 2, and the shard manifest size doubled the same way.
        a, b, dead = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for registry, epoch in ((a, 1), (b, 1), (dead, 0)):
            registry.gauge("epoch").set(epoch)
            registry.gauge("shm.shard.manifest").set(3 if epoch else 1)
            registry.gauge("cache.lore.entries").set(5)
        merged = MetricsRegistry.merge_snapshots(
            [dead.snapshot(), a.snapshot(), b.snapshot()]
        )
        assert merged["gauges"]["epoch"] == 1.0
        assert merged["gauges"]["shm.shard.manifest"] == 3.0
        # Amount gauges keep summing.
        assert merged["gauges"]["cache.lore.entries"] == 15.0
        assert {"epoch", "shm.shard.manifest"} <= LEVEL_GAUGES

    def test_histogram_streaming_aggregates_pool_exactly(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            a.histogram("lat").record(v)
        for v in (10.0, 20.0):
            b.histogram("lat").record(v)
        merged = MetricsRegistry.merge_snapshots([a.snapshot(), b.snapshot()])
        lat = merged["histograms"]["lat"]
        assert lat["count"] == 5
        assert lat["sum"] == 36.0
        assert lat["min"] == 1.0
        assert lat["max"] == 20.0
        assert lat["mean"] == pytest.approx(36.0 / 5)

    def test_merged_reservoir_stays_bounded(self):
        parts = []
        for w in range(4):
            reg = MetricsRegistry()
            h = reg.histogram("lat", capacity=32)
            for i in range(1_000):
                h.record(float(w * 1_000 + i))
            parts.append(reg.snapshot())
        merged = MetricsRegistry.merge_snapshots(parts)
        lat = merged["histograms"]["lat"]
        assert lat["count"] == 4_000
        assert len(lat["values"]) <= 32

    def test_falsy_entries_skipped(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        merged = MetricsRegistry.merge_snapshots([None, reg.snapshot(), {}])
        assert merged["counters"]["x"] == 1

    def test_merge_of_nothing_is_empty_sections(self):
        merged = MetricsRegistry.merge_snapshots([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_merge_is_deterministic(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for i in range(500):
            a.histogram("lat", capacity=16).record(float(i))
            b.histogram("lat", capacity=16).record(float(i) / 7.0)
        snaps = [a.snapshot(), b.snapshot()]
        first = MetricsRegistry.merge_snapshots(snaps)
        second = MetricsRegistry.merge_snapshots(snaps)
        assert first == second

    def test_merged_snapshot_round_trips_through_json(self):
        a = MetricsRegistry()
        a.counter("queries").inc()
        a.histogram("lat").record(0.5)
        merged = MetricsRegistry.merge_snapshots([a.snapshot()])
        assert json.loads(json.dumps(merged)) == merged
