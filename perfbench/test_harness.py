"""Tests for the benchmark's own helpers.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import numpy as np
import pytest

from harness import (
    ATTR_UPDATES,
    EDGE_DELETES,
    EDGE_INSERTS,
    REFERENCE_KERNEL_S,
    SpeedTrack,
    UpdateStream,
    block_rate,
    hot_queries,
    tail_percentile,
    zipf_mix,
)
from layers import AnswerProfile
from repro.datasets.registry import load_dataset
from repro.dynamic.updates import apply_updates
from repro.obs import QueryTrace


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", scale=0.3, seed=7).graph


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1000))
    assert tail_percentile(values, 0.99) == 989
    with pytest.raises(ValueError, match="beyond it"):
        tail_percentile(values[:999], 0.99)
    assert tail_percentile(range(20), 0.5) == 9
    with pytest.raises(ValueError):
        tail_percentile(range(19), 0.5)


def test_block_rate_ignores_a_slow_block():
    # Blocks of ten queries: the middle one takes five times as long.
    assert block_rate([(10.0, 10), (60.0, 20), (70.0, 30)]) == 1.0


def test_speed_track_scales_by_the_kernel_time_around_a_measurement():
    speed = SpeedTrack(clock=None)
    # The host halves its speed after the sixth kernel run.
    speed.samples = [REFERENCE_KERNEL_S] * 6 + [2 * REFERENCE_KERNEL_S] * 6
    assert speed.scale(1, 2) == pytest.approx(1.0)
    assert speed.scale(9, 10) == pytest.approx(0.5)
    # Three runs on each side straddle the change.
    assert speed.scale(5, 6) == pytest.approx(1 / 1.5)
    # A long measurement takes the median over every run inside it too.
    speed.samples = [REFERENCE_KERNEL_S] * 3 + [2 * REFERENCE_KERNEL_S] * 10 + [REFERENCE_KERNEL_S] * 3
    assert speed.scale(2, 13) == pytest.approx(0.5)


def test_zipf_mix_is_seeded_and_skewed():
    first = zipf_mix(40, 8000, 1.1, clients=4, seed=3, popularity_seed=7)
    assert np.array_equal(first, zipf_mix(40, 8000, 1.1, clients=4, seed=3, popularity_seed=7))
    assert not np.array_equal(first, zipf_mix(40, 8000, 1.1, clients=4, seed=4, popularity_seed=7))
    heads = set()
    for client in range(4):
        counts = np.sort(np.bincount(first[client::4], minlength=40))[::-1]
        # Each client's favourite outnumbers its ten least-read items together.
        assert counts[0] > counts[-10:].sum()
        heads.add(int(np.argmax(np.bincount(first[client::4]))))
    # The clients' popularity orders differ, so the head is spread.
    assert len(heads) > 1


def test_hot_queries_are_seeded(graph):
    first = hot_queries(graph, 4, 2, k=3, seed=5)
    assert first == hot_queries(graph, 4, 2, k=3, seed=5)
    assert len(first) == 8 and len({q.attribute for q in first}) == 4
    assert all(graph.has_attribute(q.node, q.attribute) for q in first)


def _batches(graph, seed, protected=()):
    stream = UpdateStream(graph, seed, protected=protected)
    return [stream.next_batch(kind) for kind in ("edge", "attr") * 4]


def test_update_batches_are_seeded(graph):
    assert _batches(graph, 9) == _batches(graph, 9)
    assert _batches(graph, 9) != _batches(graph, 10)


def test_update_batches_apply_without_conflicts(graph):
    protected = [(q.node, q.attribute) for q in hot_queries(graph, 4, 2, k=3, seed=1)]
    current = graph
    for batch in _batches(graph, 2, protected):
        if batch.label == "edge":
            assert sum(not u.add for u in batch.updates) == EDGE_DELETES
            assert sum(u.add for u in batch.updates) == EDGE_INSERTS
        else:
            assert len(batch.updates) == ATTR_UPDATES
        current = apply_updates(current, batch.updates)
    for node, attribute in protected:
        assert current.has_attribute(node, attribute)
    assert current.attribute_universe == graph.attribute_universe


def test_layer_self_times_sum_to_the_answer():
    clock = iter(range(100)).__next__
    trace = QueryTrace(clock=clock)
    with trace.span("answer"):
        with trace.span("rung:CODL"):
            with trace.span("lore"):
                pass
            with trace.span("compressed_eval", levels=3) as span:
                span.note(n_samples=7)
                with trace.span("sampling"):
                    pass
    profile = AnswerProfile()
    profile.add(trace)
    profile.add_weighting(0.5)
    assert profile.seconds["compressed_eval"] == 3
    assert profile.seconds["sampling"] == 1
    assert profile.eval_samples == 7
    assert profile.lookups == 0
    total = sum(profile.seconds.values()) + profile.weighting_seconds
    assert total + profile.unattributed_seconds == profile.answer_seconds
