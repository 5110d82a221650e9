"""Unit tests for query tracing: span nesting, rendering, the TeeTrace
fan-out, and the StageProfiler bridge into the metrics registry."""

import pytest

from repro.obs import MetricsRegistry, QueryTrace, StageProfiler, TeeTrace
from repro.obs.profiler import COUNTER_NOTES


def ticking_clock():
    """A deterministic perf_counter: 0.0, 1.0, 2.0, ... per call."""
    state = {"t": -1.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


class TestQueryTrace:
    def test_spans_nest_and_record_elapsed(self):
        # Clock ticks once at init, twice per span entry, once per exit.
        trace = QueryTrace(clock=ticking_clock())
        with trace.span("answer", node=3) as root:
            with trace.span("sampling") as inner:
                inner.note(samples=40)
        assert root.name == "answer"
        assert root.meta == {"node": 3}
        assert root.elapsed_s == 4.0
        (child,) = root.children
        assert child.name == "sampling"
        assert child.elapsed_s == 1.0
        assert child.meta == {"samples": 40}

    def test_span_closed_on_exception(self):
        trace = QueryTrace()
        with pytest.raises(RuntimeError):
            with trace.span("answer"):
                raise RuntimeError("boom")
        span = trace.find("answer")
        assert span is not None
        assert span.elapsed_s >= 0.0
        # The stack unwound: a new span is a fresh root, not a child.
        with trace.span("again"):
            pass
        assert len(trace.as_dict()["spans"]) == 2

    def test_find_searches_nested_spans(self):
        trace = QueryTrace()
        with trace.span("answer"):
            with trace.span("rung:CODL"):
                with trace.span("lore"):
                    pass
        assert trace.find("lore").name == "lore"
        assert trace.find("missing") is None

    def test_as_dict_is_nested_and_serializable(self):
        import json

        trace = QueryTrace()
        with trace.span("answer", k=5):
            with trace.span("sampling"):
                pass
        doc = trace.as_dict()
        json.dumps(doc)
        (root,) = doc["spans"]
        assert root["name"] == "answer"
        assert root["meta"] == {"k": 5}
        assert root["children"][0]["name"] == "sampling"

    def test_render_draws_tree_with_timings_and_meta(self):
        trace = QueryTrace()
        with trace.span("answer", node=7):
            with trace.span("sampling"):
                pass
            with trace.span("lore"):
                pass
        text = trace.render()
        assert "answer" in text
        assert "node=7" in text
        assert "ms" in text
        assert "├─" in text and "└─" in text


class TestTeeTrace:
    def test_broadcasts_spans_and_notes(self):
        a, b = QueryTrace(), QueryTrace()
        tee = TeeTrace(a, b)
        with tee.span("answer", node=1) as span:
            span.note(rung="CODL")
        for trace in (a, b):
            root = trace.find("answer")
            assert root.meta == {"node": 1, "rung": "CODL"}

    def test_none_members_dropped(self):
        a = QueryTrace()
        tee = TeeTrace(None, a, None)
        with tee.span("answer"):
            pass
        assert a.find("answer") is not None


class TestStageProfiler:
    def test_records_stage_timing_and_call_count(self):
        reg = MetricsRegistry()
        profiler = StageProfiler(reg)
        for _ in range(3):
            with profiler.span("lore"):
                pass
        snap = reg.snapshot()
        assert snap["counters"]["stage.lore.calls"] == 3
        assert snap["histograms"]["stage.lore.seconds"]["count"] == 3

    def test_counter_notes_fold_into_counters(self):
        reg = MetricsRegistry()
        profiler = StageProfiler(reg)
        with profiler.span("sampling") as span:
            span.note(samples=40, arena_nodes=10, arena_edges=25)
        counters = reg.snapshot()["counters"]
        assert counters["rr.samples"] == 40
        assert counters["arena.nodes"] == 10
        assert counters["arena.edges"] == 25

    def test_zero_and_non_numeric_notes_ignored(self):
        reg = MetricsRegistry()
        profiler = StageProfiler(reg)
        with profiler.span("answer") as span:
            span.note(samples=0, rung="CODL", hit=True)
        counters = reg.snapshot()["counters"]
        assert "rr.samples" not in counters
        assert all(name in COUNTER_NOTES.values() or name.startswith("stage.")
                   for name in counters)

    def test_tee_with_query_trace_feeds_both(self):
        reg = MetricsRegistry()
        trace = QueryTrace()
        tee = TeeTrace(trace, StageProfiler(reg))
        with tee.span("sampling") as span:
            span.note(samples=7)
        assert trace.find("sampling").meta == {"samples": 7}
        assert reg.snapshot()["counters"]["rr.samples"] == 7
