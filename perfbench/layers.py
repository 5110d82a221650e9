"""Per-layer accounting for the traced run.

Answer time is attributed from the outside: each in-process answer runs
under a :class:`repro.obs.QueryTrace` (the public ``answer(trace=)``
hook), and this module walks the span tree. A layer's *self* time is its
span's duration minus the nearest layer spans nested inside it, so the
layers never double count. Weighting has no span; the benchmark times
:func:`repro.graph.weighting.attribute_weighted_graph` itself for every
weighted graph the server built, and the rest of the answer span is
``answer.unattributed_seconds``.
"""

from __future__ import annotations

from collections import defaultdict

#: Spans the program emits inside an answer, as the layer each times.
LAYER_SPANS = {
    "lore": "lore",
    "himor_lookup": "himor_lookup",
    "pool_restrict": "restrict",
    "compressed_eval": "compressed_eval",
    "clustering": "clustering",
    "himor_build": "himor_build",
    "sampling": "sampling",
}


def _covered(span) -> float:
    """Seconds of ``span`` spent inside its nearest layer descendants."""
    total = 0.0
    for child in span.children:
        total += child.elapsed_s if child.name in LAYER_SPANS else _covered(child)
    return total


class AnswerProfile:
    """Layer self-times summed over many traced answers."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.answers = 0
        self.answer_seconds = 0.0
        self.weighting_seconds = 0.0
        self.weighting_builds = 0
        self.lookups = 0
        self.local_evaluations = 0
        self.eval_samples = 0

    def add(self, trace) -> None:
        """Fold one answer's span tree in."""
        for root in trace.spans:
            self.answers += 1
            self.answer_seconds += root.elapsed_s
            seen: set[str] = set()
            self._walk(root, seen)
            if "himor_lookup" in seen:
                self.lookups += 1
                self.local_evaluations += "compressed_eval" in seen

    def _walk(self, span, seen: set) -> None:
        for child in span.children:
            layer = LAYER_SPANS.get(child.name)
            if layer is not None:
                seen.add(child.name)
                self.seconds[layer] += child.elapsed_s - _covered(child)
                self.calls[layer] += 1
                if child.name == "compressed_eval":
                    self.eval_samples += int(child.meta.get("n_samples", 0))
            self._walk(child, seen)

    def add_weighting(self, seconds: float) -> None:
        """One weighted graph the server built, timed by the benchmark."""
        self.weighting_builds += 1
        self.weighting_seconds += seconds

    @property
    def unattributed_seconds(self) -> float:
        """Answer time no layer span or weighting timing accounts for."""
        return (
            self.answer_seconds
            - sum(self.seconds.values())
            - self.weighting_seconds
        )


def update_layers(trace) -> dict:
    """Layer self-times inside one traced ``apply_updates`` call."""
    profile = AnswerProfile()
    for root in trace.spans:
        profile._walk(root, set())
    return dict(profile.seconds)


def counter_delta(after: dict, before: dict, name: str) -> int:
    """Growth of one registry counter between two snapshots."""
    return int(after["counters"].get(name, 0)) - int(before["counters"].get(name, 0))


def stage_seconds(snapshot: dict, stage: str) -> float:
    """Total seconds a registry recorded for ``stage.<stage>.seconds``."""
    histogram = snapshot["histograms"].get(f"stage.{stage}.seconds")
    return float(histogram["sum"]) if histogram else 0.0


def stage_calls(snapshot: dict, stage: str) -> int:
    """Calls a registry counted for ``stage.<stage>``."""
    return int(snapshot["counters"].get(f"stage.{stage}.calls", 0))


def hit_ratio(after: dict, before: dict, cache: str) -> float:
    """Hit ratio of one server cache over the interval between snapshots."""
    hits = counter_delta(after, before, f"cache.{cache}.hits")
    misses = counter_delta(after, before, f"cache.{cache}.misses")
    return hits / (hits + misses) if hits + misses else 0.0
