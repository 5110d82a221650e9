"""Influence substrate: weighted-cascade RR arenas and estimators."""

from repro.influence.arena import (
    RRArena,
    RRView,
    concatenate_arenas,
    sample_arena,
)
from repro.influence.fastsample import (
    ArenaWriter,
    sample_arena_fast,
    sample_arena_seeded_fast,
)
from repro.influence.estimator import (
    InfluenceEstimate,
    estimate_influences,
    influence_ranks,
    rank_of,
)

__all__ = [
    "RRArena",
    "RRView",
    "sample_arena",
    "sample_arena_fast",
    "sample_arena_seeded_fast",
    "ArenaWriter",
    "concatenate_arenas",
    "InfluenceEstimate",
    "estimate_influences",
    "influence_ranks",
    "rank_of",
]
