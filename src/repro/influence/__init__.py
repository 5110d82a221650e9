"""Influence substrate: diffusion models, RR arenas, estimators."""

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
from repro.influence.models import (
    InfluenceModel,
    LinearThreshold,
    UniformIC,
    WeightedCascade,
)
from repro.influence.montecarlo import simulate_influence

__all__ = [
    "InfluenceModel",
    "WeightedCascade",
    "UniformIC",
    "LinearThreshold",
    "RRArena",
    "RRView",
    "sample_arena",
    "sample_arena_fast",
    "sample_arena_seeded_fast",
    "ArenaWriter",
    "concatenate_arenas",
    "simulate_influence",
    "InfluenceEstimate",
    "estimate_influences",
    "influence_ranks",
    "rank_of",
]
