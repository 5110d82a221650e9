"""Shared utilities: seeded RNG handling, validation helpers, and the
one bounded LRU cache every layer shares."""

from repro.utils.cache import LRUCache, default_sizeof
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "LRUCache",
    "default_sizeof",
    "ensure_rng",
    "spawn_rngs",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
