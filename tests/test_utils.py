"""Unit tests for the utility helpers."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, size=5)
        b = ensure_rng(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert not np.array_equal(a.integers(0, 100, 10), b.integers(0, 100, 10))

    def test_deterministic(self):
        xs = [r.integers(0, 1000) for r in spawn_rngs(7, 3)]
        ys = [r.integers(0, 1000) for r in spawn_rngs(7, 3)]
        assert xs == ys

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []


class TestValidation:
    def test_check_positive(self):
        check_positive(1, "x")
        with pytest.raises(ValueError, match="x"):
            check_positive(0, "x")

    def test_check_non_negative(self):
        check_non_negative(0, "x")
        with pytest.raises(ValueError):
            check_non_negative(-1, "x")

    def test_check_probability(self):
        check_probability(0.0, "p")
        check_probability(1.0, "p")
        with pytest.raises(ValueError):
            check_probability(1.1, "p")

    def test_check_fraction(self):
        check_fraction(1.0, "f")
        with pytest.raises(ValueError):
            check_fraction(0.0, "f")


class TestValidationNaN:
    """NaN must be rejected explicitly, with a message that says NaN.

    Without the dedicated check, ``check_non_negative(nan)`` would *pass*
    (``nan < 0`` is False) and the others would raise with the misleading
    generic range message.
    """

    @pytest.mark.parametrize("helper", [
        check_positive, check_non_negative, check_probability, check_fraction,
    ])
    def test_nan_rejected_with_dedicated_message(self, helper):
        with pytest.raises(ValueError, match="x must be a number, got NaN"):
            helper(float("nan"), "x")

    @pytest.mark.parametrize("helper", [
        check_positive, check_non_negative, check_probability, check_fraction,
    ])
    def test_numpy_nan_rejected(self, helper):
        import numpy as np

        with pytest.raises(ValueError, match="NaN"):
            helper(np.float64("nan"), "x")

    def test_infinities_keep_range_semantics(self):
        # inf is a number: it passes the sign checks but fails the bounded
        # ranges with the normal range message, not the NaN one.
        check_positive(float("inf"), "x")
        check_non_negative(float("inf"), "x")
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            check_probability(float("inf"), "x")
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            check_fraction(float("-inf"), "x")
