"""Per-query execution budgets, cooperative checkpoints, and backoff.

An :class:`ExecutionBudget` bounds one query's work along two axes: a
wall-clock deadline and an RR-sample budget. The long-running primitives
(:func:`repro.influence.arena.sample_arena` and the other arena samplers,
:func:`repro.core.compressed.compressed_cod`,
:func:`repro.core.lore.lore_chain`, HIMOR construction) accept an optional
``budget`` and call :meth:`check` / :meth:`tick` at natural checkpoints —
once per RR graph drawn or traversed — so a blown budget surfaces as
:class:`~repro.errors.DeadlineExceededError` or
:class:`~repro.errors.BudgetExhaustedError` within one sample's worth of
work, never as an unbounded hang.

The budget is deliberately duck-typed at the call sites (no imports from
``repro.serving`` in ``core``/``influence``): anything exposing
``check()``/``tick()`` works.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.errors import BudgetExhaustedError, DeadlineExceededError


class BackoffPolicy:
    """Capped exponential backoff with bounded, deterministic jitter.

    Attempt ``i`` (0-based) waits ``min(cap_s, base_s * factor**i)``
    scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]`` out of a seeded private generator — so a
    herd of restarting workers decorrelates, yet a failing schedule
    replays exactly under the same seed.

    Used for query-retry backoff inside :class:`~repro.serving.CODServer`
    (``jitter=0`` there, preserving the exact legacy delays) and for
    worker restart backoff in the supervisor.
    """

    def __init__(
        self,
        base_s: float = 0.05,
        factor: float = 2.0,
        cap_s: float = 5.0,
        jitter: float = 0.1,
        seed: "int | None" = 0,
    ) -> None:
        if base_s < 0:
            raise ValueError(f"base_s must be non-negative, got {base_s!r}")
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor!r}")
        if cap_s < 0:
            raise ValueError(f"cap_s must be non-negative, got {cap_s!r}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter!r}")
        self.base_s = float(base_s)
        self.factor = float(factor)
        self.cap_s = float(cap_s)
        self.jitter = float(jitter)
        self._rng = np.random.default_rng(seed)

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered and capped.

        The returned delay always lies in
        ``[undithered * (1 - jitter), undithered * (1 + jitter)]`` where
        ``undithered = min(cap_s, base_s * factor**attempt)``.
        """
        if attempt < 0:
            raise ValueError(f"attempt must be non-negative, got {attempt!r}")
        undithered = min(self.cap_s, self.base_s * self.factor**attempt)
        if self.jitter == 0.0:
            return undithered
        scale = 1.0 + self.jitter * (2.0 * float(self._rng.random()) - 1.0)
        return undithered * scale

    def __repr__(self) -> str:
        return (
            f"BackoffPolicy(base_s={self.base_s}, factor={self.factor}, "
            f"cap_s={self.cap_s}, jitter={self.jitter})"
        )


class ExecutionBudget:
    """Wall-clock + RR-sample budget shared by every rung of one query.

    Parameters
    ----------
    deadline_s:
        Wall-clock allowance in seconds from construction; ``None``
        disables the deadline.
    max_samples:
        Total RR graphs the query may draw across all rungs and retries;
        ``None`` disables the cap.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        deadline_s: "float | None" = None,
        max_samples: "int | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline_s is not None and deadline_s < 0:
            raise ValueError(f"deadline_s must be non-negative, got {deadline_s!r}")
        if max_samples is not None and max_samples < 0:
            raise ValueError(f"max_samples must be non-negative, got {max_samples!r}")
        self.deadline_s = deadline_s
        self.max_samples = max_samples
        self.samples_drawn = 0
        self._clock = clock
        self._start = clock()

    # ------------------------------------------------------------- queries

    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return self._clock() - self._start

    def remaining_seconds(self) -> "float | None":
        """Seconds left before the deadline (``None`` when unbounded)."""
        if self.deadline_s is None:
            return None
        return max(0.0, self.deadline_s - self.elapsed())

    def remaining_samples(self) -> "int | None":
        """RR draws left in the sample budget (``None`` when unbounded)."""
        if self.max_samples is None:
            return None
        return max(0, self.max_samples - self.samples_drawn)

    @property
    def exhausted(self) -> bool:
        """Whether either axis of the budget is spent."""
        if self.deadline_s is not None and self.elapsed() > self.deadline_s:
            return True
        if self.max_samples is not None and self.samples_drawn >= self.max_samples:
            return True
        return False

    # --------------------------------------------------------- checkpoints

    def check(self) -> None:
        """Deadline checkpoint; raises once the wall clock runs out."""
        if self.deadline_s is None:
            return
        elapsed = self.elapsed()
        if elapsed > self.deadline_s:
            raise DeadlineExceededError(elapsed, self.deadline_s)

    def tick(self, n: int = 1) -> None:
        """Account for ``n`` RR draws, then run the deadline checkpoint."""
        self.samples_drawn += n
        if self.max_samples is not None and self.samples_drawn > self.max_samples:
            raise BudgetExhaustedError(self.samples_drawn, self.max_samples)
        self.check()

    def clamp_samples(self, requested: int) -> int:
        """Shrink a planned draw to what the sample budget still allows.

        Raises :class:`BudgetExhaustedError` when nothing is left — a
        zero-sample evaluation would silently answer from no evidence.
        """
        remaining = self.remaining_samples()
        if remaining is None:
            return requested
        if remaining == 0 and requested > 0:
            raise BudgetExhaustedError(self.samples_drawn, self.max_samples or 0)
        return min(requested, remaining)

    def __repr__(self) -> str:
        return (
            f"ExecutionBudget(deadline_s={self.deadline_s}, "
            f"max_samples={self.max_samples}, drawn={self.samples_drawn}, "
            f"elapsed={self.elapsed():.3f}s)"
        )
