"""Unit tests for ExecutionBudget, BackoffPolicy, and budget checkpoints."""

import pytest

from repro.core.compressed import compressed_cod
from repro.core.lore import lore_chain
from repro.errors import BudgetExhaustedError, DeadlineExceededError
from repro.influence.arena import sample_arena
from repro.serving import BackoffPolicy, ExecutionBudget


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestBudgetAccounting:
    def test_unbounded_by_default(self):
        budget = ExecutionBudget()
        budget.check()
        budget.tick(10_000)
        assert budget.remaining_seconds() is None
        assert budget.remaining_samples() is None
        assert not budget.exhausted

    def test_deadline_checkpoint(self):
        clock = FakeClock()
        budget = ExecutionBudget(deadline_s=1.0, clock=clock)
        budget.check()
        clock.advance(0.5)
        budget.check()
        clock.advance(0.6)
        assert budget.exhausted
        with pytest.raises(DeadlineExceededError) as info:
            budget.check()
        assert info.value.deadline == 1.0
        assert info.value.elapsed == pytest.approx(1.1)

    def test_sample_budget(self):
        budget = ExecutionBudget(max_samples=5)
        budget.tick(5)
        assert budget.remaining_samples() == 0
        with pytest.raises(BudgetExhaustedError):
            budget.tick()

    def test_clamp_samples(self):
        budget = ExecutionBudget(max_samples=10)
        assert budget.clamp_samples(100) == 10
        budget.tick(7)
        assert budget.clamp_samples(100) == 3
        budget.tick(3)
        with pytest.raises(BudgetExhaustedError):
            budget.clamp_samples(1)

    def test_clamp_unbounded_passthrough(self):
        assert ExecutionBudget().clamp_samples(123) == 123

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            ExecutionBudget(deadline_s=-1.0)
        with pytest.raises(ValueError):
            ExecutionBudget(max_samples=-1)


class TestBackoffPolicy:
    def test_exponential_growth_without_jitter(self):
        policy = BackoffPolicy(base_s=0.1, factor=2.0, cap_s=100.0, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.8)

    def test_cap(self):
        policy = BackoffPolicy(base_s=1.0, factor=2.0, cap_s=5.0, jitter=0.0)
        assert policy.delay(10) == pytest.approx(5.0)
        assert policy.delay(100) == pytest.approx(5.0)

    def test_jitter_stays_within_documented_bounds(self):
        # delay(attempt) must land in [d*(1-jitter), d*(1+jitter)] where
        # d = min(cap, base * factor**attempt) — the satellite's contract.
        policy = BackoffPolicy(base_s=0.5, factor=2.0, cap_s=8.0, jitter=0.25,
                               seed=123)
        for attempt in range(8):
            undithered = min(8.0, 0.5 * 2.0**attempt)
            for _ in range(50):
                delay = policy.delay(attempt)
                assert undithered * 0.75 <= delay <= undithered * 1.25

    def test_jitter_actually_varies(self):
        policy = BackoffPolicy(base_s=1.0, factor=2.0, cap_s=10.0, jitter=0.5,
                               seed=0)
        delays = {policy.delay(2) for _ in range(20)}
        assert len(delays) > 1

    def test_deterministic_given_seed(self):
        a = [BackoffPolicy(jitter=0.3, seed=42).delay(i) for i in range(6)]
        b = [BackoffPolicy(jitter=0.3, seed=42).delay(i) for i in range(6)]
        assert a == b

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=-0.1)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(cap_s=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=-0.1)


class TestCheckpointThreading:
    def test_sampling_stops_at_budget(self, paper_graph):
        budget = ExecutionBudget(max_samples=3)
        with pytest.raises(BudgetExhaustedError):
            sample_arena(paper_graph, 10, rng=0, budget=budget)
        # The fourth draw's tick trips the budget before it samples.
        assert budget.samples_drawn == 4

    def test_compressed_cod_respects_deadline(self, paper_graph, paper_hierarchy):
        from repro.hierarchy.chain import CommunityChain

        clock = FakeClock()
        budget = ExecutionBudget(deadline_s=1.0, clock=clock)
        clock.advance(10.0)  # now past the deadline
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        with pytest.raises(DeadlineExceededError):
            compressed_cod(paper_graph, chain, k=2, theta=2, rng=0, budget=budget)

    def test_compressed_cod_hfs_respects_deadline(self, paper_graph, paper_hierarchy):
        """A pre-drawn arena skips sampling, so only the HFS loop's
        per-expansion checks can observe the deadline."""
        from repro.hierarchy.chain import CommunityChain

        reads = []

        def clock() -> float:
            reads.append(1)
            # Construction and the first check read 0; later reads are late.
            return 0.0 if len(reads) <= 2 else 10.0

        arena = sample_arena(paper_graph, 40, rng=5)
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        budget = ExecutionBudget(deadline_s=1.0, clock=clock)
        with pytest.raises(DeadlineExceededError):
            compressed_cod(paper_graph, chain, k=2, rr_graphs=arena, budget=budget)
        # The first expansion passed its check; the second one raised.
        assert len(reads) == 3

    def test_lore_respects_deadline(self, paper_graph, paper_hierarchy):
        clock = FakeClock()
        budget = ExecutionBudget(deadline_s=1.0, clock=clock)
        clock.advance(10.0)
        with pytest.raises(DeadlineExceededError):
            lore_chain(paper_graph, paper_hierarchy, 0, 0, budget=budget)

    def test_himor_build_respects_sample_budget(self, paper_graph, paper_hierarchy):
        from repro.core.himor import HimorIndex

        budget = ExecutionBudget(max_samples=4)
        with pytest.raises(BudgetExhaustedError):
            HimorIndex.build(
                paper_graph, paper_hierarchy, theta=5, rng=0, budget=budget
            )
