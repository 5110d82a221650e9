"""Unit tests for the deterministic fault injector."""

import pytest

from repro.errors import InfluenceError
from repro.influence.arena import sample_arena
from repro.utils import faults
from repro.utils.faults import FaultInjected, inject, maybe_fail


class TestInjectBasics:
    def test_disarmed_site_is_silent(self):
        maybe_fail("rr_sampling")  # no plan armed: no-op

    def test_rate_one_always_fails(self):
        with inject(site="lore", rate=1.0):
            with pytest.raises(FaultInjected):
                maybe_fail("lore")

    def test_rate_zero_never_fails(self):
        with inject(site="lore", rate=0.0) as plan:
            for _ in range(50):
                maybe_fail("lore")
        assert plan.calls == 50
        assert plan.failures == 0

    def test_custom_exception_class(self):
        with inject(site="rr_sampling", rate=1.0, exc=InfluenceError,
                    message="boom"):
            with pytest.raises(InfluenceError, match="boom"):
                maybe_fail("rr_sampling")

    def test_exception_instance_raised_as_is(self):
        sentinel = InfluenceError("exact instance")
        with inject(site="rr_sampling", rate=1.0, exc=sentinel):
            with pytest.raises(InfluenceError) as info:
                maybe_fail("rr_sampling")
        assert info.value is sentinel

    def test_scope_restored_on_exit(self):
        with inject(site="lore", rate=1.0):
            assert faults.armed_sites() == ["lore"]
        assert faults.armed_sites() == []
        maybe_fail("lore")  # disarmed again

    def test_scope_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with inject(site="lore", rate=1.0):
                raise RuntimeError("body error")
        assert faults.armed_sites() == []


class TestInjectValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            with inject(site="warp_drive"):
                pass

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            with inject(site="lore", rate=1.5):
                pass

    def test_double_arming_rejected(self):
        with inject(site="lore"):
            with pytest.raises(RuntimeError, match="already armed"):
                with inject(site="lore"):
                    pass
        # The rejected inner plan must not have disarmed the outer one...
        # but the outer context has now exited, so the site is free again.
        with inject(site="lore", rate=0.0):
            maybe_fail("lore")


class TestDeterminism:
    def _pattern(self, seed: int) -> list[bool]:
        outcomes = []
        with inject(site="lore", rate=0.4, seed=seed):
            for _ in range(40):
                try:
                    maybe_fail("lore")
                    outcomes.append(False)
                except FaultInjected:
                    outcomes.append(True)
        return outcomes

    def test_same_seed_same_failures(self):
        assert self._pattern(7) == self._pattern(7)

    def test_different_seed_different_failures(self):
        assert self._pattern(7) != self._pattern(8)

    def test_count_limits_failures(self):
        with inject(site="lore", rate=1.0, count=2) as plan:
            for _ in range(2):
                with pytest.raises(FaultInjected):
                    maybe_fail("lore")
            maybe_fail("lore")  # budget spent: passes
        assert plan.failures == 2

    def test_after_skips_initial_calls(self):
        with inject(site="lore", rate=1.0, after=3) as plan:
            for _ in range(3):
                maybe_fail("lore")
            with pytest.raises(FaultInjected):
                maybe_fail("lore")
        assert plan.calls == 4


class TestProductionHooks:
    def test_rr_sampling_site_fires_in_sampler(self, triangle_graph):
        with inject(site="rr_sampling", rate=1.0, exc=InfluenceError):
            with pytest.raises(InfluenceError):
                sample_arena(triangle_graph, 1, rng=0)
        # Disarmed: the sampler works again.
        arena = sample_arena(triangle_graph, 1, rng=0)
        assert arena.view(0).source in (0, 1, 2)

    def test_lore_site_fires_in_lore_chain(self, paper_graph, paper_hierarchy):
        from repro.core.lore import lore_chain

        with inject(site="lore", rate=1.0):
            with pytest.raises(FaultInjected):
                lore_chain(paper_graph, paper_hierarchy, 0, 0)

    def test_clustering_site_fires(self, triangle_graph):
        from repro.hierarchy.nnchain import agglomerative_hierarchy

        with inject(site="clustering", rate=1.0):
            with pytest.raises(FaultInjected):
                agglomerative_hierarchy(triangle_graph)
