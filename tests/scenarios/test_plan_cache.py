"""Replan-cache correctness: caching never changes scenario physics.

A failure/repair oscillation visits the same cluster sizes repeatedly;
the process-wide plan cache must make that cheaper without perturbing a
single metric byte, and the hit/miss counters on
:class:`~repro.scenarios.engine.ScenarioResult` must account for every
orchestration the timeline needed.
"""

import pytest

from repro.core.api import replan
from repro.fleet.job import STATE_CACHE
from repro.orchestration.errors import InfeasibleClusterError
from repro.orchestration.plancache import PLAN_CACHE, planning_signature
from repro.scenarios import EventTrace, ScenarioSpec
from repro.scenarios.engine import ScenarioEngine, run_scenario
from repro.scenarios.events import FailureEvent

from tests.scenarios.conftest import FAST_RECOVERY


def oscillation_spec() -> ScenarioSpec:
    """fail -> shrink -> repair -> re-grow -> fail -> shrink again.

    Two explicit failures with a repair window between them, elastic
    scheduling on: the engine plans the full cluster, the shrunken
    cluster, the full cluster again (repair), and the shrunken cluster
    again — only two *distinct* sizes.
    """
    return ScenarioSpec(
        num_iterations=40,
        checkpoint_interval=10,
        elastic=True,
        repair_seconds=120.0,
        replan_seconds=5.0,
        events=EventTrace([
            FailureEvent(time_s=30.0),
            FailureEvent(time_s=160.0),
        ]),
        **FAST_RECOVERY,
    )


def snapshot(result):
    """Everything that must not depend on caching."""
    return (
        result.metrics(),
        result.iteration_times.tobytes(),
        result.mfu_trajectory.tobytes(),
        [repr(e) for e in result.events],
    )


class TestCacheTransparency:
    def test_cache_on_off_byte_identical(self, small_config):
        spec = oscillation_spec()
        PLAN_CACHE.clear()
        cached = ScenarioEngine(
            small_config, spec, use_plan_cache=True
        ).run()
        uncached = ScenarioEngine(
            small_config, spec, use_plan_cache=False
        ).run()
        assert snapshot(cached) == snapshot(uncached)

    def test_oscillation_hit_counts(self, small_config):
        spec = oscillation_spec()
        PLAN_CACHE.clear()
        first = ScenarioEngine(small_config, spec).run()
        # shrink -> re-grow -> shrink again: three membership changes
        # over just two distinct cluster sizes.
        assert first.num_replans == 3
        assert first.min_gpus == 40 and first.initial_gpus == 48
        # Each distinct size is solved exactly once; every further plan
        # need (the elastic feasibility probe, the repair re-growth, the
        # second shrink) is a cache hit.
        assert first.plan_cache_misses == 2
        assert first.plan_cache_hits == 4

        # A second engine (fresh per-size state, same process) finds
        # every plan already cached.
        second = ScenarioEngine(small_config, spec).run()
        assert second.plan_cache_misses == 0
        assert second.plan_cache_hits == 6
        assert snapshot(first) == snapshot(second)

    def test_cache_off_counts_every_solve_as_miss(self, small_config):
        spec = oscillation_spec()
        result = ScenarioEngine(
            small_config, spec, use_plan_cache=False
        ).run()
        # Distinct sizes are still memoized per engine (state table),
        # but nothing comes from (or goes into) the process cache.
        assert result.plan_cache_misses == 2
        hits, misses = PLAN_CACHE.stats()
        before = (hits, misses)
        ScenarioEngine(small_config, spec, use_plan_cache=False).run()
        assert PLAN_CACHE.stats() == before


class TestSharedClusterStates:
    """Scenario runs of one task share cluster-state builds through
    the process-wide job-state cache, invisibly to their results."""

    SPEC = ScenarioSpec(
        num_iterations=60,
        checkpoint_interval=15,
        mtbf_gpu_hours=4.0,
        straggler_rate=0.05,
        seed=3,
        **FAST_RECOVERY,
    )

    def test_repeat_runs_build_state_once(self, small_config):
        def counters(result):
            return result.plan_cache_hits, result.plan_cache_misses

        PLAN_CACHE.clear()
        STATE_CACHE.clear()
        first = run_scenario(small_config, self.SPEC)
        # Cold plans again, warm states: the plan counters a run
        # reports do not depend on where its states came from.
        PLAN_CACHE.clear()
        second = run_scenario(small_config, self.SPEC)
        assert STATE_CACHE.stats() == (1, 1)
        assert snapshot(first) == snapshot(second)
        assert counters(first) == counters(second) == (0, 1)

    def test_plan_cache_bypass_builds_private_states(self, small_config):
        before = STATE_CACHE.stats()
        engines = [
            ScenarioEngine(small_config, self.SPEC, use_plan_cache=False)
            for _ in range(2)
        ]
        results = [engine.run() for engine in engines]
        assert STATE_CACHE.stats() == before
        first, second = (engine._job._states[48] for engine in engines)
        assert first is not second
        assert snapshot(results[0]) == snapshot(results[1])


class TestPlanCacheUnit:
    def test_failed_compute_not_cached(self, small_config):
        PLAN_CACHE.clear()
        # 44 GPUs is not a whole number of 8-GPU nodes: the replan fails.
        for _ in range(2):
            with pytest.raises(InfeasibleClusterError):
                replan(small_config, 44)
        assert PLAN_CACHE.lookup(planning_signature(small_config, 44)) is None
        # The miss was never recorded for a failed solve, so the size is
        # re-checked each time it appears.
        assert PLAN_CACHE.stats() == (0, 0)


class TestPlanningSignature:
    def test_planning_signature_tracks_config_and_size(self, small_config):
        a = planning_signature(small_config, 48)
        b = planning_signature(small_config, 40)
        c = planning_signature(small_config.with_(global_batch_size=32), 48)
        assert a != b and a != c
        assert a == planning_signature(small_config, 48)


class TestReplanCachedAtApiLevel:
    def test_api_replan_hits_cache(self, small_config):
        from repro.core import api

        PLAN_CACHE.clear()
        first = api.replan(small_config, 40)
        hits0, misses0 = PLAN_CACHE.stats()
        again = api.replan(small_config, 40)
        assert again is first
        assert PLAN_CACHE.stats() == (hits0 + 1, misses0)
