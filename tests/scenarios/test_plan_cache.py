"""Replan-cache correctness: caching never changes scenario results.

A failure/repair oscillation visits the same cluster sizes repeatedly;
the process-wide plan cache must make that cheaper without perturbing a
single byte of the result. The hit/miss counters on
:class:`~repro.scenarios.result.ScenarioResult` account for every
orchestration the timeline needed, counted against the run alone, so a
run reports the same counters whatever the process ran before it.
"""

import pytest

from repro.core.api import replan
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.job import STATE_CACHE, JobSimulator
from repro.orchestration.errors import InfeasibleClusterError
from repro.orchestration.plancache import PLAN_CACHE, planning_signature
from repro.scenarios import EventTrace, ScenarioSpec, run_scenario
from repro.scenarios.events import FailureEvent

from tests.scenarios.conftest import FAST_RECOVERY


def oscillation_spec() -> ScenarioSpec:
    """fail -> shrink -> repair -> re-grow -> fail -> shrink again.

    Two explicit failures with a repair window between them, elastic
    scheduling on: the job plans the full cluster, the shrunken
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
        """A run from cold plan and state caches and one from the warm
        caches it left give the same result, counters included."""
        spec = oscillation_spec()
        PLAN_CACHE.clear()
        STATE_CACHE.clear()
        cold = JobSimulator(small_config, spec).run()
        warm = JobSimulator(small_config, spec).run()
        assert warm.to_dict() == cold.to_dict()

    def test_oscillation_hit_counts(self, small_config):
        spec = oscillation_spec()
        first = JobSimulator(small_config, spec).run()
        # shrink -> re-grow -> shrink again: three membership changes
        # over just two distinct cluster sizes.
        assert first.num_replans == 3
        assert first.min_gpus == 40 and first.initial_gpus == 48
        # Each distinct size is solved exactly once; every further plan
        # need (the elastic feasibility probe, the repair re-growth, the
        # second shrink) is a cache hit.
        assert first.plan_cache_misses == 2
        assert first.plan_cache_hits == 4

        # A second job in the same process finds every plan in the
        # process cache, but counts its own run: the same tallies.
        second = JobSimulator(small_config, spec).run()
        assert second.plan_cache_misses == 2
        assert second.plan_cache_hits == 4
        assert snapshot(first) == snapshot(second)


class TestRunScopedCounters:
    """A result depends on its spec alone: no run reads plan counters
    left by what the process ran before it."""

    CALM = ScenarioSpec(num_iterations=20, checkpoint_interval=10)

    def test_scenario_engine_run_twice(self, small_config):
        # A cold first run: the second must repeat its counters.
        PLAN_CACHE.clear()
        job = JobSimulator(small_config, oscillation_spec())
        first = job.run()
        assert (first.plan_cache_hits, first.plan_cache_misses) == (4, 2)
        assert job.run().to_dict() == first.to_dict()

    def test_scenario_after_fleet_of_same_task(self, small_config):
        PLAN_CACHE.clear()
        cold = run_scenario(small_config, self.CALM)
        assert (cold.plan_cache_hits, cold.plan_cache_misses) == (0, 1)
        run_fleet(
            FleetSpec.homogeneous(
                small_config, cluster_gpus=96, num_jobs=2, scenario=self.CALM
            )
        )
        assert run_scenario(small_config, self.CALM).to_dict() == (
            cold.to_dict()
        )


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

        STATE_CACHE.clear()
        first = run_scenario(small_config, self.SPEC)
        # A warm state: the plan counters a run reports do not depend
        # on where its states came from.
        second = run_scenario(small_config, self.SPEC)
        assert STATE_CACHE.stats() == (1, 1)
        assert snapshot(first) == snapshot(second)
        assert counters(first) == counters(second) == (0, 1)


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
