"""The stepping API of the extracted per-job state machine."""

import numpy as np
import pytest

from repro.fleet.job import JobSimulator
from repro.orchestration.errors import InfeasibleClusterError
from repro.scenarios import ScenarioSpec
from repro.scenarios.engine import ScenarioEngine


class TestLifecycle:
    def test_run_equals_scenario_engine(self, job_config):
        spec = ScenarioSpec(num_iterations=30)
        direct = JobSimulator(job_config, spec).run()
        wrapped = ScenarioEngine(job_config, spec).run()
        assert direct.metrics() == wrapped.metrics()
        assert np.array_equal(
            direct.iteration_times, wrapped.iteration_times
        )

    def test_stepping_is_incremental(self, job_config):
        sim = JobSimulator(job_config, ScenarioSpec(num_iterations=10))
        assert not sim.started and not sim.done
        sim.start()
        assert sim.started and sim.clock == 0.0
        seen = [sim.clock]
        while not sim.done:
            sim.step()
            seen.append(sim.clock)
            assert sim.clock >= seen[-2]  # the clock never rewinds
        assert sim.iterations_retained == 10
        result = sim.finish()
        assert result.num_iterations == 10

    def test_advance_until_stops_at_horizon(self, job_config):
        sim = JobSimulator(job_config, ScenarioSpec(num_iterations=50))
        sim.start()
        horizon = 10.0
        sim.advance_until(horizon)
        assert sim.clock >= horizon
        # Non-preemptible iterations: overshoot is less than one unit.
        assert 0 < sim.iterations_retained < 50
        sim.advance_until(float("inf"))
        assert sim.done

    def test_start_on_smaller_allocation(self, job_config):
        sim = JobSimulator(job_config, ScenarioSpec(num_iterations=8))
        sim.start(allocated_gpus=24, start_time=100.0)
        assert sim.num_gpus == 24
        while not sim.done:
            sim.step()
        result = sim.finish()
        assert result.initial_gpus == 24
        assert result.final_gpus == 24
        # total_seconds is job-relative, not absolute.
        assert result.total_seconds == pytest.approx(sim.clock - 100.0)

    def test_infeasible_allocation_raises_clearly(self):
        from repro.core.config import DistTrainConfig

        config = DistTrainConfig.preset("mllm-72b", 1296, 1920)
        sim = JobSimulator(config, ScenarioSpec(num_iterations=4))
        assert not sim.feasible(64)
        with pytest.raises(InfeasibleClusterError):
            sim.start(allocated_gpus=64)


class TestFleetControls:
    def test_apply_resize_counts_replan(self, job_config):
        sim = JobSimulator(job_config, ScenarioSpec(num_iterations=20))
        sim.start()
        sim.advance_until(5.0)
        before = sim.clock
        sim.apply_resize(40, sim.clock)
        assert sim.num_gpus == 40
        assert sim.clock == pytest.approx(
            before + sim.scenario.replan_seconds
        )
        while not sim.done:
            sim.step()
        result = sim.finish()
        assert result.num_replans == 1
        assert result.min_gpus == 40
        assert result.final_gpus == 40

    def test_preempt_resume_replays_undurable_work(self, job_config):
        spec = ScenarioSpec(num_iterations=30, checkpoint_interval=10)
        sim = JobSimulator(job_config, spec, name="victim")
        sim.start()
        sim.advance_until(40.0)
        progressed = sim.iterations_retained
        assert progressed > 10
        sim.preempt(sim.clock)
        assert sim.paused
        # Rolled back to the latest durable checkpoint: a snapshot after
        # iteration k resumes at k + 1 (0 = only the initial weights).
        assert sim.iterations_retained < progressed
        assert sim.iterations_retained % 10 in (0, 1)
        sim.resume(48, sim.clock + 500.0)
        assert not sim.paused
        while not sim.done:
            sim.step()
        result = sim.finish()
        assert result.preemptions == 1
        assert result.num_iterations == 30
        assert result.replayed_iterations > 0

    def test_resume_requires_preemption(self, job_config):
        sim = JobSimulator(job_config, ScenarioSpec(num_iterations=5))
        sim.start()
        with pytest.raises(RuntimeError, match="not preempted"):
            sim.resume(48, 0.0)

    def test_fleet_event_log_reports_capacity_changes(self, job_config):
        from repro.scenarios.events import EventTrace, FailureEvent

        spec = ScenarioSpec(
            num_iterations=40,
            elastic=True,
            events=EventTrace([FailureEvent(time_s=20.0, gpus_lost=8)]),
            repair_seconds=50.0,
            restart_seconds=10.0,
            checkpoint_load_seconds=5.0,
        )
        sim = JobSimulator(job_config, spec)
        sim.start()
        while not sim.done:
            sim.step()
        kinds = [e[0] for e in sim.drain_fleet_events()]
        assert kinds == ["failure", "grow"]
        assert sim.drain_fleet_events() == []  # drained


class TestStateCacheSizing:
    def test_target_scales_with_working_set(self):
        from repro.fleet.job import (
            STATE_CACHE,
            STATE_CACHE_CEILING,
            STATE_CACHE_FLOOR,
            resize_state_cache,
        )

        before = STATE_CACHE.maxsize
        try:
            assert resize_state_cache(1) == STATE_CACHE_FLOOR
            assert resize_state_cache(100) == 400
            assert STATE_CACHE.maxsize == 400
            assert resize_state_cache(10**6) == STATE_CACHE_CEILING
        finally:
            STATE_CACHE.resize(before)
