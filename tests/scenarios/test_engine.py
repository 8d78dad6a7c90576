"""Behavioral tests of the dynamic-cluster scenario engine."""

import numpy as np
import pytest

from repro.obs import METRICS, instrument
from repro.runtime.manager import DistTrainManager
from repro.scenarios import (
    EventTrace,
    FailureEvent,
    ResizeEvent,
    ScenarioSpec,
    StragglerEvent,
    run_scenario,
)
from tests.scenarios.conftest import FAST_RECOVERY


class TestCalmScenarios:
    def test_zero_event_goodput_near_one(self, small_config):
        result = run_scenario(small_config, ScenarioSpec(num_iterations=100))
        assert result.num_failures == 0
        assert result.replayed_iterations == 0
        assert result.recovery_seconds == 0.0
        assert 0.98 < result.goodput <= 1.0
        assert result.final_gpus == small_config.cluster.num_gpus

    def test_trajectories_cover_every_iteration(self, small_config):
        result = run_scenario(small_config, ScenarioSpec(num_iterations=64))
        assert result.iteration_times.shape == (64,)
        assert result.mfu_trajectory.shape == (64,)
        assert np.all(result.iteration_times > 0)
        assert np.all(result.mfu_trajectory > 0)

    def test_sample_tiling_repeats_batches(self, small_config):
        result = run_scenario(
            small_config, ScenarioSpec(num_iterations=12, sample_iterations=3)
        )
        times = result.iteration_times
        assert np.array_equal(times[:3], times[3:6])
        assert np.array_equal(times[:3], times[9:12])


class TestFailures:
    def test_explicit_failure_rolls_back(self, small_config):
        # One failure well into the run: work since the last checkpoint
        # replays and the clock pays the downtime.
        spec = ScenarioSpec(
            num_iterations=60,
            checkpoint_interval=20,
            events=EventTrace([FailureEvent(time_s=70.0)]),
            **FAST_RECOVERY,
        )
        result = run_scenario(small_config, spec)
        assert result.num_failures == 1
        assert result.replayed_iterations > 0
        assert result.recovery_seconds == pytest.approx(90.0)
        assert result.lost_seconds > 0
        assert result.goodput < 1.0

    def test_failure_respects_durable_checkpoints(self, small_config):
        # Checkpoint every 10 iterations: a failure never replays more
        # than 10 iterations plus the one in flight.
        spec = ScenarioSpec(
            num_iterations=50,
            checkpoint_interval=10,
            events=EventTrace([FailureEvent(time_s=50.0)]),
            **FAST_RECOVERY,
        )
        result = run_scenario(small_config, spec)
        assert 0 < result.replayed_iterations <= 10

    def test_divergent_scenario_raises(self, small_config):
        # Downtime far beyond the MTBF: the run can never finish.
        spec = ScenarioSpec(
            num_iterations=50,
            mtbf_gpu_hours=0.001,
            restart_seconds=10_000.0,
        )
        with pytest.raises(RuntimeError, match="failures"):
            run_scenario(small_config, spec)


class TestStragglers:
    def test_straggler_window_slows_iterations(self, small_config):
        calm = run_scenario(small_config, ScenarioSpec(num_iterations=20))
        slowed = run_scenario(
            small_config,
            ScenarioSpec(
                num_iterations=20,
                events=EventTrace([
                    StragglerEvent(
                        iteration=5, duration_iterations=5, rank=0,
                        slowdown=3.0,
                    )
                ]),
            ),
        )
        inside = slice(5, 10)
        outside = list(range(5)) + list(range(10, 20))
        assert np.all(
            slowed.iteration_times[inside] > calm.iteration_times[inside]
        )
        assert np.array_equal(
            slowed.iteration_times[outside], calm.iteration_times[outside]
        )

    def test_straggler_rank_wraps_across_cluster_sizes(self, small_config):
        # Rank indices beyond the simulated-rank count are wrapped, so
        # traces recorded on one cluster stay valid on another.
        spec = ScenarioSpec(
            num_iterations=10,
            events=EventTrace([
                StragglerEvent(
                    iteration=0, duration_iterations=10, rank=10_000,
                    slowdown=2.0,
                )
            ]),
        )
        calm = run_scenario(small_config, ScenarioSpec(num_iterations=10))
        result = run_scenario(small_config, spec)
        assert np.all(result.iteration_times >= calm.iteration_times)
        assert result.iteration_times.mean() > calm.iteration_times.mean()


class TestElastic:
    def test_elastic_failure_shrinks_cluster(self, small_config):
        spec = ScenarioSpec(
            num_iterations=40,
            elastic=True,
            events=EventTrace([FailureEvent(time_s=20.0, gpus_lost=8)]),
            repair_seconds=1e9,  # capacity never returns
            **FAST_RECOVERY,
        )
        result = run_scenario(small_config, spec)
        assert result.num_failures == 1
        assert result.num_replans == 1
        assert result.final_gpus == 40
        assert result.min_gpus == 40

    def test_repair_restores_full_capacity(self, small_config):
        spec = ScenarioSpec(
            num_iterations=60,
            elastic=True,
            events=EventTrace([FailureEvent(time_s=20.0, gpus_lost=8)]),
            repair_seconds=10.0,
            **FAST_RECOVERY,
        )
        result = run_scenario(small_config, spec)
        assert result.min_gpus == 40
        assert result.final_gpus == 48
        assert result.num_replans == 2  # shrink + regrow

    def test_degraded_iterations_run_slower(self, small_config):
        spec = ScenarioSpec(
            num_iterations=40,
            elastic=True,
            events=EventTrace([FailureEvent(time_s=20.0, gpus_lost=8)]),
            repair_seconds=1e9,
            **FAST_RECOVERY,
        )
        degraded = run_scenario(small_config, spec)
        calm = run_scenario(small_config, ScenarioSpec(num_iterations=40))
        # Iterations after the shrink take at least as long as at full
        # size (fewer GPUs, same work).
        assert (
            degraded.iteration_times[-1] >= calm.iteration_times[-1]
        )

    def test_planned_resize_is_graceful(self, small_config):
        spec = ScenarioSpec(
            num_iterations=30,
            events=EventTrace([ResizeEvent(iteration=10, num_gpus=40)]),
        )
        result = run_scenario(small_config, spec)
        assert result.num_failures == 0
        assert result.replayed_iterations == 0
        assert result.num_replans == 1
        assert result.final_gpus == 40
        # Only the modeled replan pause is charged.
        assert result.recovery_seconds == pytest.approx(
            ScenarioSpec().replan_seconds
        )

    @pytest.mark.parametrize(
        "event, kind",
        [
            (ResizeEvent(iteration=10, num_gpus=40), "resize"),
            (FailureEvent(time_s=20.0, gpus_lost=8), "grow"),
        ],
        ids=["scripted-resize", "repair-regrowth"],
    )
    def test_capacity_changes_are_counted(self, small_config, event, kind):
        """A scripted resize and a repair re-growth each emit a
        ``job.<kind>`` event and count it in ``job.<kind>s``."""
        spec = ScenarioSpec(
            num_iterations=60,
            elastic=True,
            events=EventTrace([event]),
            repair_seconds=10.0,
            **FAST_RECOVERY,
        )
        with instrument.session(trace=True) as tracer:
            run_scenario(small_config, spec)
            counters = METRICS.snapshot()["counters"]
        emitted = [
            record["name"]
            for record in tracer.records
            if record["type"] == "event"
        ]
        assert emitted.count(f"job.{kind}") == 1
        for name in ("resize", "grow"):
            assert counters.get(f"job.{name}s", 0) == emitted.count(
                f"job.{name}"
            )


class TestMetricsSurface:
    def test_metrics_keys_for_result_frame(self, small_config):
        result = run_scenario(small_config, ScenarioSpec(num_iterations=10))
        metrics = result.metrics()
        for key in (
            "goodput", "availability", "num_failures", "recovery_seconds",
            "mfu", "throughput_tokens_per_s", "iteration_time", "num_gpus",
        ):
            assert key in metrics
        assert all(isinstance(v, float) for v in metrics.values())

    def test_manager_runs_scenarios(self, small_config):
        manager = DistTrainManager(small_config)
        result = manager.run_scenario(ScenarioSpec(num_iterations=8))
        assert result.num_iterations == 8
        assert manager._initialization is not None
        assert 0 < result.mean_mfu < 1
