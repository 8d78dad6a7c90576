"""Failure recovery (section 6): failures arrive at the scenario's MTBF
and roll the run back to its latest durable checkpoint, on the scenario
engine's one timeline."""

import pytest

from repro.core.config import DistTrainConfig
from repro.scenarios import ScenarioSpec, run_scenario
from tests.scenarios.conftest import FAST_RECOVERY

CONFIG = DistTrainConfig.preset("mllm-9b", 48, 16)


class TestFailureModel:
    def test_cluster_mtbf_shrinks_with_scale(self):
        spec = ScenarioSpec(mtbf_gpu_hours=30_000.0)
        assert spec.cluster_mtbf_seconds(1000) == pytest.approx(
            spec.cluster_mtbf_seconds(1) / 1000
        )

    def test_invalid_gpus(self):
        with pytest.raises(ValueError, match="num_gpus"):
            ScenarioSpec(mtbf_gpu_hours=30_000.0).cluster_mtbf_seconds(0)
        with pytest.raises(ValueError, match="no MTBF"):
            ScenarioSpec().cluster_mtbf_seconds(8)

    def test_failure_times_sorted_within_horizon(self):
        result = run_scenario(CONFIG, ScenarioSpec(
            num_iterations=200,
            checkpoint_interval=20,
            mtbf_gpu_hours=2.0,
            seed=1,
            **FAST_RECOVERY,
        ))
        times = [event.time_s for event in result.events.failures]
        assert len(times) == result.num_failures > 0
        assert times == sorted(times)
        assert all(0 < t < result.total_seconds for t in times)

    def test_reliable_cluster_rarely_fails(self):
        # A failure clock that never fires within the run leaves it
        # identical to a run without sampled failures.
        reliable = run_scenario(
            CONFIG, ScenarioSpec(num_iterations=100, mtbf_gpu_hours=1e9)
        )
        calm = run_scenario(CONFIG, ScenarioSpec(num_iterations=100))
        assert reliable.num_failures == 0
        assert reliable.metrics() == calm.metrics()


class TestRunWithFailures:
    def test_no_failures_full_goodput(self):
        result = run_scenario(
            CONFIG, ScenarioSpec(num_iterations=100, mtbf_gpu_hours=1e12)
        )
        assert result.num_failures == 0
        assert result.goodput > 0.95

    def test_flaky_cluster_loses_goodput(self):
        result = run_scenario(CONFIG, ScenarioSpec(
            num_iterations=200,
            checkpoint_interval=50,
            mtbf_gpu_hours=5.0,
            seed=3,
            **FAST_RECOVERY,
        ))
        assert result.num_failures > 0
        assert result.goodput < 0.95
        assert result.total_seconds > result.useful_seconds

    def test_frequent_checkpoints_reduce_replay(self):
        kwargs = dict(
            num_iterations=300, mtbf_gpu_hours=5.0, seed=7, **FAST_RECOVERY
        )
        sparse = run_scenario(
            CONFIG, ScenarioSpec(checkpoint_interval=100, **kwargs)
        )
        dense = run_scenario(
            CONFIG, ScenarioSpec(checkpoint_interval=10, **kwargs)
        )
        assert sparse.num_failures > 0 and dense.num_failures > 0
        assert dense.replayed_iterations <= sparse.replayed_iterations
