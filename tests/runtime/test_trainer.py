"""A multi-iteration training run: :func:`repro.core.api.simulate_run`,
the scenario engine's zero-event run over the config's batch stream."""

import pytest

from repro.core.api import simulate_run
from repro.core.config import DistTrainConfig

CONFIG = DistTrainConfig.preset("mllm-9b", 48, 16).with_(data_seed=9)


class TestTrainingRun:
    def test_aggregates(self):
        result = simulate_run(CONFIG.with_(num_iterations=3))
        assert result.num_iterations == 3
        assert len(result.iteration_times) == 3
        assert result.mean_mfu > 0
        assert result.metrics()["iteration_time"] > 0

    def test_checkpointing_recorded(self):
        # Without a checkpoint policy a run snapshots every 50
        # iterations, as every scenario does: the 51st iteration stalls.
        short = simulate_run(CONFIG.with_(num_iterations=50))
        long = simulate_run(CONFIG.with_(num_iterations=51))
        assert short.checkpoint_stall_seconds == 0.0
        assert long.checkpoint_stall_seconds > 0

    def test_invalid_iterations(self):
        with pytest.raises(ValueError, match="num_iterations"):
            simulate_run(CONFIG.with_(num_iterations=0))

    def test_iteration_times_stable_across_batches(self):
        """Different global batches draw from the same distribution, so
        iteration times should be within a modest band."""
        times = simulate_run(CONFIG.with_(num_iterations=4)).iteration_times
        assert times.max() / times.min() < 1.5
