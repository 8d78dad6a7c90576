"""Multi-iteration training run tests."""

import pytest

from repro.data.synthetic import SyntheticMultimodalDataset
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.iteration import TrainingIterationSimulator
from repro.runtime.trainer import TrainingRun


def make_run(small_plan, **kwargs):
    simulator = TrainingIterationSimulator(small_plan)
    defaults = dict(
        simulator=simulator,
        dataset=SyntheticMultimodalDataset(seed=9),
        global_batch_size=16,
        num_iterations=3,
    )
    defaults.update(kwargs)
    return TrainingRun(**defaults)


class TestTrainingRun:
    def test_aggregates(self, small_plan):
        result = make_run(small_plan).run()
        assert len(result.iterations) == 3
        assert result.mean_mfu > 0
        assert result.mean_iteration_time > 0
        summary = result.summary()
        assert summary["iterations"] == 3

    def test_checkpointing_recorded(self, small_plan):
        result = make_run(
            small_plan,
            num_iterations=5,
            checkpoint=CheckpointConfig(interval_iterations=2),
        ).run()
        assert result.checkpoint_stall > 0

    def test_invalid_iterations(self, small_plan):
        with pytest.raises(ValueError):
            make_run(small_plan, num_iterations=0).run()

    def test_iteration_times_stable_across_batches(self, small_plan):
        """Different global batches draw from the same distribution, so
        iteration times should be within a modest band."""
        result = make_run(small_plan, num_iterations=4).run()
        times = [r.iteration_time for r in result.iterations]
        assert max(times) / min(times) < 1.5
