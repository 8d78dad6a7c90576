"""Public API integration tests (small scale for speed)."""

import pytest

from repro.core.api import (
    BATCH_CACHE,
    build_simulator,
    compare_systems,
    plan,
    sample_batches,
    simulate,
    simulate_run,
)
from repro.core.config import DistTrainConfig
from repro.data.synthetic import SyntheticMultimodalDataset


@pytest.fixture(scope="module")
def config():
    return DistTrainConfig.preset("mllm-9b", 48, 32, num_iterations=2)


@pytest.fixture(scope="module")
def disttrain_plan(config):
    return plan(config)


class TestPlan:
    def test_disttrain_plan(self, config, disttrain_plan):
        assert disttrain_plan.plan.label == "disttrain"
        assert disttrain_plan.plan.num_gpus <= 48

    def test_megatron_plan(self, config):
        result = plan(config.with_system("megatron-lm"))
        assert result.plan.monolithic

    def test_distmm_plan(self, config):
        result = plan(config.with_system("distmm*"))
        assert result.plan.label == "distmm*"


class TestSimulate:
    def test_single_iteration(self, config, disttrain_plan):
        result = simulate(config, disttrain_plan)
        assert result.iteration_time > 0
        assert 0 < result.mfu < 0.7

    def test_run_aggregation(self, config, disttrain_plan):
        # The zero-event scenario over the config's own batch stream:
        # its first iteration is simulate()'s, on the same plan.
        result = simulate_run(config)
        assert result.num_iterations == 2
        assert len(result.iteration_times) == 2
        assert result.mean_mfu > 0
        first = simulate(config, disttrain_plan)
        assert result.iteration_times[0] == first.iteration_time
        assert result.mfu_trajectory[0] == first.mfu

    def test_build_simulator_reflects_config(self, config, disttrain_plan):
        simulator = build_simulator(config, disttrain_plan)
        assert simulator.intra_reordering
        assert simulator.preprocessing == "disaggregated"


class TestSampleBatches:
    def test_equals_successive_takes(self, config):
        BATCH_CACHE.clear()
        batches = sample_batches(config, 3)
        dataset = SyntheticMultimodalDataset(
            seq_len=config.mllm.seq_len,
            config=config.data_config,
            seed=config.data_seed,
        )
        expected = [dataset.take(config.global_batch_size) for _ in range(3)]
        assert isinstance(batches, tuple)
        assert all(isinstance(batch, tuple) for batch in batches)
        assert [list(batch) for batch in batches] == expected
        assert BATCH_CACHE.stats() == (0, 1)

    def test_second_call_is_a_hit(self, config):
        BATCH_CACHE.clear()
        first = sample_batches(config)
        assert sample_batches(config) is first
        assert BATCH_CACHE.stats() == (1, 1)
        # Another count or batch size is another stream prefix.
        sample_batches(config, 2)
        sample_batches(config.with_(global_batch_size=16))
        assert BATCH_CACHE.stats() == (1, 3)

    def test_simulate_draws_the_first_batch(self, config, disttrain_plan):
        batch = sample_batches(config)[0]
        expected = build_simulator(config, disttrain_plan).simulate(batch)
        assert simulate(config, disttrain_plan) == expected


class TestComparison:
    def test_disttrain_beats_megatron(self, config):
        comparison = compare_systems(
            config, systems=("disttrain", "megatron-lm")
        )
        assert comparison.mfu_ratio("megatron-lm") > 1.2
        assert comparison.throughput_ratio("megatron-lm") > 1.2

    def test_results_keyed_by_system(self, config):
        comparison = compare_systems(
            config, systems=("disttrain", "megatron-lm")
        )
        assert set(comparison.results) == {"disttrain", "megatron-lm"}
