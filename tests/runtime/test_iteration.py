"""Training-iteration simulator tests."""

import pytest

from repro.cluster.cluster import make_cluster
from repro.data.synthetic import SyntheticMultimodalDataset
from repro.models.mllm import MLLM_9B
from repro.parallelism.orchestration_plan import ModelOrchestrationPlan
from repro.parallelism.plan import ParallelismPlan
from repro.runtime.frozen import FROZEN_PRESETS
from repro.runtime.iteration import TrainingIterationSimulator


def simulator(plan, **kwargs):
    defaults = dict(intra_reordering=True, inter_reordering=True,
                    preprocessing="disaggregated")
    defaults.update(kwargs)
    return TrainingIterationSimulator(plan, **defaults)


class TestBasicInvariants:
    def test_result_composition(self, small_plan, small_batch):
        result = simulator(small_plan).simulate(small_batch)
        assert result.iteration_time == pytest.approx(
            result.pipeline_time
            + result.dp_sync_time
            + result.preprocess_overhead
            + result.optimizer_time
        )

    def test_mfu_within_physical_bounds(self, small_plan, small_batch):
        result = simulator(small_plan).simulate(small_batch)
        assert 0.05 < result.mfu < 0.70

    def test_throughput_formula(self, small_plan, small_batch):
        result = simulator(small_plan).simulate(small_batch)
        expected = 16 * 8192 / result.iteration_time
        assert result.throughput_tokens_per_s == pytest.approx(expected)

    def test_gpus_counted_from_plan(self, small_plan, small_batch):
        result = simulator(small_plan).simulate(small_batch)
        assert result.num_gpus == 24

    def test_batch_divisibility_checked(self, small_plan, small_batch):
        with pytest.raises(ValueError):
            simulator(small_plan).simulate(small_batch[:15])

    def test_invalid_preprocessing_mode(self, small_plan):
        with pytest.raises(ValueError):
            simulator(small_plan, preprocessing="magic")


class TestReorderingEffects:
    def test_intra_reordering_reduces_straggling(self, small_plan, small_batch):
        balanced = simulator(small_plan, intra_reordering=True,
                             inter_reordering=False).simulate(small_batch)
        random = simulator(small_plan, intra_reordering=False,
                           inter_reordering=False).simulate(small_batch)
        assert balanced.straggler_spread <= random.straggler_spread + 1e-9

    def test_full_reordering_no_slower(self, small_plan, small_batch):
        ours = simulator(small_plan).simulate(small_batch)
        none = simulator(small_plan, intra_reordering=False,
                         inter_reordering=False).simulate(small_batch)
        assert ours.pipeline_time <= none.pipeline_time * 1.05


class TestPreprocessingModes:
    def test_colocated_costs_more(self, small_plan, small_batch):
        colocated = simulator(small_plan, preprocessing="colocated").simulate(
            small_batch
        )
        disagg = simulator(small_plan).simulate(small_batch)
        none = simulator(small_plan, preprocessing="none").simulate(
            small_batch
        )
        assert (
            colocated.preprocess_overhead
            > disagg.preprocess_overhead
            >= none.preprocess_overhead == 0.0
        )


class TestFrozenTraining:
    @pytest.mark.parametrize(
        "preset", ["all-frozen", "encoder-only", "llm-only", "generator-only"]
    )
    def test_frozen_faster_than_full(self, small_plan, small_batch, preset):
        full = simulator(small_plan).simulate(small_batch)
        frozen = simulator(
            small_plan, frozen=FROZEN_PRESETS[preset]
        ).simulate(small_batch)
        assert frozen.pipeline_time < full.pipeline_time

    def test_frozen_modules_skip_dp_sync(self, small_plan, small_batch):
        frozen = simulator(
            small_plan, frozen=FROZEN_PRESETS["all-frozen"]
        ).simulate(small_batch)
        full = simulator(small_plan).simulate(small_batch)
        assert frozen.dp_sync_time <= full.dp_sync_time


class TestRankSubsampling:
    def test_subsampled_matches_full_on_max(self, small_plan, small_batch):
        full = simulator(small_plan, max_simulated_ranks=0).simulate(
            small_batch
        )
        sampled = simulator(small_plan, max_simulated_ranks=2).simulate(
            small_batch
        )
        # The heaviest rank is always simulated, so the pipeline phase
        # (a max across ranks) should agree closely.
        assert sampled.pipeline_time == pytest.approx(
            full.pipeline_time, rel=0.05
        )

    @pytest.fixture(scope="class")
    def dp8_plan(self):
        """LLM DP 8, so every cap below 8 subsamples."""
        return ModelOrchestrationPlan(
            mllm=MLLM_9B,
            cluster=make_cluster(80),
            encoder_plan=ParallelismPlan(tp=1, pp=1, dp=8),
            llm_plan=ParallelismPlan(tp=8, pp=1, dp=8),
            generator_plan=ParallelismPlan(tp=1, pp=1, dp=8),
        )

    @pytest.mark.parametrize("cap", [2, 3, 4, 7, 8, 0])
    def test_cap_bounds_simulated_ranks(self, dp8_plan, cap):
        batch = SyntheticMultimodalDataset(seed=2).take(32)
        sim = simulator(
            dp8_plan, intra_reordering=False, max_simulated_ranks=cap
        )
        prepared = sim.prepare(batch)
        # Without intra-reordering rank r holds the r-th block of 4.
        loads = [sum(s.size for s in batch[r * 4:(r + 1) * 4])
                 for r in range(8)]
        by_load = sorted(range(8), key=loads.__getitem__)
        extremes = sorted({by_load[0], by_load[-1]})
        ranks = prepared.simulated_ranks
        assert set(extremes) <= set(ranks)
        assert len(ranks) <= (cap or 8)
        if cap == 2:
            assert ranks == extremes
        if cap in (0, 8):
            assert ranks == list(range(8))
        result = sim.evaluate_prepared(prepared)
        assert len(result.per_rank_makespans) == len(ranks)

    @pytest.mark.parametrize("cap", [1, -1, -8])
    def test_cap_below_two_rejected(self, dp8_plan, cap):
        with pytest.raises(ValueError, match="max_simulated_ranks"):
            simulator(dp8_plan, max_simulated_ranks=cap)
