"""Training-iteration simulator tests."""

import numpy as np
import pytest

from repro.cluster.cluster import make_cluster
from repro.data.sample import BatchColumns
from repro.data.synthetic import SyntheticMultimodalDataset
from repro.models.base import ModuleWorkload
from repro.models.mllm import MLLM_9B
from repro.parallelism.broker import broker_transfer_time
from repro.parallelism.orchestration_plan import ModelOrchestrationPlan
from repro.parallelism.plan import ParallelismPlan
from repro.pipeline.kernel import get_kernel
from repro.pipeline.schedules import ScheduleKind
from repro.runtime.frozen import FROZEN_PRESETS
from repro.runtime.iteration import (
    TrainingIterationSimulator,
    evaluate_prepared_many,
)
from repro.runtime.mfu import ModelFlopsAccountant

from tests.summation import left_fold


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

    def test_empty_batch_rejected(self, small_plan):
        sim = simulator(small_plan)
        with pytest.raises(ValueError, match="empty global batch"):
            sim.prepare([])
        with pytest.raises(ValueError, match="empty global batch"):
            sim.simulate([])

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


def reference_tables(sim, rank_batch):
    """A rank's ``(l, p)`` tables from per-sample cost-model calls and
    one left-to-right sum per microbatch and module, stage by stage."""
    plans = sim.plan.plans
    frozen = sim.frozen
    M = sim.plan.microbatch_size
    gen_tokens = sim.plan.mllm.generation_image_tokens

    def times(name, workload):
        cost, tp = sim.cost_models[name], plans[name].tp
        backward = 0.0
        if frozen.backward_factor(name) != 0.0:
            backward = cost.backward_time(
                workload, tp, weight_grads=frozen.trains(name)
            )
        return cost.forward_time(workload, tp), backward

    def module_workload(name, sample):
        if name == "encoder":
            return ModuleWorkload(
                samples=1,
                text_tokens=sample.text_tokens,
                image_tokens=sample.image_tokens,
                images=sample.num_images,
            )
        return ModuleWorkload(
            samples=1,
            image_tokens=sample.num_images * gen_tokens,
            images=sample.num_images,
        )

    fwd_rows, bwd_rows = [], []
    for start in range(0, len(rank_batch), M):
        microbatch = rank_batch[start:start + M]
        fwd_row, bwd_row = [], []
        for name in ("encoder", "llm", "generator"):
            plan = plans[name]
            if name == "llm":
                f, b = times(name, ModuleWorkload(samples=1))
                f *= len(microbatch) / plan.pp
                b *= len(microbatch) / plan.pp
            else:
                share = plans["llm"].dp / plan.dp
                per_sample = [
                    times(name, module_workload(name, s))
                    for s in microbatch
                ]
                f = left_fold(t[0] for t in per_sample) * share / plan.pp
                b = left_fold(t[1] for t in per_sample) * share / plan.pp
            fwd_row += [f] * plan.pp
            bwd_row += [b] * plan.pp
        fwd_rows.append(fwd_row)
        bwd_rows.append(bwd_row)
    return fwd_rows, bwd_rows


class TestRankTables:
    """Rank tables priced on arrays equal per-sample pricing exactly,
    for microbatches of one and of several samples."""

    @pytest.mark.parametrize("microbatch_size", [1, 2, 4])
    @pytest.mark.parametrize("preset", sorted(FROZEN_PRESETS))
    def test_tables_match_per_sample_pricing(self, preset, microbatch_size):
        # Pipelined LLM and generator, and encoder/generator DP degrees
        # that differ from the LLM's, so every scale factor is live.
        plan = ModelOrchestrationPlan(
            mllm=MLLM_9B,
            cluster=make_cluster(24),
            encoder_plan=ParallelismPlan(tp=1, pp=1, dp=4),
            llm_plan=ParallelismPlan(
                tp=4, pp=2, dp=2, microbatch_size=microbatch_size
            ),
            generator_plan=ParallelismPlan(tp=1, pp=2, dp=2),
        )
        batch = SyntheticMultimodalDataset(seed=2).take(32)
        assert {0, 1} < {s.num_images for s in batch}
        sim = simulator(
            plan, frozen=FROZEN_PRESETS[preset], intra_reordering=False
        )
        prepared = sim.prepare(batch)
        assert prepared.simulated_ranks == [0, 1]
        assert prepared.num_microbatches == 16 // microbatch_size
        for rank, (fwd, bwd, _, _) in zip(
            prepared.simulated_ranks, prepared.rank_work
        ):
            expected_fwd, expected_bwd = reference_tables(
                sim, batch[rank * 16:(rank + 1) * 16]
            )
            assert fwd.tolist() == expected_fwd
            assert bwd.tolist() == expected_bwd


def brokered_boundary_comm_time(sim):
    """The boundary delay priced from the planned brokers' rank lists,
    as the simulator priced it before it read only the broker count."""
    plan = sim.plan
    bytes_ = plan.mllm.llm.boundary_activation_bytes(plan.microbatch_size)
    link = plan.cluster.node.inter_link
    times = [sim.collectives.pp_send(bytes_)]
    for brokers in plan.build_brokers().values():
        times.append(broker_transfer_time(
            len(brokers), bytes_, link, asynchronous=not plan.monolithic
        ))
    return max(times)


@pytest.mark.parametrize("monolithic", [False, True])
@pytest.mark.parametrize("dps", [(1, 1, 1), (6, 4, 3), (8, 8, 2), (3, 5, 7)])
def test_boundary_comm_time_reads_the_broker_count(dps, monolithic):
    encoder_dp, llm_dp, generator_dp = dps
    plan = ModelOrchestrationPlan(
        mllm=MLLM_9B,
        cluster=make_cluster(120),
        encoder_plan=ParallelismPlan(tp=1, pp=1, dp=encoder_dp),
        llm_plan=ParallelismPlan(tp=2, pp=2, dp=llm_dp, microbatch_size=2),
        generator_plan=ParallelismPlan(tp=1, pp=1, dp=generator_dp),
        monolithic=monolithic,
    )
    sim = simulator(plan)
    assert sim._boundary_comm_time().hex() == (
        brokered_boundary_comm_time(sim).hex()
    )


def test_straggler_repricing_reuses_model_flops(
    small_plan, small_batch, monkeypatch
):
    """A prepared batch carries its model FLOPs: re-evaluating it under
    straggler slowdowns never re-sums the batch."""
    calls = []
    batch_flops = ModelFlopsAccountant.batch_flops

    def counting(self, samples):
        calls.append(len(samples))
        return batch_flops(self, samples)

    monkeypatch.setattr(ModelFlopsAccountant, "batch_flops", counting)
    sim = simulator(small_plan)
    prepared = sim.prepare(small_batch)
    assert calls == [len(small_batch)]
    n_ranks = len(prepared.rank_work)
    results = [
        sim.evaluate_prepared(prepared, [factor] * n_ranks)
        for factor in (1.0, 1.5, 3.0)
    ]
    results += evaluate_prepared_many(
        [(sim, prepared, None), (sim, prepared, [2.0] * n_ranks)]
    )
    assert calls == [len(small_batch)]
    assert results[0].iteration_time < results[2].iteration_time
    for result in results:
        assert result.model_flops == prepared.model_flops
    assert prepared.model_flops == sim.accountant.batch_flops(
        BatchColumns.of(small_batch)
    )


def per_rank_durations(sim, prepared, rank_slowdowns):
    """Oracle: one ``durations_from_tables`` gather per simulated rank,
    divided by the VPP degree and scaled by the rank's slowdown."""
    num_stages = prepared.rank_work[0][0].shape[1]
    schedule, vpp = sim._effective_schedule(
        prepared.num_microbatches, num_stages
    )
    kernel = get_kernel(schedule, num_stages, prepared.num_microbatches, vpp)
    rows = []
    for r, (fwd, bwd, order, _) in enumerate(prepared.rank_work):
        # The rank's rows in its order, as [stage][position] tables.
        gathered = kernel.durations_from_tables(fwd[order].T, bwd[order].T)
        row = gathered / vpp if vpp > 1 else gathered
        if rank_slowdowns is not None:
            row = row * float(rank_slowdowns[r])
        rows.append(row)
    return kernel, np.stack(rows)


@pytest.mark.parametrize("vpp", [1, 2])
@pytest.mark.parametrize("straggled", [False, True])
def test_rank_durations_match_per_rank_gathers(vpp, straggled):
    """``_rank_durations`` gathers every rank in one fancy index over
    the stacked tables; every duration and delay must equal the
    per-rank gather's, bit for bit."""
    plan = ModelOrchestrationPlan(
        mllm=MLLM_9B,
        cluster=make_cluster(40),
        encoder_plan=ParallelismPlan(tp=1, pp=1, dp=4),
        llm_plan=ParallelismPlan(tp=4, pp=2, dp=4, vpp=vpp),
        generator_plan=ParallelismPlan(tp=1, pp=1, dp=4),
    )
    sim = simulator(plan, schedule=ScheduleKind.INTERLEAVED)
    prepared = sim.prepare(SyntheticMultimodalDataset(seed=5).take(32))
    n_ranks = len(prepared.rank_work)
    slowdowns = None
    if straggled:
        slowdowns = [1.0 + 0.37 * r for r in range(n_ranks)]
    kernel, durations, delays = sim._rank_durations(
        prepared.rank_work, prepared.num_microbatches, slowdowns
    )
    expected_kernel, expected = per_rank_durations(sim, prepared, slowdowns)
    assert kernel is expected_kernel
    assert kernel.vpp == vpp
    assert durations.shape == expected.shape == (n_ranks, kernel.num_ops)
    assert [x.hex() for x in durations.ravel().tolist()] == [
        x.hex() for x in expected.ravel().tolist()
    ]
    assert [x.hex() for x in delays.tolist()] == [
        float(work[3]).hex() for work in prepared.rank_work
    ]
