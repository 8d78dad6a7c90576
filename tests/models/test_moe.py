"""Mixture-of-experts backbone tests (EP support, section 4.1)."""

import pytest

from repro.models.base import ModuleWorkload
from repro.models.llm import LLAMA3_7B
from repro.models.moe import LLAMA3_MOE_8X7B, MoEConfig, MoELLMSpec

W = ModuleWorkload(samples=1)


class TestConfigValidation:
    def test_needs_experts(self):
        with pytest.raises(ValueError):
            MoEConfig(num_experts=1)

    def test_top_k_bounds(self):
        with pytest.raises(ValueError):
            MoEConfig(num_experts=4, top_k=5)
        with pytest.raises(ValueError):
            MoEConfig(num_experts=4, top_k=0)

    def test_spec_requires_moe_config(self):
        with pytest.raises(ValueError):
            MoELLMSpec(name="bad", config=LLAMA3_7B.config, moe=None)


class TestParams:
    def test_total_vs_active(self):
        total = LLAMA3_MOE_8X7B.param_count()
        active = LLAMA3_MOE_8X7B.active_param_count()
        assert active < total
        # 8 experts / top-2: Mixtral-like ~38B total, ~12B active.
        assert 33e9 < total < 45e9
        assert 10e9 < active < 14e9

    def test_more_experts_more_params(self):
        wide = MoELLMSpec(
            name="16x",
            config=LLAMA3_MOE_8X7B.config,
            moe=MoEConfig(num_experts=16, top_k=2),
        )
        assert wide.param_count() > LLAMA3_MOE_8X7B.param_count()
        assert wide.active_param_count() == pytest.approx(
            LLAMA3_MOE_8X7B.active_param_count()
            + 8 * LLAMA3_MOE_8X7B.config.hidden_size * 32,
            rel=0.01,
        )  # only routers grow

    def test_stride_reduces_moe_layers(self):
        sparse = MoELLMSpec(
            name="stride2",
            config=LLAMA3_MOE_8X7B.config,
            moe=MoEConfig(num_experts=8, top_k=2, moe_layer_stride=2),
        )
        assert sparse.num_moe_layers == 16
        assert sparse.num_dense_layers == 16
        assert sparse.param_count() < LLAMA3_MOE_8X7B.param_count()


class TestFlops:
    def test_compute_tracks_active_params(self):
        """MoE forward costs roughly active/dense times the dense 7B."""
        moe = LLAMA3_MOE_8X7B.forward_flops(W)
        dense = LLAMA3_7B.forward_flops(W)
        ratio = moe / dense
        expected = (
            LLAMA3_MOE_8X7B.active_param_count() / LLAMA3_7B.param_count()
        )
        assert ratio == pytest.approx(expected, rel=0.15)

    def test_dispatch_bytes_scale_with_top_k(self):
        top1 = MoELLMSpec(
            name="top1",
            config=LLAMA3_MOE_8X7B.config,
            moe=MoEConfig(num_experts=8, top_k=1),
        )
        assert LLAMA3_MOE_8X7B.expert_dispatch_bytes_forward(
            W
        ) == pytest.approx(2 * top1.expert_dispatch_bytes_forward(W))


class TestEPCostModel:
    def test_ep_splits_compute_and_adds_a2a(self):
        from repro.cluster.node import AMPERE_NODE
        from repro.timing.costmodel import ModuleCostModel

        cm = ModuleCostModel(LLAMA3_MOE_8X7B, AMPERE_NODE)
        t1 = cm.forward_time(W, tp=1, ep=1)
        t8 = cm.forward_time(W, tp=1, ep=8)
        assert t8 < t1  # compute split wins
        assert cm.ep_comm_time(W, 8) > 0
        assert cm.ep_comm_time(W, 1) == 0.0

    def test_dense_module_has_no_ep_comm(self):
        from repro.cluster.node import AMPERE_NODE
        from repro.timing.costmodel import ModuleCostModel

        cm = ModuleCostModel(LLAMA3_7B, AMPERE_NODE)
        assert cm.ep_comm_time(W, 8) == 0.0

    def test_default_ep_applied(self):
        from repro.cluster.node import AMPERE_NODE
        from repro.timing.costmodel import ModuleCostModel

        bound = ModuleCostModel(LLAMA3_MOE_8X7B, AMPERE_NODE, ep=8)
        unbound = ModuleCostModel(LLAMA3_MOE_8X7B, AMPERE_NODE)
        assert bound.forward_time(W, tp=1) == pytest.approx(
            unbound.forward_time(W, tp=1, ep=8)
        )


class TestEPPlans:
    def test_ep_counts_toward_gpus(self):
        from repro.parallelism.plan import ParallelismPlan

        plan = ParallelismPlan(tp=1, ep=8, pp=4, dp=2)
        assert plan.num_gpus == 64
        assert plan.intra_layer_width == 8
        assert "EP=8" in plan.describe()

    def test_unit_rank_math_with_ep(self):
        from repro.parallelism.plan import ParallelismPlan
        from repro.parallelism.unit import ParallelismUnit

        unit = ParallelismUnit(
            "llm", LLAMA3_MOE_8X7B, ParallelismPlan(tp=1, ep=4, pp=2, dp=2)
        )
        assert unit.num_gpus == 16
        ranks = [
            unit.rank_of(pp, dp, tp)
            for pp in range(2)
            for dp in range(2)
            for tp in range(unit.plan.intra_layer_width)
        ]
        assert ranks == list(range(16))

    def test_orchestration_with_ep(self):
        from repro.cluster.cluster import make_cluster
        from repro.data.synthetic import SyntheticMultimodalDataset
        from repro.models.mllm import MLLM_MOE_40B
        from repro.orchestration.adaptive import AdaptiveOrchestrator
        from repro.orchestration.problem import (
            OrchestrationProblem,
            SampleProfile,
        )

        profile = SampleProfile.from_samples(
            SyntheticMultimodalDataset(seed=1).take(64)
        )
        problem = OrchestrationProblem(
            mllm=MLLM_MOE_40B,
            cluster=make_cluster(96),
            global_batch_size=32,
            profile=profile,
            llm_ep=8,
            tp_candidates=(1,),
        )
        result = AdaptiveOrchestrator(problem).plan()
        assert result.plan.plans["llm"].ep == 8
        assert result.plan.num_gpus <= 96
