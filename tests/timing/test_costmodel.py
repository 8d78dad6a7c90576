"""Module cost model tests (the C(TP) functions)."""

import pytest

from repro.cluster.node import AMPERE_NODE
from repro.models.base import ModuleWorkload
from repro.models.llm import LLAMA3_7B, LLAMA3_70B
from repro.models.vit import VIT_HUGE
from repro.models.diffusion import STABLE_DIFFUSION_2_1
from repro.timing.costmodel import ModuleCostModel, tp_comm_bytes_forward

W_LLM = ModuleWorkload(samples=1)
W_IMG = ModuleWorkload(samples=1, image_tokens=4096, images=4)


class TestForwardBackward:
    def test_backward_roughly_2x_forward(self):
        cm = ModuleCostModel(LLAMA3_7B, AMPERE_NODE)
        fwd = cm.forward_time(W_LLM, tp=1)
        bwd = cm.backward_time(W_LLM, tp=1)
        assert 1.8 < bwd / fwd < 2.2

    def test_dx_only_backward_cheaper(self):
        cm = ModuleCostModel(LLAMA3_7B, AMPERE_NODE)
        full = cm.backward_time(W_LLM, tp=1, weight_grads=True)
        relay = cm.backward_time(W_LLM, tp=1, weight_grads=False)
        assert relay < 0.6 * full

    def test_larger_model_slower(self):
        small = ModuleCostModel(LLAMA3_7B, AMPERE_NODE).forward_time(W_LLM, 8)
        large = ModuleCostModel(LLAMA3_70B, AMPERE_NODE).forward_time(W_LLM, 8)
        assert large > 5 * small


class TestTPBehaviour:
    def test_tp_speeds_up_compute(self):
        cm = ModuleCostModel(LLAMA3_70B, AMPERE_NODE, tp_overlap_fraction=1.0)
        assert cm.forward_time(W_LLM, 8) < cm.forward_time(W_LLM, 1) / 4

    def test_overlap_reduces_time(self):
        plain = ModuleCostModel(LLAMA3_70B, AMPERE_NODE, tp_overlap_fraction=0.0)
        overlapped = ModuleCostModel(
            LLAMA3_70B, AMPERE_NODE, tp_overlap_fraction=0.9
        )
        assert overlapped.forward_time(W_LLM, 8) < plain.forward_time(W_LLM, 8)

    def test_overlap_fraction_validated(self):
        with pytest.raises(ValueError):
            ModuleCostModel(LLAMA3_7B, AMPERE_NODE, tp_overlap_fraction=1.5)

    def test_tp1_has_no_comm(self):
        cm = ModuleCostModel(LLAMA3_7B, AMPERE_NODE)
        assert cm.tp_comm_time(W_LLM, 1) == 0.0
        assert cm.tp_comm_time(W_LLM, 8) > 0.0


class TestCommVolumes:
    def test_llm_volume_formula(self):
        # 2 allreduces/layer of tokens*hidden bf16.
        expected = 32 * 2.0 * 8192 * 4096 * 2.0
        assert tp_comm_bytes_forward(LLAMA3_7B, W_LLM) == pytest.approx(expected)

    def test_vit_scales_with_image_tokens(self):
        w2 = ModuleWorkload(samples=1, image_tokens=8192, images=8)
        assert tp_comm_bytes_forward(VIT_HUGE, w2) == pytest.approx(
            2 * tp_comm_bytes_forward(VIT_HUGE, W_IMG)
        )

    def test_diffusion_nonzero(self):
        assert tp_comm_bytes_forward(STABLE_DIFFUSION_2_1, W_IMG) > 0

    def test_diffusion_empty_workload(self):
        assert (
            tp_comm_bytes_forward(STABLE_DIFFUSION_2_1, ModuleWorkload())
            == 0.0
        )


class TestDPSync:
    @staticmethod
    def sync(cm, tp, pp, dp):
        params = cm.module.param_count()
        return cm.collectives.dp_sync_exposed(params, tp, pp, dp)

    def test_zero_for_dp1(self):
        cm = ModuleCostModel(LLAMA3_7B, AMPERE_NODE)
        assert self.sync(cm, tp=8, pp=1, dp=1) == 0.0

    def test_sharding_reduces_volume(self):
        cm = ModuleCostModel(LLAMA3_70B, AMPERE_NODE)
        wide = self.sync(cm, tp=1, pp=1, dp=8)
        sharded = self.sync(cm, tp=8, pp=10, dp=8)
        assert sharded < wide / 50
