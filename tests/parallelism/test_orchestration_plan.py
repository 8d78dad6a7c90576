"""ModelOrchestrationPlan tests."""

import pytest

from repro.cluster.cluster import make_cluster
from repro.models.mllm import MLLM_9B
from repro.parallelism.orchestration_plan import ModelOrchestrationPlan
from repro.parallelism.plan import ParallelismPlan


def make_plan(enc_dp=4, llm=(2, 2, 4), gen_dp=4, gpus=48):
    tp, pp, dp = llm
    return ModelOrchestrationPlan(
        mllm=MLLM_9B,
        cluster=make_cluster(gpus),
        encoder_plan=ParallelismPlan(tp=1, pp=1, dp=enc_dp),
        llm_plan=ParallelismPlan(tp=tp, pp=pp, dp=dp),
        generator_plan=ParallelismPlan(tp=1, pp=1, dp=gen_dp),
    )


class TestPlan:
    def test_num_gpus(self):
        plan = make_plan()
        assert plan.num_gpus == 4 + 16 + 4

    def test_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            make_plan(enc_dp=40, gpus=48)

    def test_units_contiguous(self):
        units = make_plan().build_units()
        assert units["encoder"].gpu_offset == 0
        assert units["llm"].gpu_offset == 4
        assert units["generator"].gpu_offset == 20

    def test_brokers_built_for_both_boundaries(self):
        brokers = make_plan().build_brokers()
        assert set(brokers) == {"encoder->llm", "llm->generator"}
        assert len(brokers["encoder->llm"]) == 4  # gcd(4, 4)

    def test_validate_batch(self):
        plan = make_plan()
        plan.validate(global_batch_size=16)
        with pytest.raises(ValueError):
            plan.validate(global_batch_size=15)

    def test_num_microbatches(self):
        assert make_plan().num_microbatches(16) == 4

    def test_describe(self):
        text = make_plan().describe()
        assert "encoder" in text and "llm" in text and "generator" in text
