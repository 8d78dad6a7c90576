"""ParallelismPlan tests."""

import pytest

from repro.parallelism.plan import ParallelismPlan


class TestConstruction:
    def test_num_gpus(self):
        plan = ParallelismPlan(tp=4, pp=3, dp=2)
        assert plan.num_gpus == 24

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ParallelismPlan(tp=0)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            ParallelismPlan(tp=2.5)  # type: ignore[arg-type]

    def test_sp_must_equal_tp(self):
        with pytest.raises(ValueError):
            ParallelismPlan(tp=4, sp=2)
        ParallelismPlan(tp=4, sp=4)  # ok

    def test_with_update(self):
        plan = ParallelismPlan(tp=2).with_(dp=8)
        assert plan.dp == 8 and plan.tp == 2


class TestValidation:
    def test_layers_must_cover_chunks(self):
        plan = ParallelismPlan(pp=8, vpp=2)
        with pytest.raises(ValueError):
            plan.validate_against(num_layers=10, global_batch_size=16)
        plan.validate_against(num_layers=16, global_batch_size=16)

    def test_batch_divisibility(self):
        plan = ParallelismPlan(dp=3, microbatch_size=2)
        with pytest.raises(ValueError):
            plan.validate_against(num_layers=8, global_batch_size=16)
        plan.validate_against(num_layers=8, global_batch_size=18)

    def test_num_microbatches(self):
        plan = ParallelismPlan(dp=4, microbatch_size=2)
        assert plan.num_microbatches(64) == 8

    def test_num_microbatches_indivisible(self):
        with pytest.raises(ValueError):
            ParallelismPlan(dp=3).num_microbatches(16)


class TestDescribe:
    def test_basic(self):
        text = ParallelismPlan(tp=8, pp=10, dp=12).describe()
        assert "TP=8" in text and "PP=10" in text and "960 GPUs" in text

    def test_optional_fields_shown_when_set(self):
        text = ParallelismPlan(tp=4, sp=4, vpp=2).describe()
        assert "SP=4" in text and "VPP=2" in text
        assert "EP" not in text
