"""MFU and throughput accounting tests."""

import pytest

from repro.data.sample import (
    BatchColumns,
    Subsequence,
    TrainingSample,
)
from repro.data.synthetic import SyntheticMultimodalDataset
from repro.models.base import ModuleWorkload
from repro.models.mllm import MLLM_9B, MLLM_PRESETS
from repro.runtime.frozen import FROZEN_PRESETS, FrozenConfig
from repro.runtime.mfu import ModelFlopsAccountant, mfu, token_throughput

from tests.summation import left_fold

SAMPLES = SyntheticMultimodalDataset(seed=0).take(16)


def image(tokens):
    return Subsequence("image", tokens, raw_bytes=tokens * 100,
                       pixels=tokens * 256)


#: Samples with no, one and several images (and repeated image counts,
#: so the accountant's per-image-count terms are reused).
MIXED = [
    TrainingSample(0, (Subsequence("text", 8192),)),
    TrainingSample(1, (Subsequence("text", 7000), image(1024))),
    TrainingSample(2, (image(256), Subsequence("text", 3000), image(4096))),
    TrainingSample(3, tuple(image(576) for _ in range(6))),
    TrainingSample(4, (Subsequence("text", 100), image(64))),
    TrainingSample(5, (image(2048), image(16), Subsequence("text", 5))),
] + list(SAMPLES)


def reference_sample_flops(mllm, frozen, sample):
    """Per-module FLOPs of one sample: encoder, LLM and generator with
    their required backward, then the projectors' forward + backward."""
    workload = ModuleWorkload(
        samples=1,
        text_tokens=sample.text_tokens,
        image_tokens=sample.image_tokens,
        images=sample.num_images,
    )
    generated = ModuleWorkload(
        samples=1,
        image_tokens=sample.num_images * mllm.generation_image_tokens,
        images=sample.num_images,
    )
    total = 0.0
    for name in ("encoder", "llm", "generator"):
        module_workload = generated if name == "generator" else workload
        fwd = mllm.module(name).forward_flops(module_workload)
        total += fwd * (1.0 + frozen.backward_factor(name))
    proj_fwd = mllm.input_projector.forward_flops(workload)
    proj_fwd += mllm.output_projector.forward_flops(generated)
    total += proj_fwd * 3.0
    return total


class TestAccountant:
    def test_positive_flops(self):
        accountant = ModelFlopsAccountant(MLLM_9B, FrozenConfig())
        assert accountant.batch_flops(BatchColumns.of(SAMPLES)) > 0

    def test_frozen_training_needs_fewer_flops(self):
        full = ModelFlopsAccountant(MLLM_9B, FrozenConfig())
        frozen = ModelFlopsAccountant(MLLM_9B, FROZEN_PRESETS["all-frozen"])
        columns = BatchColumns.of(SAMPLES)
        assert frozen.batch_flops(columns) < full.batch_flops(columns)

    def test_batch_is_sum_of_samples(self):
        accountant = ModelFlopsAccountant(MLLM_9B, FrozenConfig())
        total = left_fold(accountant.sample_flops(s) for s in SAMPLES)
        assert accountant.batch_flops(BatchColumns.of(SAMPLES)) == total

    @pytest.mark.parametrize("preset", sorted(FROZEN_PRESETS))
    @pytest.mark.parametrize("model", sorted(MLLM_PRESETS))
    def test_sample_flops_match_per_module_formula(self, model, preset):
        mllm, frozen = MLLM_PRESETS[model], FROZEN_PRESETS[preset]
        accountant = ModelFlopsAccountant(mllm, frozen)
        assert {0, 1, 2, 6} <= {s.num_images for s in MIXED}
        for _ in range(2):
            for sample in MIXED:
                assert accountant.sample_flops(sample) == (
                    reference_sample_flops(mllm, frozen, sample)
                )
        assert accountant.batch_flops(BatchColumns.of(MIXED)) == left_fold(
            reference_sample_flops(mllm, frozen, s) for s in MIXED
        )

    def test_llm_dominates_sample_flops(self):
        accountant = ModelFlopsAccountant(MLLM_9B, FrozenConfig())
        sample = SAMPLES[0]
        llm_fwd = MLLM_9B.llm.forward_flops(sample.workload())
        assert accountant.sample_flops(sample) > 3 * llm_fwd

    def test_generator_workload_uses_generation_resolution(self):
        accountant = ModelFlopsAccountant(MLLM_9B, FrozenConfig())
        sample = next(s for s in SAMPLES if s.num_images > 0)
        workload = accountant.generator_workload(sample.num_images)
        assert workload.image_tokens == sample.num_images * 1024


class TestMfu:
    def test_basic(self):
        assert mfu(1e15, 10.0, 8, 312e12) == pytest.approx(
            1e15 / (10.0 * 8 * 312e12)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            mfu(1.0, 0.0, 8, 312e12)
        with pytest.raises(ValueError):
            mfu(1.0, 1.0, 0, 312e12)


class TestThroughput:
    def test_tokens_per_second(self):
        assert token_throughput(1920, 8192, 10.0) == pytest.approx(
            1920 * 8192 / 10.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            token_throughput(1, 1, 0.0)
