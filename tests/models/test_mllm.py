"""Multimodal LLM composition tests."""

import re

import pytest

from repro.models.base import ModuleWorkload
from repro.models.diffusion import STABLE_DIFFUSION_2_1
from repro.models.llm import LLAMA3_7B
from repro.models.mllm import (
    MLLM_9B,
    MLLM_15B,
    MLLM_72B,
    MLLM_PRESETS,
    MultimodalLLMSpec,
    image_tokens_for_resolution,
)


class TestPresets:
    @pytest.mark.parametrize(
        "spec,low,high",
        [
            (MLLM_9B, 8e9, 11e9),
            (MLLM_15B, 14e9, 18e9),
            (MLLM_72B, 70e9, 75e9),
        ],
    )
    def test_total_params(self, spec, low, high):
        assert low < spec.param_count() < high

    def test_generation_resolution_follows_model_size(self):
        # Large models generate at high resolution (section 7, Models).
        assert MLLM_9B.generation_resolution == 512
        assert MLLM_15B.generation_resolution == 512
        assert MLLM_72B.generation_resolution == 1024

    def test_generation_image_tokens(self):
        assert MLLM_9B.generation_image_tokens == 1024
        assert MLLM_72B.generation_image_tokens == 4096

    def test_registry(self):
        assert set(MLLM_PRESETS) == {
            "mllm-9b", "mllm-15b", "mllm-72b", "mllm-moe-40b",
        }


class TestComposition:
    def test_module_lookup(self):
        assert MLLM_9B.module("encoder") is MLLM_9B.encoder
        assert MLLM_9B.module("llm") is MLLM_9B.llm
        assert MLLM_9B.module("generator") is MLLM_9B.generator

    def test_unknown_module(self):
        with pytest.raises(KeyError):
            MLLM_9B.module("audio")

    def test_projectors_autoconfigured(self):
        assert MLLM_9B.input_projector.in_dim == 1280
        assert MLLM_9B.input_projector.out_dim == 4096
        assert MLLM_9B.output_projector.in_dim == 4096
        assert (
            MLLM_9B.output_projector.out_dim
            == MLLM_9B.generator.unet.context_dim
        )

    def test_forward_flops_sums_modules(self):
        w = ModuleWorkload(
            samples=1, text_tokens=2000, image_tokens=6000, images=6
        )
        total = MLLM_9B.forward_flops(w)
        parts = (
            MLLM_9B.encoder.forward_flops(w)
            + MLLM_9B.llm.forward_flops(w)
            + MLLM_9B.generator.forward_flops(w)
        )
        assert total > parts  # projectors included
        assert total < parts * 1.2

    def test_describe_mentions_all_modules(self):
        text = MLLM_72B.describe()
        for needle in ("vit", "llama3-70b", "stable-diffusion", "1024"):
            assert needle in text

    @pytest.mark.parametrize(
        "encoder",
        [LLAMA3_7B, STABLE_DIFFUSION_2_1],
        ids=["llm", "diffusion"],
    )
    def test_non_vit_encoder_rejected(self, encoder):
        """The MLLM prices image workloads only, so an encoder without a
        patch size fails at construction, not deep in the accountant."""
        with pytest.raises(
            ValueError, match=re.escape(f"encoder {encoder.name!r}")
        ):
            MultimodalLLMSpec(
                name="mllm-non-vit-encoder",
                encoder=encoder,
                llm=LLAMA3_7B,
                generator=STABLE_DIFFUSION_2_1,
            )


class TestWorkload:
    def test_negative_images_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ModuleWorkload(images=-1)


class TestImageTokens:
    def test_resolution_mapping(self):
        assert image_tokens_for_resolution(512) == 1024
        assert image_tokens_for_resolution(1024) == 4096

    def test_invalid(self):
        with pytest.raises(ValueError):
            image_tokens_for_resolution(100)
