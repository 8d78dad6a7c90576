"""ViT modality encoder tests."""

import pytest

from repro.models.base import ModuleKind, ModuleWorkload
from repro.models.mllm import image_tokens_for_resolution
from repro.models.vit import VIT_HUGE, VIT_LARGE


class TestParams:
    def test_vit_huge_is_0_63b(self):
        # The paper states ViT-Huge is 0.63B parameters.
        assert 0.6e9 < VIT_HUGE.param_count() < 0.68e9

    def test_vit_large_smaller(self):
        assert VIT_LARGE.param_count() < VIT_HUGE.param_count()

    def test_kind(self):
        assert VIT_HUGE.kind is ModuleKind.ENCODER


class TestTokens:
    """The MLLM counts a ViT's image tokens with
    ``image_tokens_for_resolution`` at the encoder's patch size."""

    def test_tokens_for_512(self):
        assert image_tokens_for_resolution(512, VIT_HUGE.patch_size) == 1024

    def test_tokens_for_1024(self):
        assert image_tokens_for_resolution(1024, VIT_HUGE.patch_size) == 4096

    def test_non_divisible_resolution_rejected(self):
        with pytest.raises(ValueError):
            image_tokens_for_resolution(500, VIT_HUGE.patch_size)


class TestFlops:
    def test_zero_images_zero_flops(self):
        assert VIT_HUGE.forward_flops(ModuleWorkload(samples=1)) == 0.0

    def test_flops_roughly_2_params_per_token(self):
        w = ModuleWorkload(samples=1, image_tokens=1024, images=1)
        flops = VIT_HUGE.forward_flops(w)
        lower = 2.0 * VIT_HUGE.config.total_params() * 1024
        assert flops > lower  # attention adds on top of the GEMMs
        assert flops < 2.0 * lower

    def test_flops_scale_superlinearly_with_resolution(self):
        """Bigger images mean more tokens *and* longer attention spans."""
        small = VIT_HUGE.forward_flops(
            ModuleWorkload(samples=1, image_tokens=1024, images=1)
        )
        large = VIT_HUGE.forward_flops(
            ModuleWorkload(samples=1, image_tokens=4096, images=1)
        )
        assert large > 4 * small

    def test_flops_linear_in_image_count_at_fixed_resolution(self):
        one = VIT_HUGE.forward_flops(
            ModuleWorkload(samples=1, image_tokens=1024, images=1)
        )
        four = VIT_HUGE.forward_flops(
            ModuleWorkload(samples=1, image_tokens=4096, images=4)
        )
        assert four == pytest.approx(4 * one, rel=1e-6)


class TestMemory:
    def test_activation_bytes_positive(self):
        w = ModuleWorkload(samples=1, image_tokens=2048, images=2)
        assert VIT_HUGE.activation_bytes(w) > 0

    def test_boundary_bytes(self):
        assert VIT_HUGE.boundary_activation_bytes(1000) == pytest.approx(
            2.0 * 1000 * 1280
        )
