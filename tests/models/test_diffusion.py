"""Latent-diffusion generator tests."""

import pytest

from repro.models.base import ModuleKind, ModuleWorkload
from repro.models.diffusion import STABLE_DIFFUSION_2_1, DiffusionSpec, UNetConfig


class TestParams:
    def test_total_near_1b(self):
        # SD 2.1 is ~0.87B UNet + ~0.08B VAE; the paper rounds to 1B.
        assert 0.8e9 < STABLE_DIFFUSION_2_1.param_count() < 1.1e9

    def test_kind(self):
        assert STABLE_DIFFUSION_2_1.kind is ModuleKind.GENERATOR


class TestLatentGeometry:
    def test_latent_side_512(self):
        # 1024 tokens -> 512px image -> 64 latent at 8x downsampling.
        assert STABLE_DIFFUSION_2_1.latent_side_for_tokens(1024) == 64

    def test_latent_side_1024(self):
        assert STABLE_DIFFUSION_2_1.latent_side_for_tokens(4096) == 128

    def test_invalid_tokens(self):
        with pytest.raises(ValueError):
            STABLE_DIFFUSION_2_1.latent_side_for_tokens(0)


class TestFlops:
    def test_unet_flops_512_matches_sd21(self):
        """Real SD2.1 runs ~0.7 TFLOPs per 512x512 denoising step."""
        flops = STABLE_DIFFUSION_2_1.unet_flops_per_image(1024)
        assert 0.4e12 < flops < 1.2e12

    def test_resolution_scaling_superquadratic_in_side(self):
        f512 = STABLE_DIFFUSION_2_1.unet_flops_per_image(1024)
        f1024 = STABLE_DIFFUSION_2_1.unet_flops_per_image(4096)
        assert 3.5 * f512 < f1024 < 10 * f512

    def test_zero_images_zero_flops(self):
        assert (
            STABLE_DIFFUSION_2_1.forward_flops(ModuleWorkload(samples=1))
            == 0.0
        )

    def test_flops_linear_in_images(self):
        one = STABLE_DIFFUSION_2_1.forward_flops(
            ModuleWorkload(samples=1, image_tokens=1024, images=1)
        )
        three = STABLE_DIFFUSION_2_1.forward_flops(
            ModuleWorkload(samples=1, image_tokens=3072, images=3)
        )
        assert three == pytest.approx(3 * one, rel=1e-6)

    def test_vae_encode_cost_positive(self):
        assert STABLE_DIFFUSION_2_1.vae_encode_flops_per_image(1024) > 0


class TestCustomUNet:
    def test_fewer_levels_fewer_params(self):
        shallow = DiffusionSpec(
            name="small",
            unet=UNetConfig(channel_mults=(1, 2)),
        )
        assert shallow.param_count() < STABLE_DIFFUSION_2_1.param_count()

    def test_num_layers_positive(self):
        assert STABLE_DIFFUSION_2_1.num_layers > 4

    def test_activation_bytes_scale_with_images(self):
        w1 = ModuleWorkload(samples=1, image_tokens=1024, images=1)
        w2 = ModuleWorkload(samples=1, image_tokens=2048, images=2)
        spec = STABLE_DIFFUSION_2_1
        assert spec.activation_bytes(w2) == pytest.approx(
            2 * spec.activation_bytes(w1)
        )
