"""Distribution sampler tests (Figure 5 calibration)."""

import numpy as np
import pytest

from repro.data.distributions import (
    LAION_400M_LIKE,
    DataDistributionConfig,
    sample_image_count,
    sample_image_side_pixels,
    sample_image_subsequence_tokens,
    sample_text_subsequence_tokens,
    text_tokens_from_draws,
)


def draws(fn, n=2000, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return np.array([fn(rng, **kwargs) for _ in range(n)])


class TestTextSizes:
    def test_support(self):
        values = draws(sample_text_subsequence_tokens)
        assert values.min() >= 1
        assert values.max() <= LAION_400M_LIKE.text_max_tokens

    def test_skewed_right(self):
        values = draws(sample_text_subsequence_tokens)
        assert np.median(values) < values.mean() * 1.2
        assert values.std() > 10


class TestTextBatch:
    @pytest.mark.parametrize("text_mu, text_max_tokens", [
        (3.4, 128),  # the default: clamps long spans
        (0.0, 128),  # most draws below one token
        (3.4, 30),   # most draws above the clip
    ])
    def test_batch_equals_scalar_loop(self, text_mu, text_max_tokens):
        """One clip of a vectorized draw (as the synthetic dataset clamps
        a chunk's text spans) equals per-span scalar draws (the
        ``min(max(int(v), 1), max)`` reference), and the draw leaves the
        RNG in the same state."""
        config = DataDistributionConfig(
            text_mu=text_mu, text_max_tokens=text_max_tokens
        )
        batch_rng = np.random.default_rng(3)
        loop_rng = np.random.default_rng(3)
        batch = text_tokens_from_draws(
            batch_rng.lognormal(config.text_mu, config.text_sigma, size=5000),
            config,
        ).tolist()
        loop = [
            sample_text_subsequence_tokens(loop_rng, config)
            for _ in range(5000)
        ]
        assert batch == loop
        assert {type(t) for t in batch} == {int}
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


class TestImageSizes:
    def test_token_support_matches_figure5b(self):
        values = draws(sample_image_subsequence_tokens)
        assert values.min() >= (64 // 16) ** 2
        assert values.max() <= 4096

    def test_sides_snapped_to_patch_grid(self):
        values = draws(sample_image_side_pixels, n=500)
        assert np.all(values % 16 == 0)
        assert values.max() <= 1024

    def test_tokens_are_perfect_squares(self):
        values = draws(sample_image_subsequence_tokens, n=500)
        roots = np.sqrt(values)
        assert np.allclose(roots, np.round(roots))


class TestImageCounts:
    def test_support_matches_figure5c(self):
        values = draws(sample_image_count)
        assert values.min() >= 0
        assert values.max() <= LAION_400M_LIKE.max_images

    def test_mode_in_low_range(self):
        values = draws(sample_image_count)
        assert 3 <= np.median(values) <= 12


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = draws(sample_image_subsequence_tokens, seed=7)
        b = draws(sample_image_subsequence_tokens, seed=7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = draws(sample_image_subsequence_tokens, seed=1)
        b = draws(sample_image_subsequence_tokens, seed=2)
        assert not np.array_equal(a, b)


class TestCustomConfig:
    def test_tight_config(self):
        config = DataDistributionConfig(
            image_min_side=256, image_max_side=256
        )
        values = draws(sample_image_subsequence_tokens, config=config, n=100)
        assert np.all(values == 256)


class TestConfigValidation:
    """A malformed config fails at construction with a ValueError that
    names the field, not deep inside (or silently through) the draw."""

    @pytest.mark.parametrize("field, value", [
        ("text_mu", float("nan")),
        ("image_side_sigma", float("inf")),
        ("text_sigma", -0.1),
        ("images_sigma", -1.0),
        ("text_heavy_spans_sigma", -2.0),
        ("text_heavy_fraction", 2.0),
        ("text_heavy_fraction", -0.1),
        ("text_max_tokens", 0),
        ("patch_size", 0),
        ("max_images", -3),
        ("jpeg_bytes_per_pixel", -0.5),
        ("decoded_bytes_per_pixel", -3.0),
        # Mistyped: each built and then drew as something else or
        # raised a TypeError without the field's name.
        ("max_images", 2.5),
        ("max_images", True),
        ("text_heavy_fraction", True),
        ("text_mu", "3"),
        ("text_mu", None),
        ("text_max_tokens", 64.5),
        ("image_max_side", 512.0),
        ("patch_size", True),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            DataDistributionConfig(**{field: value})

    def test_rejects_min_side_above_max_side(self):
        with pytest.raises(ValueError, match="image_min_side"):
            DataDistributionConfig(image_min_side=512, image_max_side=256)

    def test_rejects_patch_wider_than_max_side(self):
        """A patch wider than the largest image would give every image 0
        tokens and 0 pixels."""
        with pytest.raises(
            ValueError, match="patch_size=2048 exceeds image_max_side=1024"
        ):
            DataDistributionConfig(patch_size=2048)

    @pytest.mark.parametrize("kwargs", [
        {},
        {"text_heavy_fraction": 0.0},
        {"text_heavy_fraction": 1.0},
        {"image_min_side": 256, "image_max_side": 256},
        {"text_sigma": 0.0, "max_images": 0, "jpeg_bytes_per_pixel": 0.0},
        {"patch_size": 1024},
    ])
    def test_accepts_shipped_and_boundary_configs(self, kwargs):
        DataDistributionConfig(**kwargs)
