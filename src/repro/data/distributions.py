"""Skewed modality-size distributions (Figure 5).

The paper characterizes LAION-400M: text subsequence sizes, image
subsequence sizes (one 16x16 patch = one token), and image counts per
training sample all follow highly skewed distributions. We model them as
clipped log-normals calibrated to the figure's supports:

* text subsequences: 0-128 tokens, mode near 30 (Figure 5a);
* image subsequences: 0-4096 tokens, i.e. up to 1024x1024 pixels, with
  mass concentrated at low-to-mid resolutions (Figure 5b);
* image count per sample: 0-32, mode near 8 (Figure 5c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# numpy 2 loads numpy.random on the first default_rng call; load it at
# import so that cost lands in set-up, not in the first simulated run.
import numpy.random  # noqa: F401


#: What each field annotation accepts, and how an error names it. A
#: bool is an int to isinstance, but no field takes one.
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
}

#: Lower bounds of the fields that have one (every field must also be
#: finite, and ``text_heavy_fraction`` lies in [0, 1]).
_MINIMUM = {
    "text_sigma": 0,
    "image_side_sigma": 0,
    "images_sigma": 0,
    "text_heavy_spans_sigma": 0,
    "jpeg_bytes_per_pixel": 0,
    "decoded_bytes_per_pixel": 0,
    "max_images": 0,
    "text_max_tokens": 1,
    "patch_size": 1,
}


@dataclass(frozen=True)
class DataDistributionConfig:
    """Parameters of the synthetic multimodal data sampler.

    Log-normal parameters are of the underlying normal (mu, sigma).

    Attributes:
        text_mu / text_sigma: Text subsequence token-count distribution.
        text_max_tokens: Clip for text subsequences (Figure 5a support).
        image_side_mu / image_side_sigma: Image edge length (pixels).
        image_min_side / image_max_side: Resolution clips; 1024 maximum
            matches Figure 5b's 4096-token ceiling.
        images_mu / images_sigma: Per-sample image-count distribution.
        max_images: Clip for image count (Figure 5c support).
        patch_size: Pixels per token edge (16).
        jpeg_bytes_per_pixel: On-disk compressed size.
        decoded_bytes_per_pixel: RGB bitmap size after decode.
        text_heavy_fraction: Fraction of documents that are long-form
            text with few or no images. Production corpora interleave
            image-rich web documents with text-heavy ones; this mixture
            is what makes the *per-sample* image-token count (the
            straggler driver) heterogeneous even after packing to a fixed
            sequence length.
        text_heavy_spans_mu / text_heavy_spans_sigma: Log-normal over the
            number of consecutive text subsequences in a text-heavy
            document.
    """

    text_mu: float = 3.4
    text_sigma: float = 0.8
    text_max_tokens: int = 128
    image_side_mu: float = 6.1
    image_side_sigma: float = 0.5
    image_min_side: int = 64
    image_max_side: int = 1024
    images_mu: float = 2.0
    images_sigma: float = 0.7
    max_images: int = 32
    patch_size: int = 16
    jpeg_bytes_per_pixel: float = 0.5
    decoded_bytes_per_pixel: float = 3.0
    text_heavy_fraction: float = 0.4
    text_heavy_spans_mu: float = 4.5
    text_heavy_spans_sigma: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kinds, expected = _FIELD_TYPES[f.type]
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise ValueError(f"{f.name} must be {expected}, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            low = _MINIMUM.get(f.name)
            if low is not None and value < low:
                raise ValueError(f"{f.name} must be >= {low}, got {value!r}")
        if not 0.0 <= self.text_heavy_fraction <= 1.0:
            raise ValueError(
                "text_heavy_fraction must lie in [0, 1], got "
                f"{self.text_heavy_fraction!r}"
            )
        if self.image_min_side > self.image_max_side:
            raise ValueError(
                f"image_min_side={self.image_min_side} exceeds "
                f"image_max_side={self.image_max_side}"
            )
        # A side is at least one patch and at most image_max_side, so a
        # patch wider than that leaves every image with 0 tokens.
        if self.patch_size > self.image_max_side:
            raise ValueError(
                f"patch_size={self.patch_size} exceeds "
                f"image_max_side={self.image_max_side}"
            )


LAION_400M_LIKE = DataDistributionConfig()


# Each clamp/snap formula is written once and serves both the public
# scalar samplers (on one draw) and the synthetic dataset's chunked draw
# (on all of a chunk's draws at once, with numpy ufuncs).


def text_tokens_from_draws(
    draws: np.ndarray, config: DataDistributionConfig = LAION_400M_LIKE
) -> np.ndarray:
    """Text subsequence lengths from log-normal draws: clamped to
    ``[1, text_max_tokens]`` and truncated to whole tokens.

    Truncating the clamped float equals ``min(max(int(v), 1), max)`` on
    every finite draw.
    """
    return np.minimum(
        np.maximum(draws, 1), config.text_max_tokens
    ).astype(np.int64)


def image_steps_from_draws(
    draws: np.ndarray, config: DataDistributionConfig = LAION_400M_LIKE
) -> np.ndarray:
    """Image edges from log-normal draws, in patches: each draw clamped to
    the resolution clips and rounded half to even onto the patch grid."""
    clamped = np.minimum(
        np.maximum(draws, config.image_min_side), config.image_max_side
    )
    return np.rint(clamped / config.patch_size).astype(np.int64)


def image_side_pixels(
    steps: int, config: DataDistributionConfig = LAION_400M_LIKE
) -> int:
    """Edge length of an image ``steps`` patches wide (see
    :func:`image_steps_from_draws`): at least one patch, at most
    ``image_max_side``."""
    patch = config.patch_size
    return min(max(steps * patch, patch), config.image_max_side)


def image_tokens(
    side: int, config: DataDistributionConfig = LAION_400M_LIKE
) -> int:
    """Image subsequence length in tokens: (side / patch) squared."""
    return (side // config.patch_size) ** 2


def sample_text_subsequence_tokens(
    rng: np.random.Generator, config: DataDistributionConfig = LAION_400M_LIKE
) -> int:
    """Draw one text subsequence length in tokens."""
    draw = rng.lognormal(config.text_mu, config.text_sigma)
    return int(text_tokens_from_draws(draw, config))


def sample_image_side_pixels(
    rng: np.random.Generator, config: DataDistributionConfig = LAION_400M_LIKE
) -> int:
    """Draw one image edge length, snapped to the patch grid."""
    draw = rng.lognormal(config.image_side_mu, config.image_side_sigma)
    return image_side_pixels(int(image_steps_from_draws(draw, config)), config)


def sample_image_subsequence_tokens(
    rng: np.random.Generator, config: DataDistributionConfig = LAION_400M_LIKE
) -> int:
    """Draw one image subsequence length in tokens (side/patch squared)."""
    return image_tokens(sample_image_side_pixels(rng, config), config)


def sample_image_count(
    rng: np.random.Generator, config: DataDistributionConfig = LAION_400M_LIKE
) -> int:
    """Draw the number of image subsequences in one training sample."""
    count = int(rng.lognormal(config.images_mu, config.images_sigma))
    return min(max(count, 0), config.max_images)
