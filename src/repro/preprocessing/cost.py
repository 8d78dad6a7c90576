"""CPU preprocessing cost model.

Multimodal preprocessing is dominated by image work: JPEG decompression,
resizing to the model resolution, patchification/reordering. The paper's
motivating example — a 256-word text plus ten 1024x1024 images — takes
"several seconds" (section 2.3); the per-pixel rates below reproduce that
(10 x 1024^2 pixels x ~300 ns/pixel ~= 3.1 s on one core).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.sample import BatchColumns
from repro.numerics import fold_sum


@dataclass(frozen=True)
class PreprocessCostModel:
    """Per-sample CPU cost accounting (single-core seconds).

    Attributes:
        decode_ns_per_pixel: JPEG decompression.
        resize_ns_per_pixel: Bilinear resize to model resolution.
        augment_ns_per_pixel: Normalization, patch reordering, collation.
        text_ns_per_token: Tokenization and packing bookkeeping.
        fixed_s_per_sample: Per-sample dispatch overhead (I/O syscalls,
            metadata).
    """

    decode_ns_per_pixel: float = 180.0
    resize_ns_per_pixel: float = 80.0
    augment_ns_per_pixel: float = 40.0
    text_ns_per_token: float = 250.0
    fixed_s_per_sample: float = 0.002

    @property
    def image_ns_per_pixel(self) -> float:
        return (
            self.decode_ns_per_pixel
            + self.resize_ns_per_pixel
            + self.augment_ns_per_pixel
        )

    def sample_cpu_seconds(self, sample):
        """Single-core seconds to preprocess one training sample.

        Reads only ``sample.pixels`` and ``sample.text_tokens``, so a
        batch's :class:`~repro.data.sample.BatchColumns` gives every
        sample's seconds as one float64 array: the same operations,
        elementwise.
        """
        image = sample.pixels * self.image_ns_per_pixel * 1e-9
        text = sample.text_tokens * self.text_ns_per_token * 1e-9
        return image + text + self.fixed_s_per_sample

    def batch_cpu_seconds(self, columns: BatchColumns) -> float:
        """Single-core seconds for a whole batch: its samples' seconds
        summed left to right."""
        return fold_sum(self.sample_cpu_seconds(columns).tolist())
