"""Preprocessing cost model tests."""

import pytest

from repro.data.sample import BatchColumns, Subsequence, TrainingSample
from repro.preprocessing.cost import PreprocessCostModel


def image_sample(num_images=10, resolution=1024, text=256):
    tokens = (resolution // 16) ** 2
    pixels = resolution * resolution
    subs = [Subsequence("text", text)]
    subs += [
        Subsequence("image", tokens, raw_bytes=pixels // 2, pixels=pixels)
        for _ in range(num_images)
    ]
    return TrainingSample(sample_id=0, subsequences=tuple(subs))


class TestCostModel:
    def setup_method(self):
        self.cost = PreprocessCostModel()

    def test_paper_motivating_example_takes_seconds(self):
        """Section 2.3: ~256-word text + ten 1024x1024 images takes
        'several seconds' to preprocess."""
        seconds = self.cost.sample_cpu_seconds(image_sample())
        assert 1.0 < seconds < 10.0

    def test_text_only_is_cheap(self):
        text_sample = TrainingSample(
            sample_id=0, subsequences=(Subsequence("text", 8000),)
        )
        assert self.cost.sample_cpu_seconds(text_sample) < 0.01

    def test_cost_scales_with_resolution(self):
        low = self.cost.sample_cpu_seconds(image_sample(resolution=512))
        high = self.cost.sample_cpu_seconds(image_sample(resolution=1024))
        assert high > 3.5 * low

    def test_batch_sums(self):
        samples = [image_sample(), image_sample()]
        columns = BatchColumns.of(samples)
        assert self.cost.batch_cpu_seconds(columns) == pytest.approx(
            2 * self.cost.sample_cpu_seconds(samples[0])
        )
