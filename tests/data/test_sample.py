"""Training sample primitive tests."""

import pytest

from repro.data.sample import Subsequence, TrainingSample


def sample(sample_id=0, text=100, image_tokens=(1024, 2048)):
    subs = [Subsequence("text", text)]
    for tokens in image_tokens:
        subs.append(
            Subsequence(
                "image", tokens, raw_bytes=tokens * 128, pixels=tokens * 256
            )
        )
    return TrainingSample(sample_id=sample_id, subsequences=tuple(subs))


class TestSubsequence:
    def test_modality_validation(self):
        with pytest.raises(ValueError):
            Subsequence("video", 10)

    def test_negative_fields(self):
        with pytest.raises(ValueError):
            Subsequence("text", -1)


class TestTrainingSample:
    def test_token_accounting(self):
        s = sample()
        assert s.text_tokens == 100
        assert s.image_tokens == 3072
        assert s.num_images == 2
        assert s.total_tokens == 3172

    def test_size_is_image_tokens(self):
        assert sample().size == 3072

    def test_raw_bytes_and_pixels(self):
        s = sample()
        assert s.raw_bytes == 3072 * 128
        assert s.pixels == 3072 * 256

    def test_workload(self):
        w = sample().workload()
        assert w.samples == 1
        assert w.text_tokens == 100
        assert w.image_tokens == 3072
