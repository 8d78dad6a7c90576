"""Synthetic dataset tests."""

import numpy as np
import pytest

from repro.data.sample import TrainingSample
from repro.data.stats import DatasetStatistics
from repro.data.synthetic import SyntheticMultimodalDataset


class TestGeneration:
    def test_take_count(self):
        ds = SyntheticMultimodalDataset(seed=0)
        assert len(ds.take(37)) == 37

    def test_sequences_well_packed(self):
        """Greedy packing leaves at most one big-image hole per sequence
        (~4K tokens worst case) and >85% fill on average."""
        ds = SyntheticMultimodalDataset(seed=0)
        samples = ds.take(200)
        assert all(s.total_tokens <= 8192 for s in samples)
        assert all(s.total_tokens >= 8192 // 2 for s in samples)
        mean_fill = np.mean([s.total_tokens for s in samples]) / 8192
        assert mean_fill > 0.85

    def test_ids_unique_and_increasing(self):
        ds = SyntheticMultimodalDataset(seed=0)
        ids = [s.sample_id for s in ds.take(64)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 64

    def test_invalid_take(self):
        with pytest.raises(ValueError):
            SyntheticMultimodalDataset().take(0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SyntheticMultimodalDataset(seed=-1)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SyntheticMultimodalDataset(seed=11).take(32)
        b = SyntheticMultimodalDataset(seed=11).take(32)
        assert [s.image_tokens for s in a] == [s.image_tokens for s in b]
        assert [s.text_tokens for s in a] == [s.text_tokens for s in b]

    def test_different_seed_differs(self):
        a = SyntheticMultimodalDataset(seed=1).take(32)
        b = SyntheticMultimodalDataset(seed=2).take(32)
        assert [s.image_tokens for s in a] != [s.image_tokens for s in b]

    def test_each_take_drops_its_open_tail(self):
        """Packing restarts per call, so the stream depends on the call
        sizes: the batch cache keys batches by their size for this."""
        ds = SyntheticMultimodalDataset(seed=0)
        split = ds.take(100) + ds.take(100)
        whole = SyntheticMultimodalDataset(seed=0).take(200)
        assert split[:100] == whole[:100]
        assert split != whole

    def test_one_packing_pass(self, monkeypatch):
        """``take`` builds each sequence it closes once, under the id it
        keeps: no tail is re-packed into a fresh sample."""
        built = []
        post_init = TrainingSample.__post_init__

        def counting(sample):
            built.append(sample.sample_id)
            post_init(sample)

        monkeypatch.setattr(TrainingSample, "__post_init__", counting)
        ds = SyntheticMultimodalDataset(seed=0)
        ds.take(64)
        ds.take(64)
        assert built == list(range(ds._next_sample_id))


class TestHeterogeneity:
    """The generated population must carry the paper's straggler
    potential: heavily skewed per-sample image-token counts."""

    def test_sample_size_cv_in_band(self):
        ds = SyntheticMultimodalDataset(seed=42)
        stats = DatasetStatistics(ds.take(600))
        assert 0.3 < stats.sample_size_cv() < 1.2

    def test_text_only_samples_exist(self):
        ds = SyntheticMultimodalDataset(seed=42)
        sizes = [s.image_tokens for s in ds.take(600)]
        assert min(sizes) == 0

    def test_image_heavy_samples_exist(self):
        ds = SyntheticMultimodalDataset(seed=42)
        sizes = [s.image_tokens for s in ds.take(600)]
        assert max(sizes) > 7000
