"""Synthetic LAION-400M-like multimodal dataset.

Generates training samples whose text/image subsequence sizes and image
counts follow the skewed distributions of Figure 5, packed into
fixed-length sequences. The dataset is an infinite deterministic stream
(seeded), from which global batches are drawn for training simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from repro.data.distributions import (
    DataDistributionConfig,
    LAION_400M_LIKE,
    sample_audio_subsequence_tokens,
    sample_image_count,
    sample_image_subsequence_tokens,
    sample_text_subsequence_tokens,
    sample_text_subsequence_tokens_batch,
)
from repro.data.packing import SequencePacker
from repro.data.sample import Subsequence, TrainingSample, text_subsequence


@dataclass
class SyntheticMultimodalDataset:
    """Seeded generator of packed multimodal training samples.

    Attributes:
        seq_len: Packed sequence length (8192 in the paper).
        config: Modality size distributions.
        seed: RNG seed; two datasets with equal seeds yield equal streams.
    """

    seq_len: int = 8192
    config: DataDistributionConfig = field(default_factory=lambda: LAION_400M_LIKE)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seq_len < 1:
            raise ValueError("seq_len must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self._rng = np.random.default_rng(self.seed)
        self._next_sample_id = 0

    # ------------------------------------------------------------------ #
    # Raw (pre-packing) sample construction
    # ------------------------------------------------------------------ #
    def _raw_subsequences(self) -> List[Subsequence]:
        """One logical document: interleaved text spans and images.

        Documents are a mixture of long-form text (few or no images) and
        image-rich web pages; the mixture is what keeps per-sample image
        density heterogeneous after packing (see
        ``DataDistributionConfig.text_heavy_fraction``).
        """
        rng, cfg = self._rng, self.config
        if rng.random() < cfg.text_heavy_fraction:
            spans = max(
                1,
                int(rng.lognormal(cfg.text_heavy_spans_mu,
                                  cfg.text_heavy_spans_sigma)),
            )
            # One vectorized draw for the whole document; same RNG
            # stream as per-span scalar draws.
            return [
                text_subsequence(tokens)
                for tokens in sample_text_subsequence_tokens_batch(
                    rng, spans, cfg
                )
            ]
        num_images = sample_image_count(rng, cfg)
        subsequences: List[Subsequence] = []
        # Leading text span.
        text_tokens = sample_text_subsequence_tokens(rng, cfg)
        subsequences.append(text_subsequence(text_tokens))
        for _ in range(num_images):
            tokens = sample_image_subsequence_tokens(rng, cfg)
            pixels = tokens * cfg.patch_size**2
            subsequences.append(
                Subsequence(
                    "image",
                    tokens,
                    raw_bytes=round(pixels * cfg.jpeg_bytes_per_pixel),
                    pixels=pixels,
                )
            )
            # Interleaving text between images.
            text_tokens = sample_text_subsequence_tokens(rng, cfg)
            subsequences.append(text_subsequence(text_tokens))
        if cfg.audio_fraction > 0 and rng.random() < cfg.audio_fraction:
            tokens = sample_audio_subsequence_tokens(rng, cfg)
            # Raw audio bytes: 16 kHz mono 16-bit per clip second.
            seconds = tokens / cfg.audio_tokens_per_second
            subsequences.append(
                Subsequence("audio", tokens,
                            raw_bytes=round(seconds * 32_000))
            )
        return subsequences

    # ------------------------------------------------------------------ #
    # Public stream
    # ------------------------------------------------------------------ #
    def take(self, num_samples: int) -> List[TrainingSample]:
        """Generate the next ``num_samples`` packed training samples.

        One :class:`~repro.data.packing.SequencePacker` packs documents
        in a single pass until ``num_samples`` sequences have closed.
        The dataset's next sample id advances past every closed
        sequence, those beyond ``num_samples`` included, so ids stay
        unique. Packing starts afresh on every call, and the call drops
        what is still open when it returns (its last sequence, partially
        or exactly full) along with any complete sequences past
        ``num_samples``. The stream is therefore a function of the call
        sizes as well as the seed: ``take(100)`` followed by
        ``take(100)`` differs from ``take(200)`` after its first 100
        samples.
        """
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        packer = SequencePacker(self.seq_len, self._next_sample_id)
        samples: List[TrainingSample] = []
        while len(samples) < num_samples:
            packer.feed(self._raw_subsequences(), samples)
        self._next_sample_id = packer.next_id
        return samples[:num_samples]

    def global_batches(
        self, batch_size: int, num_batches: Optional[int] = None
    ) -> Iterator[List[TrainingSample]]:
        """Yield global batches of ``batch_size`` samples."""
        produced = 0
        while num_batches is None or produced < num_batches:
            yield self.take(batch_size)
            produced += 1
