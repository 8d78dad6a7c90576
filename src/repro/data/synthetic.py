"""Synthetic LAION-400M-like multimodal dataset.

Generates training samples whose text/image subsequence sizes and image
counts follow the skewed distributions of Figure 5, packed into
fixed-length sequences. The dataset is an infinite deterministic stream
(seeded), from which global batches are drawn for training simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Tuple

import numpy as np

from repro.data.distributions import (
    DataDistributionConfig,
    LAION_400M_LIKE,
    image_side_pixels,
    image_steps_from_draws,
    image_tokens,
    sample_image_count,
    sample_text_subsequence_tokens_batch,
    text_tokens_from_draws,
)
from repro.data.packing import SequencePacker
from repro.data.sample import (
    Subsequence,
    TrainingSample,
    text_subsequence_lookup,
)

_TOKENS = attrgetter("tokens")


class _ImageSpans(dict):
    """Interned image spans of one config, keyed by their edge in patches
    (see :func:`~repro.data.distributions.image_steps_from_draws`): a
    lookup builds a missing span once, so a config's few dozen distinct
    edges (61 at the default) cost a few dozen spans, not one per draw.
    Safe because Subsequence is frozen."""

    def __init__(self, config: DataDistributionConfig) -> None:
        super().__init__()
        self.config = config

    def __missing__(self, steps: int) -> Subsequence:
        cfg = self.config
        tokens = image_tokens(image_side_pixels(steps, cfg), cfg)
        pixels = tokens * cfg.patch_size**2
        span = self[steps] = Subsequence(
            "image",
            tokens,
            raw_bytes=round(pixels * cfg.jpeg_bytes_per_pixel),
            pixels=pixels,
        )
        return span


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
        cfg = self.config
        # Log-normal parameters of the spans (text, image, text, ...,
        # text) of the longest image-rich document drawn so far.
        self._mus = self._sigmas = np.empty(0)
        self._text_span = text_subsequence_lookup(cfg.text_max_tokens)
        self._image_span = _ImageSpans(cfg).__getitem__

    # ------------------------------------------------------------------ #
    # Raw (pre-packing) sample construction
    # ------------------------------------------------------------------ #
    def _document(self) -> Tuple[List[Subsequence], List[int]]:
        """One logical document: interleaved text spans and images, and
        their token counts.

        Documents are a mixture of long-form text (few or no images) and
        image-rich web pages; the mixture is what keeps per-sample image
        density heterogeneous after packing (see
        ``DataDistributionConfig.text_heavy_fraction``).

        The Python work is per document, not per span: the span sizes
        come from one log-normal call (after the mixture and count
        draws) and become tokens on arrays, and the spans are interned.
        The draws are those of one scalar call per span, in span order.
        """
        rng, cfg = self._rng, self.config
        if rng.random() < cfg.text_heavy_fraction:
            count = max(
                1,
                int(rng.lognormal(cfg.text_heavy_spans_mu,
                                  cfg.text_heavy_spans_sigma)),
            )
            tokens = sample_text_subsequence_tokens_batch(rng, count, cfg)
            return list(map(self._text_span, tokens)), tokens
        count = 2 * sample_image_count(rng, cfg) + 1
        if count > self._mus.size:
            self._mus = np.resize([cfg.text_mu, cfg.image_side_mu], count)
            self._sigmas = np.resize(
                [cfg.text_sigma, cfg.image_side_sigma], count
            )
        # Array parameters draw element by element, in order, so this
        # is the stream of one scalar draw per span.
        draws = rng.lognormal(self._mus[:count], self._sigmas[:count])
        text = text_tokens_from_draws(draws[0::2], cfg).tolist()
        spans = [None] * count
        spans[0::2] = map(self._text_span, text)
        spans[1::2] = map(
            self._image_span, image_steps_from_draws(draws[1::2], cfg).tolist()
        )
        return spans, list(map(_TOKENS, spans))

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
            packer.feed_counted(*self._document(), samples)
        self._next_sample_id = packer.next_id
        return samples[:num_samples]
