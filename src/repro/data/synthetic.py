"""Synthetic LAION-400M-like multimodal dataset.

Generates training samples whose text/image subsequence sizes and image
counts follow the skewed distributions of Figure 5, packed into
fixed-length sequences. The dataset is an infinite deterministic stream
(seeded), from which global batches are drawn for training simulation.

``take`` draws the stream a chunk of documents at a time. Each document
makes its own RNG calls, in stream order; everything after the draws
works on the whole chunk's arrays: one clamp of every span as text and
one snap as an image, one lookup of the interned spans, and one feed of
the packer, which closes sequences on prefix sums of the token counts
and totals each sample over its segment of the span columns. A call
that stops inside a chunk restores the generator state the chunk saved
last before the stop and draws again up to the document that holds the
stop, so every call leaves the stream where drawing and packing one
document at a time would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.data.distributions import (
    DataDistributionConfig,
    LAION_400M_LIKE,
    image_side_pixels,
    image_steps_from_draws,
    image_tokens,
    sample_image_count,
    text_tokens_from_draws,
)
from repro.data.packing import (
    COLUMNS,
    SequencePacker,
    span_columns,
    truncate_subsequence,
)
from repro.data.sample import Subsequence, TrainingSample

#: Most documents one chunk draws: bounds the chunk's span arrays.
_CHUNK_DOCUMENTS = 512
#: A chunk saves the generator's state before every this many documents,
#: so a stop inside it draws at most this many documents again.
_STATE_EVERY = 32


class _SpanTable:
    """Interned spans of one dataset, by code, with their columns.

    A text span's code is twice its tokens; an image span's is twice
    its edge in patches (see
    :func:`~repro.data.distributions.image_steps_from_draws`) plus one.
    Each code's span is built once, truncated to ``seq_len``, the first
    time it is drawn, so a config's few hundred distinct spans cost a
    few hundred objects, not one per draw, and the table grows only
    with the codes drawn. Safe because Subsequence is frozen.
    """

    def __init__(self, config: DataDistributionConfig, seq_len: int) -> None:
        self.config = config
        self.seq_len = seq_len
        # spans[code] is None until the code is first drawn.
        self.spans = np.empty(0, dtype=object)
        self.columns = np.empty((COLUMNS, 0), dtype=np.int64)

    def _span(self, code: int) -> Subsequence:
        value, image = divmod(code, 2)
        if not image:
            span = Subsequence("text", value)
        else:
            cfg = self.config
            tokens = image_tokens(image_side_pixels(value, cfg), cfg)
            pixels = tokens * cfg.patch_size**2
            span = Subsequence(
                "image",
                tokens,
                raw_bytes=round(pixels * cfg.jpeg_bytes_per_pixel),
                pixels=pixels,
            )
        return truncate_subsequence(span, self.seq_len)

    def lookup(self, codes: np.ndarray) -> Tuple[List[Subsequence], np.ndarray]:
        """The spans of ``codes``, as a list, and their columns."""
        grow = int(codes.max()) + 1 - self.spans.size
        if grow > 0:
            self.spans = np.concatenate((self.spans, np.empty(grow, object)))
            self.columns = np.concatenate(
                (self.columns, np.zeros((COLUMNS, grow), np.int64)), axis=1
            )
        drawn = np.zeros(self.spans.size, dtype=bool)
        drawn[codes] = True
        fresh = [
            code for code in np.flatnonzero(drawn).tolist()
            if self.spans[code] is None
        ]
        if fresh:
            spans = [self._span(code) for code in fresh]
            self.spans[fresh] = spans
            self.columns[:, fresh] = span_columns(spans)
        return self.spans.take(codes).tolist(), self.columns.take(codes, axis=1)


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
        self._fit()

    def _fit(self) -> None:
        """Start afresh what ``seq_len`` and ``config`` shape: the
        log-normal parameters of the spans (text, image, text, ...,
        text) of the longest image-rich document drawn so far, and the
        span table."""
        self._mus = self._sigmas = np.empty(0)
        self._table = _SpanTable(self.config, self.seq_len)

    # ------------------------------------------------------------------ #
    # Raw (pre-packing) document draws
    # ------------------------------------------------------------------ #
    def _draw(
        self, documents: int
    ) -> Tuple[List[np.ndarray], List[bool], List[dict]]:
        """The span draws of the next ``documents`` documents, whether
        each is image-rich, and the generator's state before documents
        0, ``_STATE_EVERY``, ``2 * _STATE_EVERY``, ...

        Documents are a mixture of long-form text (few or no images) and
        image-rich web pages; the mixture is what keeps per-sample image
        density heterogeneous after packing (see
        ``DataDistributionConfig.text_heavy_fraction``). A document's
        RNG calls are its mixture draw, its span count and one
        log-normal call over its spans: all text, or text, image, text,
        ..., text. Array parameters draw element by element, in order,
        so this is the stream of one scalar draw per span.
        """
        rng, cfg = self._rng, self.config
        random, lognormal = rng.random, rng.lognormal
        draws: List[np.ndarray] = []
        rich: List[bool] = []
        states: List[dict] = []
        for document in range(documents):
            if not document % _STATE_EVERY:
                states.append(rng.bit_generator.state)
            if random() < cfg.text_heavy_fraction:
                count = max(1, int(lognormal(cfg.text_heavy_spans_mu,
                                             cfg.text_heavy_spans_sigma)))
                draws.append(lognormal(cfg.text_mu, cfg.text_sigma,
                                       size=count))
                rich.append(False)
                continue
            count = 2 * sample_image_count(rng, cfg) + 1
            if count > self._mus.size:
                self._mus = np.resize([cfg.text_mu, cfg.image_side_mu], count)
                self._sigmas = np.resize(
                    [cfg.text_sigma, cfg.image_side_sigma], count
                )
            draws.append(lognormal(self._mus[:count], self._sigmas[:count]))
            rich.append(True)
        return draws, rich, states

    def _spans(
        self, draws: List[np.ndarray], rich: List[bool]
    ) -> Tuple[List[Subsequence], np.ndarray, List[int]]:
        """A chunk's spans, their columns, and where each document's
        spans end (see :meth:`SequencePacker.feed_columns`)."""
        cfg = self.config
        counts = np.fromiter(map(len, draws), np.int64, len(draws))
        ends = np.cumsum(counts)
        flat = np.concatenate(draws)
        # The odd spans of an image-rich document are its images.
        offsets = np.arange(flat.size) - np.repeat(ends - counts, counts)
        image = np.repeat(rich, counts) & (offsets & 1 == 1)
        # A text span longer than seq_len is truncated to the seq_len-
        # token span, so it shares that span's code: the table grows
        # with seq_len at most, not with the longest text drawn.
        values = np.where(
            image,
            image_steps_from_draws(flat, cfg),
            np.minimum(text_tokens_from_draws(flat, cfg), self.seq_len),
        )
        spans, columns = self._table.lookup(2 * values + image)
        return spans, columns, ends.tolist()

    # ------------------------------------------------------------------ #
    # Public stream
    # ------------------------------------------------------------------ #
    def take(self, num_samples: int) -> List[TrainingSample]:
        """Generate the next ``num_samples`` packed training samples.

        One :class:`~repro.data.packing.SequencePacker` packs documents
        in a single pass, a chunk at a time, up to the document holding
        the span that closes sample ``num_samples``; that document is
        the last one drawn. The dataset's next sample id advances past
        every sequence closed by then, those beyond ``num_samples``
        included, so ids stay unique. Packing starts afresh on every
        call, and the call drops what is still open when it returns (its
        last sequence, partially or exactly full) along with any
        complete sequences past ``num_samples``. The stream is therefore
        a function of the call sizes as well as the seed: ``take(100)``
        followed by ``take(100)`` differs from ``take(200)`` after its
        first 100 samples.
        """
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        packer = SequencePacker(self.seq_len, self._next_sample_id)
        table = self._table
        if (table.seq_len, table.config) != (self.seq_len, self.config):
            # A field was reassigned since the last call.
            self._fit()
        samples: List[TrainingSample] = []
        documents = 0
        while len(samples) < num_samples:
            need = num_samples - len(samples)
            # As many documents as the missing samples took so far, per
            # closed sequence (one before any has closed), rounded up.
            chunk = min(
                _CHUNK_DOCUMENTS,
                need * max(documents, 1) // max(len(samples), 1) + 1,
            )
            draws, rich, states = self._draw(chunk)
            spans, columns, ends = self._spans(draws, rich)
            packed = packer.feed_columns(spans, columns, samples, ends, need)
            documents += packed
            if packed < chunk:
                # Leave the generator after the last document packed.
                block, rest = divmod(packed, _STATE_EVERY)
                self._rng.bit_generator.state = states[block]
                self._draw(rest)
        self._next_sample_id = packer.next_id
        return samples[:num_samples]
