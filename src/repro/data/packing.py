"""Sequence packing.

Interleaves text and image subsequences into fixed-length training
sequences (8192 tokens in the paper). Packing is greedy, and one packer,
:class:`SequencePacker`, does all of it. It appends subsequences to its
open sequence and carries that sequence across feeds, so a stream can be
packed a chunk at a time in one pass. The open sequence closes when the
next subsequence arrives and the sequence is already exactly full or the
subsequence would overflow it, so an exactly full sequence stays open
until then (or until ``close``). Oversized subsequences that cannot fit
into an empty sequence are truncated to the sequence budget (mirroring
production preprocessing, which re-tiles huge images).

The packer works on columns: each subsequence comes with its text
tokens, image tokens, image count, raw bytes and pixels
(:func:`span_columns`). It finds where each sequence closes on the
prefix sums of the token counts, with one search per closed sequence,
and sums each sample's totals over its segment of the columns, so its
Python work is per sequence and per feed, not per subsequence. The
synthetic dataset feeds it a chunk of documents at a time
(``feed_columns``, with the columns of its interned spans) and stops it
after the document that closes the last sequence a draw needs.
:func:`pack_subsequences` feeds any subsequence stream once (``feed``),
then closes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.data.sample import Subsequence, TrainingSample, packed_samples

#: Rows of :func:`span_columns`: text tokens, image tokens, images, raw
#: bytes and pixels, the totals a sample keeps.
COLUMNS = 5


def truncate_subsequence(sub: Subsequence, seq_len: int) -> Subsequence:
    """``sub`` cut to ``seq_len`` tokens, its raw bytes and pixels scaled
    by the same factor."""
    if sub.tokens <= seq_len:
        return sub
    scale = seq_len / sub.tokens
    return Subsequence(
        modality=sub.modality,
        tokens=seq_len,
        raw_bytes=round(sub.raw_bytes * scale),
        pixels=round(sub.pixels * scale),
    )


def span_columns(spans: Sequence[Subsequence]) -> np.ndarray:
    """The ``(COLUMNS, len(spans))`` int64 columns of ``spans``, column
    ``i`` for span ``i``: what each adds to its sample's totals."""
    rows = [
        (0, s.tokens, 1, s.raw_bytes, s.pixels) if s.modality == "image"
        else (s.tokens, 0, 0, s.raw_bytes, s.pixels)
        for s in spans
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), COLUMNS).T


class SequencePacker:
    """Greedy packer with one open sequence.

    Attributes:
        seq_len: Packed sequence length.
        next_id: Sample id the next closed sequence gets.
    """

    __slots__ = ("seq_len", "next_id", "_open", "_totals")

    def __init__(self, seq_len: int, start_sample_id: int = 0) -> None:
        if seq_len < 1:
            raise ValueError("seq_len must be positive")
        self.seq_len = seq_len
        self.next_id = start_sample_id
        self._open: List[Subsequence] = []
        # Column sums of the open sequence.
        self._totals = np.zeros(COLUMNS, dtype=np.int64)

    def feed(
        self, subsequences: Iterable[Subsequence], out: List[TrainingSample]
    ) -> None:
        """Pack ``subsequences`` in order, appending every sequence this
        closes to ``out``."""
        spans = [truncate_subsequence(s, self.seq_len) for s in subsequences]
        self.feed_columns(spans, span_columns(spans), out)

    def feed_columns(
        self,
        spans: List[Subsequence],
        columns: np.ndarray,
        out: List[TrainingSample],
        ends: Optional[List[int]] = None,
        need: Optional[int] = None,
    ) -> int:
        """Pack ``spans``, each at most ``seq_len`` tokens, whose columns
        (see :func:`span_columns`) are ``columns``; append every sequence
        this closes to ``out``.

        ``ends`` splits the spans into documents: ``ends[i]`` is the
        number of spans in documents ``0..i`` (one document by default).
        Given ``need``, packing stops after the document that holds the
        span closing this feed's ``need``-th sequence: that document is
        packed whole, and none after it. Returns the number of documents
        packed.
        """
        seq_len = self.seq_len
        end = len(spans)
        if ends is None:
            ends = [end]
        # bounds[i]: tokens of the first i spans.
        bounds = np.zeros(end + 1, dtype=np.int64)
        np.cumsum(columns[0] + columns[1], out=bounds[1:])
        totals = self._totals
        start, room = 0, seq_len - int(totals[0] + totals[1])
        cuts: List[int] = []
        while True:
            # The open sequence is exactly full at bound ``limit``. At the
            # first bound that reaches it, either the spans before fill it
            # exactly, and the next span (even an empty one) closes it, or
            # the span ending there overflows it and closes it. No bound
            # before ``start`` reaches it.
            limit = bounds.item(start) + room
            cut = min(int(bounds.searchsorted(limit)), end + 1)
            if cut > end or bounds.item(cut) > limit:
                cut -= 1
            if cut == end:
                break
            if cut == start and room == seq_len:
                # Span ``cut`` alone overflows an empty sequence.
                raise ValueError(
                    f"span {cut} is longer than seq_len={seq_len}"
                )
            cuts.append(cut)
            if len(cuts) == need:
                end = ends[bisect_right(ends, cut)]
            start, room = cut, seq_len
        if cuts:
            # The open sequence's totals lead the first sequence's span
            # columns, so no sequence sums an empty range.
            sums = np.add.reduceat(
                np.concatenate((totals[:, None], columns[:, :cuts[-1]]), axis=1),
                [0, *(cut + 1 for cut in cuts[:-1])],
                axis=1,
            )
            sequences = [tuple(self._open + spans[:cuts[0]])]
            sequences += [tuple(spans[a:b]) for a, b in zip(cuts, cuts[1:])]
            out += packed_samples(
                self.next_id, sequences, seq_len, sums.T.tolist()
            )
            self.next_id += len(cuts)
            self._open, totals = [], 0
        self._open += spans[start:end]
        self._totals = totals + columns[:, start:end].sum(axis=1)
        return bisect_left(ends, end) + 1

    def close(self, out: List[TrainingSample]) -> None:
        """Append the open sequence, if it holds anything, to ``out``
        (a partially filled one is padded)."""
        if self._open:
            out += packed_samples(
                self.next_id, [tuple(self._open)], self.seq_len,
                [self._totals.tolist()],
            )
            self.next_id += 1
            self._open = []
            self._totals = np.zeros(COLUMNS, dtype=np.int64)


def pack_subsequences(
    subsequences: Iterable[Subsequence],
    seq_len: int = 8192,
    start_sample_id: int = 0,
) -> List[TrainingSample]:
    """Pack a subsequence stream into fixed-length training samples.

    Args:
        subsequences: Interleaved modality spans, in arrival order.
        seq_len: Packed sequence length.
        start_sample_id: First sample id to assign.

    Returns:
        Complete samples; a trailing partially-filled sequence is emitted
        as a final (padded) sample if it contains anything.
    """
    packer = SequencePacker(seq_len, start_sample_id)
    samples: List[TrainingSample] = []
    packer.feed(subsequences, samples)
    packer.close(samples)
    return samples
