"""Sequence packing.

Interleaves text and image subsequences into fixed-length training
sequences (8192 tokens in the paper). Packing is greedy, and one packer,
:class:`SequencePacker`, does all of it. It appends subsequences to its
open sequence and carries that sequence across ``feed`` calls, so a
stream can be packed document by document in one pass. The open
sequence closes when the next subsequence arrives and the sequence is
already exactly full or the subsequence would overflow it, so an exactly
full sequence stays open until then (or until ``close``). Oversized
subsequences that cannot fit into an empty sequence are truncated to the
sequence budget (mirroring production preprocessing, which re-tiles huge
images). :func:`pack_subsequences` is one ``feed`` followed by
``close``.

The packer finds where each sequence closes on the prefix sums of the
fed subsequences' token counts, with one bisection per closed sequence,
so its Python work is per sequence and per feed, not per subsequence.
A caller that already holds the token counts (the synthetic dataset,
one document at a time) passes them to ``feed_counted``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import attrgetter
from typing import Iterable, List

from repro.data.sample import Subsequence, TrainingSample

_TOKENS = attrgetter("tokens")


def _truncate(sub: Subsequence, seq_len: int) -> Subsequence:
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


class SequencePacker:
    """Greedy packer with one open sequence.

    Attributes:
        seq_len: Packed sequence length.
        next_id: Sample id the next closed sequence gets.
    """

    __slots__ = ("seq_len", "next_id", "_open", "_used")

    def __init__(self, seq_len: int, start_sample_id: int = 0) -> None:
        if seq_len < 1:
            raise ValueError("seq_len must be positive")
        self.seq_len = seq_len
        self.next_id = start_sample_id
        self._open: List[Subsequence] = []
        self._used = 0

    def feed(
        self, subsequences: Iterable[Subsequence], out: List[TrainingSample]
    ) -> None:
        """Pack ``subsequences`` in order, appending every sequence this
        closes to ``out``."""
        spans = list(subsequences)
        self.feed_counted(spans, list(map(_TOKENS, spans)), out)

    def feed_counted(
        self,
        spans: List[Subsequence],
        tokens: List[int],
        out: List[TrainingSample],
    ) -> None:
        """:meth:`feed` for a caller that already holds the spans' token
        counts (``tokens[i] == spans[i].tokens``)."""
        seq_len = self.seq_len
        # bounds[i]: tokens of the first i spans.
        bounds = list(accumulate(tokens, initial=0))
        end = len(spans)
        # No span can be oversized when all of them fit in one sequence.
        if bounds[end] > seq_len and max(tokens) > seq_len:
            # Truncate pathological subsequences to the sequence budget.
            spans = [_truncate(sub, seq_len) for sub in spans]
            bounds = list(accumulate(map(_TOKENS, spans), initial=0))
        start, current, used = 0, self._open, self._used
        while True:
            # The open sequence is exactly full at bound ``limit``. At the
            # first bound that reaches it, either the spans before fill it
            # exactly, and the next span (even an empty one) closes it, or
            # the span ending there overflows it and closes it.
            limit = bounds[start] + seq_len - used
            cut = bisect_left(bounds, limit, start)
            if cut > end or bounds[cut] > limit:
                cut -= 1
            if cut == end:
                break
            out.append(TrainingSample(
                self.next_id, (*current, *spans[start:cut]), seq_len
            ))
            self.next_id += 1
            start, current, used = cut, [], 0
        self._open = current + spans[start:]
        self._used = used + bounds[end] - bounds[start]

    def close(self, out: List[TrainingSample]) -> None:
        """Append the open sequence, if it holds anything, to ``out``
        (a partially filled one is padded)."""
        if self._open:
            out.append(
                TrainingSample(self.next_id, tuple(self._open), self.seq_len)
            )
            self.next_id += 1
            self._open = []
            self._used = 0


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
