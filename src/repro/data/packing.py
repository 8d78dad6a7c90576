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
"""

from __future__ import annotations

from typing import Iterable, List

from repro.data.sample import Subsequence, TrainingSample


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
        seq_len = self.seq_len
        current, used = self._open, self._used
        for sub in subsequences:
            tokens = sub.tokens
            if tokens > seq_len:
                # Truncate pathological subsequences to the sequence budget.
                scale = seq_len / tokens
                sub = Subsequence(
                    modality=sub.modality,
                    tokens=seq_len,
                    raw_bytes=round(sub.raw_bytes * scale),
                    pixels=round(sub.pixels * scale),
                )
                tokens = seq_len
            if used == seq_len or used + tokens > seq_len:
                out.append(TrainingSample(self.next_id, tuple(current), seq_len))
                self.next_id += 1
                current = []
                used = 0
            current.append(sub)
            used += tokens
        self._open, self._used = current, used

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
