"""Training sample primitives.

A training sample is a fixed-length sequence of interleaved text and
image *subsequences* (section 2.1: "data from different modalities are
encoded into subsequences which are then interleaved to form fixed-length
training sequences"). The compute a sample induces differs per module:

* the LLM backbone sees ``seq_len`` tokens regardless of the mix;
* the encoder/generator work scales with the sample's **image tokens** —
  the paper's "sample size" that drives stragglers and reordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.models.base import ModuleWorkload


@dataclass(frozen=True)
class Subsequence:
    """One modality span inside a training sequence.

    Attributes:
        modality: ``"text"`` or ``"image"``.
        tokens: Subsequence length in tokens.
        raw_bytes: On-disk size (images are large: JPEG bytes; text tiny).
        pixels: Image pixels (0 for text), for preprocessing cost.
    """

    modality: str
    tokens: int
    raw_bytes: int = 0
    pixels: int = 0

    def __post_init__(self) -> None:
        if self.modality not in ("text", "image"):
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.tokens < 0 or self.raw_bytes < 0 or self.pixels < 0:
            raise ValueError("subsequence fields must be non-negative")


#: Text spans carry no bytes/pixels, so there is one distinct value per
#: token count; interning them makes the dominant allocation of dataset
#: generation a list lookup. Safe because Subsequence is frozen. The
#: table grows to the largest count asked for, up to _TEXT_INTERN_MAX.
_TEXT_INTERN_MAX = 4096
_TEXT_INTERNED: List[Subsequence] = []


def _text_interned(count: int) -> List[Subsequence]:
    """The intern table, holding at least token counts ``[0, count)``."""
    have = len(_TEXT_INTERNED)
    if have < count:
        _TEXT_INTERNED.extend(
            Subsequence("text", t) for t in range(have, count)
        )
    return _TEXT_INTERNED


def text_subsequence(tokens: int) -> Subsequence:
    """A (shared, immutable) text subsequence of ``tokens`` length."""
    if 0 <= tokens < _TEXT_INTERN_MAX:
        return _text_interned(tokens + 1)[tokens]
    return Subsequence("text", tokens)


def text_subsequence_lookup(max_tokens: int) -> Callable[[int], Subsequence]:
    """:func:`text_subsequence` for token counts in ``[0, max_tokens]``:
    the intern table's own ``__getitem__`` when they all fit in it."""
    if max_tokens < _TEXT_INTERN_MAX:
        return _text_interned(max_tokens + 1).__getitem__
    return text_subsequence


@dataclass(frozen=True)
class TrainingSample:
    """One packed training sequence.

    Attributes:
        sample_id: Stable identifier (preserved across reordering so
            convergence-semantics tests can check permutations).
        subsequences: Interleaved modality spans.
        seq_len: Target packed length (padding fills the tail).
    """

    sample_id: int
    subsequences: Tuple[Subsequence, ...]
    seq_len: int = 8192

    # ------------------------------------------------------------------ #
    # Token accounting
    # ------------------------------------------------------------------ #
    # Subsequences are immutable, so the per-modality aggregates are
    # computed once at construction: reordering and statistics consult
    # ``size``/``pixels`` O(n log n) times per batch, which made the
    # repeated generator-expression sums a measurable hot spot. The
    # workload is built on first use and kept: batches are priced on
    # arrays of the aggregates, so most samples never need one.
    def __post_init__(self) -> None:
        text = image = images = raw = pixels = 0
        for s in self.subsequences:
            if s.modality == "text":
                text += s.tokens
            else:
                image += s.tokens
                images += 1
            raw += s.raw_bytes
            pixels += s.pixels
        set_ = object.__setattr__
        set_(self, "_text_tokens", text)
        set_(self, "_image_tokens", image)
        set_(self, "_num_images", images)
        set_(self, "_raw_bytes", raw)
        set_(self, "_pixels", pixels)

    @property
    def text_tokens(self) -> int:
        return self._text_tokens

    @property
    def image_tokens(self) -> int:
        return self._image_tokens

    @property
    def num_images(self) -> int:
        return self._num_images

    @property
    def total_tokens(self) -> int:
        return self.text_tokens + self.image_tokens

    @property
    def raw_bytes(self) -> int:
        return self._raw_bytes

    @property
    def pixels(self) -> int:
        return self._pixels

    @property
    def size(self) -> int:
        """The paper's sample *size*: the image tokens driving encoder /
        generator compute (Algorithm 1 sorts on this)."""
        return self.image_tokens

    def workload(self) -> ModuleWorkload:
        """Per-module workload induced by this sample."""
        workload = self.__dict__.get("_workload")
        if workload is None:
            workload = ModuleWorkload(
                samples=1,
                text_tokens=self._text_tokens,
                image_tokens=self._image_tokens,
                images=self._num_images,
            )
            object.__setattr__(self, "_workload", workload)
        return workload


@dataclass(frozen=True, eq=False)
class BatchColumns:
    """A batch's per-sample totals as read-only int64 columns, row ``i``
    for sample ``i``: what the pricing passes read instead of sample
    attributes. ``image_tokens`` is also :attr:`TrainingSample.size`,
    which Algorithm 1 and the rank pick read; the encoder, generator and
    FLOPs pricing read ``image_tokens`` and ``num_images``; the
    preprocessing costs read ``pixels`` and ``text_tokens``. Indexing
    with a slice or an index array gives the columns of those rows.
    """

    text_tokens: np.ndarray
    image_tokens: np.ndarray
    num_images: np.ndarray
    pixels: np.ndarray

    def __post_init__(self) -> None:
        for column in self._columns():
            column.flags.writeable = False

    @classmethod
    def of(cls, samples: Sequence[TrainingSample]) -> "BatchColumns":
        """The columns of ``samples``, in order."""
        totals = np.array(
            list(map(_TOTALS, samples)), dtype=np.int64
        ).reshape(len(samples), 4).T.copy()
        return cls(*totals)

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return (
            self.text_tokens, self.image_tokens, self.num_images, self.pixels
        )

    def __len__(self) -> int:
        return len(self.image_tokens)

    def __getitem__(self, rows) -> "BatchColumns":
        return BatchColumns(*(column[rows] for column in self._columns()))


#: What :meth:`BatchColumns.of` reads from each sample.
_TOTALS = attrgetter("_text_tokens", "_image_tokens", "_num_images", "_pixels")


class SampleBatch(tuple):
    """A drawn global batch: its samples in draw order, as a tuple,
    with their :class:`BatchColumns` built once beside them.

    :func:`repro.core.api.sample_batches` caches these, so every
    simulator that prices a cached batch reads the same columns.
    """

    columns: BatchColumns

    def __new__(cls, samples: Iterable[TrainingSample]) -> "SampleBatch":
        batch = super().__new__(cls, samples)
        batch.columns = BatchColumns.of(batch)
        return batch
