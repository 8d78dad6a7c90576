"""The chunked document draw against a span-by-span oracle.

``SyntheticMultimodalDataset.take`` draws a chunk of documents at a
time, each with one log-normal call over its spans; it clamps, interns
and packs the whole chunk on arrays, totals each sample from its span
columns, and draws the chunk that holds its stop again from a saved
generator state, up to the stop. The oracle below is the draw all of
that replaced: one scalar RNG call and one clamp per span, a fresh
``Subsequence`` per span, and a packer that steps span by span, with
every sample built by ``TrainingSample``'s public constructor (whose
span walk is the reference for the sample totals). Both must make the
same RNG calls in the same order and return the same samples, ids and
RNG state, whatever the chunk size.
"""

from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data import synthetic
from repro.data.distributions import DataDistributionConfig
from repro.data.packing import (
    SequencePacker,
    span_columns,
    truncate_subsequence,
)
from repro.data.sample import Subsequence, TrainingSample
from repro.data.synthetic import SyntheticMultimodalDataset


class SpanBySpanPacker:
    """Greedy packer that decides per subsequence."""

    def __init__(self, seq_len: int, start_sample_id: int = 0) -> None:
        self.seq_len = seq_len
        self.next_id = start_sample_id
        self.current: List[Subsequence] = []
        self.used = 0

    def feed(self, subsequences, out) -> None:
        seq_len = self.seq_len
        for sub in subsequences:
            tokens = sub.tokens
            if tokens > seq_len:
                scale = seq_len / tokens
                sub = Subsequence(
                    modality=sub.modality,
                    tokens=seq_len,
                    raw_bytes=round(sub.raw_bytes * scale),
                    pixels=round(sub.pixels * scale),
                )
                tokens = seq_len
            if self.used == seq_len or self.used + tokens > seq_len:
                out.append(
                    TrainingSample(self.next_id, tuple(self.current), seq_len)
                )
                self.next_id += 1
                self.current = []
                self.used = 0
            self.current.append(sub)
            self.used += tokens

    def close(self, out) -> None:
        if self.current:
            out.append(
                TrainingSample(self.next_id, tuple(self.current), self.seq_len)
            )
            self.next_id += 1
            self.current = []
            self.used = 0


class SpanBySpanDataset:
    """The synthetic stream drawn one scalar RNG call per span."""

    def __init__(self, seq_len: int, config: DataDistributionConfig,
                 seed: int) -> None:
        self.seq_len = seq_len
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.next_sample_id = 0

    def _text_tokens(self) -> int:
        cfg = self.config
        tokens = int(self.rng.lognormal(cfg.text_mu, cfg.text_sigma))
        return min(max(tokens, 1), cfg.text_max_tokens)

    def _image_tokens(self) -> int:
        cfg = self.config
        side = self.rng.lognormal(cfg.image_side_mu, cfg.image_side_sigma)
        side = min(max(float(side), float(cfg.image_min_side)),
                   float(cfg.image_max_side))
        snapped = max(cfg.patch_size,
                      round(side / cfg.patch_size) * cfg.patch_size)
        side = int(min(snapped, cfg.image_max_side))
        return (side // cfg.patch_size) ** 2

    def raw_subsequences(self) -> List[Subsequence]:
        rng, cfg = self.rng, self.config
        if rng.random() < cfg.text_heavy_fraction:
            spans = max(1, int(rng.lognormal(cfg.text_heavy_spans_mu,
                                             cfg.text_heavy_spans_sigma)))
            return [Subsequence("text", self._text_tokens())
                    for _ in range(spans)]
        count = int(rng.lognormal(cfg.images_mu, cfg.images_sigma))
        num_images = min(max(count, 0), cfg.max_images)
        subsequences = [Subsequence("text", self._text_tokens())]
        for _ in range(num_images):
            tokens = self._image_tokens()
            pixels = tokens * cfg.patch_size**2
            subsequences.append(Subsequence(
                "image", tokens,
                raw_bytes=round(pixels * cfg.jpeg_bytes_per_pixel),
                pixels=pixels,
            ))
            subsequences.append(Subsequence("text", self._text_tokens()))
        return subsequences

    def take(self, num_samples: int) -> List[TrainingSample]:
        packer = SpanBySpanPacker(self.seq_len, self.next_sample_id)
        samples: List[TrainingSample] = []
        while len(samples) < num_samples:
            packer.feed(self.raw_subsequences(), samples)
        self.next_sample_id = packer.next_id
        return samples[:num_samples]


def sample_view(sample: TrainingSample):
    """Everything a sample exposes, totals included."""
    return (
        sample.sample_id,
        sample.seq_len,
        sample.subsequences,
        sample.text_tokens,
        sample.image_tokens,
        sample.num_images,
        sample.raw_bytes,
        sample.pixels,
        sample.workload(),
    )


@st.composite
def configs(draw) -> DataDistributionConfig:
    patch = draw(st.sampled_from([1, 14, 16, 32]))
    max_side = draw(st.integers(min_value=patch, max_value=1500))
    # An odd multiple of half a patch makes every clamped draw a tie that
    # rounds half to even.
    min_side = draw(st.one_of(
        st.integers(min_value=0, max_value=max_side),
        st.sampled_from(range(patch // 2, max_side + 1, patch))
        if patch % 2 == 0 else st.integers(min_value=0, max_value=max_side),
    ))
    # Text spans of thousands of tokens, longer than many of the drawn
    # seq_lens and so truncated, need a large text_mu to draw them.
    text_mu, text_max = draw(st.sampled_from([
        (3.4, 128), (0.0, 128), (3.4, 30), (8.5, 6000),
    ]))
    return DataDistributionConfig(
        text_mu=text_mu,
        text_max_tokens=text_max,
        image_side_mu=draw(st.sampled_from([2.0, 6.1, 7.5])),
        image_min_side=min_side,
        image_max_side=max_side,
        patch_size=patch,
        max_images=draw(st.sampled_from([0, 1, 5, 32])),
        jpeg_bytes_per_pixel=draw(st.sampled_from([0.5, 0.37])),
        text_heavy_fraction=draw(st.sampled_from([0.0, 0.4, 1.0])),
        text_heavy_spans_mu=draw(st.sampled_from([1.0, 4.5])),
    )


def chunking(documents: int, state_every: int):
    """Draw at most ``documents`` documents per chunk, saving the
    generator's state before every ``state_every``-th of them."""
    return mock.patch.multiple(
        synthetic,
        _CHUNK_DOCUMENTS=documents,
        _STATE_EVERY=state_every,
    )


def assert_takes_match(config, seq_len, seed, calls):
    dataset = SyntheticMultimodalDataset(seq_len=seq_len, config=config,
                                         seed=seed)
    oracle = SpanBySpanDataset(seq_len, config, seed)
    for size in calls:
        samples = dataset.take(size)
        expected = oracle.take(size)
        assert [sample_view(s) for s in samples] == [
            sample_view(s) for s in expected
        ]
        assert dataset._next_sample_id == oracle.next_sample_id
        assert dataset._rng.bit_generator.state == oracle.rng.bit_generator.state
        assert all(
            sub.tokens >= 1 for s in samples for sub in s.subsequences
        )


@settings(max_examples=120, deadline=None)
@given(
    config=configs(),
    seq_len=st.one_of(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=8192),
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    calls=st.lists(st.integers(min_value=1, max_value=25), min_size=1,
                   max_size=3),
    # The shipped chunking, and chunks of a few documents, which put
    # chunk boundaries and saved states inside every call.
    chunk=st.sampled_from([(512, 32), (1, 1), (2, 1), (3, 2), (7, 3)]),
)
# Every image clamps to a 40-pixel edge, 2.5 patches: a tie that rounds
# half to even, down to 2 patches.
@example(
    config=DataDistributionConfig(
        image_side_mu=2.0, image_min_side=40, text_heavy_fraction=0.0
    ),
    seq_len=8192,
    seed=1,
    calls=[3],
    chunk=(512, 32),
)
@example(config=DataDistributionConfig(), seq_len=8192, seed=0, calls=[40],
         chunk=(512, 32))
# Calls that span several chunks and stop inside one (see
# test_examples_span_chunks): paper-sweep's batch, short sequences
# through small chunks, and a follow-up call on the same dataset.
@example(config=DataDistributionConfig(), seq_len=8192, seed=0,
         calls=[1920], chunk=(512, 32))
@example(config=DataDistributionConfig(), seq_len=64, seed=0, calls=[300],
         chunk=(5, 3))
@example(config=DataDistributionConfig(), seq_len=8192, seed=1,
         calls=[700, 5], chunk=(512, 32))
def test_take_matches_span_by_span_draw(config, seq_len, seed, calls, chunk):
    with chunking(*chunk):
        assert_takes_match(config, seq_len, seed, calls)


def test_reassigned_fields_shape_the_next_call():
    """``seq_len`` and ``config`` reassigned between calls shape the
    next call as they do the span-by-span draw's: its spans come from
    the new config and are truncated to the new length."""
    dataset = SyntheticMultimodalDataset(seed=3)
    oracle = SpanBySpanDataset(8192, dataset.config, 3)
    coarse = DataDistributionConfig(
        image_side_mu=7.5, patch_size=32, jpeg_bytes_per_pixel=0.5
    )
    for seq_len, config in [
        (8192, dataset.config), (64, dataset.config), (64, coarse),
        (8192, coarse),
    ]:
        dataset.seq_len = oracle.seq_len = seq_len
        dataset.config = oracle.config = config
        assert [sample_view(s) for s in dataset.take(30)] == [
            sample_view(s) for s in oracle.take(30)
        ]
        assert dataset._next_sample_id == oracle.next_sample_id
        assert dataset._rng.bit_generator.state == oracle.rng.bit_generator.state


def chunk_log(seq_len, seed, calls, chunk):
    """(documents drawn, documents packed) of every chunk of each call."""
    log: List[List[tuple]] = []
    feed = SequencePacker.feed_columns

    def logging(packer, spans, columns, out, ends=None, need=None):
        packed = feed(packer, spans, columns, out, ends, need)
        log[-1].append((len(ends), packed))
        return packed

    dataset = SyntheticMultimodalDataset(seq_len=seq_len, seed=seed)
    with chunking(*chunk), mock.patch.object(
        SequencePacker, "feed_columns", logging
    ):
        for size in calls:
            log.append([])
            dataset.take(size)
    return log


def test_examples_span_chunks():
    """The explicit examples above cross chunk boundaries and stop
    inside a chunk, so they exercise the carried open sequence, the
    chunk sizing and the redraw from a saved state (for the short
    sequences, a state saved inside the chunk, not at its start)."""
    (paper,) = chunk_log(8192, 0, [1920], (512, 32))
    assert paper == [(512, 512)] * 3 + [(155, 135)]
    (short,) = chunk_log(64, 0, [300], (5, 3))
    assert len(short) > 1 and 3 <= short[-1][1] < short[-1][0]
    first, second = chunk_log(8192, 1, [700, 5], (512, 32))
    assert len(first) > 1 and first[-1][1] < first[-1][0]
    assert second[-1][1] < second[-1][0]


subsequences = st.builds(
    Subsequence,
    st.sampled_from(["text", "image"]),
    # Zero-token spans, and spans longer than most seq_lens drawn below.
    st.one_of(st.just(0), st.integers(min_value=0, max_value=200)),
    raw_bytes=st.integers(min_value=0, max_value=10_000),
    pixels=st.integers(min_value=0, max_value=50_000),
)


@settings(max_examples=200, deadline=None)
@given(
    stream=st.lists(subsequences, max_size=60),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=8),
    seq_len=st.integers(min_value=1, max_value=64),
    start=st.integers(min_value=0, max_value=1000),
)
def test_packer_matches_span_by_span_packer(stream, cuts, seq_len, start):
    """Cutting at prefix-sum boundaries packs any stream, fed in any
    chunks, as stepping span by span does: truncation, the exactly-full
    rule (zero-token spans included) and the carried open sequence."""
    packer = SequencePacker(seq_len, start)
    oracle = SpanBySpanPacker(seq_len, start)
    out: List[TrainingSample] = []
    expected: List[TrainingSample] = []
    lo = 0
    for hi in sorted(min(cut, len(stream)) for cut in cuts) + [len(stream)]:
        packer.feed(stream[lo:hi], out)
        oracle.feed(stream[lo:hi], expected)
        assert [sample_view(s) for s in out] == [
            sample_view(s) for s in expected
        ]
        assert packer.next_id == oracle.next_id
        lo = hi
    packer.close(out)
    oracle.close(expected)
    assert [sample_view(s) for s in out] == [sample_view(s) for s in expected]
    assert packer.next_id == oracle.next_id


@settings(max_examples=200, deadline=None)
@given(
    first=st.lists(subsequences, max_size=20),
    stream=st.lists(subsequences, min_size=1, max_size=60),
    cuts=st.lists(st.integers(min_value=1, max_value=59), max_size=12),
    seq_len=st.integers(min_value=1, max_value=64),
    need=st.integers(min_value=1, max_value=20),
)
def test_packer_stops_after_the_closing_document(
    first, stream, cuts, seq_len, need
):
    """Fed documents with ``need``, the packer packs exactly the
    documents that the span-by-span packer, fed one document at a time,
    consumes until ``need`` more sequences have closed: the same
    samples, the same next id and the same open sequence, which an
    earlier feed may have left exactly full."""
    spans = [truncate_subsequence(s, seq_len) for s in stream]
    ends = sorted({min(cut, len(spans)) for cut in cuts} | {len(spans)})
    packer = SequencePacker(seq_len, 7)
    oracle = SpanBySpanPacker(seq_len, 7)
    out: List[TrainingSample] = []
    expected: List[TrainingSample] = []
    packer.feed(first, out)
    oracle.feed(first, expected)
    closed = len(expected)
    packed = packer.feed_columns(spans, span_columns(spans), out, ends, need)
    documents, lo = 0, 0
    for hi in ends:
        if len(expected) - closed >= need:
            break
        oracle.feed(spans[lo:hi], expected)
        documents, lo = documents + 1, hi
    assert packed == documents
    assert [sample_view(s) for s in out] == [sample_view(s) for s in expected]
    assert packer.next_id == oracle.next_id
    packer.close(out)
    oracle.close(expected)
    assert [sample_view(s) for s in out] == [sample_view(s) for s in expected]


def test_packer_rejects_a_span_longer_than_seq_len():
    """``feed_columns`` takes spans already truncated to ``seq_len``; a
    longer one raises instead of closing empty sequences without end."""
    spans = [Subsequence("text", 3), Subsequence("image", 9)]
    packer = SequencePacker(8)
    with pytest.raises(ValueError, match="span 1 is longer than seq_len=8"):
        packer.feed_columns(spans, span_columns(spans), [])
