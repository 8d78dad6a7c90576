"""The document draw against a span-by-span oracle.

``SyntheticMultimodalDataset.take`` draws each document with one
log-normal call over its spans, interns image spans and packs on prefix
sums of token counts. The oracle below is the draw it replaced: one
scalar RNG call and one clamp per span, a fresh ``Subsequence`` per
image, and a packer that steps span by span, with every sample built by
``TrainingSample``'s public constructor (whose span walk is the
reference for the sample totals). Both must make the same RNG calls in
the same order and return the same samples, ids and RNG state.
"""

from typing import List

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.data.distributions import DataDistributionConfig
from repro.data.packing import SequencePacker
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
    # text_max_tokens above the 4,096-entry text intern table needs a
    # large text_mu to draw such spans.
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
)
@example(config=DataDistributionConfig(), seq_len=8192, seed=0, calls=[40])
def test_take_matches_span_by_span_draw(config, seq_len, seed, calls):
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
