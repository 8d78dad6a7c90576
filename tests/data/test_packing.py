"""Sequence packing tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.packing import SequencePacker, pack_subsequences
from repro.data.sample import Subsequence


def text(tokens):
    return Subsequence("text", tokens)


def image(tokens):
    return Subsequence("image", tokens, raw_bytes=tokens * 10, pixels=tokens * 256)


class TestPacking:
    def test_fits_one_sequence(self):
        samples = pack_subsequences([text(100), image(1000)], seq_len=8192)
        assert len(samples) == 1
        assert samples[0].total_tokens == 1100

    def test_overflow_starts_new_sequence(self):
        samples = pack_subsequences(
            [image(5000), image(5000)], seq_len=8192
        )
        assert len(samples) == 2

    def test_exact_fill_flushes(self):
        samples = pack_subsequences(
            [text(4096), text(4096), text(10)], seq_len=8192
        )
        assert len(samples) == 2
        assert samples[0].total_tokens == 8192

    def test_oversized_subsequence_truncated(self):
        samples = pack_subsequences([image(20000)], seq_len=8192)
        assert len(samples) == 1
        assert samples[0].image_tokens == 8192

    def test_sample_ids_sequential(self):
        samples = pack_subsequences(
            [image(5000)] * 4, seq_len=8192, start_sample_id=10
        )
        assert [s.sample_id for s in samples] == [10, 11, 12, 13]

    def test_invalid_seq_len(self):
        with pytest.raises(ValueError):
            pack_subsequences([text(1)], seq_len=0)

    def test_empty_input(self):
        assert pack_subsequences([], seq_len=8192) == []


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["text", "image"]),
            st.integers(min_value=1, max_value=6000),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_no_tokens_lost(subsequence_spec):
    """Packing preserves every token (none exceed the budget here)."""
    subs = [Subsequence(modality, tokens) for modality, tokens in subsequence_spec]
    samples = pack_subsequences(subs, seq_len=8192)
    total_in = sum(s.tokens for s in subs)
    total_out = sum(s.total_tokens for s in samples)
    assert total_in == total_out
    # Every emitted sample respects the budget.
    assert all(s.total_tokens <= 8192 for s in samples)
    # Subsequence order is preserved.
    flat = [sub.tokens for s in samples for sub in s.subsequences]
    assert flat == [s.tokens for s in subs]


class TestSequencePacker:
    def test_exact_fill_stays_open_until_next_subsequence(self):
        """An exactly full sequence closes only when the next
        subsequence arrives (or on ``close``), never on the fill."""
        packer = SequencePacker(seq_len=10, start_sample_id=3)
        out = []
        packer.feed([text(4), text(6)], out)
        assert out == []
        packer.feed([text(0)], out)
        assert [(s.sample_id, s.total_tokens) for s in out] == [(3, 10)]
        packer.close(out)
        assert [(s.sample_id, s.total_tokens) for s in out] == [
            (3, 10), (4, 0)
        ]
        assert packer.next_id == 5


subsequences = st.builds(
    Subsequence,
    st.sampled_from(["text", "image"]),
    # Zero-token spans, and spans longer than any seq_len drawn below.
    st.one_of(st.just(0), st.integers(min_value=0, max_value=200)),
    raw_bytes=st.integers(min_value=0, max_value=10_000),
    pixels=st.integers(min_value=0, max_value=50_000),
)


@settings(max_examples=200, deadline=None)
@given(
    stream=st.lists(subsequences, max_size=40),
    cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=8),
    seq_len=st.integers(min_value=1, max_value=64),
    start=st.integers(min_value=0, max_value=1000),
)
def test_chunked_feed_then_close_equals_one_shot(stream, cuts, seq_len, start):
    """Feeding a stream in arbitrary chunks and then closing the packer
    packs it exactly as ``pack_subsequences`` on the whole stream."""
    packer = SequencePacker(seq_len, start)
    out = []
    lo = 0
    for hi in sorted(min(cut, len(stream)) for cut in cuts) + [len(stream)]:
        packer.feed(stream[lo:hi], out)
        lo = hi
    packer.close(out)
    assert out == pack_subsequences(stream, seq_len, start)
    assert packer.next_id == start + len(out)
