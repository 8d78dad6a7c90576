"""Algorithm 1 (intra-microbatch reordering) tests."""

import heapq
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data.sample import BatchColumns, Subsequence, TrainingSample
from repro.reordering.baselines import random_order
from repro.reordering.intra import (
    brute_force_optimal_makespan,
    intra_reorder,
    lpt_partition,
    partition_makespan,
    reordered_makespan,
)


class TestPaperExample:
    def test_figure_11(self):
        """Sizes [4,3,2,1] across 2 DP groups: naive contiguous split
        gives makespan 7 (group [4,3]); reordering balances to 5."""
        sizes = [4.0, 3.0, 2.0, 1.0]
        assert reordered_makespan(sizes, 2) == 7.0
        reordered = intra_reorder(sizes, 2)
        assert reordered_makespan(reordered, 2) == 5.0
        assert sorted(reordered) == sorted(sizes)


class TestLPT:
    def test_group_count(self):
        groups = lpt_partition(list(range(10)), 3)
        assert len(groups) == 3

    def test_invalid_groups(self):
        with pytest.raises(ValueError):
            lpt_partition([1], 0)

    @pytest.mark.parametrize("num_groups", [0, -1, -2])
    def test_non_positive_groups_rejected(self, num_groups):
        # Checked before any ``len(...) % num_groups``.
        with pytest.raises(ValueError, match="positive"):
            lpt_partition([1], num_groups)
        with pytest.raises(ValueError, match="positive"):
            intra_reorder([1.0, 2.0], num_groups)
        with pytest.raises(ValueError, match="positive"):
            reordered_makespan([1.0, 2.0], num_groups)

    def test_covers_all_samples(self):
        samples = [5.0, 1.0, 3.0, 2.0, 8.0, 1.0]
        groups = lpt_partition(samples, 2)
        assert sorted(x for g in groups for x in g) == sorted(samples)

    def test_balanced_for_identical_sizes(self):
        groups = lpt_partition([1.0] * 12, 4)
        assert partition_makespan(groups) == 3.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_size_rejected(self, bad):
        sizes = [3.0, bad, 1.0, 2.0]
        with pytest.raises(ValueError, match="sample 1 .*finite"):
            lpt_partition(sizes, 2)
        with pytest.raises(ValueError, match="sample 1 .*finite"):
            intra_reorder(sizes, 2)

    def test_non_finite_size_function_rejected(self):
        samples = [_Item(2.0), _Item(1.0), _Item(float("nan"))]
        with pytest.raises(ValueError, match="sample 2 "):
            lpt_partition(samples, 3, size=lambda item: item.size)


class TestIntraReorder:
    def test_permutation_invariant(self):
        """Reordering must be a permutation: gradient accumulation is
        commutative, so this preserves convergence semantics."""
        rng = np.random.default_rng(0)
        sizes = list(rng.lognormal(7, 1, 64))
        reordered = intra_reorder(sizes, 8)
        assert sorted(reordered) == sorted(sizes)

    def test_equal_group_cardinality(self):
        rng = np.random.default_rng(1)
        sizes = list(rng.lognormal(7, 1, 60))
        reordered = intra_reorder(sizes, 6)
        assert len(reordered) == 60  # 10 per group by construction

    def test_beats_random_order(self):
        rng = np.random.default_rng(2)
        sizes = list(rng.lognormal(7, 1.2, 64))
        ours = reordered_makespan(intra_reorder(sizes, 8), 8)
        rand = np.mean(
            [
                reordered_makespan(random_order(sizes, seed=s), 8)
                for s in range(10)
            ]
        )
        assert ours < rand

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            intra_reorder([1, 2, 3], 2)

    def test_works_on_sample_objects(self):
        samples = [
            TrainingSample(
                sample_id=i,
                subsequences=(Subsequence("image", 100 * (i + 1)),),
            )
            for i in range(8)
        ]
        reordered = intra_reorder(samples, 2)
        assert sorted(s.sample_id for s in reordered) == list(range(8))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.1, max_value=100, allow_nan=False),
        min_size=4,
        max_size=10,
    ).filter(lambda xs: len(xs) % 2 == 0),
)
def test_lpt_within_4_3_of_optimal(sizes):
    """The paper cites the <4/3 approximation ratio of greedy LPT."""
    groups = lpt_partition(sizes, 2)
    greedy = partition_makespan(groups)
    optimal = brute_force_optimal_makespan(sizes, 2)
    assert greedy <= optimal * 4.0 / 3.0 + 1e-9


@dataclass(frozen=True, eq=False)
class _Item:
    """A sized sample compared by identity, so equal sizes stay
    distinguishable in the permutation."""

    size: float


def _size(item):
    return item.size


def _linear_scan_lpt(items, num_groups):
    """Oracle: LPT with the paper's linear arg-min scan over the groups;
    returns the groups and each group's running load."""
    groups = [[] for _ in range(num_groups)]
    loads = [0.0] * num_groups
    for item in sorted(items, key=_size, reverse=True):
        target = min(range(num_groups), key=loads.__getitem__)
        groups[target].append(item)
        loads[target] += item.size
    return groups, loads


def _linear_scan_intra_reorder(items, num_groups):
    """Oracle: Algorithm 1 on the linear-scan LPT, whose equal-count
    fixup carries each group's running load."""
    groups, loads = _linear_scan_lpt(items, num_groups)
    per_group = len(items) // num_groups
    for group in [g for g in groups if len(g) > per_group]:
        group.sort(key=_size, reverse=True)
        while len(group) > per_group:
            moved = group.pop()
            target = min(
                (i for i, g in enumerate(groups) if len(g) < per_group),
                key=loads.__getitem__,
            )
            groups[target].append(moved)
            loads[target] += moved.size
    return [item for group in groups for item in group]


def _same_items(actual, expected):
    return len(actual) == len(expected) and all(
        a is e for a, e in zip(actual, expected)
    )


def _resumming_intra_reorder(samples, num_groups):
    """Oracle: Algorithm 1 with the fixup that re-sums every underfull
    group's load for each moved sample."""
    groups, _ = _linear_scan_lpt(samples, num_groups)
    per_group = len(samples) // num_groups
    overfull = [g for g in groups if len(g) > per_group]
    underfull = [g for g in groups if len(g) < per_group]
    for group in overfull:
        group.sort(key=_size, reverse=True)
        while len(group) > per_group:
            moved = group.pop()
            target = min(
                (g for g in underfull if len(g) < per_group),
                key=lambda g: sum(s.size for s in g),
            )
            target.append(moved)
    return [item for group in groups for item in group]


@st.composite
def _tied_batches(draw):
    """A batch of ``groups x per_group`` items whose sizes come from a
    few values, so loads tie often and LPT leaves groups underfull.

    The values are dyadic, so every load is exact and the oracle's
    ``sum()`` equals a running ``+=`` on every Python version.
    """
    num_groups = draw(st.integers(min_value=1, max_value=8))
    per_group = draw(st.integers(min_value=1, max_value=8))
    pool = draw(st.lists(
        st.integers(min_value=1, max_value=64).map(lambda k: k / 8),
        min_size=1, max_size=4, unique=True,
    ))
    sizes = draw(st.lists(
        st.sampled_from(pool),
        min_size=num_groups * per_group,
        max_size=num_groups * per_group,
    ))
    return sizes, num_groups


@settings(max_examples=200, deadline=None)
@given(_tied_batches())
@example(([8.0] + [1.0] * 7, 2))
@example(([4.5, 4.5, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25], 3))
def test_running_load_fixup_matches_resumming(batch):
    """Carrying each underfull group's load forward picks the same
    target group as re-summing it, move for move."""
    sizes, num_groups = batch
    items = [_Item(size) for size in sizes]
    expected = _resumming_intra_reorder(items, num_groups)
    assert _same_items(intra_reorder(items, num_groups), expected)


@st.composite
def _float_batches(draw):
    """A batch of ``groups x per_group`` items with arbitrary sizes."""
    num_groups = draw(st.integers(min_value=1, max_value=16))
    per_group = draw(st.integers(min_value=1, max_value=8))
    sizes = draw(st.lists(
        st.floats(min_value=0.0, max_value=1e6),
        min_size=num_groups * per_group,
        max_size=num_groups * per_group,
    ))
    return sizes, num_groups


@settings(max_examples=200, deadline=None)
@given(st.one_of(_tied_batches(), _float_batches()))
def test_heap_lpt_matches_linear_scan(batch):
    """Taking the lightest group off a heap places every item where the
    linear arg-min scan does, ties going to the lowest group index, and
    leaves the fixup the same loads."""
    sizes, num_groups = batch
    items = [_Item(size) for size in sizes]
    expected, _ = _linear_scan_lpt(items, num_groups)
    actual = lpt_partition(items, num_groups)
    assert len(actual) == len(expected)
    assert all(_same_items(a, e) for a, e in zip(actual, expected))
    assert _same_items(
        intra_reorder(items, num_groups),
        _linear_scan_intra_reorder(items, num_groups),
    )


def _object_scan_intra_reorder(samples, num_groups):
    """Oracle: Algorithm 1 as it read sample objects, one
    ``float(sample.size)`` each, LPT in ``sorted(..., reverse=True)``
    order, and an equal-count fixup that scans the underfull groups for
    the lightest one at every move."""
    sizes = [float(sample.size) for sample in samples]
    for i, value in enumerate(sizes):
        if not math.isfinite(value):
            raise ValueError(f"sample {i} has a non-finite size {value!r}")
    groups = [[] for _ in range(num_groups)]
    loads = [0.0] * num_groups
    heap = [(0.0, g) for g in range(num_groups)]
    for i in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        g = heap[0][1]
        groups[g].append(i)
        loads[g] += sizes[i]
        heapq.heapreplace(heap, (loads[g], g))
    per_group = len(samples) // num_groups
    overfull = [g for g in groups if len(g) > per_group]
    underfull = [i for i, g in enumerate(groups) if len(g) < per_group]
    for group in overfull:
        group.sort(key=sizes.__getitem__, reverse=True)
        while len(group) > per_group:
            moved = group.pop()
            target = min(
                (i for i in underfull if len(groups[i]) < per_group),
                key=loads.__getitem__,
            )
            groups[target].append(moved)
            loads[target] += sizes[moved]
    return [samples[i] for group in groups for i in group]


def _sized_sample(sample_id, image_tokens):
    return TrainingSample(sample_id, (Subsequence("image", image_tokens),))


@st.composite
def _integer_batches(draw):
    """Samples whose integer sizes (image tokens) come from a few
    values, so sizes and loads tie often, split over ``dp`` in
    {1, 2, 3, n}."""
    dp = draw(st.sampled_from([1, 2, 3, "n"]))
    per_group = draw(st.integers(min_value=1, max_value=12))
    groups = draw(st.integers(min_value=1, max_value=12)) if dp == "n" else dp
    pool = draw(st.lists(
        st.integers(min_value=0, max_value=50_000),
        min_size=1, max_size=4, unique=True,
    ))
    sizes = draw(st.lists(
        st.sampled_from(pool),
        min_size=groups * per_group,
        max_size=groups * per_group,
    ))
    samples = [_sized_sample(i, size) for i, size in enumerate(sizes)]
    return samples, (len(samples) if dp == "n" else dp)


def _column_order(samples, num_groups):
    """Algorithm 1 as the iteration simulator runs it: over sample
    indices, reading the batch's ``image_tokens`` column."""
    sizes = BatchColumns.of(samples).image_tokens.tolist()
    return intra_reorder(
        range(len(samples)), num_groups, size=sizes.__getitem__
    )


@settings(max_examples=300, deadline=None)
@given(_integer_batches())
@example(([_sized_sample(0, 64)] + [
    _sized_sample(i, 1) for i in range(1, 8)
], 2))
@example(([_sized_sample(0, 1000)] + [
    _sized_sample(i, 10 + i % 2) for i in range(1, 9)
], 3))
def test_size_column_matches_object_scan(batch):
    """Algorithm 1 on the ``image_tokens`` column, the sample size,
    places every sample where the object-and-scan version does,
    including the moves of the equal-count fixup when LPT leaves groups
    overfull."""
    samples, num_groups = batch
    expected = _object_scan_intra_reorder(samples, num_groups)
    order = _column_order(samples, num_groups)
    assert [samples[i].sample_id for i in order] == [
        s.sample_id for s in expected
    ]
    assert [s.sample_id for s in intra_reorder(samples, num_groups)] == [
        s.sample_id for s in expected
    ]


def test_fixup_examples_leave_lpt_overfull():
    """The pinned examples above do exercise the fixup."""
    heavy = [_sized_sample(0, 64)] + [
        _sized_sample(i, 1) for i in range(1, 8)
    ]
    groups = lpt_partition(heavy, 2)
    assert sorted(len(g) for g in groups) == [1, 7]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_size_column_rejected(bad):
    sizes = [3.0, bad, 1.0, 2.0]
    with pytest.raises(ValueError, match="non-finite"):
        intra_reorder(range(4), 2, size=sizes.__getitem__)


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_optimal_makespan(list(range(20)), 2)
