"""The batched bubble fraction equals the per-row loop, bit for bit.

:meth:`SimulatorKernel.bubble_fractions` sorts every row of a stage at
once and folds its durations with ``np.add.accumulate``. Each row must
equal, by ``float.hex``, the scalar loop it replaced (kept below as a
test-local oracle): per row and stage, ops sorted by ``(start, end)``,
durations added with ``+=`` from 0.0, stage sums added in stage order,
then averaged against the row's makespan. Rounded durations force tied
starts, zero tables give zero-makespan rows, and one-row batches ride
along.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.pipeline.kernel import get_kernel
from repro.pipeline.schedules import ScheduleKind


def per_row_bubble_fraction(kernel, start, end):
    """The scalar loop the batched method replaced, for one row."""
    makespan = float(end.max()) if len(end) else 0.0
    if makespan == 0:
        return 0.0
    total_busy = 0.0
    for stage in range(kernel.num_stages):
        lo = int(kernel.stage_first[stage])
        hi = lo + int(kernel.stage_count[stage])
        s, e = start[lo:hi], end[lo:hi]
        sorted_rows = np.lexsort((e, s))
        busy = 0.0
        for value in (e[sorted_rows] - s[sorted_rows]).tolist():
            busy += value
        total_busy += busy
    capacity = makespan * kernel.num_stages
    return 1.0 - total_busy / capacity


@st.composite
def batches(draw):
    """A kernel and a ``(B, n)`` sweep of it: 1F1B, interleaved or
    GPipe, durations rounded (ties) or not, some rows all zero."""
    kind = draw(st.sampled_from(list(ScheduleKind)))
    p = draw(st.integers(min_value=1, max_value=5))
    if kind is ScheduleKind.INTERLEAVED:
        vpp = draw(st.integers(min_value=2, max_value=3))
        l = p * draw(st.integers(min_value=1, max_value=3))
    else:
        vpp = 1
        l = draw(st.integers(min_value=1, max_value=10))
    kernel = get_kernel(kind, p, l, vpp)
    rows = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    durations = rng.uniform(0.0, 3.0, (rows, kernel.num_ops))
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        durations = np.round(durations, decimals)
    delays = np.round(rng.uniform(0.0, 0.5, rows), 1)
    zero = rng.uniform(size=rows) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    durations[zero] = 0.0
    delays[zero] = 0.0
    start, end = kernel.evaluate_batch(durations, delays)
    return kernel, start, end


def hexes(values):
    return [float(v).hex() for v in values]


@settings(max_examples=150, deadline=None)
@given(batches())
def test_batched_rows_match_per_row_loop(batch):
    kernel, start, end = batch
    expected = [
        per_row_bubble_fraction(kernel, start[i], end[i])
        for i in range(len(start))
    ]
    assert hexes(kernel.bubble_fractions(start, end)) == hexes(expected)
    assert hexes(
        kernel.bubble_fraction(start[i], end[i]) for i in range(len(start))
    ) == hexes(expected)


def test_zero_makespan_rows_have_no_bubble():
    kernel = get_kernel(ScheduleKind.ONE_F_ONE_B, 3, 4)
    durations = np.zeros((2, kernel.num_ops))
    durations[1] = 1.0
    start, end = kernel.evaluate_batch(durations, 0.0)
    fractions = kernel.bubble_fractions(start, end)
    assert fractions[0] == 0.0
    assert fractions[1] == per_row_bubble_fraction(kernel, start[1], end[1])
    assert fractions[1] > 0.0
