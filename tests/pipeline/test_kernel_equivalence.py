"""Property-based equivalence: vectorized kernel vs reference evaluator.

The vectorized :mod:`repro.pipeline.kernel` must reproduce the retained
per-op worklist (:meth:`PipelineSimulator.run_reference`) **exactly** —
same IEEE operations per op, so ``==`` on every start/end time, across
all schedule kinds, heterogeneous durations (including zero-duration
ops, as frozen modules produce), and communication delays. The suite
also asserts the simulator invariants directly: no stage overlap,
dependencies respected, makespan equals the latest op end.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline.kernel import get_kernel
from repro.pipeline.schedules import ScheduleKind
from repro.pipeline.simulator import PipelineSimulator, StageWork


@st.composite
def simulator_instances(draw):
    """A random (simulator, work) pair covering every ScheduleKind."""
    kind = draw(st.sampled_from(list(ScheduleKind)))
    p = draw(st.integers(min_value=1, max_value=5))
    if kind is ScheduleKind.INTERLEAVED:
        vpp = draw(st.integers(min_value=1, max_value=3))
        groups = draw(st.integers(min_value=1, max_value=3))
        l = p * groups  # the Megatron divisibility constraint
    else:
        vpp = 1
        l = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    fwd = rng.uniform(0.05, 3.0, (p, l))
    bwd = rng.uniform(0.05, 5.0, (p, l))
    # Zero durations occur in practice (fully frozen backward passes).
    if draw(st.booleans()):
        zero_frac = draw(st.floats(min_value=0.0, max_value=1.0))
        bwd[rng.uniform(size=(p, l)) < zero_frac] = 0.0
    comm = draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    sim = PipelineSimulator(p, l, kind, vpp=vpp)
    return sim, StageWork.from_tables(fwd, bwd, comm=comm)


def assert_traces_identical(vectorized, reference):
    assert len(vectorized.records) == len(reference.records)
    for fast, ref in zip(vectorized.records, reference.records):
        assert fast.op == ref.op
        assert fast.start == ref.start, (fast.op, fast.start, ref.start)
        assert fast.end == ref.end, (fast.op, fast.end, ref.end)


@settings(max_examples=60, deadline=None)
@given(simulator_instances())
def test_kernel_matches_reference_exactly(instance):
    sim, work = instance
    assert_traces_identical(sim.run(work), sim.run_reference(work))


@settings(max_examples=60, deadline=None)
@given(simulator_instances())
def test_simulator_invariants(instance):
    sim, work = instance
    trace = sim.run(work)
    # Physical consistency: no overlap, deps respected.
    trace.assert_valid()
    # Makespan is exactly the latest op end.
    assert trace.makespan == max(r.end for r in trace.records)
    # Every op ran, exactly once.
    assert len(trace.records) == 2 * sim.num_stages * sim.num_microbatches * sim.vpp
    assert len({r.op for r in trace.records}) == len(trace.records)
    # Starts are non-negative and every op's duration matches its table.
    for record in trace.records:
        op = record.op
        table = work.fwd_table if op.is_forward else work.bwd_table
        assert record.start >= 0.0
        assert record.end == record.start + table[op.stage, op.microbatch]


@settings(max_examples=40, deadline=None)
@given(simulator_instances())
def test_traceless_fast_paths_match_trace(instance):
    """makespan / bubble / first-stage-gap helpers == trace values."""
    sim, work = instance
    kernel = sim.kernel
    durations = kernel.durations_from_tables(work.fwd_table, work.bwd_table)
    start, end = kernel.evaluate(durations, work.comm)
    trace = sim.run_reference(work)
    assert kernel.makespan(end) == trace.makespan
    assert kernel.bubble_fraction(start, end) == trace.bubble_fraction()
    gaps = trace.stage_idle_gaps(0)
    expected = (gaps[0][1] - gaps[0][0]) if gaps else 0.0
    records = trace.stage_records(0)
    closing = next(
        (nxt for prev, nxt in zip(records, records[1:])
         if nxt.start > prev.end + 1e-12),
        None,
    )
    # Stage 0's ops lead the kernel's stage-major op order.
    ends_at = None if closing is None else kernel.ops.index(closing.op)
    assert kernel.first_stage_gap(start, end) == (expected, ends_at)


def test_kernel_cache_reuses_shapes():
    get_kernel.cache_clear()
    a = PipelineSimulator(4, 8, ScheduleKind.ONE_F_ONE_B).kernel
    b = PipelineSimulator(4, 8, ScheduleKind.ONE_F_ONE_B).kernel
    assert a is b
    c = PipelineSimulator(4, 9, ScheduleKind.ONE_F_ONE_B).kernel
    assert c is not a
    info = get_kernel.cache_info()
    assert info.hits >= 1 and info.misses >= 2


def test_batched_shape_validation():
    kernel = PipelineSimulator(2, 3).kernel
    with pytest.raises(ValueError):
        kernel.evaluate_batch(np.zeros((2, kernel.num_ops + 1)))


@pytest.mark.parametrize(
    "kind,p,n,vpp",
    [
        (ScheduleKind.ONE_F_ONE_B, 1, 1, 1),
        (ScheduleKind.ONE_F_ONE_B, 4, 3, 1),
        (ScheduleKind.ONE_F_ONE_B, 7, 14, 1),
        (ScheduleKind.ONE_F_ONE_B, 12, 24, 1),
        (ScheduleKind.GPIPE, 4, 6, 1),
        (ScheduleKind.INTERLEAVED, 3, 6, 2),
    ],
)
def test_makespan_only_paths_match_evaluate(kind, p, n, vpp):
    """Every entry point runs the one level sweep: the makespan-only
    ones (the orchestration refinement's path) are bit-identical to
    ``makespan(evaluate(...)[1])``, and each row of a batch is
    bit-identical to evaluating it alone, for every delay form each
    entry point accepts."""
    kernel = get_kernel(kind, p, n, vpp)
    rng = np.random.default_rng(p * 1000 + n)
    durations = rng.uniform(0.0, 1.0, kernel.num_ops)
    for delay in (0.0, 0.37):
        expected = kernel.makespan(kernel.evaluate(durations, delay)[1])
        assert kernel.makespan_from_durations(durations, delay) == expected

    batch = rng.uniform(0.0, 1.0, (3, kernel.num_ops))
    for delays in (0.0, 0.37, rng.uniform(0.0, 0.1, 3)):
        start, end = kernel.evaluate_batch(batch, delays)
        assert start.shape == end.shape == batch.shape
        for r in range(len(batch)):
            row_delay = delays if np.ndim(delays) == 0 else delays[r]
            row_start, row_end = kernel.evaluate(batch[r], row_delay)
            assert np.array_equal(start[r], row_start)
            assert np.array_equal(end[r], row_end)
        expected = kernel.makespans(end)
        got = kernel.makespans_from_durations(batch, delays)
        assert np.array_equal(got, expected)

    empty = np.zeros((0, kernel.num_ops))
    for delays in (0.37, np.zeros(0)):
        start, end = kernel.evaluate_batch(empty, delays)
        assert start.shape == end.shape == (0, kernel.num_ops)
        assert kernel.makespans_from_durations(empty, delays).shape == (0,)
