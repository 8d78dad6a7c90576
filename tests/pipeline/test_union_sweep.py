"""The union sweep prices every part exactly as its own kernel does.

:func:`~repro.pipeline.kernel.union_makespans` lays the level-``v`` ops
of several compiled schedule DAGs side by side and runs one level loop
over the union. Each part's ops gather the same predecessor ends as in
their own kernel's sweep, and a makespan is an order-free max, so every
part's makespan must be ``float.hex``-equal to its shape's own
``makespans_from_durations`` — for any mix of 1F1B, GPipe and
interleaved shapes, zero and tied durations, and any scalar delay. The
orchestration refinement, its one ``src/`` caller, must price a real
12-finalist portfolio as the per-shape loop it replaced did.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import make_cluster
from repro.data.synthetic import SyntheticMultimodalDataset
from repro.models.mllm import MLLM_9B
from repro.orchestration import adaptive
from repro.orchestration.adaptive import (
    AdaptiveOrchestrator,
    simulated_pipeline_seconds_batch,
)
from repro.orchestration.problem import OrchestrationProblem, SampleProfile
from repro.pipeline.kernel import get_kernel, union_makespans
from repro.pipeline.schedules import ScheduleKind


@st.composite
def shapes(draw):
    kind = draw(st.sampled_from(list(ScheduleKind)))
    p = draw(st.integers(min_value=1, max_value=6))
    if kind is ScheduleKind.INTERLEAVED:
        vpp = draw(st.integers(min_value=1, max_value=3))
        l = p * draw(st.integers(min_value=1, max_value=3))
    else:
        vpp = 1
        l = draw(st.integers(min_value=1, max_value=12))
    return get_kernel(kind, p, l, vpp)


@st.composite
def unions(draw):
    """Random parts (some sharing a shape) and one scalar delay."""
    kernels = draw(st.lists(shapes(), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # A small value pool makes ties common; zeros model frozen passes.
    pool = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
    parts = []
    for kernel in kernels:
        if draw(st.booleans()):
            durations = rng.choice(pool, kernel.num_ops)
        else:
            durations = rng.uniform(0.0, 2.0, kernel.num_ops)
        parts.append((kernel, durations))
    delay = draw(st.sampled_from([0.0, 0.37, 1.0]) | st.floats(
        min_value=0.0, max_value=2.0, allow_nan=False
    ))
    return parts, delay


@settings(max_examples=80, deadline=None)
@given(unions())
def test_every_part_matches_its_own_kernel(case):
    parts, delay = case
    got = union_makespans(parts, delay)
    assert got.shape == (len(parts),)
    for (kernel, durations), span in zip(parts, got):
        alone = kernel.makespans_from_durations(durations[None], delay)[0]
        assert float(span).hex() == float(alone).hex()


@pytest.mark.parametrize(
    "kind,p,n,vpp",
    [
        (ScheduleKind.ONE_F_ONE_B, 1, 1, 1),
        (ScheduleKind.ONE_F_ONE_B, 7, 14, 1),
        (ScheduleKind.GPIPE, 4, 6, 1),
        (ScheduleKind.INTERLEAVED, 3, 6, 2),
    ],
)
def test_one_part_union_is_the_plain_kernel(kind, p, n, vpp):
    kernel = get_kernel(kind, p, n, vpp)
    durations = np.random.default_rng(p + n).uniform(0.0, 1.0, kernel.num_ops)
    for delay in (0.0, 0.37):
        expected = kernel.makespan_from_durations(durations, delay)
        got = union_makespans([(kernel, durations)], delay)
        assert [float(x).hex() for x in got] == [expected.hex()]


def test_empty_union_and_shape_check():
    assert union_makespans([], 0.5).shape == (0,)
    kernel = get_kernel(ScheduleKind.ONE_F_ONE_B, 2, 3, 1)
    with pytest.raises(ValueError, match="durations"):
        union_makespans([(kernel, np.zeros(kernel.num_ops + 1))])


def per_shape_batch(problem, collectives, plans_list) -> List[float]:
    """The refinement before the union sweep: one
    ``makespans_from_durations`` call per ``(stages, microbatches)``
    shape, its plans stacked as rows."""
    M = problem.microbatch_size
    comm = collectives.pp_send(
        problem.mllm.llm.boundary_activation_bytes(M)
    )
    prepared = []
    tasks: Dict[Tuple[int, int], List[int]] = {}
    for i, plans in enumerate(plans_list):
        stage_fwd, stage_bwd = adaptive._stage_times(problem, plans)
        p = len(stage_fwd)
        num_microbatches = problem.global_batch_size // (
            plans["llm"].dp * M
        )
        n_small = min(num_microbatches, max(2 * p, 4))
        n_smaller = max(p, n_small // 2)
        prepared.append(
            (stage_fwd, stage_bwd, p, num_microbatches, n_small, n_smaller)
        )
        tasks.setdefault((p, n_small), []).append(i)
        if n_small != num_microbatches:
            tasks.setdefault((p, n_smaller), []).append(i)
    makespans: Dict[Tuple[int, int, int], float] = {}
    for (p, n), members in tasks.items():
        kernel = get_kernel(ScheduleKind.ONE_F_ONE_B, p, n, 1)
        durations = np.stack([
            kernel.durations_from_stage_times(prepared[i][0], prepared[i][1])
            for i in members
        ])
        spans = kernel.makespans_from_durations(durations, comm)
        for i, span in zip(members, spans):
            makespans[(p, n, i)] = float(span)
    results = []
    for i, (_, _, p, num_microbatches, n_small, n_smaller) in enumerate(
        prepared
    ):
        m_small = makespans[(p, n_small, i)]
        if n_small == num_microbatches:
            results.append(m_small)
            continue
        m_smaller = makespans[(p, n_smaller, i)]
        slope = (m_small - m_smaller) / max(1, n_small - n_smaller)
        results.append(m_small + slope * (num_microbatches - n_small))
    return results


def test_refinement_matches_per_shape_loop(monkeypatch):
    problem = OrchestrationProblem(
        mllm=MLLM_9B,
        cluster=make_cluster(48),
        global_batch_size=64,
        profile=SampleProfile.from_samples(
            SyntheticMultimodalDataset(seed=1).take(128)
        ),
    )
    portfolios = []
    refine = AdaptiveOrchestrator._refined_batch

    def capture(self, plans_list):
        portfolios.append(list(plans_list))
        return refine(self, plans_list)

    monkeypatch.setattr(AdaptiveOrchestrator, "_refined_batch", capture)
    orchestrator = AdaptiveOrchestrator(problem)
    orchestrator.plan()
    finalists = portfolios[0]
    assert len(finalists) == adaptive.REFINE_TOP_K
    collectives = orchestrator.collectives
    got = simulated_pipeline_seconds_batch(problem, collectives, finalists)
    expected = per_shape_batch(problem, collectives, finalists)
    assert [x.hex() for x in got] == [x.hex() for x in expected]
    # The portfolio spans several pipeline depths, so the union mixes
    # shapes.
    assert len({
        sum(plans[name].pp for name in plans) for plans in finalists
    }) > 1
