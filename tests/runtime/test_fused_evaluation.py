"""A task's price does not depend on which tasks share its call.

:func:`~repro.runtime.iteration.evaluate_prepared_many` is the one
pricing path: it stacks the per-rank duration rows of many prepared
batches that compile to the same pipeline kernel into one
``evaluate_batch`` sweep, and :meth:`evaluate_prepared` is a one-task
call of it. The kernel's level sweep is row-independent, so every
task's slice of a stacked call must equal the task priced alone — bit
for bit, straggler re-pricing included — tasks on *different* kernels
must group correctly, and bad slowdown factors are rejected by both
entry points.
"""

import math

import numpy as np
import pytest

from repro.cluster.cluster import make_cluster
from repro.models.mllm import MLLM_9B
from repro.parallelism.orchestration_plan import ModelOrchestrationPlan
from repro.parallelism.plan import ParallelismPlan
from repro.runtime.iteration import (
    TrainingIterationSimulator,
    evaluate_prepared_many,
)


def simulator(plan):
    return TrainingIterationSimulator(
        plan,
        intra_reordering=True,
        inter_reordering=True,
        preprocessing="disaggregated",
    )


@pytest.fixture(scope="module")
def deep_plan():
    """A second plan with a different pipeline shape, so fused tasks
    span two distinct compiled kernels."""
    return ModelOrchestrationPlan(
        mllm=MLLM_9B,
        cluster=make_cluster(24),
        encoder_plan=ParallelismPlan(tp=1, pp=1, dp=4),
        llm_plan=ParallelismPlan(tp=4, pp=2, dp=2),
        generator_plan=ParallelismPlan(tp=1, pp=1, dp=4),
    )


def test_fused_matches_per_task_evaluation(
    small_plan, deep_plan, small_batch
):
    from repro.data.synthetic import SyntheticMultimodalDataset

    batches = [
        small_batch,
        SyntheticMultimodalDataset(seed=7).take(16),
        SyntheticMultimodalDataset(seed=9).take(16),
    ]
    sims = [simulator(small_plan), simulator(deep_plan)]
    tasks = []
    for sim in sims:
        for index, batch in enumerate(batches):
            prepared = sim.prepare(batch)
            n_ranks = len(prepared.rank_work)
            if index == 1:
                slowdowns = None  # base evaluation rides along
            else:
                slowdowns = np.ones(n_ranks)
                slowdowns[index % n_ranks] = 1.5 + index
            tasks.append((sim, prepared, slowdowns))

    fused = evaluate_prepared_many(tasks)
    for (sim, prepared, slowdowns), fused_result in zip(tasks, fused):
        solo = sim.evaluate_prepared(prepared, rank_slowdowns=slowdowns)
        assert fused_result == solo  # exact: dataclass of floats


def test_fused_empty_and_singleton():
    assert evaluate_prepared_many([]) == []


def test_fused_singleton_is_evaluate_prepared(small_plan, small_batch):
    sim = simulator(small_plan)
    prepared = sim.prepare(small_batch)
    [fused] = evaluate_prepared_many([(sim, prepared, None)])
    assert fused == sim.evaluate_prepared(prepared)


@pytest.mark.parametrize(
    "make_factors",
    [
        pytest.param(lambda n: [math.nan] * n, id="nan"),
        pytest.param(lambda n: [1.0] * (n - 1) + [math.inf], id="inf"),
        pytest.param(lambda n: [1.0] * (n + 1), id="wrong-length"),
    ],
)
@pytest.mark.parametrize("fused", [False, True], ids=["single", "fused"])
def test_bad_slowdowns_rejected(small_plan, small_batch, make_factors, fused):
    sim = simulator(small_plan)
    prepared = sim.prepare(small_batch)
    factors = make_factors(len(prepared.rank_work))
    with pytest.raises(ValueError, match="slowdowns"):
        if fused:
            evaluate_prepared_many([(sim, prepared, factors)])
        else:
            sim.evaluate_prepared(prepared, rank_slowdowns=factors)
