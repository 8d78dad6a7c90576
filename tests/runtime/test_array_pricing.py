"""Array pricing equals scalar pricing, bit for bit.

The iteration simulator prices a batch's encoder work on int64 arrays
(:meth:`ModuleCostModel.sample_times`) and the FLOPs accountant prices
a batch's FLOPs on arrays (:meth:`ModelFlopsAccountant.batch_flops`).
Every element must equal the scalar call it replaces by ``float.hex``;
a batch total and a microbatch's stage time must equal the left-to-right
sum of the scalar per-sample values.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import make_cluster
from repro.cluster.node import AMPERE_NODE
from repro.data.sample import Subsequence, TrainingSample, text_subsequence
from repro.models.base import ModuleWorkload
from repro.models.mllm import MLLM_9B, MLLM_PRESETS
from repro.parallelism.orchestration_plan import ModelOrchestrationPlan
from repro.parallelism.plan import ParallelismPlan
from repro.runtime.frozen import FROZEN_PRESETS
from repro.runtime.iteration import TrainingIterationSimulator
from repro.runtime.mfu import ModelFlopsAccountant
from repro.timing.costmodel import ModuleCostModel

from tests.runtime.test_iteration import reference_tables
from tests.summation import left_fold

MODELS = ("mllm-9b", "mllm-15b", "mllm-72b", "mllm-moe-40b")
PRESETS = sorted(FROZEN_PRESETS)

#: (image tokens, images) of one sample's workload.
workload = st.tuples(
    st.integers(min_value=0, max_value=32_768),
    st.integers(min_value=0, max_value=32),
)
#: Zero tokens, zero images, and tokens without images always ride along.
EDGES = [(0, 0), (0, 3), (7, 0), (32_768, 0), (1, 32), (32_768, 1)]


def sample(sample_id, image_tokens, images):
    """A sample of ``images`` image spans holding ``image_tokens``
    between them (a sample without images holds none)."""
    sizes = []
    if images:
        sizes = [image_tokens // images] * (images - 1)
        sizes.append(image_tokens - sum(sizes))
    spans = tuple(Subsequence("image", t) for t in sizes)
    return TrainingSample(sample_id, spans + (text_subsequence(100),))


samples = st.lists(workload, min_size=0, max_size=24).map(
    lambda pairs: [
        sample(i, tokens, images)
        for i, (tokens, images) in enumerate(EDGES + pairs)
    ]
)


def hexes(values):
    return [float(v).hex() for v in values]


@settings(max_examples=6, deadline=None)
@given(pairs=st.lists(workload, min_size=0, max_size=24))
@pytest.mark.parametrize("overlap", [0.0, 0.9])
@pytest.mark.parametrize("tp", [1, 2, 4, 8])
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("model", MODELS)
def test_encoder_times_match_scalar(model, preset, tp, overlap, pairs):
    pairs = EDGES + pairs
    cost = ModuleCostModel(
        MLLM_PRESETS[model].encoder, AMPERE_NODE, tp_overlap_fraction=overlap
    )
    frozen = FROZEN_PRESETS[preset]
    backward = frozen.backward_factor("encoder") != 0.0
    weight_grads = frozen.trains("encoder")
    tokens = np.array([t for t, _ in pairs], dtype=np.int64)
    images = np.array([n for _, n in pairs], dtype=np.int64)
    fwd, bwd = cost.sample_times(
        tokens, images, tp, weight_grads=weight_grads, backward=backward
    )
    expected_fwd, expected_bwd = [], []
    for t, n in pairs:
        w = ModuleWorkload(samples=1, image_tokens=t, images=n)
        expected_fwd.append(cost.forward_time(w, tp))
        expected_bwd.append(
            cost.backward_time(w, tp, weight_grads=weight_grads)
            if backward else 0.0
        )
    assert hexes(fwd) == hexes(expected_fwd)
    assert hexes(bwd) == hexes(expected_bwd)


@settings(max_examples=10, deadline=None)
@given(batch=samples)
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("model", MODELS)
def test_batch_flops_fold_sample_flops(model, preset, batch):
    accountant = ModelFlopsAccountant(
        MLLM_PRESETS[model], FROZEN_PRESETS[preset]
    )
    expected = left_fold(accountant.sample_flops(s) for s in batch)
    assert accountant.batch_flops(batch).hex() == expected.hex()


@settings(max_examples=10, deadline=None)
@given(
    draw=st.data(),
    preset=st.sampled_from(PRESETS),
    overlap=st.sampled_from([0.0, 0.9]),
)
@pytest.mark.parametrize("microbatch_size", [1, 2, 4, 8])
def test_rank_tables_fold_per_sample_times(
    microbatch_size, draw, preset, overlap
):
    """Two ranks' tables at once: TP 2 encoder and generator, encoder
    and generator DP 3 against the LLM's 2, three-stage LLM and
    generator, so every scale factor rounds. Size 8 is there because
    numpy sums rows shorter than 8 left to right too."""
    plan = ModelOrchestrationPlan(
        mllm=MLLM_9B,
        cluster=make_cluster(48),
        encoder_plan=ParallelismPlan(tp=2, pp=1, dp=3),
        llm_plan=ParallelismPlan(
            tp=4, pp=3, dp=2, microbatch_size=microbatch_size
        ),
        generator_plan=ParallelismPlan(tp=2, pp=3, dp=3),
    )
    cost_models = {
        name: ModuleCostModel(
            MLLM_9B.module(name), AMPERE_NODE, tp_overlap_fraction=overlap
        )
        for name in ("encoder", "llm", "generator")
    }
    sim = TrainingIterationSimulator(
        plan, frozen=FROZEN_PRESETS[preset], cost_models=cost_models
    )
    num_microbatches = draw.draw(st.integers(min_value=1, max_value=4))
    per_rank = num_microbatches * microbatch_size
    pairs = draw.draw(st.lists(workload, min_size=2 * per_rank,
                               max_size=2 * per_rank))
    batch = [sample(i, t, n) for i, (t, n) in enumerate(pairs)]
    tables = sim._rank_tables(batch, num_microbatches)
    assert len(tables) == 2
    for rank, (fwd, bwd) in enumerate(tables):
        expected_fwd, expected_bwd = reference_tables(
            sim, batch[rank * per_rank:(rank + 1) * per_rank]
        )
        assert [hexes(row) for row in fwd] == [
            hexes(row) for row in expected_fwd
        ]
        assert [hexes(row) for row in bwd] == [
            hexes(row) for row in expected_bwd
        ]
