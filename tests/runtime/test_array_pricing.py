"""Array pricing equals scalar pricing, bit for bit.

The iteration simulator prices a batch from its int64 columns
(:class:`BatchColumns`): the encoder work
(:meth:`ModuleCostModel.sample_times`), the FLOPs
(:meth:`ModelFlopsAccountant.batch_flops`), the preprocessing seconds,
the rank pick and Algorithm 2's microbatch sizes. Every element must
equal the scalar call or the per-sample code it replaces by
``float.hex``; a batch total and a microbatch's stage time must equal
the left-to-right sum of the scalar per-sample values.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import make_cluster
from repro.cluster.node import AMPERE_NODE
from repro.core.api import sample_batches
from repro.core.config import DistTrainConfig
from repro.data.sample import (
    BatchColumns,
    SampleBatch,
    Subsequence,
    TrainingSample,
    text_subsequence,
)
from repro.data.synthetic import SyntheticMultimodalDataset
from repro.models.base import ModuleWorkload
from repro.models.mllm import MLLM_9B, MLLM_PRESETS
from repro.parallelism.orchestration_plan import ModelOrchestrationPlan
from repro.parallelism.plan import ParallelismPlan
from repro.preprocessing.cost import PreprocessCostModel
from repro.reordering.inter import _microbatch_sizes
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
    assert accountant.batch_flops(BatchColumns.of(batch)).hex() == (
        expected.hex()
    )


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
    tables = sim._rank_tables(BatchColumns.of(batch), num_microbatches)
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


COLUMNS = ("text_tokens", "image_tokens", "num_images", "pixels")


def drawn(seed, num_samples):
    """The first ``num_samples`` samples of the default stream."""
    return SyntheticMultimodalDataset(seed=seed).take(num_samples)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_samples=st.integers(min_value=1, max_value=48),
)
def test_columns_equal_sample_attributes(seed, num_samples):
    batch = drawn(seed, num_samples)
    columns = BatchColumns.of(batch)
    # Algorithm 1 and the rank pick read the image tokens as sizes.
    assert columns.image_tokens.tolist() == [s.size for s in batch]
    assert len(columns) == len(batch)
    for name in COLUMNS:
        column = getattr(columns, name)
        assert column.dtype == np.int64
        assert not column.flags.writeable
        assert column.tolist() == [getattr(s, name) for s in batch]
    rows = np.arange(len(batch))[::-2]
    for name in COLUMNS:
        assert getattr(columns[rows], name).tolist() == [
            getattr(batch[i], name) for i in rows
        ]


def test_empty_columns():
    columns = BatchColumns.of([])
    assert len(columns) == 0
    assert PreprocessCostModel().batch_cpu_seconds(columns) == 0


def test_cached_batches_carry_their_columns():
    config = DistTrainConfig.preset("mllm-9b", 48, 16)
    for batch in sample_batches(config, 2):
        assert isinstance(batch, SampleBatch)
        assert isinstance(batch, tuple)
        for name in COLUMNS:
            assert getattr(batch.columns, name).tolist() == [
                getattr(s, name) for s in batch
            ]


def per_sample_cpu_seconds(cost, sample):
    """The per-sample formula on sample attributes, as it read them
    before the batch's columns existed."""
    image = sample.pixels * cost.image_ns_per_pixel * 1e-9
    text = sample.text_tokens * cost.text_ns_per_token * 1e-9
    return image + text + cost.fixed_s_per_sample


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_samples=st.integers(min_value=1, max_value=64),
)
def test_preprocessing_seconds_match_per_sample(seed, num_samples):
    batch = drawn(seed, num_samples)
    columns = BatchColumns.of(batch)
    cost = PreprocessCostModel()
    expected = [per_sample_cpu_seconds(cost, s) for s in batch]
    assert hexes(cost.sample_cpu_seconds(columns)) == hexes(expected)
    assert cost.batch_cpu_seconds(columns).hex() == (
        float(left_fold(expected)).hex()
    )


def object_preprocess_overhead(sim, batch, pipeline_time):
    """The preprocessing overhead priced sample by sample: co-located
    on the ``sorted(..., reverse=True)`` heaviest shard by pixels."""
    cost = sim.preprocess_cost

    def cpu(samples):
        return left_fold(per_sample_cpu_seconds(cost, s) for s in samples)

    if sim.preprocessing == "colocated":
        per_rank = len(batch) // sim.plan.plans["llm"].dp
        heaviest = sorted(batch, key=lambda s: s.pixels, reverse=True)
        colocated = sim._colocated
        wall = cpu(heaviest[:per_rank]) / colocated.dataloader_workers
        hidden = colocated.overlap_fraction * min(wall, pipeline_time)
        return max(0.0, wall - hidden)
    disaggregated = sim._disaggregated
    transfer = disaggregated.transfer
    first = batch[:1]
    wire = left_fold(
        s.image_tokens * transfer.bytes_per_image_token
        + s.text_tokens * transfer.bytes_per_text_token
        for s in first
    )
    overhead = transfer.rpc_overhead_s * (0.1 if transfer.use_rdma else 1.0)
    receive = overhead + transfer.link.transfer_time(wire)
    producer = cpu(batch) * (1.0 + disaggregated.reorder_cost_fraction)
    producer /= disaggregated.total_cores
    return receive + max(0.0, producer - pipeline_time)


def pixel_tied(seed):
    """16 samples whose pixel counts come from two values and whose text
    differs, so the heaviest shard cuts through ties and the tie order
    decides which samples it holds."""
    rng = np.random.default_rng(seed)
    return [
        TrainingSample(i, (
            Subsequence("image", 64, pixels=int(rng.choice([4096, 65536]))),
            text_subsequence(int(rng.integers(0, 8000))),
        ))
        for i in range(16)
    ]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pipeline_time=st.sampled_from([0.0, 0.5, 3.0, 40.0]),
    ties=st.booleans(),
)
@pytest.mark.parametrize("mode", ["colocated", "disaggregated"])
def test_preprocess_overhead_matches_per_sample(
    small_plan, mode, seed, pipeline_time, ties
):
    batch = pixel_tied(seed) if ties else drawn(seed, 16)
    sim = TrainingIterationSimulator(small_plan, preprocessing=mode)
    actual = sim._preprocess_overhead(BatchColumns.of(batch), pipeline_time)
    expected = object_preprocess_overhead(sim, batch, pipeline_time)
    assert actual.hex() == float(expected).hex()


def object_select_ranks(rank_batches, limit):
    """The rank pick as it summed sample sizes rank by rank."""
    dp = len(rank_batches)
    if limit <= 0 or dp <= limit:
        return list(range(dp))
    loads = [sum(s.size for s in batch) for batch in rank_batches]
    order = sorted(range(dp), key=loads.__getitem__)
    picks = {order[0], order[-1]}
    if limit > 2:
        step = max(1, dp // (limit - 2))
        picks.update(order[::step][: limit - 2])
    return sorted(picks)


@settings(max_examples=15, deadline=None)
@given(
    dp=st.integers(min_value=1, max_value=40),
    per_rank=st.integers(min_value=1, max_value=4),
    pool=st.lists(
        st.integers(min_value=0, max_value=9_000), min_size=1, max_size=3,
        unique=True,
    ),
    draw=st.data(),
)
@pytest.mark.parametrize("cap", range(2, 17))
def test_select_ranks_matches_object_pick(
    small_plan, cap, dp, per_rank, pool, draw
):
    sizes = draw.draw(st.lists(
        st.sampled_from(pool), min_size=dp * per_rank,
        max_size=dp * per_rank,
    ))
    batch = [
        sample(i, tokens, 1 if tokens else 0)
        for i, tokens in enumerate(sizes)
    ]
    rank_batches = [
        batch[r * per_rank:(r + 1) * per_rank] for r in range(dp)
    ]
    sim = TrainingIterationSimulator(small_plan, max_simulated_ranks=cap)
    rank_sizes = BatchColumns.of(batch).image_tokens.reshape(dp, per_rank)
    assert sim._select_ranks(rank_sizes) == object_select_ranks(
        rank_batches, cap
    )


@settings(max_examples=60, deadline=None)
@given(
    ranks=st.integers(min_value=1, max_value=6),
    l=st.integers(min_value=1, max_value=24),
    p=st.integers(min_value=1, max_value=40),
    decimals=st.sampled_from([None, 0, 3]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_microbatch_sizes_match_row_sums(ranks, l, p, decimals, seed):
    """Algorithm 2's sizes, one sum over the stacked tables, equal each
    microbatch's ``float(fwd[j].sum() + bwd[j].sum())``."""
    rng = np.random.default_rng(seed)
    fwd = rng.lognormal(size=(ranks, l, p)) * 10.0 ** rng.integers(-4, 2)
    bwd = rng.lognormal(size=(ranks, l, p))
    if decimals is not None:
        fwd, bwd = np.round(fwd, decimals), np.round(bwd, decimals)
    sizes = _microbatch_sizes(fwd, bwd)
    assert [hexes(row) for row in sizes] == [
        hexes(float(fwd[r, j].sum() + bwd[r, j].sum()) for j in range(l))
        for r in range(ranks)
    ]


def test_prepared_tables_give_row_sum_sizes(small_plan):
    """On the tables ``prepare`` hands Algorithm 2 (views of one array),
    the stacked sum still equals each rank's row sums."""
    sim = TrainingIterationSimulator(small_plan)
    batch = drawn(5, 48)
    tables = sim._rank_tables(BatchColumns.of(batch), 6)
    fwd = np.stack([f for f, _ in tables])
    bwd = np.stack([b for _, b in tables])
    assert [hexes(row) for row in _microbatch_sizes(fwd, bwd)] == [
        hexes(float(f[j].sum() + b[j].sum()) for j in range(6))
        for f, b in tables
    ]
