"""Co-located vs disaggregated preprocessing (Figure 17's comparison)."""

import math

import pytest

from repro.cluster.node import AMPERE_NODE
from repro.data.sample import BatchColumns
from repro.preprocessing.colocated import CoLocatedPreprocessing
from repro.preprocessing.cost import PreprocessCostModel
from repro.preprocessing.disaggregated import (
    DisaggregatedPreprocessing,
    required_cpu_nodes,
)
from repro.preprocessing.transfer import TransferModel

from tests.preprocessing.test_cost import image_sample


def colocated(**kwargs):
    return CoLocatedPreprocessing(
        node=AMPERE_NODE, cost=PreprocessCostModel(), **kwargs
    )


def disaggregated(**kwargs):
    return DisaggregatedPreprocessing(
        cost=PreprocessCostModel(), transfer=TransferModel(), **kwargs
    )


def figure17_columns(num_images, resolution):
    """Figure 17's workload: one sample of square images and no text.
    The tests price it at an unbounded iteration time, each mode's
    steady state, as the benchmark does."""
    return BatchColumns.of([image_sample(num_images, resolution, text=0)])


class TestCoLocated:
    def test_exposed_overhead_is_seconds_for_heavy_batches(self):
        batch = BatchColumns.of([image_sample(16, 1024) for _ in range(8)])
        overhead = colocated().exposed_overhead(batch, gpu_iteration_time=5.0)
        assert overhead > 0.5  # seconds-scale (Figure 17 left bars)

    def test_overlap_hides_some_cost(self):
        batch = BatchColumns.of([image_sample(8, 512)])
        eager = colocated(overlap_fraction=0.0)
        lazy = colocated(overlap_fraction=0.5)
        assert lazy.exposed_overhead(batch, 10.0) < eager.exposed_overhead(
            batch, 10.0
        )

    def test_more_workers_less_overhead(self):
        batch = BatchColumns.of([image_sample(8, 1024)])
        few = colocated(dataloader_workers=4)
        many = colocated(dataloader_workers=64)
        assert many.cpu_seconds(batch) < few.cpu_seconds(batch)

    def test_validation(self):
        with pytest.raises(ValueError):
            colocated(dataloader_workers=0)
        with pytest.raises(ValueError):
            colocated(overlap_fraction=1.0)

    def test_figure17_helper(self):
        c = colocated()
        t_512 = c.exposed_overhead(figure17_columns(8, 512), math.inf)
        t_1024 = c.exposed_overhead(figure17_columns(8, 1024), math.inf)
        assert t_1024 > 3 * t_512


class TestDisaggregated:
    def test_overhead_is_milliseconds(self):
        """Figure 17: disaggregation turns seconds into milliseconds."""
        d = disaggregated(cpu_nodes=8)
        batch = BatchColumns.of([image_sample(16, 1024) for _ in range(8)])
        overhead = d.exposed_overhead(batch, iteration_time=10.0)
        assert overhead < 0.1

    def test_keeps_up_with_enough_nodes(self):
        batch = BatchColumns.of([image_sample(8, 1024) for _ in range(32)])
        enough = disaggregated(cpu_nodes=16)
        starved = disaggregated(cpu_nodes=1, cores_per_node=2)
        assert enough.producer_seconds(batch) <= 10.0
        assert starved.producer_seconds(batch) > 1.0

    def test_starvation_stalls_training(self):
        starved = disaggregated(cpu_nodes=1, cores_per_node=1)
        batch = BatchColumns.of([image_sample(16, 1024) for _ in range(8)])
        overhead = starved.exposed_overhead(batch, iteration_time=1.0)
        assert overhead > 1.0

    def test_figure17_ordering(self):
        d = disaggregated()
        c = colocated()
        for n, res in ((8, 512), (8, 1024), (16, 512), (16, 1024)):
            columns = figure17_columns(n, res)
            assert (
                d.exposed_overhead(columns, math.inf)
                < c.exposed_overhead(columns, math.inf) / 20
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            disaggregated(cpu_nodes=0)


class TestElasticity:
    def test_required_nodes_scale_with_load(self):
        cost = PreprocessCostModel()
        light = BatchColumns.of([image_sample(2, 512) for _ in range(16)])
        heavy = BatchColumns.of([image_sample(16, 1024) for _ in range(16)])
        assert required_cpu_nodes(
            cost, heavy, 1.0, cores_per_node=16
        ) > required_cpu_nodes(cost, light, 1.0, cores_per_node=16)

    def test_required_nodes_min_one(self):
        cost = PreprocessCostModel()
        batch = BatchColumns.of([image_sample(1, 64)])
        assert required_cpu_nodes(cost, batch, 100.0) == 1

    def test_invalid_iteration_time(self):
        with pytest.raises(ValueError):
            required_cpu_nodes(PreprocessCostModel(), BatchColumns.of([]), 0.0)
