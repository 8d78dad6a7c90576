"""Property-based tests for the preprocessing subsystem."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.sample import BatchColumns
from repro.data.synthetic import SyntheticMultimodalDataset
from repro.preprocessing.cost import PreprocessCostModel
from repro.preprocessing.disaggregated import DisaggregatedPreprocessing
from repro.preprocessing.transfer import TransferModel


@settings(max_examples=20, deadline=None)
@given(
    cores_small=st.integers(min_value=2, max_value=32),
    multiplier=st.integers(min_value=2, max_value=16),
)
def test_more_cores_never_more_stall(cores_small, multiplier):
    batch = BatchColumns.of(SyntheticMultimodalDataset(seed=0).take(16))

    def overhead(cores):
        model = DisaggregatedPreprocessing(
            cost=PreprocessCostModel(),
            transfer=TransferModel(),
            cpu_nodes=1,
            cores_per_node=cores,
        )
        return model.exposed_overhead(batch, iteration_time=2.0)

    assert overhead(cores_small * multiplier) <= overhead(cores_small) + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cost_model_additivity(seed):
    """Batch cost equals the sum of per-sample costs; all positive."""
    dataset = SyntheticMultimodalDataset(seed=seed)
    samples = dataset.take(6)
    cost = PreprocessCostModel()
    total = cost.batch_cpu_seconds(BatchColumns.of(samples))
    assert total == pytest.approx(
        sum(cost.sample_cpu_seconds(s) for s in samples)
    )
    assert all(cost.sample_cpu_seconds(s) > 0 for s in samples)
