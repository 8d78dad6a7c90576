"""Results do not depend on the interpreter's ``sum()``.

CPython 3.12's ``sum()`` of floats is compensated; every golden and
perfbench digest is blessed on left-to-right sums (3.10/3.11). Each case
here patches ``builtins.sum`` with an emulation of 3.12's and checks a
result that moved under it until its float sums went left to right
(``repro.numerics.fold_sum``, strided array adds).
"""

import builtins
import random
import sys

import numpy as np
import pytest

from repro.core.api import sample_batches
from repro.core.config import DistTrainConfig
from repro.pipeline.schedules import ScheduleKind
from repro.pipeline.simulator import PipelineSimulator, StageWork
from repro.preprocessing.cost import PreprocessCostModel

from tests.fleet.golden.regen import cases, cold_run, fleet_fixture
from tests.fleet.test_golden_fleet import check
from tests.scenarios.golden.regen import (
    scenario_fixture,
    scenario_microbatch4_case,
)
from tests.scenarios.test_golden_scenarios import load_fixture
from tests.summation import NATIVE, left_fold, sum312


@pytest.fixture
def compensated_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", sum312)


def test_emulation_compensates_floats_only():
    assert left_fold([1e16, 1.0, -1e16]) == 0.0
    assert sum312([1e16, 1.0, -1e16]) == 1.0
    # Ints inside the float loop are added without compensation.
    assert sum312([1e16, 1, -1e16]) == 0.0
    assert sum312([1, 2, True]) == 4 and type(sum312([1, 2])) is int
    assert sum312([]) == 0 and sum312([], 0.5) == 0.5


@pytest.mark.skipif(not NATIVE, reason="sum() is compensated from 3.12")
def test_emulation_matches_native_sum():
    rng = random.Random(0)
    draws = (
        lambda: rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-12, 12),
        lambda: rng.randint(-10**6, 10**6),
        lambda: rng.random() < 0.5,
        lambda: 0.1,
    )
    for _ in range(5000):
        values = [rng.choice(draws)() for _ in range(rng.randint(0, 30))]
        start = rng.choice([0, 0.0, 5])
        expected = sum(values, start)
        actual = sum312(values, start)
        assert actual == expected and type(actual) is type(expected), values


def test_microbatch4_scenario(compensated_sum):
    expected = load_fixture("scenario_microbatch4")
    actual = scenario_fixture(
        "scenario_microbatch4", scenario_microbatch4_case
    )
    assert actual == expected


def test_fleet_golden(compensated_sum):
    name, build = next(c for c in cases() if c[0] == "pack_steady_fair-share")
    check(name, fleet_fixture(name, cold_run(build())))


@pytest.mark.parametrize("seed", range(12))
def test_trace_busy_sums(compensated_sum, seed):
    """The trace's busy and idle sums equal the kernel's fold."""
    rng = np.random.default_rng(seed)
    p, l = 2 + seed % 4, 3 + seed % 7
    fwd = rng.uniform(0.05, 3.0, (p, l))
    bwd = rng.uniform(0.05, 5.0, (p, l))
    sim = PipelineSimulator(p, l, ScheduleKind.ONE_F_ONE_B)
    work = StageWork.from_tables(fwd, bwd, comm=float(rng.uniform(0, 0.5)))
    kernel = sim.kernel
    start, end = kernel.evaluate(
        kernel.durations_from_tables(fwd, bwd), work.comm
    )
    trace = sim.run_reference(work)
    assert kernel.bubble_fraction(start, end) == trace.bubble_fraction()
    busy = [left_fold(r.duration for r in trace.stage_records(s))
            for s in range(p)]
    assert [trace.stage_busy_time(s) for s in range(p)] == busy


def test_batch_cpu_seconds(compensated_sum):
    """paper-sweep's 9B batch, priced on the columns cached with it:
    3.12's sum() gives ``...0bfp+9``."""
    config = DistTrainConfig.preset("mllm-9b", 1296, 1920)
    batch = sample_batches(config)[0]
    assert len(batch.columns) == 1920
    seconds = PreprocessCostModel().batch_cpu_seconds(batch.columns)
    assert seconds.hex() == "0x1.9047c0485a0c2p+9"
    cost = PreprocessCostModel()
    assert left_fold(cost.sample_cpu_seconds(s) for s in batch) == seconds
