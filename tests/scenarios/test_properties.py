"""Property-based invariants of the scenario engine.

Four families, all required by the scenario-engine contract:

1. **Goodput bound** — wall-clock can never beat the ideal (full
   cluster, no events) trajectory: ``goodput <= 1`` and effective
   throughput never exceeds ideal throughput.
2. **Monotone degradation** — for a fixed seed, shrinking the MTBF can
   only add failures and lose goodput.
3. **Replay determinism** — a scenario is a pure function of its spec:
   re-running, and replaying the recorded event trace with sampling
   disabled, both reproduce the metrics exactly.
4. **Zero-event identity** — with no events and a full sample window,
   the engine's per-iteration timings, checkpoint stalls, and MFU are
   hex-identical to a per-iteration ``simulate`` loop
   (:func:`tests.training_loop.training_loop`).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import build_simulator
from repro.core.config import DistTrainConfig
from repro.runtime.checkpoint import CheckpointConfig
from repro.scenarios import ScenarioSpec, run_scenario
from tests.scenarios.conftest import FAST_RECOVERY
from tests.training_loop import hex_loop, hex_scenario, training_loop

#: Engine runs re-plan orchestration internally; keep example counts
#: modest so the suite stays inside the tier-1 budget.
ENGINE_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

CONFIG = DistTrainConfig.preset("mllm-9b", 48, 16)


@settings(**ENGINE_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mtbf=st.one_of(st.none(), st.floats(min_value=2.0, max_value=500.0)),
    straggler_rate=st.floats(min_value=0.0, max_value=0.1),
    elastic=st.booleans(),
)
def test_goodput_never_exceeds_ideal(seed, mtbf, straggler_rate, elastic):
    spec = ScenarioSpec(
        num_iterations=80,
        checkpoint_interval=20,
        mtbf_gpu_hours=mtbf,
        straggler_rate=straggler_rate,
        elastic=elastic,
        seed=seed,
        **FAST_RECOVERY,
    )
    result = run_scenario(CONFIG, spec)
    assert result.goodput <= 1.0 + 1e-9
    assert result.effective_tokens_per_s <= result.ideal_tokens_per_s * (
        1.0 + 1e-9
    )
    assert result.total_seconds >= result.ideal_seconds * (1.0 - 1e-9)
    assert 0.0 <= result.availability <= 1.0


@settings(**ENGINE_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_failures_only_hurt_goodput(seed):
    """Per-seed guarantees: a failure-free run upper-bounds every run
    with failures (downtime and replay are purely additive), and the
    failure count never shrinks as MTBF drops (arrival times scale
    down, so every prefix gains failures)."""
    ladder = [None, 200.0, 20.0, 5.0]
    results = [
        run_scenario(
            CONFIG,
            ScenarioSpec(
                num_iterations=100,
                checkpoint_interval=25,
                mtbf_gpu_hours=mtbf,
                seed=seed,
                **FAST_RECOVERY,
            ),
        )
        for mtbf in ladder
    ]
    failures = [r.num_failures for r in results]
    assert failures == sorted(failures)
    calm = results[0]
    assert calm.num_failures == 0
    for result in results[1:]:
        if result.num_failures:
            assert result.goodput < calm.goodput
            assert result.total_seconds > calm.total_seconds
        else:
            assert result.goodput == calm.goodput


def test_monotone_degradation_as_mtbf_shrinks():
    """Mean goodput over a seed panel degrades monotonically as MTBF
    drops (per-seed goodput is *not* monotone — a failure landing just
    after a checkpoint is cheaper than one landing just before — so the
    paper-style claim is statistical)."""
    ladder = [None, 15.0, 5.0, 1.5]
    seeds = range(10)
    mean_goodput = []
    mean_failures = []
    for mtbf in ladder:
        results = [
            run_scenario(
                CONFIG,
                ScenarioSpec(
                    num_iterations=100,
                    checkpoint_interval=25,
                    mtbf_gpu_hours=mtbf,
                    seed=seed,
                    **FAST_RECOVERY,
                ),
            )
            for seed in seeds
        ]
        mean_goodput.append(np.mean([r.goodput for r in results]))
        mean_failures.append(np.mean([r.num_failures for r in results]))
    assert mean_failures == sorted(mean_failures)
    assert mean_failures[-1] > mean_failures[0]
    for better, worse in zip(mean_goodput, mean_goodput[1:]):
        assert worse < better


@settings(**ENGINE_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    elastic=st.booleans(),
)
def test_replay_is_deterministic(seed, elastic):
    spec = ScenarioSpec(
        num_iterations=60,
        checkpoint_interval=15,
        mtbf_gpu_hours=8.0,
        straggler_rate=0.05,
        elastic=elastic,
        seed=seed,
        **FAST_RECOVERY,
    )
    first = run_scenario(CONFIG, spec)
    again = run_scenario(CONFIG, spec)
    assert first.metrics() == again.metrics()
    assert np.array_equal(first.iteration_times, again.iteration_times)
    assert first.events.events == again.events.events

    # An explicit trace *replaces* sampling: replaying the recorded
    # events reproduces the run even with the original MTBF and
    # straggler rate still set...
    replayed = run_scenario(CONFIG, spec.with_(events=first.events))
    assert replayed.metrics() == first.metrics()
    # ...and, equivalently, with sampling explicitly zeroed out.
    stripped = run_scenario(
        CONFIG,
        spec.with_(
            mtbf_gpu_hours=None, straggler_rate=0.0, events=first.events
        ),
    )
    assert stripped.metrics() == first.metrics()


@settings(max_examples=6, deadline=None)
@given(
    num_iterations=st.integers(min_value=1, max_value=5),
    interval=st.integers(min_value=1, max_value=3),
    data_seed=st.integers(min_value=0, max_value=50),
)
def test_zero_event_scenario_matches_training_run(
    num_iterations, interval, data_seed
):
    """No events + full sample window == the per-iteration training
    loop, bit for bit: per-iteration times, checkpoint stalls, and mean
    MFU."""
    config = CONFIG.with_(data_seed=data_seed)
    spec = ScenarioSpec(
        num_iterations=num_iterations,
        sample_iterations=num_iterations,
        checkpoint_interval=interval,
    )
    scenario = run_scenario(config, spec)
    reference = training_loop(
        config,
        build_simulator(config),
        num_iterations,
        CheckpointConfig(interval_iterations=interval),
    )
    assert hex_scenario(scenario) == hex_loop(*reference)
