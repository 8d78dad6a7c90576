"""The fleet layer is transparent for a single uncontended job.

The JobSimulator extraction and the FleetEngine's scheduling machinery
must not perturb a single byte of a lone job's physics: a one-job fleet
with no contention is the standalone ``run_scenario`` timeline —
metrics, per-iteration trajectories, realized event trace, and even the
plan hit/miss counters. Pinned three ways:

1. against a live ``run_scenario`` over a hypothesis-sampled space
   of dynamics, under every scheduling policy;
2. against the checked-in golden canonical scenario fixture (hex-exact
   floats — a single ULP of drift fails);
3. on a warm re-run, which must change nothing, counters included.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet import FleetEngine, FleetJobSpec, FleetSpec
from repro.scenarios import ScenarioSpec, run_scenario

from tests.fleet.conftest import FAST_RECOVERY
from tests.fleet.golden.regen import cold_run
from tests.scenarios.golden.regen import GOLDEN_DIR, scenario_case

ENGINE_SETTINGS = dict(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def snapshot(result):
    """Everything a lone tenant's physics must reproduce, bit for bit."""
    return (
        result.metrics(),
        result.iteration_times.tobytes(),
        result.mfu_trajectory.tobytes(),
        [repr(e) for e in result.events],
        result.plan_cache_hits,
        result.plan_cache_misses,
        result.num_iterations,
        result.preemptions,
    )


def solo_fleet(config, scenario, policy):
    return FleetSpec(
        cluster=config.cluster,
        jobs=[FleetJobSpec(name="solo", config=config, scenario=scenario)],
        policy=policy,
    )


@settings(**ENGINE_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mtbf=st.one_of(st.none(), st.floats(min_value=2.0, max_value=300.0)),
    straggler_rate=st.floats(min_value=0.0, max_value=0.08),
    elastic=st.booleans(),
    policy=st.sampled_from(["fifo", "fair-share", "priority"]),
)
def test_single_job_fleet_is_scenario_engine(
    job_config, seed, mtbf, straggler_rate, elastic, policy
):
    spec = ScenarioSpec(
        num_iterations=60,
        checkpoint_interval=15,
        mtbf_gpu_hours=mtbf,
        straggler_rate=straggler_rate,
        elastic=elastic,
        repair_seconds=300.0,
        seed=seed,
        **FAST_RECOVERY,
    )
    reference = snapshot(run_scenario(job_config, spec))
    fleet = FleetEngine(solo_fleet(job_config, spec, policy)).run()
    assert len(fleet.records) == 1
    record = fleet.records[0]
    assert snapshot(record.result) == reference
    assert record.queue_seconds == 0.0
    assert record.start_s == 0.0


@pytest.mark.parametrize("policy", ["fifo", "fair-share", "priority"])
def test_single_job_fleet_matches_golden_scenario(policy):
    """The canonical golden fixture, reproduced through the fleet."""
    fixture = json.loads(
        (GOLDEN_DIR / "scenario_canonical.json").read_text()
    )
    config, spec = scenario_case()
    result = FleetEngine(solo_fleet(config, spec, policy)).run()
    scenario = result.records[0].result
    metrics = {
        key: (value.hex() if isinstance(value, float) else value)
        for key, value in scenario.metrics().items()
    }
    assert metrics == fixture["metrics"]
    assert [
        float(t).hex() for t in scenario.iteration_times
    ] == fixture["iteration_times"]
    assert [
        float(m).hex() for m in scenario.mfu_trajectory
    ] == fixture["mfu_trajectory"]
    assert scenario.events.to_dicts() == fixture["events"]


def test_late_arrival_replays_traces_job_relative(job_config):
    """A trace recorded standalone reproduces inside a fleet even when
    the job is seated late: failure times are job-relative, so the
    physics (metrics, trajectories) are arrival-invariant."""
    from repro.scenarios.events import EventTrace, FailureEvent

    spec = ScenarioSpec(
        num_iterations=50,
        checkpoint_interval=10,
        events=EventTrace([FailureEvent(time_s=30.0, gpus_lost=8)]),
        elastic=True,
        repair_seconds=40.0,
        **FAST_RECOVERY,
    )
    standalone = run_scenario(job_config, spec)
    fleet = FleetEngine(
        FleetSpec(
            cluster=job_config.cluster,
            jobs=[
                FleetJobSpec(
                    name="late", config=job_config, scenario=spec,
                    arrival_s=600.0,
                )
            ],
            policy="fifo",
        )
    ).run()
    record = fleet.records[0]
    assert record.start_s == 600.0
    late = record.result
    assert late.num_failures == standalone.num_failures == 1
    assert late.num_replans == standalone.num_replans
    assert late.replayed_iterations == standalone.replayed_iterations
    # Per-iteration physics are exact; clock-derived totals differ only
    # by float non-associativity of the 600 s offset (~1e-12 relative).
    assert np.array_equal(
        late.iteration_times, standalone.iteration_times
    )
    assert np.array_equal(
        late.mfu_trajectory, standalone.mfu_trajectory
    )
    reference = standalone.metrics()
    for key, value in late.metrics().items():
        assert value == pytest.approx(reference[key], rel=1e-9), key


def test_warm_rerun_changes_nothing(job_config):
    spec = ScenarioSpec(
        num_iterations=50,
        checkpoint_interval=10,
        mtbf_gpu_hours=4.0,
        elastic=True,
        repair_seconds=200.0,
        seed=9,
        **FAST_RECOVERY,
    )
    fleet = solo_fleet(job_config, spec, "fair-share")
    cold = cold_run(fleet)
    warm = FleetEngine(fleet).run()
    assert warm.to_json() == cold.to_json()
