"""Flight-recorder overhead benchmark: tracing a full dynamic scenario.

Two contracts, one workload (the same 1000-iteration elastic-failure
scenario as ``test_scenario_1000_iterations``):

* **Disabled path** — the instrumentation hooks compiled into the
  kernel/orchestration/fleet hot paths must be invisible while
  observability is off. That is enforced by the regression guard
  itself: ``test_scenario_1000_iterations`` and
  ``test_fleet_8jobs_1000_iterations`` run with observability disabled
  and are tracked in ``baseline.json``, so hook cost beyond the 20%
  envelope fails CI.
* **Enabled path** — this benchmark pins the cost of actually flying
  the recorder: a traced+metered run must stay in the same seconds
  class (and is tracked in the baseline too), and must reproduce the
  untraced results exactly.
"""

import pytest

from benchmarks.conftest import check_budget
from repro.core.api import BATCH_CACHE
from repro.core.config import DistTrainConfig
from repro.core.reports import format_table
from repro.fleet.job import STATE_CACHE
from repro.obs import METRICS, instrument
from repro.orchestration.plancache import PLAN_CACHE
from repro.scenarios import ScenarioSpec, run_scenario

#: Heavyweight scenario evaluations; deselected from the default tier-1
#: run (see pyproject addopts) and exercised by CI's full benchmark job.
pytestmark = pytest.mark.slow

CONFIG = DistTrainConfig.preset("mllm-9b", 48, 16)

#: Identical to test_scenario_engine.DYNAMIC_SPEC so the traced and
#: untraced tracked benchmarks measure the same workload.
DYNAMIC_SPEC = ScenarioSpec(
    num_iterations=1000,
    checkpoint_interval=50,
    mtbf_gpu_hours=25.0,
    straggler_rate=0.02,
    elastic=True,
    repair_seconds=600.0,
    seed=3,
)


def run_traced_scenario():
    # Cold start, same as the untraced benchmark: orchestration solves
    # (full cluster plus every elastic re-solve), the batch draw and
    # cluster-state builds are part of the measured time.
    PLAN_CACHE.clear()
    STATE_CACHE.clear()
    BATCH_CACHE.clear()
    with instrument.session(trace=True, metrics=True) as tracer:
        result = run_scenario(CONFIG, DYNAMIC_SPEC)
        snapshot = METRICS.snapshot()
    return result, tracer, snapshot


def test_obs_overhead(benchmark):
    result, tracer, snapshot = benchmark.pedantic(
        run_traced_scenario, rounds=1, iterations=1
    )
    spans = sum(1 for r in tracer.records if r["type"] == "span")
    events = len(tracer.records) - spans
    print()
    print(format_table(
        ["metric", "value"],
        [
            ["spans recorded", spans],
            ["events recorded", events],
            ["counters", len(snapshot["counters"])],
            ["kernel evaluations", snapshot["counters"]
             .get("kernel.evaluations", 0)],
            ["goodput", f"{result.goodput * 100:.1f}%"],
        ],
        title="traced 1000-iteration dynamic scenario (mllm-9b @ 48):",
    ))
    # Same seconds-class acceptance bar as the untraced benchmark.
    check_budget(benchmark, 10.0)
    # The recorder genuinely flew...
    assert spans > 0
    assert snapshot["counters"]["kernel.evaluations"] > 0
    assert snapshot["counters"]["orch.plans"] >= 1
    # ...without perturbing the simulation: the traced run is exactly
    # the untraced run.
    untraced = run_scenario(CONFIG, DYNAMIC_SPEC)
    assert untraced.metrics() == result.metrics()
    assert (untraced.iteration_times.tobytes()
            == result.iteration_times.tobytes())
    # The flight record itself exports cleanly.
    jsonl = tracer.to_jsonl(metrics=snapshot)
    assert jsonl.startswith('{"events"')
    assert jsonl.count("\n") == spans + events + 2  # meta + metrics
