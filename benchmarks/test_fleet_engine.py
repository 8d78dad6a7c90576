"""Fleet-engine benchmarks: multi-tenant scheduling at scale.

The tracked benchmark pins this PR's acceptance criterion: an 8-job,
1000-iteration-per-job fair-share fleet — failures, elastic shrinking,
scheduler resizes, and all orchestration solves from a cold plan cache
— completes end-to-end in a couple of seconds, because every tenant
runs on the memoized batched-kernel job core and co-tenant replans
amortize through the shared plan cache. A non-tracked assertion holds
all three policies to the same budget, and the slow-marked policy x
job-mix grid sweeps the scheduler design space through the campaign
engine like any other experiment.
"""

import numpy as np
import pytest

from benchmarks.conftest import check_budget
from repro.core.config import DistTrainConfig
from repro.core.reports import format_table
from repro.experiments import Axis, CampaignRunner, SweepSpec
from repro.fleet import FleetSpec, run_fleet
from repro.orchestration.plancache import PLAN_CACHE
from repro.scenarios import ScenarioSpec

#: Heavyweight fleet evaluations; deselected from the default tier-1
#: run (see pyproject addopts) and exercised by CI's full benchmark job.
pytestmark = pytest.mark.slow

JOB_CONFIG = DistTrainConfig.preset("mllm-9b", 48, 16)

#: Each tenant's dynamics: real failures, elastic shrinking, repairs.
JOB_SCENARIO = ScenarioSpec(
    num_iterations=1000,
    checkpoint_interval=50,
    mtbf_gpu_hours=60.0,
    elastic=True,
    repair_seconds=900.0,
)


def fleet_spec(policy: str) -> FleetSpec:
    """8 x (48-GPU demand) on 96 shared GPUs: 4x oversubscribed."""
    return FleetSpec.homogeneous(
        JOB_CONFIG,
        cluster_gpus=96,
        num_jobs=8,
        job_gpus=48,
        arrival_spacing_s=200.0,
        priorities=(1, 0),
        policy=policy,
        scenario=JOB_SCENARIO,
    )


def run_fair_share_fleet():
    # Cold start: include every orchestration solve (all tenants, all
    # slice sizes the scheduler visits) in the measured time.
    PLAN_CACHE.clear()
    return run_fleet(fleet_spec("fair-share"))


def test_fleet_8jobs_1000_iterations(benchmark):
    result = benchmark.pedantic(run_fair_share_fleet, rounds=1, iterations=1)
    metrics = result.metrics()
    print()
    print(format_table(
        ["metric", "value"],
        [
            ["fleet goodput", f"{metrics['fleet_goodput'] * 100:.1f}%"],
            ["utilization", f"{metrics['utilization'] * 100:.1f}%"],
            ["mean JCT", f"{metrics['mean_jct_seconds']:.0f} s"],
            ["failures", int(metrics["num_failures"])],
            ["re-orchestrations", int(metrics["num_replans"])],
            ["plan cache (hit/miss)",
             f"{result.plan_cache_hits}/{result.plan_cache_misses}"],
        ],
        title="8 x 1000-iteration jobs, fair-share on 96 shared GPUs:",
    ))
    # Acceptance criterion: end-to-end under ~2 s at nominal machine
    # speed (the tracked guard enforces the calibrated budget; this
    # bound only catches order-of-magnitude breakage on any machine).
    check_budget(benchmark, 10.0)
    # The fleet must actually contend and adapt...
    assert len(result.records) == 8
    assert metrics["num_failures"] > 0
    assert metrics["num_replans"] > 0
    assert 0.0 < metrics["fleet_goodput"] <= 1.0
    assert 0.0 < metrics["utilization"] <= 1.0
    # ...amortize co-tenant planning through the shared cache...
    assert result.plan_cache_hits > result.plan_cache_misses
    # ...and stay seed-deterministic across repeated runs.
    again = run_fleet(fleet_spec("fair-share"))
    assert again.metrics() == metrics


@pytest.mark.parametrize("policy", ["fifo", "fair-share", "priority"])
def test_every_policy_meets_the_budget(policy, benchmark):
    """All three policies clear the 8-job x 1000-iteration workload
    within the same budget, from a cold plan cache."""
    def run():
        PLAN_CACHE.clear()
        return run_fleet(fleet_spec(policy))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    check_budget(benchmark, 10.0)
    assert all(r.result.num_iterations == 1000 for r in result.records)
    if policy == "priority":
        assert result.total_preemptions > 0


def test_fleet_policy_job_mix_grid(campaign_cache):
    """Policy x job-mix sweep through the campaign engine: the
    scheduler design space as an experiment grid."""
    spec = SweepSpec(
        name="fleet-policy-mix-grid",
        base={
            "model": "mllm-9b", "gpus": 96, "gbs": 16,
            "fleet_job_gpus": 48, "fleet_arrival_spacing": 150.0,
            "fleet_priorities": (1, 0),
            "scenario_iterations": 400, "mtbf": 60.0, "elastic": True,
        },
        axes=[
            Axis("fleet_policy", ["fifo", "fair-share", "priority"]),
            Axis("fleet_jobs", [4, 8]),
        ],
    )
    campaign = CampaignRunner(spec, cache=campaign_cache).run()
    assert campaign.failed == 0
    frame = campaign.frame().ok()
    assert len(frame) == 6

    rows = []
    for policy in ("fifo", "fair-share", "priority"):
        for jobs in (4, 8):
            row = frame.filter(fleet_policy=policy, fleet_jobs=jobs)
            rows.append([
                policy, jobs,
                f"{row.value('fleet_goodput') * 100:.1f}%",
                f"{row.value('utilization') * 100:.1f}%",
                f"{row.value('mean_jct_seconds'):.0f}",
                f"{row.value('mean_queue_seconds'):.0f}",
                int(row.value("preemptions")),
            ])
    print()
    print(format_table(
        ["policy", "jobs", "goodput", "util", "mean JCT", "mean queue",
         "preempt"],
        rows,
        title="policy x job mix on 96 shared GPUs (400 iters/job):",
    ))
    # Fair-share trades JCT for zero queueing; FIFO queues instead of
    # shrinking. Both structural facts must hold at every mix.
    for jobs in (4, 8):
        fair = frame.filter(fleet_policy="fair-share", fleet_jobs=jobs)
        fifo = frame.filter(fleet_policy="fifo", fleet_jobs=jobs)
        assert fair.value("mean_queue_seconds") <= (
            fifo.value("mean_queue_seconds")
        )
        assert fifo.value("preemptions") == 0
