"""The fleet engine's batching reorders *work*, never *results*.

Shared cluster states are pure functions of ``(task, size, samples)``
and fused cross-tenant pricing pre-fills the same memo entries each
tenant's own step would have computed. Whole-result identity is pinned
by the golden fleet fixtures (``tests/fleet/test_golden_fleet.py``);
the unit tests here pin the pieces (prepare/price/commit split, fused
pricing memo semantics).

Alongside ride the fleet-clock regression tests: the wedged-fleet
reschedule must replay the *latest* decision clock (completions
included, not just arrivals), and the ``ideal_demand_seconds``
walk-down must price an infeasible capped demand at the largest
feasible size below it.
"""

from typing import Dict, List

import pytest

from repro.cluster.allocation import GPUAllocator
from repro.core.config import DistTrainConfig
from repro.fleet import FleetEngine, FleetJobSpec, FleetSpec
from repro.fleet.job import (
    STATE_CACHE,
    JobSimulator,
    price_pending_steps,
)
from repro.fleet.policies import JobView, SchedulingPolicy
from repro.scenarios import ScenarioSpec

from tests.fleet.conftest import FAST_RECOVERY
from tests.fleet.golden.regen import cold_run
from tests.fleet.test_fleet_equivalence import snapshot


def fleet_snapshot(result):
    """Everything a FleetResult must reproduce across a round trip."""
    return (
        result.policy,
        result.total_gpus,
        result.metrics(),
        [
            (
                r.name,
                r.demand_gpus,
                r.priority,
                r.arrival_s,
                r.start_s,
                r.completion_s,
                r.queue_seconds,
                r.preemptions,
                r.ideal_demand_seconds,
                snapshot(r.result),
            )
            for r in result.records
        ],
    )


# --------------------------------------------------------------------- #
# prepare_step / price / commit_step
# --------------------------------------------------------------------- #
def test_prepare_price_commit_is_step(job_config):
    """Driving a job via the split (gather, fused-price, commit) walks
    the identical timeline as plain step(), including straggler ticks,
    failures, and elastic resizes."""
    scenario = ScenarioSpec(
        num_iterations=60,
        checkpoint_interval=15,
        mtbf_gpu_hours=6.0,
        straggler_rate=0.2,
        elastic=True,
        repair_seconds=300.0,
        seed=11,
        **FAST_RECOVERY,
    )
    # The reference walks first on a state of its own, pricing every
    # step itself; the split walk then builds a fresh state whose memo
    # it pre-fills.
    STATE_CACHE.clear()
    plain = JobSimulator(job_config, scenario)
    plain.start(48)
    clocks = []
    while not plain.done:
        plain.step()
        clocks.append(plain.clock)
    STATE_CACHE.clear()
    split = JobSimulator(job_config, scenario)
    split.start(48)
    priced = 0
    steps = 0
    while not split.done:
        item = split.prepare_step()
        if item is not None:
            assert (item.sample, item.profile) not in item.state.evaluations
            # Duplicates are deduplicated, already-memoized items skipped.
            price_pending_steps([item, item])
            assert (item.sample, item.profile) in item.state.evaluations
            assert split.prepare_step() is None  # now memoized
            priced += 1
        split.commit_step()
        assert split.clock == clocks[steps]
        steps += 1
    assert priced > 0, "scenario never exercised fused pricing"
    assert steps == len(clocks)
    assert snapshot(split.finish()) == snapshot(plain.finish())


def test_prepare_step_none_outside_running_window(job_config):
    scenario = ScenarioSpec(
        num_iterations=5, checkpoint_interval=5, **FAST_RECOVERY
    )
    sim = JobSimulator(job_config, scenario)
    assert sim.prepare_step() is None  # not started
    sim.start(48)
    while not sim.done:
        sim.step()
    assert sim.prepare_step() is None  # done


def test_prepare_step_none_while_paused(job_config):
    scenario = ScenarioSpec(
        num_iterations=20, checkpoint_interval=5, **FAST_RECOVERY
    )
    sim = JobSimulator(job_config, scenario)
    sim.start(48)
    sim.step()
    sim.preempt(sim.clock)
    assert sim.prepare_step() is None


# --------------------------------------------------------------------- #
# Wedged-fleet clock regression (stale last_decision bugfix)
# --------------------------------------------------------------------- #
class HoldbackPolicy(SchedulingPolicy):
    """Stateful policy that refuses to seat any waiter until its third
    decision round: round 1 (arrival) seats only the head job, round 2
    (that job's completion) still refuses, so the fleet wedges and the
    engine's wedged-branch reschedule (round 3) must seat the waiter at
    the *completion* clock — the decision that freed the capacity — not
    at some stale earlier arrival's.
    """

    name = "holdback"

    def __init__(self) -> None:
        self.calls = 0

    def targets(
        self, now: float, jobs: List[JobView], allocator: GPUAllocator
    ) -> Dict[str, int]:
        self.calls += 1
        out: Dict[str, int] = {}
        free = allocator.free_gpus
        for index, job in enumerate(sorted(jobs, key=lambda j: j.fifo_key)):
            if job.running:
                out[job.name] = job.allocated_gpus
            elif index == 0 or self.calls >= 3:
                grant = min(job.demand_gpus, free)
                out[job.name] = grant
                free -= grant
            else:
                out[job.name] = 0
        return out


def test_wedged_reschedule_replays_latest_decision_clock(job_config):
    scenario = ScenarioSpec(
        num_iterations=20, checkpoint_interval=5, **FAST_RECOVERY
    )
    spec = FleetSpec(
        cluster=job_config.cluster,
        jobs=[
            FleetJobSpec(name="head", config=job_config, scenario=scenario),
            FleetJobSpec(name="held", config=job_config, scenario=scenario),
        ],
        policy=HoldbackPolicy(),
    )
    # Instance policies are accepted and canonicalize by name.
    assert spec.canonical()["policy"] == "holdback"
    result = cold_run(spec)
    head, held = result.records
    assert head.completion_s > 0.0
    # The held job was seated by the wedged-branch reschedule, which
    # must run at the completion that freed the cluster — before the
    # fix it replayed the last *arrival* clock (here 0.0), granting the
    # waiter an impossible start in the past and zero queue time.
    assert held.start_s == head.completion_s
    assert held.queue_seconds == held.start_s - held.arrival_s
    assert held.completion_s > head.completion_s


def test_fleet_spec_rejects_unknown_policy_values(job_config):
    scenario = ScenarioSpec(num_iterations=5)
    with pytest.raises(ValueError, match="unknown scheduling policy"):
        FleetSpec(
            cluster=job_config.cluster,
            jobs=[FleetJobSpec(name="j", config=job_config,
                               scenario=scenario)],
            policy="shortest-job-first",
        )


# --------------------------------------------------------------------- #
# ideal_demand_seconds walk-down (infeasible capped demand bugfix)
# --------------------------------------------------------------------- #
def test_ideal_demand_walks_down_from_infeasible_cap():
    """A 72B tenant demanding 72 GPUs on a 64-GPU cluster: the capped
    demand (64) admits no feasible orchestration for this model while
    56 does, so the goodput numerator must be priced at 56 — before the
    fix it silently fell back to the ideal at the *initially granted*
    slice, flattering any job admitted on a small share."""
    big = DistTrainConfig.preset("mllm-72b", 72, 16)
    small = DistTrainConfig.preset("mllm-9b", 24, 16)
    spec = FleetSpec(
        cluster=DistTrainConfig.preset("mllm-9b", 64, 16).cluster,
        jobs=[
            FleetJobSpec(
                name="big",
                config=big,
                scenario=ScenarioSpec(
                    num_iterations=12, checkpoint_interval=6,
                    **FAST_RECOVERY,
                ),
                min_gpus=40,
            ),
            FleetJobSpec(
                name="small",
                config=small,
                scenario=ScenarioSpec(
                    num_iterations=4, checkpoint_interval=4,
                    **FAST_RECOVERY,
                ),
            ),
        ],
        policy="fair-share",
    )
    result = cold_run(spec)
    record = {r.name: r for r in result.records}["big"]
    engine = FleetEngine(spec)
    probe = engine._tenants[0].sim
    assert not probe.feasible(64), "fixture drifted: 64 became feasible"
    assert probe.feasible(56)
    # Priced at the largest feasible size below the infeasible cap...
    assert record.ideal_demand_seconds == probe.ideal_seconds_at(56)
    # ...which is *not* the per-job ideal at the granted slice: the
    # co-tenant squeezed the big job to its 40-GPU floor at admission,
    # and before the fix the fallback reported that flattered ideal.
    assert record.result.initial_gpus == 40
    assert record.ideal_demand_seconds != record.result.ideal_seconds
