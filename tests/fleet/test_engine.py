"""Behavioral tests of the multi-tenant fleet engine."""

import pytest

from repro.cluster.cluster import make_cluster
from repro.core.api import simulate_fleet
from repro.fleet import FleetEngine, FleetJobSpec, FleetSpec, run_fleet
from repro.fleet.engine import FleetSchedulingError
from repro.orchestration.plancache import PLAN_CACHE
from repro.scenarios import ScenarioSpec

from tests.fleet.conftest import FAST_RECOVERY

CALM = ScenarioSpec(num_iterations=40)


def homogeneous(
    config, policy, num_jobs=4, cluster_gpus=96, spacing=25.0,
    scenario=CALM, priorities=(0,), job_gpus=48,
):
    return FleetSpec.homogeneous(
        config,
        cluster_gpus=cluster_gpus,
        num_jobs=num_jobs,
        job_gpus=job_gpus,
        arrival_spacing_s=spacing,
        priorities=priorities,
        policy=policy,
        scenario=scenario,
    )


class TestRepeatedRuns:
    def test_second_run_of_one_engine_matches_the_first(self, job_config):
        """Tenant scheduling state is per run: before the fix the second
        run kept the first run's queue times and reported them doubled."""
        engine = FleetEngine(homogeneous(job_config, "fifo"))
        first = engine.run()
        second = engine.run()
        assert second.metrics() == first.metrics()
        queued = [r.queue_seconds for r in first.records]
        assert any(q > 0.0 for q in queued)
        assert [r.queue_seconds for r in second.records] == queued
        assert [r.start_s for r in second.records] == [
            r.start_s for r in first.records
        ]

    def test_second_run_of_one_engine_serializes_identically(
        self, job_config
    ):
        """Plan counters count against the run, so the plans the
        tenants solved in the first run count as misses again."""
        # A cold first run: the second must repeat its counters.
        PLAN_CACHE.clear()
        engine = FleetEngine(homogeneous(job_config, "fair-share", 3))
        first = engine.run()
        assert (first.plan_cache_hits, first.plan_cache_misses) == (7, 2)
        assert engine.run().to_json() == first.to_json()

    def test_identical_simulate_fleet_calls_serialize_identically(
        self, job_config
    ):
        """A plan the process cache already holds is still the run's
        miss the first time the run needs it."""
        spec = homogeneous(job_config, "fair-share", 3)
        PLAN_CACHE.clear()
        first = simulate_fleet(spec)
        assert (first.plan_cache_hits, first.plan_cache_misses) == (7, 2)
        assert simulate_fleet(spec).to_json() == first.to_json()


class TestFIFOExclusive:
    def test_admits_in_arrival_order_and_queues_overflow(self, job_config):
        result = run_fleet(homogeneous(job_config, "fifo"))
        records = result.records
        # Two 48-GPU jobs fill the 96-GPU cluster; the rest queue.
        assert records[0].queue_seconds == 0.0
        assert records[1].queue_seconds == 0.0
        assert records[2].queue_seconds > 0.0
        assert records[3].queue_seconds > 0.0
        # FIFO: starts are ordered like arrivals.
        starts = [r.start_s for r in records]
        assert starts == sorted(starts)
        # Exclusive: nobody ever ran on less than full demand.
        assert all(r.result.min_gpus == 48 for r in records)
        assert result.total_preemptions == 0

    def test_demand_capped_at_cluster(self, job_config):
        # A job demanding more than the cluster runs capped, not wedged.
        spec = homogeneous(
            job_config, "fifo", num_jobs=1, cluster_gpus=24, job_gpus=48
        )
        result = run_fleet(spec)
        assert result.records[0].result.initial_gpus == 24

    def test_over_demand_job_waits_for_the_cap_not_a_sliver(self):
        # An over-demand job on a busy cluster waits for its capped
        # demand (the whole cluster) rather than being seated forever
        # on whatever sliver happens to be free at arrival.
        from repro.core.config import DistTrainConfig

        small = DistTrainConfig.preset("mllm-9b", 16, 16)
        big = DistTrainConfig.preset("mllm-9b", 48, 16)
        spec = FleetSpec(
            cluster=make_cluster(24),
            jobs=[
                FleetJobSpec(name="small", config=small,
                             scenario=ScenarioSpec(num_iterations=20)),
                FleetJobSpec(name="big", config=big,
                             scenario=ScenarioSpec(num_iterations=20),
                             arrival_s=5.0),
            ],
            policy="fifo",
        )
        result = run_fleet(spec)
        by_name = {r.name: r for r in result.records}
        assert by_name["big"].queue_seconds > 0.0
        assert by_name["big"].start_s >= by_name["small"].completion_s
        assert by_name["big"].result.initial_gpus == 24


class TestFairShare:
    def test_no_contention_means_full_demand(self, job_config):
        result = run_fleet(
            homogeneous(job_config, "fair-share", num_jobs=2, spacing=0.0)
        )
        assert all(r.result.initial_gpus == 48 for r in result.records)
        assert all(r.queue_seconds == 0.0 for r in result.records)

    def test_contention_shrinks_shares_nobody_queues(self, job_config):
        result = run_fleet(homogeneous(job_config, "fair-share"))
        # Everyone starts immediately on a shrunken share...
        assert all(r.queue_seconds == 0.0 for r in result.records)
        # ...and early tenants were resized down when later ones arrived
        # (4 x 48 demanded on 96 GPUs -> 24 each at full contention).
        assert min(r.result.min_gpus for r in result.records) <= 24
        assert result.total_replans > 0

    def test_shrink_never_goes_below_the_declared_floor(self, job_config):
        # min_gpus is a floor the scheduler must honor: even when the
        # fair-share budget leaves a tenant a zero target, it parks at
        # its floor instead of being squeezed to one node.
        spec = FleetSpec(
            cluster=make_cluster(96),
            jobs=[
                FleetJobSpec(
                    name="guarded", config=job_config, min_gpus=24,
                    scenario=ScenarioSpec(num_iterations=80),
                ),
                FleetJobSpec(
                    name="late-big", config=job_config,
                    scenario=ScenarioSpec(num_iterations=40),
                    arrival_s=10.0,
                ),
                FleetJobSpec(
                    name="late-big2", config=job_config,
                    scenario=ScenarioSpec(num_iterations=40),
                    arrival_s=12.0,
                ),
            ],
            policy="fair-share",
        )
        result = run_fleet(spec)
        by_name = {r.name: r for r in result.records}
        assert by_name["guarded"].result.min_gpus >= 24

    def test_completions_release_capacity_to_survivors(self, job_config):
        result = run_fleet(
            homogeneous(
                job_config, "fair-share", num_jobs=3, spacing=0.0,
                scenario=ScenarioSpec(num_iterations=30),
            )
        )
        # The last finisher re-grows after its co-tenants leave.
        last = max(result.records, key=lambda r: r.completion_s)
        assert last.result.final_gpus > last.result.min_gpus


class TestPriorityPreemptive:
    def test_high_priority_preempts_low(self, job_config):
        result = run_fleet(
            homogeneous(
                job_config, "priority", num_jobs=4, spacing=25.0,
                priorities=(0, 1),  # odd arrivals outrank even ones
            )
        )
        by_name = {r.name: r for r in result.records}
        high = [by_name["job01"], by_name["job03"]]
        low = [by_name["job00"], by_name["job02"]]
        assert all(r.queue_seconds == 0.0 for r in high)
        assert result.total_preemptions >= 1
        assert sum(r.preemptions for r in low) == result.total_preemptions
        # Preempted work is replayed: the low tenants still finish all
        # their iterations.
        assert all(
            r.result.num_iterations == CALM.num_iterations
            for r in result.records
        )

    def test_low_priority_shrinks_instead_of_starving_high(self, job_config):
        # 96-GPU cluster: a 64-demand low-priority tenant must shrink
        # to 48 when a 48-demand high-priority job arrives — the high
        # job gets its full demand, not just the leftover free pool.
        from repro.core.config import DistTrainConfig

        low_config = DistTrainConfig.preset("mllm-9b", 64, 16)
        spec = FleetSpec(
            cluster=make_cluster(96),
            jobs=[
                FleetJobSpec(name="low", config=low_config, priority=0,
                             scenario=ScenarioSpec(num_iterations=60)),
                FleetJobSpec(name="high", config=job_config, priority=1,
                             scenario=ScenarioSpec(num_iterations=30),
                             arrival_s=10.0),
            ],
            policy="priority",
        )
        result = run_fleet(spec)
        by_name = {r.name: r for r in result.records}
        assert by_name["high"].queue_seconds == 0.0
        assert by_name["high"].result.initial_gpus == 48
        assert by_name["low"].preemptions == 0  # shrunk, not killed
        assert by_name["low"].result.min_gpus == 48
        assert by_name["low"].result.num_replans >= 1

    def test_preemption_rolls_back_to_durable_checkpoint(self, job_config):
        result = run_fleet(
            homogeneous(
                job_config, "priority", num_jobs=2, spacing=30.0,
                priorities=(0, 1), cluster_gpus=48,
                scenario=ScenarioSpec(
                    num_iterations=40, checkpoint_interval=10
                ),
            )
        )
        preempted = result.records[0]
        assert preempted.preemptions == 1
        assert preempted.result.replayed_iterations > 0
        assert preempted.result.lost_seconds > 0


class TestAccountingAndMetrics:
    def test_allocator_is_empty_after_run(self, job_config):
        engine = FleetEngine(homogeneous(job_config, "fair-share"))
        engine.run()
        assert engine.allocator.free_gpus == engine.allocator.total_gpus
        assert engine.allocator.owners() == []

    def test_allocator_stays_consistent_under_failures(self, job_config):
        engine = FleetEngine(
            homogeneous(
                job_config, "fair-share",
                scenario=ScenarioSpec(
                    num_iterations=60, mtbf_gpu_hours=20.0, elastic=True,
                    repair_seconds=150.0, **FAST_RECOVERY,
                ),
            )
        )
        result = engine.run()
        assert sum(r.result.num_failures for r in result.records) > 0
        assert engine.allocator.free_gpus == engine.allocator.total_gpus

    def test_scheduler_resize_releases_capacity_under_repair(
        self, job_config
    ):
        # Job A (demand 96) loses a node elastically; while its repair
        # is pending, job B arrives and fair-share shrinks A. The
        # resize supersedes A's internal re-growth, so the under-repair
        # node returns to the shared pool instead of idling reserved —
        # B gets its full fair share immediately.
        from repro.core.config import DistTrainConfig
        from repro.scenarios.events import EventTrace, FailureEvent

        big = DistTrainConfig.preset("mllm-9b", 96, 16)
        spec = FleetSpec(
            cluster=make_cluster(96),
            jobs=[
                FleetJobSpec(
                    name="a", config=big,
                    scenario=ScenarioSpec(
                        num_iterations=2000, elastic=True,
                        events=EventTrace(
                            [FailureEvent(time_s=10.0, gpus_lost=8)]
                        ),
                        repair_seconds=1e8, **FAST_RECOVERY,
                    ),
                ),
                FleetJobSpec(
                    name="b", config=job_config,
                    scenario=ScenarioSpec(num_iterations=50),
                    arrival_s=300.0,
                ),
            ],
            policy="fair-share",
        )
        engine = FleetEngine(spec)
        result = engine.run()
        by_name = {r.name: r for r in result.records}
        # B's fair share of 96 is 48; without the repair release it
        # would stay capped at 40 for its whole life (8 GPUs stranded
        # in repair until A completes — long after B).
        assert by_name["b"].result.final_gpus == 48
        assert by_name["b"].completion_s < by_name["a"].completion_s
        assert engine.allocator.free_gpus == engine.allocator.total_gpus

    def test_metrics_surface(self, job_config):
        result = run_fleet(homogeneous(job_config, "fifo", num_jobs=2))
        metrics = result.metrics()
        for key in (
            "fleet_goodput", "utilization", "makespan_seconds",
            "mean_jct_seconds", "max_jct_seconds", "mean_queue_seconds",
            "num_jobs", "num_failures", "num_replans", "preemptions",
            "fleet_tokens_per_s", "mean_goodput", "mean_mfu", "num_gpus",
        ):
            assert key in metrics
            assert isinstance(metrics[key], float)
        assert 0.0 < metrics["utilization"] <= 1.0
        assert 0.0 < metrics["fleet_goodput"] <= 1.0

    def test_cotenant_plans_amortize_through_shared_cache(self, job_config):
        result = run_fleet(
            homogeneous(job_config, "fifo", num_jobs=3, spacing=0.0,
                        cluster_gpus=144)
        )
        # Identical tasks at the same size: one solve, the rest hit.
        assert result.plan_cache_misses == 1
        assert result.plan_cache_hits >= 2

    def test_infeasible_fleet_raises_scheduling_error(self):
        # A job whose floor exceeds the whole cluster can never be
        # seated: the engine reports the deadlock instead of spinning.
        from repro.core.config import DistTrainConfig

        big = DistTrainConfig.preset("mllm-9b", 96, 16)
        jobs = [
            FleetJobSpec(
                name="big",
                config=big,
                scenario=ScenarioSpec(num_iterations=2000),
                min_gpus=96,
            )
        ]
        spec = FleetSpec(
            cluster=make_cluster(48), jobs=jobs, policy="fifo"
        )
        with pytest.raises(FleetSchedulingError, match="deadlock"):
            FleetEngine(spec).run()

    def test_floor_above_demand_rejected_at_spec_time(self, job_config):
        # min_gpus > demand could never be satisfied by any grant; it
        # is a spec error, not a runtime deadlock.
        with pytest.raises(ValueError, match="exceeds the job's demand"):
            FleetJobSpec(
                name="broken", config=job_config,
                scenario=ScenarioSpec(), min_gpus=64,
            )


class TestDeadlinesAndSLO:
    def uncontended(self, job_config, **job_kwargs):
        spec = FleetSpec(
            cluster=make_cluster(96),
            jobs=[
                FleetJobSpec(
                    name="a", config=job_config, scenario=CALM,
                    **job_kwargs,
                )
            ],
            policy="fifo",
        )
        return run_fleet(spec).records[0]

    def test_no_deadline_means_full_attainment(self, job_config):
        result = run_fleet(homogeneous(job_config, "fifo", num_jobs=2))
        assert result.slo_attainment == 1.0
        assert result.deadline_misses == 0
        assert result.metrics()["slo_jobs"] == 0.0
        assert all(r.deadline_met is None for r in result.records)

    def test_generous_slo_is_met_when_uncontended(self, job_config):
        record = self.uncontended(job_config, slo_factor=2.0)
        # Alone on the cluster the job runs at its ideal: any SLO
        # factor above 1 must be met.
        assert record.deadline_s is not None
        assert record.deadline_met is True
        assert record.deadline_s == pytest.approx(
            record.arrival_s + 2.0 * record.ideal_demand_seconds
        )

    def test_absolute_deadline_wins_over_slo_factor(self, job_config):
        record = self.uncontended(
            job_config, deadline_s=123456.0, slo_factor=2.0
        )
        assert record.deadline_s == 123456.0

    def test_impossible_deadline_counts_as_miss(self, job_config):
        spec = FleetSpec(
            cluster=make_cluster(96),
            jobs=[
                FleetJobSpec(
                    name="doomed", config=job_config, scenario=CALM,
                    deadline_s=1.0,
                )
            ],
            policy="fifo",
        )
        result = run_fleet(spec)
        assert result.records[0].deadline_met is False
        assert result.deadline_misses == 1
        assert result.slo_attainment == 0.0
        metrics = result.metrics()
        assert metrics["slo_attainment"] == 0.0
        assert metrics["deadline_misses"] == 1.0
        assert metrics["slo_jobs"] == 1.0

    def test_row_carries_class_and_deadline(self, job_config):
        record = self.uncontended(
            job_config, slo_factor=3.0, job_class="prod"
        )
        row = record.row()
        assert row["job_class"] == "prod"
        assert row["deadline_met"] is True
        assert row["deadline_s"] == record.deadline_s
