"""FleetSpec validation, the homogeneous builder, and the campaign
integration (fleet trials, cache keys, worker execution)."""

from dataclasses import dataclass

import pytest

from repro.cluster.cluster import make_cluster
from repro.experiments.runner import execute_trial
from repro.experiments.spec import FLEET_PARAMS, TrialSpec
from repro.fleet import FleetJobSpec, FleetSpec
from repro.fleet.policies import make_policy
from repro.scenarios import ScenarioSpec
from repro.scenarios.events import EventTrace, ResizeEvent


class TestFleetJobSpec:
    def test_demand_is_the_config_cluster(self, job_config):
        job = FleetJobSpec(
            name="a", config=job_config, scenario=ScenarioSpec()
        )
        assert job.demand_gpus == 48
        assert job.floor_gpus == 8  # one node by default

    def test_rejects_scripted_resizes(self, job_config):
        with pytest.raises(ValueError, match="scheduling policy"):
            FleetJobSpec(
                name="a",
                config=job_config,
                scenario=ScenarioSpec(
                    events=EventTrace(
                        [ResizeEvent(iteration=5, num_gpus=40)]
                    )
                ),
            )

    def test_rejects_fractional_node_floor(self, job_config):
        with pytest.raises(ValueError, match="whole nodes"):
            FleetJobSpec(
                name="a", config=job_config, scenario=ScenarioSpec(),
                min_gpus=12,
            )

    def test_rejects_deadline_before_arrival(self, job_config):
        with pytest.raises(ValueError, match="after the job's arrival"):
            FleetJobSpec(
                name="a", config=job_config, scenario=ScenarioSpec(),
                arrival_s=100.0, deadline_s=100.0,
            )

    def test_rejects_non_positive_slo_factor(self, job_config):
        with pytest.raises(ValueError, match="slo_factor"):
            FleetJobSpec(
                name="a", config=job_config, scenario=ScenarioSpec(),
                slo_factor=0.0,
            )

    @pytest.mark.parametrize("field, value, match", [
        ("arrival_s", float("nan"), "arrival_s"),
        ("arrival_s", float("inf"), "arrival_s"),
        ("arrival_s", -1.0, "arrival_s"),
        ("deadline_s", float("nan"), "deadline_s"),
        ("deadline_s", float("inf"), "deadline_s"),
        ("slo_factor", float("nan"), "slo_factor"),
        ("slo_factor", float("inf"), "slo_factor"),
    ])
    def test_rejects_non_finite_times(self, job_config, field, value, match):
        """An arrival the engine can never reach (NaN compares false
        with every clock) would make it re-arrive the job forever."""
        with pytest.raises(ValueError, match=match):
            FleetJobSpec(
                name="a", config=job_config, scenario=ScenarioSpec(),
                **{field: value},
            )

    def test_homogeneous_rejects_infinite_spacing(self, job_config):
        # 0 * inf is NaN: the first job's arrival would be NaN.
        with pytest.raises(ValueError, match="arrival_s"):
            FleetSpec.homogeneous(
                job_config, cluster_gpus=96, num_jobs=2,
                arrival_spacing_s=float("inf"),
            )


class TestFleetSpec:
    def test_rejects_duplicate_names(self, job_config):
        jobs = [
            FleetJobSpec(name="a", config=job_config,
                         scenario=ScenarioSpec())
        ] * 2
        with pytest.raises(ValueError, match="duplicate"):
            FleetSpec(cluster=make_cluster(96), jobs=jobs)

    def test_rejects_unknown_policy(self, job_config):
        jobs = [
            FleetJobSpec(name="a", config=job_config,
                         scenario=ScenarioSpec())
        ]
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            FleetSpec(cluster=make_cluster(96), jobs=jobs, policy="lifo")
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("lifo")

    def test_homogeneous_builder(self, job_config):
        spec = FleetSpec.homogeneous(
            job_config,
            cluster_gpus=96,
            num_jobs=3,
            job_gpus=24,
            arrival_spacing_s=60.0,
            priorities=(2, 1),
            policy="priority",
            scenario=ScenarioSpec(num_iterations=100, seed=7),
        )
        assert spec.cluster.num_gpus == 96
        assert [j.name for j in spec.jobs] == ["job00", "job01", "job02"]
        assert all(j.demand_gpus == 24 for j in spec.jobs)
        assert [j.arrival_s for j in spec.jobs] == [0.0, 60.0, 120.0]
        assert [j.priority for j in spec.jobs] == [2, 1, 2]
        # Identical tenants must not fail in lockstep: derived seeds.
        assert [j.scenario.seed for j in spec.jobs] == [7, 8, 9]

    def test_homogeneous_zero_job_gpus_is_not_the_default(self, job_config):
        # 0 is a demand, not "unset": it must fail, not become the
        # whole cluster.
        with pytest.raises(ValueError, match="num_gpus must be positive"):
            FleetSpec.homogeneous(
                job_config, cluster_gpus=96, num_jobs=2, job_gpus=0
            )

    def test_canonical_is_json_safe(self, job_config):
        import json

        spec = FleetSpec.homogeneous(
            job_config, cluster_gpus=96, num_jobs=2
        )
        text = json.dumps(spec.canonical(), sort_keys=True)
        assert "job00" in text and "fair-share" in text

    def test_canonical_covers_pack_and_slo_fields(self, job_config):
        base = FleetSpec.homogeneous(
            job_config, cluster_gpus=96, num_jobs=2
        )
        assert base.canonical()["pack"] is None
        packed = base.with_(pack="blast-radius")
        assert packed.canonical() != base.canonical()
        sloed = base.with_(
            jobs=(
                base.jobs[0],
                FleetJobSpec(
                    name="job01",
                    config=job_config,
                    scenario=base.jobs[1].scenario,
                    slo_factor=2.0,
                    job_class="prod",
                ),
            )
        )
        assert sloed.canonical() != base.canonical()

    def test_canonical_covers_a_field_a_job_subclass_adds(self, job_config):
        """Each job's canonical form is every ``FleetJobSpec`` field in
        declaration order, so a field a subclass adds reaches the cache
        key with no more code."""

        @dataclass(frozen=True)
        class TaggedJob(FleetJobSpec):
            tag: str = ""

        base = FleetSpec.homogeneous(job_config, cluster_gpus=96, num_jobs=2)
        tagged = base.with_(
            jobs=tuple(
                TaggedJob(**vars(job), tag="added") for job in base.jobs
            )
        )
        for job, base_job in zip(
            tagged.canonical()["jobs"], base.canonical()["jobs"]
        ):
            assert list(job)[-1] == "tag"
            assert job.pop("tag") == "added"
            assert list(job.items()) == list(base_job.items())


class TestCampaignIntegration:
    PARAMS = {
        "model": "mllm-9b",
        "gpus": 96,
        "gbs": 16,
        "fleet_policy": "fair-share",
        "fleet_jobs": 3,
        "fleet_job_gpus": 48,
        "fleet_arrival_spacing": 30.0,
        "scenario_iterations": 20,
    }

    def test_fleet_params_are_known(self):
        trial = TrialSpec(self.PARAMS)
        assert set(trial.fleet_params()) == {
            "fleet_policy", "fleet_jobs", "fleet_job_gpus",
            "fleet_arrival_spacing",
        }
        assert set(FLEET_PARAMS) >= set(trial.fleet_params())

    def test_to_fleet_materializes_spec(self):
        fleet = TrialSpec(self.PARAMS).to_fleet()
        assert fleet is not None
        assert fleet.policy == "fair-share"
        assert len(fleet.jobs) == 3
        assert fleet.cluster.num_gpus == 96
        assert all(j.demand_gpus == 48 for j in fleet.jobs)
        assert all(
            j.scenario.num_iterations == 20 for j in fleet.jobs
        )

    def test_plain_trial_has_no_fleet(self):
        trial = TrialSpec({"model": "mllm-9b", "gpus": 48, "gbs": 16})
        assert trial.to_fleet() is None

    def test_cache_key_covers_fleet_fields(self):
        base = TrialSpec(self.PARAMS)
        for key, value in (
            ("fleet_policy", "fifo"),
            ("fleet_jobs", 4),
            ("fleet_arrival_spacing", 31.0),
        ):
            changed = TrialSpec({**self.PARAMS, key: value})
            assert changed.cache_key != base.cache_key
        # ...and is stable for an identical assignment.
        assert TrialSpec(dict(self.PARAMS)).cache_key == base.cache_key

    def test_label_names_the_fleet(self):
        label = TrialSpec(self.PARAMS).label()
        assert "fleet(3x,fair-share)" in label

    def test_execute_trial_runs_the_fleet(self):
        index, record = execute_trial((0, dict(self.PARAMS), "key"))
        assert index == 0
        assert record["status"] == "ok", record["error"]
        for key in ("fleet_goodput", "utilization", "mean_jct_seconds"):
            assert key in record["metrics"]


class TestPackTrials:
    PARAMS = {
        "model": "mllm-9b",
        "gpus": 96,
        "gbs": 16,
        "fleet_pack": "steady",
        "fleet_jobs": 2,
        "scenario_iterations": 20,
    }

    def test_to_fleet_expands_the_pack(self):
        fleet = TrialSpec(self.PARAMS).to_fleet()
        assert fleet.pack == "steady"
        assert len(fleet.jobs) == 2
        assert [j.arrival_s for j in fleet.jobs] == [0.0, 120.0]
        assert all(j.scenario.pack == "steady" for j in fleet.jobs)

    def test_pack_is_in_cache_key_and_label(self):
        base = TrialSpec(self.PARAMS)
        changed = TrialSpec({**self.PARAMS, "fleet_pack": "blast-radius"})
        assert changed.cache_key != base.cache_key
        assert "pack=steady" in base.label()

    def test_policy_override_beats_the_pack_default(self):
        trial = TrialSpec({**self.PARAMS, "fleet_policy": "fifo"})
        assert trial.to_fleet().policy == "fifo"

    def test_execute_trial_reports_slo_metrics(self):
        params = {**self.PARAMS, "fleet_pack": "blast-radius"}
        index, record = execute_trial((0, params, "key"))
        assert record["status"] == "ok", record.get("error")
        metrics = record["metrics"]
        assert 0.0 <= metrics["slo_attainment"] <= 1.0
        assert metrics["slo_jobs"] == 2.0
