"""Fleet results cross process and file boundaries losslessly.

Callers may pickle specs and results to move them between processes,
and run tooling persists :class:`FleetResult` as JSON; both boundaries
must be lossless down to the per-iteration trajectories and the
realized event trace. Pinned here: pickle round-trips of job specs,
scenario results and capacity events, and
``to_dict``/``from_dict``/``to_json``/``from_json`` round-trips of the
record types.
"""

import json
import pickle
from dataclasses import dataclass

import pytest

from repro.fleet import FleetEngine, FleetJobSpec, FleetSpec
from repro.fleet.engine import FleetJobRecord, FleetResult
from repro.fleet.job import JobSimulator
from repro.scenarios import ScenarioSpec
from repro.scenarios.result import ScenarioResult

from tests.fleet.conftest import FAST_RECOVERY
from tests.fleet.test_batched_equivalence import fleet_snapshot
from tests.fleet.test_fleet_equivalence import snapshot


@pytest.fixture(scope="module")
def fleet_result(job_config):
    """One eventful fleet outcome (failures, resizes, SLO deadlines)."""
    scenario = ScenarioSpec(
        num_iterations=30,
        checkpoint_interval=10,
        mtbf_gpu_hours=30.0,
        straggler_rate=0.05,
        elastic=True,
        repair_seconds=300.0,
        seed=9,
        **FAST_RECOVERY,
    )
    spec = FleetSpec.homogeneous(
        job_config,
        cluster_gpus=96,
        num_jobs=2,
        arrival_spacing_s=100.0,
        policy="fair-share",
        scenario=scenario,
    )
    return FleetEngine(spec).run()


class TestScenarioResult:
    def test_dict_round_trip(self, fleet_result):
        result = fleet_result.records[0].result
        clone = ScenarioResult.from_dict(result.to_dict())
        assert snapshot(clone) == snapshot(result)

    def test_pickle_round_trip(self, fleet_result):
        result = fleet_result.records[0].result
        clone = pickle.loads(pickle.dumps(result))
        assert snapshot(clone) == snapshot(result)

    def test_dict_is_json_safe(self, fleet_result):
        result = fleet_result.records[0].result
        text = json.dumps(result.to_dict())
        assert snapshot(
            ScenarioResult.from_dict(json.loads(text))
        ) == snapshot(result)


class TestFleetRecords:
    def test_record_dict_round_trip(self, fleet_result):
        for record in fleet_result.records:
            clone = FleetJobRecord.from_dict(record.to_dict())
            assert clone.row() == record.row()
            assert clone.completion_s == record.completion_s
            assert clone.ideal_demand_seconds == (
                record.ideal_demand_seconds
            )
            assert snapshot(clone.result) == snapshot(record.result)

    def test_result_pickle_round_trip(self, fleet_result):
        clone = pickle.loads(pickle.dumps(fleet_result))
        assert fleet_snapshot(clone) == fleet_snapshot(fleet_result)

    def test_result_json_round_trip(self, fleet_result):
        clone = FleetResult.from_json(fleet_result.to_json())
        assert fleet_snapshot(clone) == fleet_snapshot(fleet_result)
        # Deadlines (SLO state) survive too — `row` covers them but
        # pin it explicitly, it's what reports key off.
        assert [r.deadline_s for r in clone.records] == [
            r.deadline_s for r in fleet_result.records
        ]

    def test_result_json_file_round_trip(self, fleet_result, tmp_path):
        path = tmp_path / "fleet.json"
        fleet_result.to_json(str(path))
        clone = FleetResult.from_json(str(path))
        assert fleet_snapshot(clone) == fleet_snapshot(fleet_result)

    def test_json_is_stable(self, fleet_result):
        text = fleet_result.to_json()
        assert FleetResult.from_json(text).to_json() == text


@dataclass
class TaggedResult(ScenarioResult):
    tag: str = ""


@dataclass
class TaggedRecord(FleetJobRecord):
    tag: str = ""


class TestFieldsAreTheSchema:
    """``to_dict`` writes every dataclass field in declaration order, so
    a field a subclass adds is serialized, last, with no more code."""

    def test_scenario_result_writes_an_added_field(self, fleet_result):
        result = fleet_result.records[0].result
        payload = TaggedResult(**vars(result), tag="added").to_dict()
        assert list(payload)[-1] == "tag"
        assert payload.pop("tag") == "added"
        assert json.dumps(payload) == json.dumps(result.to_dict())

    def test_fleet_job_record_writes_an_added_field(self, fleet_result):
        record = fleet_result.records[0]
        payload = TaggedRecord(**vars(record), tag="added").to_dict()
        assert list(payload)[-1] == "tag"
        assert payload.pop("tag") == "added"
        assert json.dumps(payload) == json.dumps(record.to_dict())


class TestPicklePayloads:
    """Job specs and capacity-event logs survive pickling."""

    def test_job_spec_round_trip(self, job_config):
        scenario = ScenarioSpec(
            num_iterations=10, checkpoint_interval=5, **FAST_RECOVERY
        )
        spec = FleetJobSpec(
            name="t", config=job_config, scenario=scenario,
            priority=2, arrival_s=10.0,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.name == spec.name
        assert clone.demand_gpus == spec.demand_gpus
        assert clone.scenario.canonical() == spec.scenario.canonical()
        assert clone.config.cluster.num_gpus == (
            spec.config.cluster.num_gpus
        )

    def test_capacity_events_round_trip(self, job_config):
        """The capacity-event stream is plain tuples end to end."""
        scenario = ScenarioSpec(
            num_iterations=40,
            checkpoint_interval=5,
            mtbf_gpu_hours=1.0,
            elastic=True,
            repair_seconds=120.0,
            seed=2,
            **FAST_RECOVERY,
        )
        sim = JobSimulator(job_config, scenario)
        sim.start(48)
        events = []
        while not sim.done:
            sim.step()
            events.extend(sim.drain_fleet_events())
        assert events, "scenario produced no capacity events"
        assert pickle.loads(pickle.dumps(events)) == events
