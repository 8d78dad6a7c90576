"""ScenarioSpec validation, sweep-parameter mapping, canonical form."""

import math

import pytest

from repro.scenarios.events import EventTrace, StragglerEvent
from repro.scenarios.spec import PARAM_FIELDS, ScenarioSpec


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"num_iterations": 0},
        {"checkpoint_interval": 0},
        {"mtbf_gpu_hours": 0.0},
        {"straggler_rate": 1.5},
        {"straggler_rate": -0.1},
        {"straggler_slowdown": 0.5},
        {"straggler_iterations": 0},
        {"sample_iterations": 0},
        {"gpus_lost_per_failure": 0},
        {"repair_seconds": -1.0},
        {"replan_seconds": -1.0},
        {"restart_seconds": -1.0},
        {"checkpoint_load_seconds": -1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("num_iterations", 20.5),
        ("num_iterations", True),
        ("checkpoint_interval", 2.5),
        ("gpus_lost_per_failure", 8.0),
        ("straggler_iterations", True),
        ("sample_iterations", 1.5),
        ("seed", 1.0),
        ("seed", False),
        ("elastic", 1),
        ("elastic", "false"),
        ("mtbf_gpu_hours", True),
        ("restart_seconds", True),
        ("checkpoint_load_seconds", False),
        ("straggler_slowdown", True),
        ("straggler_rate", "0.1"),
        ("replan_seconds", None),
        ("events", [1]),
        ("pack", 3),
    ])
    def test_rejects_mistyped_count_or_flag(self, field, value):
        # Unchecked, each fails deep inside the run (in np.tile,
        # np.zeros or range), or not at all: a bool time or rate builds
        # as 1 (or 0), a string or None fails a bare comparison with a
        # TypeError, and a list or an int stands where an EventTrace or
        # a pack name belongs.
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ScenarioSpec(**{field: value})

    def test_rejects_negative_seed(self):
        # numpy's generators take no negative seed: fail at the spec.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ScenarioSpec(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("straggler_slowdown", math.nan),
        ("straggler_slowdown", math.inf),
        ("mtbf_gpu_hours", math.nan),
        ("repair_seconds", math.nan),
        ("replan_seconds", math.nan),
        ("restart_seconds", math.nan),
        ("checkpoint_load_seconds", math.nan),
    ])
    def test_rejects_non_finite(self, field, value):
        # NaN slips past a plain ``< 1.0`` / ``< 0`` guard; a NaN
        # slowdown would silently price as no slowdown at all.
        with pytest.raises(ValueError):
            ScenarioSpec(**{field: value})

    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.num_iterations == 1000
        assert spec.mtbf_gpu_hours is None

    def test_failure_model_carries_downtime(self):
        spec = ScenarioSpec(
            mtbf_gpu_hours=100.0,
            restart_seconds=10.0,
            checkpoint_load_seconds=5.0,
        )
        assert spec.downtime_seconds == 15.0
        # Any of the job's GPUs failing kills the iteration.
        assert spec.cluster_mtbf_seconds(1) == 100.0 * 3600.0
        assert spec.cluster_mtbf_seconds(8) == 100.0 * 3600.0 / 8


class TestSweepParams:
    def test_from_params_maps_short_names(self):
        spec = ScenarioSpec.from_params({
            "scenario_iterations": 300,
            "mtbf": 42.0,
            "elastic": True,
            "checkpoint_interval": 25,
            "failure_seed": 9,
        })
        assert spec.num_iterations == 300
        assert spec.mtbf_gpu_hours == 42.0
        assert spec.elastic is True
        assert spec.checkpoint_interval == 25
        assert spec.seed == 9

    def test_from_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario parameter"):
            ScenarioSpec.from_params({"mtbf_hours": 10.0})

    def test_from_params_parses_inline_events(self):
        spec = ScenarioSpec.from_params({
            "events": [
                {"kind": "straggler", "iteration": 4,
                 "duration_iterations": 2, "rank": 0, "slowdown": 2.0},
            ],
        })
        assert isinstance(spec.events, EventTrace)
        assert spec.events.stragglers[0].slowdown == 2.0

    def test_param_fields_cover_every_sweepable_knob(self):
        # Every mapped field must exist on the spec.
        spec = ScenarioSpec()
        for field_name in PARAM_FIELDS.values():
            assert hasattr(spec, field_name)


class TestCanonical:
    def test_canonical_is_json_safe_and_complete(self):
        import json

        spec = ScenarioSpec(
            mtbf_gpu_hours=10.0,
            events=EventTrace([
                StragglerEvent(
                    iteration=1, duration_iterations=2, rank=0, slowdown=1.5
                )
            ]),
        )
        payload = spec.canonical()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["events"][0]["kind"] == "straggler"

    def test_canonical_distinguishes_every_field(self):
        base = ScenarioSpec().canonical()
        for change, value in [
            ("num_iterations", 7), ("checkpoint_interval", 7),
            ("mtbf_gpu_hours", 7.0), ("restart_seconds", 7.0),
            ("checkpoint_load_seconds", 7.0), ("gpus_lost_per_failure", 7),
            ("straggler_rate", 0.7), ("straggler_slowdown", 7.0),
            ("straggler_iterations", 7), ("elastic", True),
            ("repair_seconds", 7.0), ("replan_seconds", 7.0),
            ("sample_iterations", 7), ("seed", 7),
            ("pack", "blast-radius"),
        ]:
            changed = ScenarioSpec(**{change: value}).canonical()
            assert changed != base, f"{change} not in canonical form"
