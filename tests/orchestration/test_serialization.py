"""Launch-configuration serialization tests (section 6)."""

import json

import pytest

from repro.cluster.cluster import make_cluster
from repro.models.mllm import MLLM_9B
from repro.orchestration.serialization import (
    load_plan,
    parallelism_plan_from_dict,
    parallelism_plan_to_dict,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from repro.parallelism.orchestration_plan import ModelOrchestrationPlan
from repro.parallelism.plan import ParallelismPlan


def sample_plan():
    return ModelOrchestrationPlan(
        mllm=MLLM_9B,
        cluster=make_cluster(48),
        encoder_plan=ParallelismPlan(tp=1, pp=1, dp=6),
        llm_plan=ParallelismPlan(tp=8, pp=2, dp=2, vpp=2),
        generator_plan=ParallelismPlan(tp=1, pp=1, dp=4),
        label="disttrain",
    )


class TestParallelismPlanRoundTrip:
    def test_round_trip(self):
        plan = ParallelismPlan(tp=4, pp=2, dp=3, vpp=2, ep=1)
        assert parallelism_plan_from_dict(
            parallelism_plan_to_dict(plan)
        ) == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            parallelism_plan_from_dict({"tp": 1, "zp": 4})


class TestPlanRoundTrip:
    def test_dict_round_trip(self):
        original = sample_plan()
        restored = plan_from_dict(plan_to_dict(original))
        assert restored.plans == original.plans
        assert restored.mllm.name == original.mllm.name
        assert restored.cluster.num_gpus == original.cluster.num_gpus
        assert restored.label == original.label

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "launch.json"
        save_plan(sample_plan(), path)
        restored = load_plan(path)
        assert restored.plans == sample_plan().plans
        # The file is plain JSON a controller can parse.
        data = json.loads(path.read_text())
        assert data["model"] == "mllm-9b"
        assert data["units"]["llm"]["tp"] == 8

    def test_version_checked(self):
        data = plan_to_dict(sample_plan())
        data["version"] = 99
        with pytest.raises(ValueError):
            plan_from_dict(data)

    def test_unknown_model_rejected(self):
        data = plan_to_dict(sample_plan())
        data["model"] = "mllm-1t"
        with pytest.raises(KeyError):
            plan_from_dict(data)

    def test_missing_unit_rejected(self):
        data = plan_to_dict(sample_plan())
        del data["units"]["generator"]
        with pytest.raises(KeyError):
            plan_from_dict(data)

    @pytest.mark.parametrize("path, value", [
        pytest.param(("units", "llm", "tp"), True, id="tp-bool"),
        pytest.param(("units", "encoder", "dp"), True, id="dp-bool"),
        pytest.param(("cluster_gpus",), 48.9, id="cluster-gpus-float"),
        pytest.param(("cluster_gpus",), True, id="cluster-gpus-bool"),
        pytest.param(("cluster_gpus",), "48", id="cluster-gpus-str"),
        pytest.param(("monolithic",), "false", id="monolithic-str"),
        pytest.param(("monolithic",), 0, id="monolithic-int"),
        pytest.param(("label",), 7, id="label-int"),
        pytest.param(("label",), None, id="label-null"),
        pytest.param(("model",), ["mllm-9b"], id="model-list"),
        pytest.param(("model",), {"name": "mllm-9b"}, id="model-dict"),
        pytest.param(("units",), [], id="units-list"),
        pytest.param(("units",), None, id="units-null"),
        pytest.param(("units", "encoder"), None, id="unit-null"),
        pytest.param(("units", "llm"), [1], id="unit-list"),
    ])
    def test_mistyped_field_rejected(self, path, value):
        # Coerced, each would load as something else: a one-GPU
        # degree, 48 GPUs, a truthy string as monolithic, "7" or "None"
        # as the label. Unchecked, a model, units or unit of the wrong
        # shape fails with a bare TypeError or a misleading message.
        data = plan_to_dict(sample_plan())
        *parents, name = path
        record = data
        for key in parents:
            record = record[key]
        record[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be"):
            plan_from_dict(data)

    def test_custom_model_rejected(self):
        import dataclasses

        custom = dataclasses.replace(MLLM_9B, name="custom-mllm")
        plan = ModelOrchestrationPlan(
            mllm=custom,
            cluster=make_cluster(48),
            encoder_plan=ParallelismPlan(dp=1),
            llm_plan=ParallelismPlan(tp=8, dp=2),
            generator_plan=ParallelismPlan(dp=1),
        )
        with pytest.raises(ValueError):
            plan_to_dict(plan)


class TestEndToEnd:
    def test_planned_then_loaded_plan_simulates(self, tmp_path):
        """Manager decides -> config file -> launcher simulates."""
        from repro.core.api import plan as run_planner
        from repro.core.config import DistTrainConfig
        from repro.data.synthetic import SyntheticMultimodalDataset
        from repro.runtime.iteration import TrainingIterationSimulator

        config = DistTrainConfig.preset("mllm-9b", 48, 32)
        result = run_planner(config)
        path = tmp_path / "plan.json"
        save_plan(result.plan, path)

        loaded = load_plan(path)
        simulator = TrainingIterationSimulator(loaded)
        batch = SyntheticMultimodalDataset(seed=0).take(32)
        iteration = simulator.simulate(batch)
        assert iteration.mfu > 0.1
