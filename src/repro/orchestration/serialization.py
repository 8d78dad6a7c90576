"""Orchestration plan serialization (section 6).

"The manager records the optimal resource allocation and parallelism
strategy to a configuration file, which the Kubernetes controller uses
to launch the training task." This module round-trips
:class:`ModelOrchestrationPlan` through a plain-JSON configuration
format so plans can be decided once and deployed by an external
launcher.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Dict, Union

from repro.cluster.cluster import make_cluster
from repro.models.mllm import MLLM_PRESETS, MODULE_NAMES
from repro.parallelism.orchestration_plan import ModelOrchestrationPlan
from repro.parallelism.plan import ParallelismPlan

FORMAT_VERSION = 1


def parallelism_plan_to_dict(plan: ParallelismPlan) -> Dict[str, int]:
    return asdict(plan)


def parallelism_plan_from_dict(data: Dict[str, int]) -> ParallelismPlan:
    unknown = set(data) - {f.name for f in fields(ParallelismPlan)}
    if unknown:
        raise ValueError(f"unknown parallelism fields: {sorted(unknown)}")
    return ParallelismPlan(**data)


def plan_to_dict(plan: ModelOrchestrationPlan) -> Dict:
    """Serialize a full orchestration plan.

    The model is referenced by preset name (the launcher re-resolves the
    architecture); custom MLLM compositions are out of scope for the
    launch-config format, as in the production system where the model
    definition lives with the training code.
    """
    if plan.mllm.name not in MLLM_PRESETS:
        raise ValueError(
            f"only preset models can be serialized; got {plan.mllm.name!r}"
        )
    return {
        "version": FORMAT_VERSION,
        "label": plan.label,
        "monolithic": plan.monolithic,
        "model": plan.mllm.name,
        "cluster_gpus": plan.cluster.num_gpus,
        "units": {
            name: parallelism_plan_to_dict(unit_plan)
            for name, unit_plan in plan.plans.items()
        },
    }


def _typed(name: str, value: Any, kind: type, expected: str) -> Any:
    """``value`` when it is a ``kind`` (a bool is no ``int``), else a
    ``ValueError`` naming the field."""
    if not isinstance(value, kind) or (
        kind is int and isinstance(value, bool)
    ):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value


def plan_from_dict(data: Dict) -> ModelOrchestrationPlan:
    """Reconstruct a plan from its launch configuration.

    A mistyped field raises a ``ValueError`` naming it: a degree or
    ``cluster_gpus`` that is a bool or not an ``int``, a ``monolithic``
    that is not a bool, a ``model`` or ``label`` that is not a string,
    ``units`` or one unit that is not an object. An unknown model or a
    missing unit raises a ``KeyError``.
    """
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported plan format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    model_name = _typed("model", data["model"], str, "a string")
    if model_name not in MLLM_PRESETS:
        raise KeyError(f"unknown model preset {model_name!r}")
    units = _typed("units", data["units"], dict, "an object")
    for required in MODULE_NAMES:
        if required not in units:
            raise KeyError(f"launch config missing unit {required!r}")
        _typed(required, units[required], dict, "an object")
    return ModelOrchestrationPlan(
        mllm=MLLM_PRESETS[model_name],
        cluster=make_cluster(
            _typed("cluster_gpus", data["cluster_gpus"], int, "an integer")
        ),
        encoder_plan=parallelism_plan_from_dict(units["encoder"]),
        llm_plan=parallelism_plan_from_dict(units["llm"]),
        generator_plan=parallelism_plan_from_dict(units["generator"]),
        monolithic=_typed(
            "monolithic", data.get("monolithic", False), bool, "a boolean"
        ),
        label=_typed("label", data.get("label", "disttrain"), str, "a string"),
    )


def save_plan(plan: ModelOrchestrationPlan, path: Union[str, Path]) -> None:
    """Write the launch configuration file."""
    Path(path).write_text(json.dumps(plan_to_dict(plan), indent=2) + "\n")


def load_plan(path: Union[str, Path]) -> ModelOrchestrationPlan:
    """Read a launch configuration file."""
    return plan_from_dict(json.loads(Path(path).read_text()))
