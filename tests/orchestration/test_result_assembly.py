"""Every orchestration result is a function of the module plans chosen.

DistTrain's adaptive search, Megatron-LM and DistMM* differ only in how
they choose plans; each ends in
:func:`~repro.orchestration.adaptive.orchestration_result`. So for every
system the candidate is the one the plans realize, the breakdown is
Eqs. 1-2 at that candidate and the plans' GPU counts, and the refined
makespan is the plans' kernel sweep, float for float. The golden plans
pin the values; these tests pin the relations between them.
"""

from dataclasses import fields

import pytest

from repro.core.api import ORCHESTRATORS, _problem
from repro.core.config import KNOWN_SYSTEMS, DistTrainConfig
from repro.models.mllm import MODULE_NAMES
from repro.orchestration.adaptive import simulated_pipeline_seconds_batch
from repro.orchestration.formulation import CandidateConfig, objective
from repro.timing.collectives import CollectiveModel

#: (model, GPUs, freeze preset, system): every system plans 9B on 48
#: GPUs; Megatron-LM is infeasible for 15B on 16.
TASKS = [
    pytest.param("mllm-9b", 48, "full", system, id=f"mllm-9b-48-{system}")
    for system in KNOWN_SYSTEMS
] + [
    pytest.param(
        "mllm-15b", 16, "llm-only", system, id=f"mllm-15b-16-{system}"
    )
    for system in ("disttrain", "distmm*")
]


def test_every_known_system_has_an_orchestrator():
    assert set(ORCHESTRATORS) == set(KNOWN_SYSTEMS)


def _hexed(breakdown):
    """Each field of an ``ObjectiveBreakdown``, floats as hex."""
    values = (getattr(breakdown, f.name) for f in fields(breakdown))
    return [v.hex() if isinstance(v, float) else v for v in values]


@pytest.mark.parametrize("model, gpus, frozen, system", TASKS)
def test_result_is_a_function_of_the_chosen_plans(model, gpus, frozen,
                                                  system):
    config = DistTrainConfig.preset(
        model, gpus, 32, frozen=frozen, system=system
    )
    problem = _problem(config)
    result = ORCHESTRATORS[system](problem).plan()
    plans = result.plan.plans
    assert result.plan.label == system
    assert result.plan.monolithic == (system == "megatron-lm")

    assert result.candidate == CandidateConfig.of(plans)

    expected = objective(
        problem, result.candidate,
        *(float(plans[name].num_gpus) for name in MODULE_NAMES),
    )
    assert _hexed(result.breakdown) == _hexed(expected)

    node = problem.cluster.node
    collectives = CollectiveModel(
        intra_link=node.intra_link, inter_link=node.inter_link
    )
    simulated = simulated_pipeline_seconds_batch(
        problem, collectives, [plans]
    )[0]
    assert result.simulated_pipeline_seconds.hex() == simulated.hex()
