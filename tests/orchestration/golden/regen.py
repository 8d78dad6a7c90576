"""Regenerate (or check) the golden orchestration-plan fixture.

Run after an *intentional* change to what an orchestrator plans::

    PYTHONPATH=src python -m tests.orchestration.golden.regen

or verify that the fixture on disk matches what the current code
produces, byte for byte (the CI replay-smoke step)::

    PYTHONPATH=src python -m tests.orchestration.golden.regen --check

``plans.json`` runs every orchestrator (DistTrain's adaptive search,
Megatron-LM and DistMM*) over one grid of tasks:

* models mllm-9b, mllm-15b, mllm-72b and mllm-moe-40b (the MoE backbone
  at expert-parallel degree 8);
* 16, 48 and 256 GPUs at GBS 128, and 1,296 GPUs at GBS 1,920;
* every freeze preset, VPP 1 and 2, microbatch sizes 1 and 2.

Each row pins the three module plans, the candidate, the Eqs. 1-2
breakdown and the kernel-refined pipeline makespan as C99 hex floats,
and the candidate and convex-solve counts. A case whose orchestrator
raises pins the exception type and message instead. One row per line,
so a unified diff names exactly the cases that moved.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.core.api import ORCHESTRATORS, _problem
from repro.core.config import DistTrainConfig
from repro.orchestration.adaptive import OrchestrationResult
from repro.orchestration.problem import OrchestrationProblem
from repro.runtime.frozen import FROZEN_PRESETS

from tests.scenarios.golden.regen import fixture_text, sync_fixtures

GOLDEN_DIR = Path(__file__).resolve().parent
FIXTURE = GOLDEN_DIR / "plans.json"

#: (model preset, LLM expert-parallel degree).
MODELS = (
    ("mllm-9b", 1),
    ("mllm-15b", 1),
    ("mllm-72b", 1),
    ("mllm-moe-40b", 8),
)
#: (GPUs, global batch size).
CLUSTERS = ((16, 128), (48, 128), (256, 128), (1296, 1920))
VPPS = (1, 2)
MICROBATCH_SIZES = (1, 2)


def cases() -> List[Tuple[str, DistTrainConfig, int]]:
    """(case id, config, LLM EP degree) for every grid point."""
    out = []
    for model, ep in MODELS:
        for gpus, gbs in CLUSTERS:
            for frozen in FROZEN_PRESETS:
                for vpp in VPPS:
                    for mb in MICROBATCH_SIZES:
                        for system in ORCHESTRATORS:
                            config = DistTrainConfig.preset(
                                model, gpus, gbs, frozen=frozen,
                                system=system, vpp=vpp,
                                microbatch_size=mb,
                            )
                            case_id = (
                                f"{model}/{gpus}/{gbs}/{frozen}/vpp{vpp}/"
                                f"mb{mb}/{system}"
                            )
                            out.append((case_id, config, ep))
    return out


def case_problem(config: DistTrainConfig, ep: int) -> OrchestrationProblem:
    problem = _problem(config)
    return replace(problem, llm_ep=ep) if ep != 1 else problem


def _result_row(result: OrchestrationResult) -> Dict[str, Any]:
    plan = result.plan
    candidate = result.candidate
    breakdown = result.breakdown
    return {
        "plans": {
            name: [p.tp, p.pp, p.dp, p.vpp, p.sp, p.ep, p.microbatch_size]
            for name, p in (
                ("encoder", plan.encoder_plan),
                ("llm", plan.llm_plan),
                ("generator", plan.generator_plan),
            )
        },
        "monolithic": plan.monolithic,
        "label": plan.label,
        "candidate": [
            candidate.tp_lm, candidate.dp_lm, candidate.tp_me,
            candidate.tp_mg, candidate.ep_lm,
        ],
        "breakdown": [
            breakdown.warmup.hex(),
            breakdown.steady.hex(),
            breakdown.stage_time_llm.hex(),
            breakdown.stage_time_encoder.hex(),
            breakdown.stage_time_generator.hex(),
            breakdown.num_microbatches,
        ],
        "simulated": result.simulated_pipeline_seconds.hex(),
        "candidates_evaluated": result.candidates_evaluated,
        "convex_solutions": result.convex_solutions,
    }


def case_row(case_id: str, config: DistTrainConfig, ep: int) -> Dict[str, Any]:
    """One fixture row: the plan, or the exception the orchestrator
    raised."""
    orchestrator = ORCHESTRATORS[config.system](case_problem(config, ep))
    try:
        row = _result_row(orchestrator.plan())
    except Exception as exc:  # pinned, not swallowed: the row records it
        row = {"error": type(exc).__name__, "message": str(exc)}
    return {"case": case_id, **row}


def rows() -> List[Dict[str, Any]]:
    return [case_row(*case) for case in cases()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    return sync_fixtures(
        [(FIXTURE, fixture_text(rows()))],
        "--check" in argv,
        "tests.orchestration.golden.regen",
    )


if __name__ == "__main__":
    raise SystemExit(main())
